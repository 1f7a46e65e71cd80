"""Batch command-line front end.

Subcommands: check-algebra, check-rmatrix, check-postlie, magnus,
factorize, flow, bell, hopf-suite.  Exit codes: 0 success, 1 a
mathematical check failed, 2 input error.  Randomized suites take --seed
and print it, so failures reproduce.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import enveloping as ev
from . import flows, liealg, magnus, products, rmatrix, scalars
from .errors import (
    CollapseFailure,
    InvalidInput,
    JacobiViolation,
    NotADirectSum,
    NotASubalgebra,
    PostLieError,
    PrimitivityFailure,
    RealizationMismatch,
    RealizationRequired,
    YangBaxterFailure,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2

_EXACT_ONLY = ("check-postlie", "magnus", "bell", "hopf-suite")
_FLOAT_ONLY = ("factorize", "flow")


class RunConfig:
    """Parsed invocation: mode, order, input sources, and the subcommand's
    own parameters (kept as attributes)."""

    def __init__(self, namespace):
        self.__dict__.update(vars(namespace))

    def default_mode(self):
        if self.command in _FLOAT_ONLY:
            return scalars.FLOAT
        return scalars.EXACT


def _resolved_mode(config):
    mode = config.mode or config.default_mode()
    if config.command in _EXACT_ONLY and mode != scalars.EXACT:
        raise InvalidInput("%s requires exact mode" % (config.command,))
    if config.command in _FLOAT_ONLY and mode != scalars.FLOAT:
        raise InvalidInput("%s requires float mode" % (config.command,))
    return mode


def _order(config, default):
    """--order, or the subcommand's default when the flag is absent."""
    if config.order is None:
        return default
    if config.order < 1:
        raise InvalidInput("--order must be at least 1 (got %d)" % config.order)
    return config.order


def _parse_numbers(text, mode, flag):
    """The comma-separated scalars of a coordinate flag.  Each must be a
    finite number: the rational parser rejects nan and inf, and a float
    conversion that would overflow raises."""
    out = []
    for i, part in enumerate(text.split(",")):
        try:
            out.append(scalars.coerce(part, mode))
        except (ValueError, ArithmeticError):
            raise InvalidInput(
                "%s entry %d is not a finite number: %r" % (flag, i + 1, part.strip())
            )
    return out


def _parse_coords(text, L):
    x = _parse_numbers(text, L.mode, "--x")
    if len(x) != L.dim:
        raise InvalidInput("expected %d coordinates, got %d" % (L.dim, len(x)))
    return tuple(x)


def _format_scalar(c):
    if isinstance(c, float):
        return "%.12g" % c
    return scalars.format_rational(c)


def _format_vector(L, v):
    parts = []
    for i, c in enumerate(v):
        if L.is_zero_scalar(c):
            continue
        parts.append((c, L.labels[i]))
    if not parts:
        return "0"
    out = []
    for k, (c, lab) in enumerate(parts):
        neg = (c < 0)
        mag = _format_scalar(-c if neg else c)
        body = lab if mag == "1" else "%s*%s" % (mag, lab)
        if k == 0:
            out.append("-" + body if neg else body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


def _load_algebra(config, mode):
    if config.builtin and config.algebra:
        raise InvalidInput("give either --builtin or --algebra, not both")
    if config.builtin:
        return liealg.builtin(config.builtin, mode=mode, tolerance=config.tolerance)
    if config.algebra:
        return liealg.load_algebra(config.algebra, mode=mode, tolerance=config.tolerance)
    raise InvalidInput("need --builtin or --algebra")


def _load_context(config, mode):
    """An r-matrix context from --builtin (registry name) or from
    --algebra + --rmatrix files."""
    if config.builtin and (config.algebra or config.rmatrix):
        raise InvalidInput("give either --builtin or --algebra with --rmatrix, not both")
    if config.builtin:
        return rmatrix.builtin_rmatrix(
            config.builtin, mode=mode, tolerance=config.tolerance
        )
    if config.algebra and config.rmatrix:
        L = liealg.load_algebra(config.algebra, mode=mode, tolerance=config.tolerance)
        return rmatrix.load_rmatrix(L, config.rmatrix)
    raise InvalidInput("need --builtin, or --algebra together with --rmatrix")


def _emit(config, report, human_lines):
    if config.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check_algebra(config):
    mode = _resolved_mode(config)
    try:
        L = _load_algebra(config, mode)
    except (JacobiViolation, RealizationMismatch) as exc:
        _emit(config, {"ok": False, "error": str(exc)}, ["FAIL: %s" % exc])
        return EXIT_CHECK_FAILED
    report = {
        "ok": True,
        "dim": L.dim,
        "labels": list(L.labels),
        "has_realization": L.realization is not None,
        "mode": L.mode,
    }
    _emit(
        config,
        report,
        [
            "ok: Jacobi identity and realization (if any) verified",
            "dim %d, labels %s" % (L.dim, ", ".join(L.labels)),
        ],
    )
    return EXIT_OK


def cmd_check_rmatrix(config):
    mode = _resolved_mode(config)
    try:
        ctx = _load_context(config, mode)
    except (NotADirectSum, NotASubalgebra) as exc:
        _emit(config, {"ok": False, "error": str(exc)}, ["FAIL: %s" % exc])
        return EXIT_CHECK_FAILED
    except YangBaxterFailure as exc:
        report = {
            "ok": False,
            "theta": str(exc.theta),
            "worst_pair": exc.worst_pair,
            "worst_defect_norm": str(exc.worst_defect_norm),
        }
        lines = [
            "FAIL: Yang-Baxter defect %s at basis pair %s"
            % (exc.worst_defect_norm, exc.worst_pair)
        ]
        _emit(config, report, lines)
        return EXIT_CHECK_FAILED
    L, theta = ctx.algebra, ctx.theta
    report = {"ok": True, "theta": str(theta)}
    lines = ["ok: (modified) Yang-Baxter equation holds (theta=%s)" % theta]
    analysis = rmatrix.subalgebra_analysis(ctx)
    report["subalgebra_analysis"] = analysis
    lines.append(
        "images: dim R+ = %d, dim R- = %d; subalgebras ok: %s; ideals ok: %s"
        % (
            analysis["dim_im_plus"],
            analysis["dim_im_minus"],
            analysis["subalgebras_ok"],
            analysis["ideals_ok"],
        )
    )
    if not L.is_zero_scalar(theta):
        pm = rmatrix.check_pm_identities(ctx)
        report["pm_identities_ok"] = pm["ok"]
        lines.append("R+/R- bracket and morphism identities: %s" % ("ok" if pm["ok"] else "FAIL"))
        if not pm["ok"]:
            _emit(config, report, lines)
            return EXIT_CHECK_FAILED
    _emit(config, report, lines)
    return EXIT_OK


def _product_for(config, mode):
    """The bilinear product under test: induced by an r-matrix context and
    --sign, or read from a --product tensor file."""
    if config.product:
        L = _load_algebra(config, mode)
        prod = products.load_product(L, config.product)
        return L, prod
    ctx = _load_context(config, mode)
    prod = products.from_rmatrix(ctx, config.sign)
    return ctx.algebra, prod


def cmd_check_postlie(config):
    mode = _resolved_mode(config)
    L, prod = _product_for(config, mode)
    handedness = config.handedness
    if handedness is None:
        handedness = products.LEFT if config.sign in ("+", "plus") else products.RIGHT
    report = products.check_postlie(prod, L, handedness)
    lines = ["handedness: %s" % handedness]
    for axiom in ("derivation_axiom", "bracket_axiom"):
        sub = report[axiom]
        lines.append(
            "%s: %s (worst defect %s)"
            % (axiom, "ok" if sub["ok"] else "FAIL", sub["worst_defect_norm"])
        )
    report = {
        "ok": report["ok"],
        "handedness": handedness,
        "derivation_axiom_ok": report["derivation_axiom"]["ok"],
        "bracket_axiom_ok": report["bracket_axiom"]["ok"],
    }
    _emit(config, report, lines)
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def cmd_magnus(config):
    mode = _resolved_mode(config)
    L, prod = _product_for(config, mode)
    if config.x is None:
        raise InvalidInput("magnus needs --x coordinates")
    x = _parse_coords(config.x, L)
    order = _order(config, 5)
    try:
        chi = magnus.postlie_magnus(L, x, prod, order, method=config.method)
    except (CollapseFailure, PrimitivityFailure) as exc:
        _emit(config, {"ok": False, "error": str(exc)}, ["FAIL: %s" % exc])
        return EXIT_CHECK_FAILED
    if config.json:
        print(json.dumps(magnus.graded_to_json(chi), indent=2))
    else:
        for m in range(1, order + 1):
            print("order %d: %s" % (m, _format_vector(L, chi.coeff(m))))
    return EXIT_OK


def cmd_factorize(config):
    mode = _resolved_mode(config)
    ctx = _load_context(config, mode)
    L = ctx.algebra
    if L.realization is None:
        raise RealizationRequired("factorize needs a matrix realization")
    if config.x is None:
        raise InvalidInput("factorize needs --x coordinates")
    import numpy as np

    x = _parse_coords(config.x, L)
    order = _order(config, 10)
    prod = products.from_rmatrix(ctx, "-")
    chi = magnus.postlie_magnus(L, x, prod, order, method="ode")

    def residual(upto):
        total = [0.0] * L.dim
        for m in range(1, upto + 1):
            total = liealg.vadd(total, chi.coeff(m))
        g = magnus.GradedLieElement.from_vector(L, 1, total)
        plus, minus = magnus.chi_pm(g, ctx)
        # chi_pm's minus part already carries its sign; the two
        # exponential factors multiply directly
        mats = [L.rho(v) for v in (x, plus.coeff(1), minus.coeff(1))]
        exps = flows._expm(np.array(mats, dtype=float))
        if not np.isfinite(exps).all():
            raise InvalidInput("the matrix exponential overflows")
        E, Ep, Em = exps
        return float(np.linalg.norm(E - Ep @ Em, 2))

    r_full = residual(order)
    r_drop = residual(order - 1) if order > 1 else None
    report = {"order": order, "residual": r_full, "residual_previous_order": r_drop}
    lines = ["residual at order %d: %.6e" % (order, r_full)]
    if r_drop is not None:
        lines.append("residual at order %d: %.6e" % (order - 1, r_drop))
    _emit(config, report, lines)
    return EXIT_OK


def cmd_flow(config):
    _resolved_mode(config)
    order = _order(config, 8)
    steps = 11 if config.steps is None else config.steps
    if steps < 2:
        raise InvalidInput("--steps must be at least 2")
    span = config.t1 - config.t0
    t_grid = [config.t0 + span * i / (steps - 1) for i in range(steps)]
    if config.toda is not None:
        if config.offdiag is None:
            raise InvalidInput("--toda needs --offdiag (and optionally --diag)")
        diag = (_parse_numbers(config.diag, scalars.FLOAT, "--diag")
                if config.diag else [0.0] * config.toda)
        off = _parse_numbers(config.offdiag, scalars.FLOAT, "--offdiag")
        problem = flows.toda_problem(
            config.toda, diag, off, t_grid, order, flow_tolerance=config.tolerance
        )
    else:
        ctx = _load_context(config, scalars.FLOAT)
        if config.x is None:
            raise InvalidInput("flow needs --x (or --toda with --diag/--offdiag)")
        x0 = _parse_coords(config.x, ctx.algebra)
        problem = flows.FlowProblem(
            ctx, x0, t_grid, order, flow_tolerance=config.tolerance
        )
    if config.integrator == "rk4":
        states = flows.rk4_reference(problem, config.step)
    else:
        states = flows.factorized_solution(problem)
    text = flows.flow_csv(states)
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text)
        rep = flows.conservation_report(states) if len(states) > 1 else {}
        print("wrote %d states to %s" % (len(states), config.output))
        if rep:
            print(
                "max eigenvalue drift %.3e, max trace-power drift %.3e"
                % (rep["max_eig_drift"], rep["max_trace_power_drift"])
            )
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bell(config):
    if config.n is None:
        raise InvalidInput("bell needs --n")
    if config.n < 1:
        raise InvalidInput("--n must be positive")
    print(ev.phi_term_count(config.n))
    return EXIT_OK


def _random_element(L, order, degree, rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(0, degree)
        word = tuple(rng.randrange(L.dim) for _ in range(length))
        terms[word] = terms.get(word, 0) + rng.randint(-3, 3)
    return ev.env_element(L, order, terms)


def _coassociativity_defect(A):
    """Compare (coproduct x id) and (id x coproduct) applied to Delta(A),
    as dictionaries over word triples."""
    D = ev.coproduct(A)
    left = {}
    right = {}
    for (a, b), c in D.terms.items():
        for (u, v), cu in ev._coproduct_word(a).items():
            key = (u, v, b)
            left[key] = left.get(key, 0) + c * cu
        for (u, v), cu in ev._coproduct_word(b).items():
            key = (a, u, v)
            right[key] = right.get(key, 0) + c * cu
    keys = set(left) | set(right)
    return sum(1 for k in keys if left.get(k, 0) != right.get(k, 0))


def cmd_hopf_suite(config):
    mode = _resolved_mode(config)
    L, prod = _product_for(config, mode)
    order = _order(config, 4)
    if config.cases < 1:
        raise InvalidInput("--cases must be at least 1 (got %d)" % config.cases)
    if config.degree < 0:
        raise InvalidInput("--degree must be at least 0 (got %d)" % config.degree)
    degree = min(config.degree, order)
    cases = config.cases
    seed = config.seed
    print("seed %d, %d cases, words of length <= %d, truncation order %d"
          % (seed, cases, degree, order))
    rng = random.Random(seed)
    failures = {
        "coassociativity": 0,
        "counit": 0,
        "antipode": 0,
        "coproduct_multiplicative": 0,
        "star_antipode": 0,
        "star_coproduct_multiplicative": 0,
    }
    one = ev.unit(L, order)
    for _ in range(cases):
        A = _random_element(L, order, degree, rng)
        B = _random_element(L, order, degree, rng)
        if _coassociativity_defect(A):
            failures["coassociativity"] += 1
        D = ev.coproduct(A)
        lefts = {}
        rights = {}
        for (a, b), c in D.terms.items():
            if not b:
                lefts[a] = lefts.get(a, 0) + c
            if not a:
                rights[b] = rights.get(b, 0) + c
        if (
            ev.EnvElement(L, order, lefts) != A
            or ev.EnvElement(L, order, rights) != A
        ):
            failures["counit"] += 1
        sa = ev.EnvElement(L, order, {})
        for (a, b), c in D.terms.items():
            sa = sa + (
                ev.antipode(ev.EnvElement(L, order, {a: 1}))
                * ev.EnvElement(L, order, {b: 1})
            ).scale(c)
        if sa != one.scale(A.counit()):
            failures["antipode"] += 1
        if ev.coproduct(A * B) != ev.tensor_mul(ev.coproduct(A), ev.coproduct(B)):
            failures["coproduct_multiplicative"] += 1
        ssa = ev.EnvElement(L, order, {})
        for (a, b), c in D.terms.items():
            ssa = ssa + ev.star_mul(
                ev.star_antipode(ev.EnvElement(L, order, {a: 1}), prod),
                ev.EnvElement(L, order, {b: 1}),
                prod,
            ).scale(c)
        if ssa != one.scale(A.counit()):
            failures["star_antipode"] += 1
        AB = ev.star_mul(A, B, prod)
        if ev.coproduct(AB) != ev.tensor_star_mul(
            ev.coproduct(A), ev.coproduct(B), prod
        ):
            failures["star_coproduct_multiplicative"] += 1
    ok = not any(failures.values())
    report = {"ok": ok, "cases": cases, "seed": seed, "failures": failures}
    lines = [
        "%s: %s" % (name, "ok" if not count else "FAIL (%d cases)" % count)
        for name, count in failures.items()
    ]
    _emit(config, report, lines)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "check-algebra": cmd_check_algebra,
    "check-rmatrix": cmd_check_rmatrix,
    "check-postlie": cmd_check_postlie,
    "magnus": cmd_magnus,
    "factorize": cmd_factorize,
    "flow": cmd_flow,
    "bell": cmd_bell,
    "hopf-suite": cmd_hopf_suite,
}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=[scalars.EXACT, scalars.FLOAT])
    common.add_argument("--order", type=int)
    common.add_argument("--algebra", help="algebra JSON file")
    common.add_argument("--rmatrix", help="r-matrix JSON file")
    common.add_argument("--builtin", help="built-in algebra or r-matrix name")
    common.add_argument("--t0", type=float, default=0.0)
    common.add_argument("--t1", type=float, default=1.0)
    common.add_argument("--steps", type=int)
    common.add_argument("--output")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tolerance", type=float, default=1e-9)
    common.add_argument("--json", action="store_true")

    parser = argparse.ArgumentParser(
        prog="postlie",
        description="Lie-algebraic flows through r-matrices, enveloping-"
        "algebra combinatorics, and graded expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check-algebra", parents=[common])
    sub.add_parser("check-rmatrix", parents=[common])

    p = sub.add_parser("check-postlie", parents=[common])
    p.add_argument("--sign", choices=["+", "-", "plus", "minus"], default="-")
    p.add_argument("--product", help="product tensor JSON file")
    p.add_argument("--handedness", choices=[products.LEFT, products.RIGHT])

    p = sub.add_parser("magnus", parents=[common])
    p.add_argument("--sign", choices=["+", "-", "plus", "minus"], default="-")
    p.add_argument("--product", help="product tensor JSON file")
    p.add_argument("--x", help="comma-separated coordinates")
    p.add_argument("--method", choices=["star", "ode"], default="star")

    p = sub.add_parser("factorize", parents=[common])
    p.add_argument("--x", help="comma-separated coordinates")

    p = sub.add_parser("flow", parents=[common])
    p.add_argument("--x", help="comma-separated coordinates")
    p.add_argument("--toda", type=int, help="Toda problem size n")
    p.add_argument("--diag", help="comma-separated diagonal entries")
    p.add_argument("--offdiag", help="comma-separated off-diagonal entries")
    p.add_argument(
        "--integrator", choices=["factorized", "rk4"], default="factorized"
    )
    p.add_argument("--step", type=float, default=1e-3, help="rk4 step size")

    p = sub.add_parser("bell", parents=[common])
    p.add_argument("--n", type=int)

    p = sub.add_parser("hopf-suite", parents=[common])
    p.add_argument("--sign", choices=["+", "-", "plus", "minus"], default="-")
    p.add_argument("--product", help="product tensor JSON file")
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--degree", type=int, default=4)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(args)
    # subcommand-specific attributes that shared code may probe
    for attr in ("sign", "product", "x", "handedness"):
        if not hasattr(config, attr):
            setattr(config, attr, None)
    try:
        return _COMMANDS[config.command](config)
    except (
        JacobiViolation,
        RealizationMismatch,
        CollapseFailure,
        PrimitivityFailure,
    ) as exc:
        print("FAIL: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except PostLieError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
