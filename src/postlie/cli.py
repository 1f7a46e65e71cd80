"""Batch command-line front end.

Subcommands: check-algebra, check-rmatrix, check-postlie, magnus,
factorize, flow, bell, hopf-suite.  Each takes only the flags it reads;
any other flag is an argparse error.  Exit codes: 0 success, 1 a
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
    YangBaxterFailure,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2


def _order(args, default):
    """--order, or the subcommand's default when the flag is absent."""
    if args.order is None:
        return default
    if args.order < 1:
        raise InvalidInput("--order must be at least 1 (got %d)" % args.order)
    return args.order


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


def _parse_coords(args, L):
    if args.x is None:
        raise InvalidInput("%s needs --x coordinates" % args.command)
    x = _parse_numbers(args.x, L.mode, "--x")
    if len(x) != L.dim:
        raise InvalidInput("expected %d coordinates, got %d" % (L.dim, len(x)))
    return tuple(x)


def _load_algebra(args, mode):
    if args.builtin and args.algebra:
        raise InvalidInput("give either --builtin or --algebra, not both")
    if args.builtin:
        return liealg.builtin(args.builtin, mode=mode)
    if args.algebra:
        return liealg.load_algebra(args.algebra, mode=mode)
    raise InvalidInput("need --builtin or --algebra")


def _load_context(args, mode):
    """An r-matrix context from --builtin (registry name) or from
    --algebra + --rmatrix files."""
    if args.builtin and (args.algebra or args.rmatrix):
        raise InvalidInput("give either --builtin or --algebra with --rmatrix, not both")
    if args.builtin:
        return rmatrix.builtin_rmatrix(args.builtin, mode=mode)
    if not (args.algebra and args.rmatrix):
        raise InvalidInput("need --builtin, or --algebra together with --rmatrix")
    return rmatrix.load_rmatrix(_load_algebra(args, mode), args.rmatrix)


def _product_for(args, sign="-"):
    """The exact bilinear product under test: the product [R_sign x, y] of
    an r-matrix context, or the tensor of a --product file."""
    if args.product:
        if args.rmatrix:
            raise InvalidInput("give either --product or --rmatrix, not both")
        L = _load_algebra(args, scalars.EXACT)
        return L, products.load_product(L, args.product)
    ctx = _load_context(args, scalars.EXACT)
    return ctx.algebra, products.from_rmatrix(ctx, sign)


def _emit(args, report, human_lines):
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check_algebra(args):
    try:
        L = _load_algebra(args, args.mode)
    except (JacobiViolation, RealizationMismatch) as exc:
        _emit(args, {"ok": False, "error": str(exc)}, ["FAIL: %s" % exc])
        return EXIT_CHECK_FAILED
    report = {
        "ok": True,
        "dim": L.dim,
        "labels": list(L.labels),
        "has_realization": L.realization is not None,
        "mode": L.mode,
    }
    _emit(
        args,
        report,
        [
            "ok: Jacobi identity and realization (if any) verified",
            "dim %d, labels %s" % (L.dim, ", ".join(L.labels)),
        ],
    )
    return EXIT_OK


def cmd_check_rmatrix(args):
    try:
        ctx = _load_context(args, args.mode)
    except (NotADirectSum, NotASubalgebra) as exc:
        _emit(args, {"ok": False, "error": str(exc)}, ["FAIL: %s" % exc])
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
        _emit(args, report, lines)
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
    if theta == 1:
        pm = rmatrix.check_pm_identities(ctx)
        report["pm_identities_ok"] = pm["ok"]
        lines.append("R+/R- bracket and morphism identities: %s" % ("ok" if pm["ok"] else "FAIL"))
        if not pm["ok"]:
            _emit(args, report, lines)
            return EXIT_CHECK_FAILED
    _emit(args, report, lines)
    return EXIT_OK


def cmd_check_postlie(args):
    # --sign selects the r-matrix product and, with --product too, the
    # default handedness: [R+ x, y] is left post-Lie, [R- x, y] right
    left = args.sign in ("+", "plus")
    L, prod = _product_for(args, "+" if left else "-")
    handedness = args.handedness or (products.LEFT if left else products.RIGHT)
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
    _emit(args, report, lines)
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def cmd_magnus(args):
    L, prod = _product_for(args)
    x = _parse_coords(args, L)
    order = _order(args, 5)
    try:
        chi = magnus.postlie_magnus(L, x, prod, order, method=args.method)
    except (CollapseFailure, PrimitivityFailure) as exc:
        _emit(args, {"ok": False, "error": str(exc)}, ["FAIL: %s" % exc])
        return EXIT_CHECK_FAILED
    if args.json:
        print(json.dumps(magnus.graded_to_json(chi), indent=2))
    else:
        for m in range(1, order + 1):
            print("order %d: %s" % (m, ev.render(ev.from_g_vector(L, 1, chi.coeff(m)))))
    return EXIT_OK


def cmd_factorize(args):
    ctx = _load_context(args, scalars.FLOAT)
    x = _parse_coords(args, ctx.algebra)
    order = _order(args, 10)
    residuals = flows.factorization_residuals(flows.FlowProblem(ctx, x, (1.0,), order))
    r_drop = residuals[-2] if order > 1 else None
    report = {"order": order, "residual": residuals[-1], "residual_previous_order": r_drop}
    lines = ["residual at order %d: %.6e" % (order, residuals[-1])]
    if r_drop is not None:
        lines.append("residual at order %d: %.6e" % (order - 1, r_drop))
    _emit(args, report, lines)
    return EXIT_OK


def cmd_flow(args):
    order = _order(args, 8)
    if args.steps < 2:
        raise InvalidInput("--steps must be at least 2")
    span = args.t1 - args.t0
    t_grid = [args.t0 + span * i / (args.steps - 1) for i in range(args.steps)]
    if args.toda is not None:
        if args.builtin or args.algebra or args.rmatrix or args.x:
            raise InvalidInput("--toda sets its own r-matrix and initial point: "
                               "drop --builtin, --algebra, --rmatrix and --x")
        if args.offdiag is None:
            raise InvalidInput("--toda needs --offdiag (and optionally --diag)")
        diag = (_parse_numbers(args.diag, scalars.FLOAT, "--diag")
                if args.diag else [0.0] * args.toda)
        off = _parse_numbers(args.offdiag, scalars.FLOAT, "--offdiag")
        problem = flows.toda_problem(
            args.toda, diag, off, t_grid, order, flow_tolerance=args.tolerance
        )
    else:
        if args.diag or args.offdiag:
            raise InvalidInput("--diag and --offdiag need --toda")
        ctx = _load_context(args, scalars.FLOAT)
        x0 = _parse_coords(args, ctx.algebra)
        problem = flows.FlowProblem(ctx, x0, t_grid, order, flow_tolerance=args.tolerance)
    if args.integrator == "rk4":
        states = flows.rk4_reference(problem, args.step)
    else:
        states = flows.factorized_solution(problem)
    if not args.output:
        sys.stdout.write(flows.flow_csv(states))
        return EXIT_OK
    flows.write_flow_csv(states, args.output)
    print("wrote %d states to %s" % (len(states), args.output))
    if len(states) > 1:
        rep = flows.conservation_report(states)
        print(
            "max eigenvalue drift %.3e, max trace-power drift %.3e"
            % (rep["max_eig_drift"], rep["max_trace_power_drift"])
        )
    return EXIT_OK


def cmd_bell(args):
    if args.n is None:
        raise InvalidInput("bell needs --n")
    if args.n < 1:
        raise InvalidInput("--n must be positive")
    print(ev.phi_term_count(args.n))
    return EXIT_OK


def _random_element(L, order, degree, rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(0, degree)
        word = tuple(rng.randrange(L.dim) for _ in range(length))
        terms[word] = terms.get(word, 0) + rng.randint(-3, 3)
    return ev.env_element(L, order, terms)


def cmd_hopf_suite(args):
    L, prod = _product_for(args)
    order = _order(args, 4)
    if args.cases < 1:
        raise InvalidInput("--cases must be at least 1 (got %d)" % args.cases)
    if args.degree < 0:
        raise InvalidInput("--degree must be at least 0 (got %d)" % args.degree)
    degree = min(args.degree, order)
    print("seed %d, %d cases, words of length <= %d, truncation order %d"
          % (args.seed, args.cases, degree, order))
    rng = random.Random(args.seed)
    failures = dict.fromkeys(ev.HOPF_IDENTITIES, 0)
    for _ in range(args.cases):
        A = _random_element(L, order, degree, rng)
        B = _random_element(L, order, degree, rng)
        for name in ev.hopf_identity_failures(A, B, prod):
            failures[name] += 1
    ok = not any(failures.values())
    report = {"ok": ok, "cases": args.cases, "seed": args.seed, "failures": failures}
    lines = [
        "%s: %s" % (name, "ok" if not count else "FAIL (%d cases)" % count)
        for name, count in failures.items()
    ]
    _emit(args, report, lines)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------


def build_parser():
    def flags(*parents):
        return argparse.ArgumentParser(add_help=False, parents=parents)

    algebra = flags()
    algebra.add_argument("--builtin", help="built-in algebra or r-matrix name")
    algebra.add_argument("--algebra", help="algebra JSON file")
    context = flags(algebra)
    context.add_argument("--rmatrix", help="r-matrix JSON file")
    product = flags(context)
    product.add_argument("--product", help="product tensor JSON file")
    mode = flags()
    mode.add_argument("--mode", choices=[scalars.EXACT, scalars.FLOAT], default=scalars.EXACT)
    order = flags()
    order.add_argument("--order", type=int)
    coords = flags()
    coords.add_argument("--x", help="comma-separated coordinates")
    report = flags()
    report.add_argument("--json", action="store_true")

    parser = argparse.ArgumentParser(
        prog="postlie",
        description="Lie-algebraic flows through r-matrices, enveloping-"
        "algebra combinatorics, and graded expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, *parents):
        p = sub.add_parser(name, parents=parents)
        p.set_defaults(run=run)
        return p

    command("check-algebra", cmd_check_algebra, algebra, mode, report)
    command("check-rmatrix", cmd_check_rmatrix, context, mode, report)

    p = command("check-postlie", cmd_check_postlie, product, report)
    p.add_argument("--sign", choices=["+", "-", "plus", "minus"])
    p.add_argument("--handedness", choices=[products.LEFT, products.RIGHT])

    p = command("magnus", cmd_magnus, product, coords, order, report)
    p.add_argument("--method", choices=["star", "ode"], default="star")

    command("factorize", cmd_factorize, context, coords, order, report)

    p = command("flow", cmd_flow, context, coords, order)
    p.add_argument(
        "--tolerance", type=float, default=1e-9,
        help="largest accepted truncation tail of the expansion",
    )
    p.add_argument("--toda", type=int, help="Toda problem size n")
    p.add_argument("--diag", help="comma-separated diagonal entries")
    p.add_argument("--offdiag", help="comma-separated off-diagonal entries")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--output")
    p.add_argument(
        "--integrator", choices=["factorized", "rk4"], default="factorized"
    )
    p.add_argument("--step", type=float, default=1e-3, help="rk4 step size")

    p = command("bell", cmd_bell)
    p.add_argument("--n", type=int)

    p = command("hopf-suite", cmd_hopf_suite, product, order, report)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (
        JacobiViolation,
        RealizationMismatch,
        CollapseFailure,
        PrimitivityFailure,
    ) as exc:
        print("FAIL: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (OSError, ValueError, PostLieError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
