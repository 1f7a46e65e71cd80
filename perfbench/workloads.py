"""Seeded job lists and output checks for the four benchmark workloads.

Importing this module imports postlie, and through it NumPy and SciPy;
the benchmark times that import as part of its set-up.  Every job builds its own
algebra, r-matrix context and product from scratch, as one ``postlie``
command-line call does, so per-instance caches start cold in each job.
A pass of a workload runs its jobs one after another (a closed loop with
one client); every pass of a run repeats the same inputs.

A workload is a ``Workload(make_jobs, check)``: ``make_jobs(seed)`` returns
the job list, and ``check(jobs, outputs, refs)`` returns one
``(ok, diagnostics)`` pair per job.  ``refs`` is a dict the check may use
to keep reference results across passes (they depend on the inputs only).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import warnings
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from postlie import cli, flows, liealg, magnus, products, rmatrix
from postlie.errors import NonConvergentSeries

Job = namedtuple("Job", "name run params")
Workload = namedtuple("Workload", "make_jobs check")

FlowOutput = namedtuple("FlowOutput", "problem states tail_warnings")
ChiOutput = namedtuple("ChiOutput", "coeffs")

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# Thresholds of tier-1 acceptance criterion 9 for the Toda flow.
REF_STEP = 1e-3
REF_GAP_MAX = 1e-6
DRIFT_MAX = 1e-8

# Order-10 truncation error grows like r^11 in the size r of the initial
# data: entries drawn from [-0.45, 0.45] put the n=5 gap to the RK4
# reference at 1e-6, so the benchmark draws from [-0.3, 0.3].
TODA_AMPLITUDE = 0.3
TODA_ORDER = 10


# ---------------------------------------------------------------------------
# Toda flows: toda-flow and flow-grid
# ---------------------------------------------------------------------------


def _toda_job(name, n, rng, points):
    diag = [rng.uniform(-TODA_AMPLITUDE, TODA_AMPLITUDE) for _ in range(n)]
    off = [rng.uniform(-TODA_AMPLITUDE, TODA_AMPLITUDE) for _ in range(n - 1)]
    grid = [i / (points - 1) for i in range(points)]

    def run():
        problem = flows.toda_problem(n, diag, off, grid, TODA_ORDER)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NonConvergentSeries)
            states = flows.factorized_solution(problem)
        tails = sum(1 for w in caught if issubclass(w.category, NonConvergentSeries))
        return FlowOutput(problem, states, tails)

    return Job(name, run, {"n": n, "diag": diag, "offdiag": off, "points": points})


def toda_flow_jobs(seed):
    rng = random.Random(seed)
    return [_toda_job("toda-n%d" % n, n, rng, 101) for n in (4, 5, 6)]


def flow_grid_jobs(seed):
    rng = random.Random(seed)
    return [_toda_job("grid-n%d-%d" % (n, k), n, rng, 2001)
            for k, n in enumerate((3, 3, 4))]


def check_flows(jobs, outputs, refs):
    """Gap to the RK4 reference and conservation drifts, per job.  The
    reference is integrated once per job from the first pass's problem."""
    results = []
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if out is None:
            results.append((False, {}))
            continue
        if i not in refs:
            refs[i] = flows.rk4_reference(out.problem, REF_STEP)
        ref = refs[i]
        if len(ref) != len(out.states):
            results.append((False, {"states": len(out.states)}))
            continue
        gap = max(
            max(abs(a - b) for a, b in zip(sf.x, sr.x))
            for sf, sr in zip(out.states, ref)
        )
        rep = flows.conservation_report(out.states)
        ok = (
            gap <= REF_GAP_MAX
            and rep["max_eig_drift"] <= DRIFT_MAX
            and rep["max_trace_power_drift"] <= DRIFT_MAX
        )
        results.append((ok, {
            "ref_gap": gap,
            "eig_drift": rep["max_eig_drift"],
            "trace_power_drift": rep["max_trace_power_drift"],
            "points": len(out.states),
            "tail_warnings": out.tail_warnings,
        }))
    return results


# ---------------------------------------------------------------------------
# exact-chi: postlie_magnus by star and by ode
# ---------------------------------------------------------------------------

# (algebra, star order, ode order).  The star path is exponential in the
# order and the ode path polynomial, so the star orders are lower; the two
# results must agree on every degree up to the star order.
CHI_CASES = (
    ("sl2-borel", 6, 10),
    ("split2", 6, 10),
    ("upper_lower_split(3)", 5, 10),
    ("upper_lower_split(4)", 4, 8),
)
CHI_DIRECTIONS = 8
CHI_SCALES = (-2, -1, 1, 2)


def chi_context(algebra):
    """A fresh exact r-matrix context for a named r-matrix or split gl(n)."""
    if algebra.startswith("upper_lower_split"):
        L = liealg.builtin(algebra)
        return rmatrix.splitting_r(L, *L.splitting)
    return rmatrix.builtin_rmatrix(algebra)


def chi_direction(algebra, dim, index):
    """Direction ``index`` of the fixed pool: full support, entries in
    {-2, -1, 1, 2}, so every direction costs about the same."""
    rng = random.Random("%s/%d" % (algebra, index))
    return [rng.choice((-2, -1, 1, 2)) for _ in range(dim)]


def chi_digest(coeffs):
    """Digest of exact coefficient vectors chi_1..chi_N."""
    text = repr(tuple(tuple((c.numerator, c.denominator) for c in v) for v in coeffs))
    return hashlib.sha256(text.encode()).hexdigest()


def chi_job(algebra, method, order, direction, scale):
    def run():
        ctx = chi_context(algebra)
        L = ctx.algebra
        x = [scale * c for c in chi_direction(algebra, L.dim, direction)]
        prod = products.from_rmatrix(ctx, "-")
        chi = magnus.postlie_magnus(L, x, prod, order, method=method)
        return ChiOutput(tuple(chi.coeff(m) for m in range(1, order + 1)))

    params = {"algebra": algebra, "method": method, "order": order,
              "direction": direction, "scale": scale}
    return Job("%s-%s%d" % (algebra, method, order), run, params)


def exact_chi_jobs(seed):
    """Star jobs of all algebras first, then ode jobs, so every star job
    runs in the same process one after another."""
    rng = random.Random(seed)
    picks = [(rng.randrange(CHI_DIRECTIONS), rng.choice(CHI_SCALES)) for _ in CHI_CASES]
    jobs = []
    for method, col in (("star", 1), ("ode", 2)):
        for case, (direction, scale) in zip(CHI_CASES, picks):
            jobs.append(chi_job(case[0], method, case[col], direction, scale))
    return jobs


def _load_digests():
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def check_chi(jobs, outputs, refs):
    """Each job's coefficients, divided by scale^n (chi_n is homogeneous of
    degree n), must match the digest recorded from the unmodified library;
    star and ode results must be identical exact rationals (int or
    Fraction, never float) on common degrees."""
    if "digests" not in refs:
        refs["digests"] = _load_digests()
    digests = refs["digests"]
    by_key = {}
    for job, out in zip(jobs, outputs):
        p = job.params
        by_key[(p["algebra"], p["method"])] = out
    results = []
    for job, out in zip(jobs, outputs):
        if out is None:
            results.append((False, {}))
            continue
        p = job.params
        scale = Fraction(p["scale"])
        normal = [tuple(Fraction(c) / scale ** n for c in v)
                  for n, v in enumerate(out.coeffs, start=1)]
        key = "%s/%d/%d" % (p["algebra"], p["direction"], p["order"])
        digest_ok = digests.get(key) == chi_digest(normal)
        other = by_key.get((p["algebra"], "ode" if p["method"] == "star" else "star"))
        common = min(len(out.coeffs), len(other.coeffs)) if other else 0
        agree = (
            other is not None
            and common > 0
            and all(isinstance(c, (int, Fraction)) for v in out.coeffs for c in v)
            and out.coeffs[:common] == other.coeffs[:common]
        )
        results.append((digest_ok and agree, {"digest": digest_ok, "star_eq_ode": agree}))
    return results


# ---------------------------------------------------------------------------
# hopf-suite: the command-line Hopf identity suite, in process
# ---------------------------------------------------------------------------

# (r-matrix, order, degree, cases, case seed) per job.
# Per-case cost is heavy-tailed (a few long words dominate), so drawing
# fresh case seeds from the workload seed moved the time of a single job by
# 20-50% between seeds; the suite therefore keeps its case seeds fixed and
# the workload seed sets only the order in which the jobs run.
HOPF_SUITE = (
    ("split2", 5, 5, 40, 11),
    ("split2", 5, 5, 40, 12),
    ("sl2-borel", 5, 5, 40, 13),
    ("sl2-borel", 5, 5, 40, 14),
    ("split2", 6, 6, 30, 15),
    ("sl2-borel", 6, 6, 30, 16),
)


def _hopf_job(builtin, order, degree, cases, case_seed):
    argv = ["hopf-suite", "--builtin", builtin, "--order", str(order),
            "--degree", str(degree), "--cases", str(cases), "--seed", str(case_seed)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    return Job("hopf-%s-o%d-s%d" % (builtin, order, case_seed), run, {"argv": argv})


def hopf_suite_jobs(seed):
    jobs = [_hopf_job(*case) for case in HOPF_SUITE]
    random.Random(seed).shuffle(jobs)
    return jobs


def check_hopf(jobs, outputs, refs):
    return [(out == 0, {"exit_code": out}) for out in outputs]


WORKLOADS = {
    "toda-flow": Workload(toda_flow_jobs, check_flows),
    "exact-chi": Workload(exact_chi_jobs, check_chi),
    "hopf-suite": Workload(hopf_suite_jobs, check_hopf),
    "flow-grid": Workload(flow_grid_jobs, check_flows),
}
