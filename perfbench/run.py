"""Benchmark of the postlie pipeline: four seeded workloads, checked outputs,
end-to-end metrics from an untraced run and per-module metrics from a
traced run.

    python3 perfbench/run.py --workload toda-flow --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports ``postlie`` from the
checkout's ``src/`` and exits with code 2, printing no result, when that is
missing.  One process, one client, no added threads: each job starts when
the previous one has finished.  A pass runs the workload's whole job list;
passes repeat until ``--seconds`` have gone by (at least one pass, and in a
traced run at least one traced and one untraced pass).  Every output is
checked after its pass, outside the timed region; a job fails if it raises,
returns a nonzero exit code, or fails its check.

``--trace 0`` reports the end-to-end metrics (``END_TO_END``).  ``--trace 1``
alternates traced and untraced passes and reports the per-module metrics
(``PER_LAYER``): span self times and call counts per traced pass, live
enveloping caches at the end of the run, flow counts and check-side
diagnostics, and ``trace_overhead``.  Its spans are written to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

OpenBLAS is held to one thread (``OPENBLAS_NUM_THREADS=1``): its matrices
here are at most 36 x 36, and a second BLAS thread only spins on the other
core (a flow-grid n=3 job took 0.93 s with one thread and 1.29 s with two
on a 2-core machine).

``setup_s`` is the median of ``SETUP_SAMPLES`` set-ups: this process's own
and fresh interpreters that only set up (``--setup-only``).  It is
normalized like the job times below.

The gated times are normalized to the host's speed.  A shared host's speed
drifts: a fixed pure-Python loop took anywhere from 0.16 to 0.31 s in one
40-s stretch, changing from one fifth of a second to the next and in slow
phases that last tens of seconds, so the median wall time of a 22-s run
moved by 10-30% between runs of the same code.  While a job runs, a
``SIGALRM`` handler therefore runs a fixed 1-ms probe every 25 ms
(``SpeedProbe``); the job's wall time, less the probes' own time, is scaled
by the probe's reference time over the median probe.  ``wall_norm_s`` and
``job_norm_s.p50`` are these scaled times: seconds at the speed at which
the probe takes its reference time.  The probes take about 4% of the run and
are excluded from the job times, but not from the traced spans.  The raw
``wall_s`` and ``job_s.p50`` are printed beside them in the text lines.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("toda-flow", "exact-chi", "hopf-suite", "flow-grid")
SETUP_SAMPLES = 9

# Median times of the two probes on the 2-core Xeon (Sapphire Rapids, KVM)
# host the baselines in WORKLOADS.md were taken on.  They only set the scale
# of the normalized times; comparisons between commits are ratios.
INTERPRETER_REF_S = 0.00093
NUMERIC_REF_S = 0.00099
PROBE_INTERVAL_S = 0.025

END_TO_END = {
    "wall_norm_s": "s",
    "job_norm_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}

SELF_TIMED = (
    "liealg.new_lie_algebra",
    "rmatrix.is_rmatrix",
    "rmatrix.splitting_r",
    "products.from_rmatrix",
    "magnus.chi_ode",
    "magnus.chi_star",
    "enveloping.star_mul",
    "enveloping.env_mul",
    "enveloping.coproduct",
    "enveloping.antipode",
    "enveloping.star_antipode",
    "enveloping.tensor_mul",
    "enveloping.tensor_star_mul",
    "flows.toda_problem",
    "flows.factorized_solution",
    "cli.main",
)
COUNTED = (
    "liealg.builtin",
    "magnus.chi_ode",
    "magnus.chi_star",
    "enveloping.star_mul",
    "enveloping.env_mul",
    "enveloping.coproduct",
    "enveloping.antipode",
    "enveloping.star_antipode",
    "enveloping.tensor_mul",
    "enveloping.tensor_star_mul",
)
GAUGES = (
    "enveloping.pbw_cache_entries",
    "enveloping.lift_memo_entries",
    "enveloping.lift_contexts_alive",
)
PER_LAYER = {
    **{name + ".self_s": "s" for name in SELF_TIMED},
    **{name + ".calls": "count" for name in COUNTED},
    **{name: "count" for name in GAUGES},
    "flows.points": "count",
    "flows.tail_warnings": "count",
    "flows.ref_gap_max": "1",
    "flows.eig_drift_max": "1",
    "trace_overhead": "1",
}


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def set_up(workload, seed):
    """Import postlie, NumPy and SciPy from the checkout and generate the
    workload's inputs.  Returns (the timing ``SpeedProbe``, workloads
    module, jobs)."""
    with SpeedProbe(interpreter_probe, INTERPRETER_REF_S) as speed:
        jobs, module = _set_up(workload, seed)
    return speed, module, jobs


def _set_up(workload, seed):
    if not (SRC / "postlie" / "__init__.py").is_file():
        fail("no postlie sources under %s; run from the root of a checkout" % SRC)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import postlie
    import workloads

    if Path(postlie.__file__).resolve().parent != (SRC / "postlie").resolve():
        fail("imported postlie from %s, not from %s" % (postlie.__file__, SRC))
    return workloads.WORKLOADS[workload].make_jobs(seed), workloads


def setup_probe(workload, seed):
    """Set-up seconds, raw and normalized, of a fresh interpreter running
    only ``set_up``."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        fail("set-up probe failed:\n%s" % proc.stderr)
    raw, norm = proc.stdout.split()[-2:]
    return float(raw), float(norm)


def interpreter_probe():
    """Seconds taken by a fixed loop of small-integer arithmetic: a sample
    of the host's current speed.  It allocates nothing that outlives it."""
    start = time.perf_counter()
    total = 0
    for i in range(10000):
        total += i * i % 7
    return time.perf_counter() - start


def numeric_probe():
    """Like ``interpreter_probe``, but half of it is NumPy and LAPACK calls
    on a 6 x 6 matrix, the kind of call the float flows make at every grid
    point.  Probing with the integer loop alone left a quarter of a slow
    phase in flow-grid's normalized times."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(5000):
        total += i * i % 7
    m = np.arange(36.0).reshape(6, 6) % 7
    for _ in range(14):
        np.linalg.eigvals(m @ m)
    return time.perf_counter() - start


class SpeedProbe:
    """Times one job and samples the host's speed while it runs: a probe
    before the job, one every ``PROBE_INTERVAL_S`` from a ``SIGALRM``
    handler during it (in this thread, between bytecodes), and one after.
    ``seconds`` is the job's wall time less the time of the probes inside
    it; ``norm_seconds`` scales it by the probe's reference time over the
    median probe.  Set-up uses ``interpreter_probe``, because NumPy is not
    imported yet; jobs use ``numeric_probe``."""

    def __init__(self, probe, ref_s):
        self.probe = probe
        self.ref_s = ref_s

    def __enter__(self):
        self.probes = [self.probe()]
        self.inside = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self.start = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        seconds = self.probe()
        self.probes.append(seconds)
        self.inside += seconds

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self.start - self.inside
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probes.append(self.probe())
        self.norm_seconds = self.seconds * self.ref_s / statistics.median(self.probes)
        return False


def run_pass(jobs, tracer=None):
    """Run every job once, in order, under a ``SpeedProbe``.  Returns
    (per-job seconds, per-job normalized seconds, outputs); the output of a
    job that raised is None."""
    times, scaled, outputs = [], [], []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        with SpeedProbe(numeric_probe, NUMERIC_REF_S) as speed:
            try:
                out = job.run()
            except Exception:
                traceback.print_exc()
                out = None
        if tracer is not None:
            tracer.record_gauges()
        times.append(speed.seconds)
        scaled.append(speed.norm_seconds)
        outputs.append(out)
    return times, scaled, outputs


def count_failures(results, jobs):
    failed = 0
    for job, (ok, diag) in zip(jobs, results):
        if not ok:
            failed += 1
            print("perfbench: job %s failed its check: %r" % (job.name, diag),
                  file=sys.stderr)
    return failed


def measure(workload, module, jobs, seconds, traced):
    """Repeat passes for ``seconds``.  A traced run orders its passes
    untraced, traced, traced, untraced and so on, so that a slow drift over
    the run (the lifted-product leak grows with every pass) cancels out of
    ``trace_overhead``."""
    from spans import Tracer

    check = module.WORKLOADS[workload].check
    tracer = Tracer() if traced else None
    refs = {}
    walls = {False: [], True: []}
    norm_walls = {False: [], True: []}
    job_times, job_scaled = [], []
    diags = {False: [], True: []}
    attempted = failed = 0
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        passes = len(walls[False]) + len(walls[True])
        tracing = traced and passes % 4 in (1, 2)
        if tracing:
            tracer.install()
        try:
            times, scaled, outputs = run_pass(jobs, tracer if tracing else None)
        finally:
            if tracing:
                tracer.uninstall()
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results = check(jobs, outputs, refs)
        attempted += len(jobs)
        failed += count_failures(results, jobs)
        walls[tracing].append(sum(times))
        norm_walls[tracing].append(sum(scaled))
        diags[tracing].append([d for _, d in results])
        if not tracing:
            job_times.append(times)
            job_scaled.append(scaled)
        if time.perf_counter() - start >= seconds and (not traced or walls[True]):
            break
    if traced:
        tracer.record_gauges()  # the end-of-run reading the metrics report
    return {
        "walls": walls, "norm_walls": norm_walls, "job_times": job_times,
        "job_scaled": job_scaled, "diags": diags,
        "attempted": attempted, "failed": failed, "peak_rss_mb": peak_rss_mb,
        "tracer": tracer,
    }


def job_p50(job_times):
    """Median over the job list of each job's median across passes.  The
    jobs of a pass differ in size by up to 60x, so the median of the pooled
    samples would sit on the gap between two job sizes and jump with the
    noise of their extreme samples."""
    per_job = [statistics.median(samples) for samples in zip(*job_times)]
    return statistics.median(per_job)


def list_time(job_times):
    """Time for the whole job list: the sum over the jobs of each job's
    median across passes."""
    return sum(statistics.median(samples) for samples in zip(*job_times))


def raw_times(run):
    """The unnormalized wall times, for the text lines."""
    return {"wall_s": list_time(run["job_times"]), "job_s.p50": job_p50(run["job_times"])}


def end_to_end_metrics(run, setup_samples):
    return {
        "wall_norm_s": list_time(run["job_scaled"]),
        "job_norm_s.p50": job_p50(run["job_scaled"]),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_ratio": 1.0 - run["failed"] / run["attempted"],
    }


def per_layer_metrics(run):
    traced_passes = len(run["walls"][True])
    totals = run["tracer"].self_times()
    metrics = {}
    for name in SELF_TIMED:
        metrics[name + ".self_s"] = totals.get(name, (0.0, 0))[0] / traced_passes
    for name in COUNTED:
        metrics[name + ".calls"] = totals.get(name, (0.0, 0))[1] / traced_passes
    last = run["tracer"].gauges[-1]
    for name in GAUGES:
        metrics[name] = last[name]
    traced_diags = [d for pass_diags in run["diags"][True] for d in pass_diags]
    all_diags = [d for side in (False, True) for pass_diags in run["diags"][side]
                 for d in pass_diags]
    metrics["flows.points"] = sum(d.get("points", 0) for d in traced_diags) / traced_passes
    metrics["flows.tail_warnings"] = (
        sum(d.get("tail_warnings", 0) for d in traced_diags) / traced_passes)
    metrics["flows.ref_gap_max"] = max((d.get("ref_gap", 0.0) for d in all_diags), default=0.0)
    metrics["flows.eig_drift_max"] = max((d.get("eig_drift", 0.0) for d in all_diags),
                                         default=0.0)
    metrics["trace_overhead"] = (statistics.median(run["norm_walls"][True])
                                 / statistics.median(run["norm_walls"][False]) - 1.0)
    return metrics


def write_spans(path, workload, seed, jobs, run):
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "jobs": [job.name for job in jobs],
        "fields": ["name", "start", "end", "parent", "job"],
        "spans": run["tracer"].spans,
        "gauges_after_each_job": run["tracer"].gauges,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the raw and normalized set-up seconds and exit")
    args = parser.parse_args(argv)

    speed, module, jobs = set_up(args.workload, args.seed)
    if args.setup_only:
        print(repr(speed.seconds), repr(speed.norm_seconds))
        return 0
    traced = bool(args.trace)
    samples = [(speed.seconds, speed.norm_seconds)]
    if not traced:
        samples += [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    run = measure(args.workload, module, jobs, args.seconds, traced)

    if traced:
        metrics = per_layer_metrics(run)
        units = PER_LAYER
        spans_path = OUT_DIR / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        write_spans(spans_path, args.workload, args.seed, jobs, run)
        print("spans: %s (%d)" % (spans_path.relative_to(ROOT), len(run["tracer"].spans)))
    else:
        metrics = end_to_end_metrics(run, [norm for _, norm in samples])
        units = END_TO_END
    passes = len(run["walls"][False]) + len(run["walls"][True])
    print("workload %s, seed %d: %d passes of %d jobs, %d jobs timed untraced"
          % (args.workload, args.seed, passes, len(jobs),
             len(jobs) * len(run["job_times"])))
    for tracing in (False, True):
        if run["walls"][tracing]:
            label = "traced" if tracing else "untraced"
            print("%s pass seconds: %s" % (label, " ".join("%.3f" % w for w in run["walls"][tracing])))
            print("%s normalized: %s" % (label, " ".join("%.3f" % w for w in run["norm_walls"][tracing])))
    if not traced:
        print("set-up seconds: %s" % " ".join("%.3f" % raw for raw, _ in samples))
        print("set-up normalized: %s" % " ".join("%.3f" % norm for _, norm in samples))
    for name, value in metrics.items():
        print("%-36s %.6g %s" % (name, value, units[name]))
    if not traced:
        for name, value in raw_times(run).items():
            print("%-36s %.6g s (not normalized)" % (name, value))
    print("%-36s %.6g %s" % ("failed_ratio", run["failed"] / run["attempted"], "1"))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
