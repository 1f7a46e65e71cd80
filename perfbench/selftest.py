"""Self-test of the benchmark's output checks: a corrupted output must be
counted as a failed job, never pass silently.

    python3 perfbench/selftest.py

For each workload it takes the cheapest jobs of seed 0, runs them once
through the benchmark's own pass runner and check, requires the clean
outputs to pass, and then requires each corruption below to raise the
failure count.  Exits with code 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import run


def _flow_shift_x(out):
    last = out.states[-1]
    x = (last.x[0] + 1e-5,) + tuple(last.x[1:])
    states = out.states[:-1] + [type(last)(last.t, x, last.eigenvalues, last.trace_powers)]
    return out._replace(states=states)


def _flow_shift_eigenvalue(out):
    last = out.states[-1]
    eigs = [last.eigenvalues[0] + 1e-6] + list(last.eigenvalues[1:])
    states = out.states[:-1] + [type(last)(last.t, last.x, eigs, last.trace_powers)]
    return out._replace(states=states)


def _chi_nudge(out):
    first = out.coeffs[1]
    nudged = (first[0] + Fraction(1, 10**9),) + tuple(first[1:])
    return out._replace(coeffs=(out.coeffs[0], nudged) + out.coeffs[2:])


def _chi_float(out):
    return out._replace(coeffs=tuple(tuple(float(c) for c in v) for v in out.coeffs))


def _exit_code_one(out):
    return 1


def _raise(out):
    raise RuntimeError("injected failure")


# workload -> (job-name filter picking cheap jobs, corruptions)
CASES = {
    "toda-flow": (lambda name: name == "toda-n4", (_flow_shift_x, _flow_shift_eigenvalue, _raise)),
    "flow-grid": (lambda name: name == "grid-n3-0", (_flow_shift_x, _flow_shift_eigenvalue, _raise)),
    "exact-chi": (lambda name: name.startswith("sl2-borel"), (_chi_nudge, _chi_float, _raise)),
    "hopf-suite": (lambda name: name == "hopf-sl2-borel-o5-s13", (_exit_code_one, _raise)),
}


def _failures(module, workload, jobs):
    _, _, outputs = run.run_pass(jobs)
    return run.count_failures(module.WORKLOADS[workload].check(jobs, outputs, {}), jobs)


def _corrupted(job, corrupt):
    return job._replace(run=lambda: corrupt(job.run()))


def main():
    problems = []
    for workload, (pick, corruptions) in CASES.items():
        _, module, jobs = run.set_up(workload, 0)
        jobs = [job for job in jobs if pick(job.name)]
        if not jobs:
            problems.append("%s: no job selected" % workload)
            continue
        clean = _failures(module, workload, jobs)
        if clean:
            problems.append("%s: %d clean jobs failed" % (workload, clean))
        for corrupt in corruptions:
            bad = [_corrupted(jobs[0], corrupt)] + jobs[1:]
            failed = _failures(module, workload, bad)
            status = "counted" if failed else "MISSED"
            print("%-10s %-24s %d failed of %d: %s"
                  % (workload, corrupt.__name__, failed, len(bad), status))
            if not failed:
                problems.append("%s: %s went unnoticed" % (workload, corrupt.__name__))
    for problem in problems:
        print("selftest: %s" % problem, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
