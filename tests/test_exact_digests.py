"""The benchmark's exact jobs as a tier-1 guard: every job of the seed-0
exact-chi list must reproduce the digest recorded from the library, the
star and ode methods must give the same exact rationals, and every job of
the hopf-suite list must exit 0."""

import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def perfbench_workloads():
    """The benchmark's workload module, loaded from its file (perfbench/ is
    not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exact_chi_jobs_match_their_digests():
    workloads = perfbench_workloads()
    jobs = workloads.exact_chi_jobs(0)
    outputs = [job.run() for job in jobs]
    results = workloads.check_chi(jobs, outputs, {})
    failed = [(job.name, diag) for job, (ok, diag) in zip(jobs, results) if not ok]
    assert len(results) == len(jobs) == 8
    assert failed == []


def test_hopf_suite_jobs_pass():
    workloads = perfbench_workloads()
    jobs = workloads.hopf_suite_jobs(0)
    outputs = [job.run() for job in jobs]
    results = workloads.check_hopf(jobs, outputs, {})
    failed = [(job.name, diag) for job, (ok, diag) in zip(jobs, results) if not ok]
    assert len(results) == len(jobs) == 6
    assert failed == []
