"""Record the exact-chi reference digests into perfbench/digests.json.

    python3 perfbench/record_digests.py

Run it from the root of a checkout of the unmodified library.  For every
exact-chi algebra, every direction of the pool and both of its orders it
computes chi at scale 1 by the star and the ode method, requires the two
to agree on their common degrees, and stores the digest of each.  The
benchmark checks later runs against these digests, so a change to the
library that alters an exact coefficient fails the check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    digests = {}
    for algebra, star_order, ode_order in workloads.CHI_CASES:
        for direction in range(workloads.CHI_DIRECTIONS):
            star = workloads.chi_job(algebra, "star", star_order, direction, 1).run()
            ode = workloads.chi_job(algebra, "ode", ode_order, direction, 1).run()
            if star.coeffs != ode.coeffs[:star_order]:
                sys.exit("star and ode disagree on %s direction %d" % (algebra, direction))
            for order, out in ((star_order, star), (ode_order, ode)):
                key = "%s/%d/%d" % (algebra, direction, order)
                digests[key] = workloads.chi_digest(out.coeffs)
            print(algebra, direction, "ok", flush=True)
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
