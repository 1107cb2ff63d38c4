"""Regenerate bench/reference.json, the pinned reports every run is checked against.

    python3 bench/make_reference.py [--workload NAME ...]

Run it from the repository root.  It verifies every input the named
workloads (default: all) can draw with the current ``src`` and stores the
space size, the space hash, the status vector and the margin of every entry.
The random pool is the first ``RANDOM_POOL_PER_N`` space seeds of each n.
Regenerating the file accepts the current reports as correct, so do it only
on a commit whose reports are trusted, and record the commit and why in
CHANGES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
# the same BLAS threads as the benchmark's worker processes
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import workloads  # noqa: E402


def random_pool() -> list[int]:
    """The first RANDOM_POOL_PER_N space seeds of each n, in seed order."""
    from ccmm import random_mm_space

    seen: dict[int, int] = {}
    pool = []
    seed = 0
    while len(pool) < workloads.RANDOM_POOL_PER_N * len(workloads.RANDOM_NS):
        n = random_mm_space(seed).n
        if seen.get(n, 0) < workloads.RANDOM_POOL_PER_N:
            seen[n] = seen.get(n, 0) + 1
            pool.append(seed)
        seed += 1
    return pool


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()

    from ccmm import __version__
    from ccmm.verify import THEOREM_IDS

    ref = workloads.load_reference() if os.path.exists(workloads.REFERENCE) else {}
    for name in args.workload or sorted(workloads.WORKLOADS):
        if workloads.WORKLOADS[name]["kind"] == "random":
            keys = [str(s) for s in random_pool()]
        else:
            keys = [str(s) for s in workloads.CATALOG_SEEDS]
        rows = {}
        t0 = time.perf_counter()
        for key in keys:
            inputs = workloads.build_inputs(name, [key])[key]
            report = workloads.verify(inputs, workloads.THREADS)
            rows[key] = {"n": inputs[0].n, "hash": report.meta["space_hash"],
                         "status": workloads.status_vector(report),
                         "margins": workloads.margins(report)}
        ref[name] = rows
        print(f"{name}: {len(rows)} items in {time.perf_counter() - t0:.1f} s", flush=True)
    ref["meta"] = {"suite": list(THEOREM_IDS), "tool_version": __version__}
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
