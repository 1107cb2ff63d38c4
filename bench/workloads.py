"""The benchmark workloads: how each builds its inputs and calls the suite.

Every workload is a closed loop with one caller and one ``run_verify`` call
at a time.  A *pass* is the fixed list of verify calls the workload seed
picks; a run repeats passes until its time is up.  Inputs come only from the
seed and the pinned pools in ``reference.json``, so one seed always yields
the same inputs and the same expected statuses.
"""
from __future__ import annotations

import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# criterion 1's traffic: random_mm_space(seed) draws n uniformly in [3, 12]
RANDOM_NS = range(3, 13)
RANDOM_POOL_PER_N = 15        # pinned: the first 15 space seeds of each n
RANDOM_PER_N = 10             # spaces per n in one pass: 100 spaces
CATALOG_SEEDS = range(4)      # verify seeds with pinned statuses

# a verify call matches the reference only if every margin agrees this closely
MARGIN_RTOL = 1e-9
MARGIN_ATOL = 1e-12

# One verify thread (and one BLAS thread) everywhere: with the suite's
# entry-level thread pool, peak RSS depends on how the threads interleave.
THREADS = 1

WORKLOADS = {
    "random-exact": {"kind": "random"},
    "torus-spectral": {"kind": "catalog", "id": "t2", "resolution": 16},
    "line-isoperimetry": {"kind": "catalog", "id": "g1", "resolution": 128},
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def pass_keys(name: str, seed: int, index: int, reference: dict) -> list[str]:
    """Keys of the verify calls of pass ``index`` of a run with ``seed``.

    random-exact: 100 spaces, ten per n, drawn by the seed from the fifteen
    pinned spaces of each n; a pass holds all of them, in an order the
    seed sets.
    The partial overlap between seeds keeps the latency quantiles steady
    from run to run (a simulated IQR of 1-2% against 4-5% when drawing
    from the first 400 space seeds).  Catalog workloads: one verify call
    per pass, cycling through the pinned verify seeds from an offset the
    seed sets.
    """
    if WORKLOADS[name]["kind"] == "random":
        by_n: dict[int, list[str]] = {}
        for key, row in sorted(reference[name].items(), key=lambda kv: int(kv[0])):
            by_n.setdefault(row["n"], []).append(key)
        rng = random.Random(seed)
        keys = [k for n in sorted(by_n)
                for k in rng.sample(by_n[n], RANDOM_PER_N)]
        rng.shuffle(keys)
        return keys
    return [str(CATALOG_SEEDS[(seed + index) % len(CATALOG_SEEDS)])]


def build_inputs(name: str, keys: list[str]) -> dict:
    """The spaces the verify calls need, keyed like ``pass_keys``.

    Returns key -> (space, certified, label, verify seed).  A catalog space
    is built once and shared by every verify seed.
    """
    from ccmm import build_space, catalog_entry, random_mm_space

    spec = WORKLOADS[name]
    if spec["kind"] == "random":
        return {k: (random_mm_space(int(k)), None, f"random-{k}.json", 0) for k in keys}
    entry = catalog_entry(spec["id"])
    mm = build_space(entry, resolution=spec["resolution"])
    certified = dict(entry.certified) if entry.certified else None
    if certified is not None:
        certified.setdefault("dim", entry.spec.domain.dim)
    return {k: (mm, certified, spec["id"], int(k)) for k in keys}


def verify(inputs: tuple, nthreads: int):
    """One suite run with the arguments ``ccmm verify all`` passes."""
    from ccmm import run_verify
    from ccmm.verify import SECTIONS

    mm, certified, label, seed = inputs
    return run_verify(mm, sections=sorted(SECTIONS), seed=seed, threads=nthreads,
                      restarts=8, certified=certified, cheng=None, space_label=label)


def status_vector(report) -> str:
    """Statuses in suite order, one letter each (pass/fail/inconclusive/skipped)."""
    return "".join(e["status"][0] for e in report.to_dict()["results"].values())


def margins(report) -> list:
    """Margins in suite order; None for an entry without one (skipped)."""
    return [e["margin"] for e in report.to_dict()["results"].values()]


def same_margins(got: list, want: list) -> bool:
    """Whether two margin vectors agree entry by entry within MARGIN_RTOL."""
    return len(got) == len(want) and all(
        a is b if a is None or b is None
        else math.isclose(a, b, rel_tol=MARGIN_RTOL, abs_tol=MARGIN_ATOL)
        for a, b in zip(got, want))
