"""Golden corpus: full suite reports pinned against a stored report set.

Every case runs ``run_verify`` with all sections, seed 0 and 8 restarts and
must reproduce the pinned status vector exactly and every margin within
``rel_tol=1e-12`` (``abs_tol=1e-15``): refactors may reorder float
operations, never change a verdict.  The cases are the random spaces of
seeds 0-19, the catalog spaces at small resolution with their certificates
(``g1`` runs the Gaussian entries on exact subsets, ``s2`` their fail
branch), a two-point space and a space with one zero weight.

``golden_reports.json`` is regenerated only deliberately, with a note in
CHANGES.md saying why: ``PYTHONPATH=src python tests/test_golden_corpus.py``.
"""
import json
import math
import os

import numpy as np
import pytest

from ccmm.finsler import build_space, catalog_entry
from ccmm.quasimetric import (
    MetricMeasureSpace,
    ProbabilityMeasure,
    QuasiMetricSpace,
    random_mm_space,
)
from ccmm.verify import SECTIONS, run_verify

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reports.json")

RANDOM_SEEDS = range(20)
CATALOG = (("g1", 16), ("t2", 4), ("r1", 12), ("s2", 4))


def _catalog_space(cid: str, resolution: int):
    entry = catalog_entry(cid)
    certified = dict(entry.certified) if entry.certified else None
    if certified is not None:
        certified.setdefault("dim", entry.spec.domain.dim)
    return build_space(entry, resolution=resolution), certified


def _zero_weight_space():
    mm = random_mm_space(3)
    w = mm.weights.copy()
    w[0] = 0.0
    return MetricMeasureSpace(mm.space, ProbabilityMeasure(w / w.sum())), None


def _two_point_space():
    space = QuasiMetricSpace(np.array([[0.0, 1.0], [0.5, 0.0]]))
    return MetricMeasureSpace(space, ProbabilityMeasure(np.array([0.3, 0.7]))), None


CASES = {f"random-{s}": (lambda s=s: (random_mm_space(s), None)) for s in RANDOM_SEEDS}
CASES.update({f"{cid}@{res}": (lambda cid=cid, res=res: _catalog_space(cid, res))
              for cid, res in CATALOG})
CASES["two-point"] = _two_point_space
CASES["zero-weight"] = _zero_weight_space


def report_rows(name: str) -> dict:
    """Status and margin of every suite entry, in suite order."""
    mm, certified = CASES[name]()
    report = run_verify(mm, sections=sorted(SECTIONS), seed=0, restarts=8,
                        certified=certified)
    results = report.to_dict()["results"]
    return {"status": [e["status"] for e in results.values()],
            "margin": [e["margin"] for e in results.values()]}


@pytest.fixture(scope="module")
def pinned():
    with open(PINNED) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_pinned(name, pinned):
    got, want = report_rows(name), pinned[name]
    assert got["status"] == want["status"]
    for a, b in zip(got["margin"], want["margin"]):
        if a is None or b is None:
            assert a is b
        else:
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15), (a, b)


if __name__ == "__main__":
    with open(PINNED, "w") as fh:
        json.dump({name: report_rows(name) for name in CASES}, fh, indent=1)
        fh.write("\n")
