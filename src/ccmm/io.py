"""Space files, profile and report serialization.

The space format is a single JSON object

    { "n": int, "dist": [[...]] | null, "edges": [[i, j, w], ...] | null,
      "measure": [...] | null, "labels": [...] | null }

with exactly one of "dist"/"edges" present; a missing measure means
uniform.  Distance matrices are re-validated on load (relative tolerance
1e-12, as for constructed spaces).  CSV floats carry 17 significant digits
so re-importing reproduces them bit-exactly.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .concentration import ConcentrationProfile
from .quasimetric import (
    MetricMeasureSpace,
    ProbabilityMeasure,
    ViolationReport,
    from_digraph,
    validate,
)

__all__ = [
    "load_space",
    "save_space",
    "space_hash",
    "profile_to_csv",
    "load_profile_csv",
    "report_to_csv",
    "fmt17",
]


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def load_space(path) -> MetricMeasureSpace:
    """Load and validate a space file; raises ValueError on bad content."""
    with open(path) as fh:
        doc = json.load(fh)
    return space_from_dict(doc)


def space_from_dict(doc: dict) -> MetricMeasureSpace:
    n = int(doc.get("n", 0))
    dist = doc.get("dist")
    edges = doc.get("edges")
    if (dist is None) == (edges is None):
        raise ValueError("exactly one of 'dist' and 'edges' must be present")
    labels = doc.get("labels")
    if dist is not None:
        mat = np.asarray(dist, dtype=float)
        if mat.shape != (n, n):
            raise ValueError(f"dist has shape {mat.shape}, expected ({n}, {n})")
        # the full O(n^3) triangle scan is infeasible past a few thousand
        # points; fall back to sampled triples there
        result = validate(mat, rel_tol=1e-12, sampled=n > 2000, labels=labels)
        if isinstance(result, ViolationReport):
            raise ValueError(f"distance matrix is not a quasi-metric:\n{result}")
        space = result
    else:
        space = from_digraph([(int(i), int(j), float(w)) for i, j, w in edges],
                             n, labels=labels)
    measure = doc.get("measure")
    if measure is None:
        pm = ProbabilityMeasure.uniform(n)
    else:
        pm = ProbabilityMeasure(np.asarray(measure, dtype=float))
    return MetricMeasureSpace(space, pm)


def _fields_after_dist(mm: MetricMeasureSpace) -> dict:
    return {"edges": None, "measure": [float(x) for x in mm.weights],
            "labels": list(mm.space.labels) if mm.space.labels else None}


def space_to_dict(mm: MetricMeasureSpace) -> dict:
    return {"n": mm.n, "dist": [[float(x) for x in row] for row in mm.dist],
            **_fields_after_dist(mm)}


def save_space(mm: MetricMeasureSpace, path) -> None:
    Path(path).write_text(json.dumps(space_to_dict(mm)) + "\n")


def space_hash(mm: MetricMeasureSpace) -> str:
    """Hash of the canonical space serialization, json.dumps with sorted keys
    (identifies the input), fed to the hash one distance row at a time,
    never whole: "dist" sorts first, and the other keys follow it."""
    encode = json.JSONEncoder(sort_keys=True).encode
    digest = hashlib.sha256(b'{"dist": [')
    for i, row in enumerate(mm.dist):
        digest.update((", " * (i > 0) + encode(row.tolist())).encode())
    digest.update(("], " + encode({"n": mm.n, **_fields_after_dist(mm)})[1:]).encode())
    return digest.hexdigest()[:16]


def profile_to_csv(profile: ConcentrationProfile, out) -> None:
    """``r,alpha,strategy`` rows after a header, to ``out``: a path, or an
    open text stream such as ``sys.stdout``."""
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w", newline="") as fh:
            return profile_to_csv(profile, fh)
    writer = csv.writer(out)
    writer.writerow(["r", "alpha", "strategy"])
    for r, a in zip(profile.radii, profile.alphas):
        writer.writerow([fmt17(r), fmt17(a), profile.strategy])


def load_profile_csv(path) -> ConcentrationProfile:
    rs, alphas, strategy = [], [], "exact"
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rs.append(float(row["r"]))
            alphas.append(float(row["alpha"]))
            strategy = row["strategy"]
    return ConcentrationProfile(np.asarray(rs), np.asarray(alphas), strategy)


def report_to_csv(report_dict: dict, path) -> None:
    """One row per suite entry, stable column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theorem", "status", "margin", "notes"])
        for key, entry in report_dict["results"].items():
            margin = entry.get("margin")
            writer.writerow([key, entry["status"],
                             "" if margin is None else fmt17(margin),
                             entry.get("notes", "")])
