"""Discrete Minkowski contents, isoperimetric profiles, Gaussian comparison.

On a finite space the liminf defining a Minkowski content degenerates, so
contents are finite differences at a declared scale, recommended to be the
smallest positive distance of the mesh; every result records the scale used.
The Gaussian comparison profile phi and its inverse come from the standard
library (math.erfc and statistics.NormalDist).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .concentration import (
    EXACT_MAX_N,
    VERDICT_TOL,
    _candidate_groups,
    _prefix_masses,
    _set_distance_rows,
    _sorted_chunks,
)
from .lipschitz import LipschitzFamily
from .quasimetric import MetricMeasureSpace, _mass_below, as_pointset, snap_threshold

__all__ = [
    "MinkowskiContent",
    "mesh_scale",
    "minkowski_content",
    "isoperimetric_profile",
    "gaussian_phi",
    "gaussian_phi_inv",
    "profile_enlargement_check",
    "gaussian_alpha_bound",
    "normal_concentration_bound",
    "obsdiam_bound_from_curvature",
    "Lemma51Report",
]

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# profile_enlargement_check strides its scan down to at most this many rows
_MAX_SUBSETS = 512


@dataclass(frozen=True)
class MinkowskiContent:
    """Forward and backward boundary contents at a finite-difference scale."""

    forward: float
    backward: float
    scale: float

    @property
    def value(self) -> float:
        return min(self.forward, self.backward)


def mesh_scale(mm: MetricMeasureSpace) -> float:
    """The default content scale: just past the smallest positive distance.

    Strict balls at exactly the mesh step capture nothing and give zero
    contents.  A one-point space has no positive distance, and every scale
    gives it the same profile; it takes scale 1.
    """
    if mm.n < 2:
        return 1.0
    d = mm.dist
    return float(d[d > 0].min()) * (1.0 + 1e-9)


def _content_rows(masses: np.ndarray, fwd, bwd, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward contents (mu(B(E, scale)) - mu(E)) / scale per
    row, from each direction's rows as _prefix_masses gives them."""
    thr = np.array([snap_threshold(scale)])
    return tuple(np.maximum(_mass_below(rows, thr)[:, 0] - masses, 0.0) / scale
                 for rows in (fwd, bwd))


def minkowski_content(mm: MetricMeasureSpace, E, scale: float) -> MinkowskiContent:
    """Finite-difference Minkowski contents of E at the given scale.

    forward = (mu(B+(E, scale)) - mu(E)) / scale, backward alike.  The full
    space has content 0 by definition; an empty E is an error.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    ps = as_pointset(E, mm.n)
    if len(ps) == 0:
        raise ValueError("Minkowski content of an empty set")
    if len(ps) == mm.n:
        return MinkowskiContent(0.0, 0.0, float(scale))
    idx = ps.array()
    rows = _set_distance_rows(mm.dist, np.isin(np.arange(mm.n), idx)[None, :])
    mE = np.array([float(mm.weights[idx].sum())])
    fwd, bwd = _content_rows(mE, *(_prefix_masses(m, mm.weights) for m in rows), float(scale))
    return MinkowskiContent(float(fwd[0]), float(bwd[0]), float(scale))


def isoperimetric_profile(mm: MetricMeasureSpace, scale: float,
                          strategy: str = "exact",
                          family: LipschitzFamily | None = None,
                          seed: int = 0) -> list[tuple[float, float]]:
    """Minimal min(forward, backward) content at each achievable mass.

    "exact" scans all subsets (n <= 16); "family" scans balls and median
    level sets, giving an upper bound of the profile at the masses those
    sets realize.  The profile is 0 at mass 0 and mass 1 by definition.
    Masses are grouped after rounding to 12 decimals.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    best: dict[float, float] = {0.0: 0.0, 1.0: 0.0}
    for masses, fwd, bwd in _sorted_chunks(mm, strategy, family, 0.0, seed):
        contents = np.minimum(*_content_rows(masses, fwd, bwd, float(scale)))
        for mass, cont in zip(masses, contents):
            key = round(float(mass), 12)
            if key >= 1.0 - 1e-12:
                continue
            if key not in best or cont < best[key]:
                best[key] = float(cont)
    return sorted(best.items())


# ---------------------------------------------------------------------------
# Gaussian comparison profile
# ---------------------------------------------------------------------------

def gaussian_phi(t: float) -> float:
    """Standard normal CDF, as 0.5 erfc(-t / sqrt 2)."""
    return 0.5 * math.erfc(-float(t) / math.sqrt(2.0))


def gaussian_phi_inv(v: float) -> float:
    """Inverse of gaussian_phi on (0, 1)."""
    v = float(v)
    if not (0.0 < v < 1.0):
        raise ValueError("gaussian_phi_inv is defined on (0, 1)")
    return NormalDist().inv_cdf(v)


# ---------------------------------------------------------------------------
# enlargement and concentration consequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma51Report:
    """Gaussian enlargement check under a measured isoperimetric hypothesis.

    ``hypothesis_ok`` records whether the discrete profile dominates the
    Gaussian derivative target at the given scale; the enlargement
    conclusion is asserted only in that case, with one mesh step of slack
    (tol_disc = scale) for the discretized growth argument.  ``subsets``
    names the candidate class scanned ("exact" or "family"), possibly
    strided down to ``_MAX_SUBSETS`` rows; margins are in mass units.
    """

    hypothesis_ok: bool
    hypothesis_margin: float
    conclusion_asserted: bool
    conclusion_margin: float | None
    passed: bool
    subsets: str
    scale: float


def _strided_rows(groups) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every stride-th candidate of mass < 1, in scan order, and their count.

    The stride is the smallest that keeps at most ``_MAX_SUBSETS`` rows.  The
    masses pick the kept sets, so only their rows are built.
    """
    groups = list(groups)
    picks = [np.flatnonzero(masses < 1.0 - 1e-12) for masses, _, _ in groups]
    total = sum(len(p) for p in picks)
    stride = max(1, -(-total // _MAX_SUBSETS))
    kept, start = [], 0
    for (masses, build, _), p in zip(groups, picks):
        sel = p[-start % stride::stride]
        start += len(p)
        kept.append((masses[sel], *build(sel)))
    masses, m_fwd, m_bwd = (np.concatenate(parts) for parts in zip(*kept))
    return masses, m_fwd, m_bwd, total


def profile_enlargement_check(mm: MetricMeasureSpace, scale: float, r_grid,
                              K: float = 1.0,
                              family: LipschitzFamily | None = None,
                              seed: int = 0) -> Lemma51Report:
    """Check the Gaussian enlargement lower bound under a measured hypothesis.

    Hypothesis (measured, not assumed): every scanned subset E has
    min(forward, backward) content at least phi_K'(phi_K^{-1}(mu(E))) where
    phi_K(t) = phi(sqrt(K) t).  When it holds, asserts for the same subsets
    and every grid radius r, in the equivalent mass form,

        min(mu(B+(E, r)), mu(B-(E, r)))
            >= phi_K(phi_K^{-1}(mu(E)) + r - scale),

    one mesh step of slack covering the discretized growth argument.
    Subsets are enumerated exhaustively for n <= 16 and over the
    ball/level-set family otherwise; a deterministic stride caps the scan at
    ``_MAX_SUBSETS`` rows.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if K <= 0:
        raise ValueError("K must be positive")
    rs = np.asarray(r_grid, dtype=float)
    if np.any(rs <= 0):
        raise ValueError("grid radii must be positive")
    sqrt_k = math.sqrt(K)
    subsets = "exact" if mm.n <= EXACT_MAX_N else "family"
    groups = _candidate_groups(mm, subsets, family, 0.0, seed)
    masses, *rows, total = _strided_rows(groups)
    if total > _MAX_SUBSETS:
        subsets += f" (strided to {len(masses)} rows)"

    fwd, bwd = (_prefix_masses(m, mm.weights) for m in rows)
    contents = np.minimum(*_content_rows(masses, fwd, bwd, float(scale)))
    bases = np.array([gaussian_phi_inv(min(max(float(m), 1e-300), 1.0 - 1e-15))
                      for m in masses])
    targets = sqrt_k * INV_SQRT_2PI * np.exp(-0.5 * bases ** 2)
    hyp_margin = float(np.min(contents - targets)) if len(masses) else math.inf
    # the gate carries the same one-mesh-step slack as the conclusion:
    # discrete contents at scale h lag the continuum target by O(h)
    hypothesis_ok = hyp_margin >= -float(scale) - VERDICT_TOL
    if not hypothesis_ok:
        return Lemma51Report(False, hyp_margin, False, None, True, subsets, float(scale))

    thresholds = snap_threshold(rs)
    lhs = np.minimum(_mass_below(fwd, thresholds), _mass_below(bwd, thresholds))
    shifted = bases[:, None] / sqrt_k + rs[None, :] - float(scale)
    rhs = np.array([[gaussian_phi(sqrt_k * t) for t in row] for row in shifted])
    concl_margin = float(np.min(lhs - rhs)) if lhs.size else 0.0
    passed = concl_margin >= -VERDICT_TOL
    return Lemma51Report(True, hyp_margin, True, concl_margin, bool(passed),
                         subsets, float(scale))


def gaussian_alpha_bound(certified: bool, r: float) -> float:
    """Concentration bound 1 - phi(r) under the Gaussian profile hypothesis.

    The boolean is the certificate from profile_enlargement_check's gate;
    without it the bound is not implied and asking for it is an error.
    Equals 1 - phi(phi^{-1}(1/2) + r) since phi^{-1}(1/2) = 0.
    """
    if not certified:
        raise ValueError("gaussian_alpha_bound requires the profile hypothesis certificate")
    if r < 0:
        raise ValueError("r must be nonnegative")
    return 1.0 - gaussian_phi(r)


def normal_concentration_bound(K: float, r: float) -> float:
    """Gaussian-type concentration bound (1/2) e^{-K r^2 / 2} for spaces with
    curvature-dimension constant at least K > 0."""
    if K <= 0:
        raise ValueError("K must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    return 0.5 * math.exp(-0.5 * K * r * r)


def obsdiam_bound_from_curvature(K: float, epsilon: float) -> float:
    """Observable diameter bound 2 sqrt((2/K) log(1/eps)) under the same
    curvature hypothesis."""
    if K <= 0:
        raise ValueError("K must be positive")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly between 0 and 1")
    return 2.0 * math.sqrt(2.0 / K * math.log(1.0 / epsilon))
