"""Partial and observable diameters and their concentration bounds.

The partial diameter discards a kappa-fraction of the mass before measuring
a diameter; the observable diameter takes the worst 1-Lipschitz projection
to the line.  The supremum over the full Lipschitz cone is replaced by a
generated family, so reported observable diameters are certified lower
bounds of the true value; the upper-bound checks in this module remain valid
because their right-hand sides bound the true supremum.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .concentration import (
    EXACT_MAX_N,
    VERDICT_TOL,
    CheckReport,
    ConcentrationProfile,
    _subset_masks,
    alpha_profile,
)
from .lipschitz import LipschitzFamily, as_field, generate_family, is_lipschitz
from .quasimetric import MetricMeasureSpace, ProbabilityMeasure

__all__ = [
    "ObsDiamResult",
    "partial_diameter",
    "pushforward_partial_diameter",
    "observable_diameter",
    "alpha_inverse",
    "obsdiam_vs_alpha_check",
    "obsdiam_bound_normal",
    "obsdiam_bound_exponential",
]

MASS_TOL = 1e-12


@dataclass(frozen=True)
class ObsDiamResult:
    """Observable diameter over a family, with the attaining witness."""

    kappa: float
    value: float
    witness: int
    family_size: int


def partial_diameter(mm: MetricMeasureSpace, kappa: float,
                     exact: bool | None = None) -> float:
    """Smallest diameter of a subset carrying mass at least 1 - kappa.

    Exact by subset enumeration for n <= 16; above that a ball and greedy
    point-removal heuristic gives an upper bound of the true value.
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must lie strictly between 0 and 1")
    need = 1.0 - kappa - MASS_TOL
    w = mm.weights
    d = mm.dist
    n = mm.n
    if exact is None:
        exact = n <= EXACT_MAX_N
    if exact:
        if n > EXACT_MAX_N:
            raise ValueError(f"exact partial diameter requires n <= {EXACT_MAX_N}")
        best = math.inf
        masks = _subset_masks(n)
        masses = masks @ w
        for mask in masks[masses >= need]:
            idx = np.nonzero(mask)[0]
            best = min(best, float(d[np.ix_(idx, idx)].max()))
        return best

    # heuristic: all balls meeting the mass bar, then greedy peeling
    best = float(d.max())
    for center in range(n):
        for vec in (d[center, :], d[:, center]):
            order = np.argsort(vec, kind="stable")
            cum = np.cumsum(w[order])
            k = int(np.searchsorted(cum, need, side="left"))
            if k < n:
                idx = order[: k + 1]
                best = min(best, float(d[np.ix_(idx, idx)].max()))
    idx = list(range(n))
    mass = 1.0
    while True:
        sub = np.ix_(idx, idx)
        dd = mm.dist[sub]
        i, j = np.unravel_index(int(np.argmax(dd)), dd.shape)
        cur = float(dd[i, j])
        best = min(best, cur)
        removable = [k for k in (i, j) if mass - w[idx[k]] >= need]
        if not removable:
            break
        k = min(removable, key=lambda k: w[idx[k]])
        mass -= w[idx[k]]
        idx.pop(k)
        if len(idx) <= 1:
            best = 0.0
            break
    return best


def pushforward_partial_diameter(measure: ProbabilityMeasure, f, kappa: float) -> float:
    """Length of the shortest closed interval holding mass >= 1 - kappa of f.

    Exact sliding window over the sorted attained values; for a discrete
    pushforward the optimum is attained on value endpoints.
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must lie strictly between 0 and 1")
    v = as_field(f, measure.n)
    order = np.argsort(v, kind="stable")
    vs = v[order]
    cw = np.concatenate([[0.0], np.cumsum(measure.weights[order])])
    need = 1.0 - kappa - MASS_TOL
    best = math.inf
    j = 0
    for i in range(len(vs)):
        if j < i:
            j = i
        while j < len(vs) and cw[j + 1] - cw[i] < need:
            j += 1
        if j == len(vs):
            break
        best = min(best, float(vs[j] - vs[i]))
    if best is math.inf:  # only reachable through degenerate rounding
        best = float(vs[-1] - vs[0])
    return best


def observable_diameter(mm: MetricMeasureSpace, kappa: float,
                        family: LipschitzFamily | None = None,
                        seed: int = 0) -> ObsDiamResult:
    """Largest pushforward partial diameter over a certified family.

    A lower bound of the true observable diameter (the family replaces the
    supremum over all 1-Lipschitz functions); enlarging the family can only
    increase the result.
    """
    if family is None:
        family = generate_family(mm, seed=seed)
    if len(family) == 0:
        raise ValueError("empty family")
    best = -math.inf
    witness = -1
    for k, f in enumerate(family):
        if not is_lipschitz(mm.space, f):
            raise ValueError(f"family member {k} fails 1-Lipschitz certification")
        val = pushforward_partial_diameter(mm.measure, f, kappa)
        if val > best:
            best, witness = val, k
    return ObsDiamResult(float(kappa), float(best), witness, len(family))


def alpha_inverse(profile: ConcentrationProfile, epsilon: float) -> float:
    """Generalized inverse inf{r > 0 : alpha(r) <= epsilon} from a profile.

    Requires an exact profile; returns 0 when already alpha(0+) <= epsilon.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if profile.strategy != "exact":
        raise ValueError("alpha_inverse requires an exact profile")
    idx = np.nonzero(profile.alphas <= epsilon)[0]
    if idx.size == 0:
        # the profile ends at 0 beyond the diameter, so this cannot happen
        # for epsilon > 0 on a valid profile
        return float(profile.radii[-1])
    first = int(idx[0])
    return 0.0 if first == 0 else float(profile.radii[first - 1])


def obsdiam_vs_alpha_check(mm: MetricMeasureSpace, epsilon_grid,
                           family: LipschitzFamily | None = None,
                           profile: ConcentrationProfile | None = None,
                           seed: int = 0,
                           diameters: Mapping[float, ObsDiamResult] | None = None,
                           ) -> CheckReport:
    """Check ObsDiam(eps) <= 2 alpha^{-1}(eps/2) on an epsilon grid.

    The left side is the family lower bound, so a pass is a necessary
    condition for the inequality over the full Lipschitz cone; a failure is
    a genuine counterexample and is reported with its witness.
    ``diameters`` maps each epsilon of the grid to its already computed
    observable diameter; without it they are computed over ``family``.
    """
    if diameters is None and family is None:
        family = generate_family(mm, seed=seed)
    if profile is None:
        profile = alpha_profile(mm, "exact")
    worst = math.inf
    witness = None
    for eps in np.asarray(epsilon_grid, dtype=float):
        obs = (diameters[float(eps)] if diameters is not None
               else observable_diameter(mm, float(eps), family))
        rhs = 2.0 * alpha_inverse(profile, float(eps) / 2.0)
        margin = rhs - obs.value
        if margin < worst:
            worst = float(margin)
            witness = {"epsilon": float(eps), "obsdiam": obs.value,
                       "bound": rhs, "witness_member": obs.witness}
    note = "family lower bound on the left side; pass is necessary-condition only"
    return CheckReport(bool(worst >= -VERDICT_TOL), worst, notes=note, witness=witness)


def obsdiam_bound_normal(C: float, c: float, epsilon: float) -> float:
    """Observable diameter bound 2 sqrt(log(2C/eps) / c) under normal
    concentration with constants (C, c); clamped to 0 when 2C <= eps."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if C <= 0 or c <= 0:
        raise ValueError("C and c must be positive")
    arg = 2.0 * C / epsilon
    if arg <= 1.0:
        return 0.0
    return 2.0 * math.sqrt(math.log(arg) / c)


def obsdiam_bound_exponential(C: float, c: float, epsilon: float) -> float:
    """Observable diameter bound (2/c) log(2C/eps) under exponential
    concentration with constants (C, c); clamped to 0 when 2C <= eps."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if C <= 0 or c <= 0:
        raise ValueError("C and c must be positive")
    arg = 2.0 * C / epsilon
    if arg <= 1.0:
        return 0.0
    return 2.0 * math.log(arg) / c
