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
    _subset_lattice,
    _subset_masks,
    alpha_profile,
)
from .lipschitz import LipschitzFamily, _FamilyStack, as_field, generate_family
from .quasimetric import MetricMeasureSpace, ProbabilityMeasure, _balls, _count_below, _row_block

__all__ = [
    "ObsDiamResult",
    "partial_diameter",
    "pushforward_partial_diameter",
    "observable_diameter",
    "observable_diameters",
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
        masks = _subset_masks(n)
        # each subset's largest distance to every point; the largest of those
        # at its own points is its diameter, every ordered pair read once
        far = _subset_lattice(np.maximum, d, 0.0)[1:]
        diams = far.max(axis=1, where=masks, initial=0.0)
        return float(diams[masks @ w >= need].min(initial=math.inf))

    # heuristic: each center's smallest balls meeting the mass bar, then greedy peeling
    best = float(d.max())
    order, _, cw = _balls(d, w)
    for row, k in zip(order, _count_below(cw[:, 1:], np.array([need]))[:, 0]):
        if k < n:
            idx = row[: k + 1]
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


def _pardiams(rows, kappas) -> np.ndarray:
    """Pushforward partial diameter of every row of ``rows`` = (stably sorted
    values, weights, prefix masses cw) at every kappa: from start i the
    window ends at the first j >= i with cw[j + 1] - cw[i] >= need, bisected
    on exactly that predicate, which is monotone in j, so j is the end an
    exact sliding window reaches."""
    if not all(0.0 < k < 1.0 for k in kappas):
        raise ValueError("kappa must lie strictly between 0 and 1")
    values, _, prefix = rows
    (m, n), out = values.shape, np.empty((len(kappas), len(values)))
    step = _row_block(64 * (n + 1))  # the bisection holds about eight (rows, n) arrays
    for lo in range(0, m, step):
        vs, cw = values[lo:lo + step], prefix[lo:lo + step]
        for k, kappa in enumerate(kappas):
            first, last = np.broadcast_to(np.arange(n), vs.shape), np.full(vs.shape, n)
            for _ in range(n.bit_length()):
                mid = (first + last) // 2
                ok = (mid == last) | (np.take_along_axis(cw, np.minimum(mid + 1, n), axis=1)
                                      - cw[:, :-1] >= 1.0 - kappa - MASS_TOL)
                first, last = np.where(ok, first, mid + 1), np.where(ok, mid, last)
            width = np.take_along_axis(vs, np.minimum(first, n - 1), axis=1) - vs
            best = width.min(axis=1, where=first < n, initial=np.inf)
            # only degenerate rounding leaves no start holding the mass
            out[k, lo:lo + step] = np.where(np.isinf(best), vs[:, -1] - vs[:, 0], best)
    return out


def pushforward_partial_diameter(measure: ProbabilityMeasure, f, kappa: float) -> float:
    """Length of the shortest closed interval holding mass >= 1 - kappa of f,
    exact: for a discrete pushforward the optimum ends at attained values."""
    stack = _FamilyStack(as_field(f, measure.n)[None], measure.weights)
    return float(_pardiams(stack.values, [kappa])[0, 0])


def observable_diameters(mm: MetricMeasureSpace, kappas, family: LipschitzFamily | None = None,
                         seed: int = 0) -> dict[float, ObsDiamResult]:
    """Largest pushforward partial diameter over a certified family, per kappa,
    with the first member attaining it.  The members are read from the
    family's one sorted stack for the measure; a family certified on another
    distance matrix is certified again on ``mm``'s.
    Lower bounds of the true observable diameters (the family replaces the
    supremum over all 1-Lipschitz functions); a larger family can only
    increase them."""
    kappas = [float(k) for k in kappas]
    if family is None:
        family = generate_family(mm, seed=seed)
    elif not np.array_equal(family.space.dist, mm.dist):
        family = LipschitzFamily(mm.space, family.values, family.tags)
    vals = _pardiams(family._stacked(mm.weights).values, kappas)
    return {kappa: ObsDiamResult(kappa, float(row.max()), int(row.argmax()), len(family))
            for kappa, row in zip(kappas, vals)}


def observable_diameter(mm: MetricMeasureSpace, kappa: float,
                        family: LipschitzFamily | None = None, seed: int = 0) -> ObsDiamResult:
    """``observable_diameters`` at one kappa."""
    return observable_diameters(mm, [kappa], family, seed)[float(kappa)]


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
    grid = np.asarray(epsilon_grid, dtype=float)
    if diameters is None:
        diameters = observable_diameters(mm, grid, family, seed)
    if profile is None:
        profile = alpha_profile(mm, "exact")
    worst = math.inf
    witness = None
    for eps in grid:
        obs = diameters[float(eps)]
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
