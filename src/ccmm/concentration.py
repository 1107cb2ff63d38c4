"""Concentration functions and tail inequalities on finite mm-spaces.

The concentration function alpha(r) is the worst residual mass outside the
open r-enlargement of any half-mass set, taking the smaller of the forward
and backward enlargements.  On a finite space it is a non-increasing step
function with jumps only at attained distances, so profiles are evaluated
exactly on the two-sided breakpoint grid rather than on an r-mesh.

Two strategies are available: "exact" enumerates all subsets (n <= 16),
"family" restricts to metric balls and median sub/superlevel sets of a
1-Lipschitz family, which yields a certified lower bound of alpha.
Ordered by bit code, each subset is a smaller one plus its top point, so
the exact rows of all of them come off one lattice in n exact minima, and
each exact reader sorts its own chunks of it.
Each candidate row is sorted once, stably; its mass below the breakpoint
grid is constant between consecutive row values, so alpha and the transfer
margins are read off the row's n + 1 segment ends, never off a (rows,
radii) table.  The family readers (median and mean tails, moments) slice
the family's one sorted stack, and every whole-row mass or tail is read
off sorted prefix masses at counts from one exact integer kernel.  The
tail envelope finds its sample points among exact products mass * radius.

The module also carries the explicit constants that convert between
concentration decay, median and mean deviation tails, moment bounds, and
tail decay, together with executable checks of each conversion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lipschitz import (
    LipschitzFamily,
    _deviations,
    _FamilyStack,
    as_field,
    generate_family,
    lipschitz_constant,
)
from .quasimetric import (
    MetricMeasureSpace,
    _balls,
    _count_below,
    _mass_below,
    _min_plus,
    _row_block,
    _sorted_rows,
    _stable_order,
    breakpoint_radii,
    snap_threshold,
)

__all__ = [
    "EXACT_MAX_N",
    "VERDICT_TOL",
    "ConcentrationProfile",
    "ProfileFit",
    "SampledDecreasing",
    "CheckReport",
    "DeviationReport",
    "TailTransferReport",
    "MomentReport",
    "alpha",
    "alpha_profile",
    "deviation_check",
    "moment_norm",
    "check_moment_concentration",
    "check_linear_tail_decay",
    "tail_envelope",
    "enlargement_check_from_tail_bound",
    "median_to_mean_tail_constants",
    "normal_equivalence_constants",
    "moment_bound_from_normal_tails",
    "tail_bound_from_square_moments",
    "tail_bound_from_first_moment",
    "fit_profile",
]

# Exact subset enumeration is allowed up to 2^16 subsets.
EXACT_MAX_N = 16

# Absolute slack used when declaring an exactly-true inequality verified;
# absorbs float rounding of measure sums, never more.
VERDICT_TOL = 1e-9

_BALL_CENTERS = 16  # centers per ball table: a scan never holds the whole table


# ---------------------------------------------------------------------------
# small numeric helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampledDecreasing:
    """A non-increasing function known at sample points.

    Between samples it evaluates to the value at the greatest sample at or
    below the argument (the largest non-increasing extension of the data);
    below the first sample it evaluates to 1, the trivial tail bound.
    """

    rs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rs = np.asarray(self.rs, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if rs.ndim != 1 or rs.shape != vs.shape:
            raise ValueError("samples and values must be equal-length vectors")
        if np.any(np.diff(rs) <= 0):
            raise ValueError("sample points must be strictly increasing")
        if np.any(np.diff(vs) > 1e-12):
            raise ValueError("sampled values must be non-increasing")
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "values", vs)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.rs, s, side="right") - 1
        # index -1, below the first sample or with no samples, picks the 1
        out = np.append(self.values, 1.0)[idx]
        return float(out) if out.ndim == 0 else out


def _as_beta(beta) -> Callable:
    if isinstance(beta, SampledDecreasing):
        return beta
    if callable(beta):
        return lambda s: np.asarray(beta(np.asarray(s, dtype=float)), dtype=float)
    raise TypeError("beta must be a SampledDecreasing or a callable")


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    passed: bool
    margin: float
    notes: str = ""
    witness: dict | None = None


@dataclass(frozen=True)
class DeviationReport:
    """Median-deviation inequalities for one Lipschitz field.

    ``upper`` is the tail above the median, ``lower`` below it, ``twosided``
    the combined inequality with the doubled concentration bound.
    """

    upper: CheckReport
    lower: CheckReport
    twosided: CheckReport
    lipschitz: float

    @property
    def passed(self) -> bool:
        return self.upper.passed and self.lower.passed and self.twosided.passed


@dataclass(frozen=True)
class TailTransferReport:
    """Mean-tail hypothesis transferred to enlargement bounds.

    The hypothesis is tested on a finite extreme-point family only, which is
    a necessary condition, not a proof that it holds for every 1-Lipschitz
    function; the conclusions are asserted only when that necessary check
    passes.
    """

    hypothesis_ok: bool
    hypothesis_margin: float
    conclusions_asserted: bool
    enlargement_margin: float | None
    alpha_margin: float | None
    passed: bool
    notes: str = "hypothesis checked on a finite family (necessary only)"


@dataclass(frozen=True)
class MomentReport:
    holds: bool
    largest_constant: float
    worst_member: int


# ---------------------------------------------------------------------------
# subset and candidate machinery
# ---------------------------------------------------------------------------

def _subset_masks(n: int) -> np.ndarray:
    """All nonempty subsets of range(n) as a (2^n - 1, n) boolean array."""
    total = 1 << n
    codes = np.arange(1, total, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(bool)


def _subset_lattice(op, rows: np.ndarray, empty: float) -> np.ndarray:
    """op over rows[k] for the points k of every subset, indexed by bit code
    as _subset_masks orders them (code 0, the empty set, holds ``empty``):
    codes h to 2h - 1 add point log2(h) to the codes below h, one op each."""
    out = np.full((1 << len(rows), *rows.shape[1:]), empty)
    for k, row in enumerate(rows):
        h = 1 << k
        op(out[:h], row, out=out[h:2 * h])
    return out


def _pow(x: np.ndarray, y: float) -> np.ndarray:
    """x ** y entry by entry through the C library's pow, which rounds as
    scalar float arithmetic does; numpy's vectorized pow can round
    differently (it does on AVX-512 hosts)."""
    return np.frompyfunc(math.pow, 2, 1)(x, y).astype(float)


def _lq_norms(weights: np.ndarray, dev: np.ndarray, q: float) -> np.ndarray:
    """The L^q(mu) norm of every row of ``dev``."""
    return _pow(np.vecdot(dev ** q, weights), 1.0 / q)


def _prefix_masses(rows: np.ndarray, weights: np.ndarray):
    """Set-distance rows as _sorted_rows gives them, but with the whole row
    of mass one by definition, not by cumsum."""
    ms, ws, cw = _sorted_rows(rows, weights, _stable_order(rows))
    cw[:, -1] = 1.0
    return ms, ws, cw


def _set_distance_rows(dist: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward point-to-set distances for each mask row: the
    min-plus products of its indicator field, 0 on the set and inf off it,
    with d and with d reversed.  Adding 0 or inf is exact."""
    indicator = np.where(masks, 0.0, np.inf)
    return _min_plus(dist, indicator), _min_plus(dist.T, indicator)


def _ball_rows(dist: np.ndarray, order: np.ndarray, ends: np.ndarray):
    """Rows of the balls made of the first ends[i] + 1 points of ``order``
    (selections keep ends increasing), as prefix minima of stretch minima."""
    def build(sel):
        cuts = np.r_[0, ends[sel] + 1]
        return tuple(np.minimum.accumulate(np.minimum.reduceat(
            m[order[:cuts[-1]]], cuts[:-1], axis=0), axis=0) for m in (dist, dist.T))
    return build


def _candidate_groups(mm: MetricMeasureSpace, strategy: str,
                      family: LipschitzFamily | None, min_mass: float, seed: int):
    """Groups (masses, build, block) of the sets of mass >= min_mass: their
    masses in scan order, build(sel) -> (m_fwd, m_bwd) of the selected sets
    only, and the rows a full scan builds at once.  "exact" is every
    nonempty subset (n <= 16), whose rows come off one bit-code lattice of
    them all; "family" is each center's forward, then backward, balls,
    which end where the sorted row strictly rises so that ties enter
    together, then the median level sets of the family.  A ball's
    enlargements hold those of the balls inside it, so for min_mass > 0 (the
    alpha curve) each center and direction gives only its smallest ball, and
    no level set that is one of those balls: equal sets have equal rows."""
    dist, w, n = mm.dist, mm.weights, mm.n
    if strategy == "exact":
        if n > EXACT_MAX_N:
            raise ValueError(f"exact enumeration allowed only for n <= {EXACT_MAX_N}, got n = {n}")
        masks = _subset_masks(n)
        # a set's rows and a point's (d(k, .), d(., k)) join by a minimum, exactly
        lattice = _subset_lattice(np.minimum, np.stack([dist, dist.T], axis=1), np.inf)
        rows = lambda picks: tuple(lattice[picks + 1].swapaxes(0, 1))
    elif strategy == "family":
        fam = family if family is not None else generate_family(mm, seed=seed)
        seen = set()  # the yielded balls' sorted points, as np.intp bytes
        for lo in range(0, n, _BALL_CENTERS):
            order, vs, cw = _balls(dist, w, slice(lo, lo + _BALL_CENTERS))
            rises = np.append(vs[:, 1:] > vs[:, :-1], np.ones((len(vs), 1), bool), axis=1)
            for row, ends, masses in zip(order, rises & (cw[:, 1:] >= min_mass), cw[:, 1:]):
                ends = np.flatnonzero(ends)[:1 if min_mass > 0 else None]
                if len(ends):
                    if min_mass > 0:
                        seen.add(np.sort(row[:ends[0] + 1]).astype(np.intp).tobytes())
                    yield masses[ends], _ball_rows(dist, row, ends), n
        del order, vs, cw, rises, row, masses  # no ball table outlives the ball scan
        m = fam._stacked(w).medians[:, None]
        masks = np.stack([fam.values <= m, fam.values >= m], axis=1).reshape(-1, n)
        if seen:  # only the alpha curve prunes
            masks = masks[[np.flatnonzero(mask).tobytes() not in seen for mask in masks]]
        rows = lambda picks: _set_distance_rows(dist, masks[picks])
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    masses = masks @ w
    picks = np.flatnonzero(masses >= min_mass)
    if len(picks):
        yield masses[picks], lambda sel: rows(picks[sel]), _row_block(8 * n * n)


def _sorted_chunks(mm: MetricMeasureSpace, strategy: str, family: LipschitzFamily | None,
                   min_mass: float, seed: int):
    """(masses, fwd, bwd) per chunk of candidates of mass >= min_mass, each
    direction as _prefix_masses gives it, in scan order, one chunk built and
    sorted at a time."""
    return ((masses[lo:lo + block],
             *(_prefix_masses(m, mm.weights) for m in build(slice(lo, lo + block))))
            for masses, build, block in _candidate_groups(mm, strategy, family, min_mass, seed)
            for lo in range(0, len(masses), block))


def _curve(order: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """alpha at the radii sorted by ``order``, back in their own order, from
    the largest 1 - mu of the segments ending at each sorted grid index."""
    curve = np.empty(len(order))
    curve[order] = np.maximum.accumulate(ends[::-1])[::-1][1:]
    return curve


def _alpha_curve(mm: MetricMeasureSpace, radii: np.ndarray, strategy: str,
                 family: LipschitzFamily | None = None, seed: int = 0) -> np.ndarray:
    """alpha at every radius, from each candidate row's segment ends.

    On the sorted thresholds t, a sorted row with prefix masses cw has
    1 - mu = 1 - cw[i] on its segment e[i - 1] <= k < e[i] = #{t <= ms[i]},
    never rising in k: alpha at k is the largest of a segment ending past k.
    """
    order = np.argsort(radii, kind="stable")
    ts = snap_threshold(np.asarray(radii, dtype=float)[order])
    ends = np.zeros(len(ts) + 1)
    for _, *dirs in _sorted_chunks(mm, strategy, family, 0.5, seed):
        for ms, _, cw in dirs:
            # flat operands take ufunc.at's fast path, about 10x the 2-d one
            np.maximum.at(ends, np.searchsorted(ts, ms, "right").ravel(),
                          (1.0 - cw[:, :-1]).ravel())
    return _curve(order, ends)


# ---------------------------------------------------------------------------
# the concentration function and its profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationProfile:
    """Sampled map r -> alpha(r) on the two-sided breakpoint grid.

    Under the "family" strategy the values are certified lower bounds of the
    true concentration function; under "exact" they are exact.
    """

    radii: np.ndarray
    alphas: np.ndarray
    strategy: str

    def __post_init__(self):
        rs = np.asarray(self.radii, dtype=float)
        al = np.asarray(self.alphas, dtype=float)
        if rs.shape != al.shape or rs.ndim != 1:
            raise ValueError("radii and alphas must be equal-length vectors")
        if np.any(np.diff(rs) <= 0):
            raise ValueError("radii must be strictly increasing")
        if np.any(np.diff(al) > 1e-12):
            raise ValueError("alpha samples must be non-increasing")
        if np.any(al < -1e-15) or np.any(al > 0.5 + 1e-12):
            raise ValueError("alpha samples must lie in [0, 1/2]")
        object.__setattr__(self, "radii", rs)
        object.__setattr__(self, "alphas", al)

    @property
    def breakpoints(self) -> list[tuple[float, float]]:
        return [(float(r), float(a)) for r, a in zip(self.radii, self.alphas)]

    def value_at(self, r) -> float | np.ndarray:
        """Step-function evaluation, exact for exact-strategy profiles.

        alpha is constant between consecutive attained distances, so the
        value at r is the sample at the smallest grid point >= r, and 0
        beyond the diameter.  Radii within the membership snap tolerance
        above a grid point still exclude that jump's boundary points, so
        they evaluate to the sample at the grid point itself.
        """
        from .quasimetric import SNAP_RTOL

        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("alpha is defined for r > 0")
        idx = np.searchsorted(self.radii, r, side="left")
        prev = np.append(-np.inf, self.radii)[idx]  # the grid point below r
        idx = np.where(r - prev <= SNAP_RTOL * np.maximum(1.0, r), idx - 1, idx)
        out = np.append(self.alphas, 0.0)[idx]
        return float(out) if out.ndim == 0 else out


def alpha(mm: MetricMeasureSpace, r: float, strategy: str = "exact",
          family: LipschitzFamily | None = None, seed: int = 0) -> float:
    """Concentration function at one radius.

    "exact" takes the max over all subsets of mass >= 1/2 (n <= 16);
    "family" restricts to balls and median level sets of a 1-Lipschitz
    family and returns a lower bound of the true value.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    return float(_alpha_curve(mm, np.array([float(r)]), strategy, family, seed)[0])


def alpha_profile(mm: MetricMeasureSpace, strategy: str = "exact",
                  family: LipschitzFamily | None = None, seed: int = 0) -> ConcentrationProfile:
    """alpha sampled at every attained distance and just after it.

    The grid ends beyond the diameter where the profile reaches 0 exactly.
    """
    radii = breakpoint_radii(mm.space)
    # a suffix maximum over the ascending radii: non-increasing exactly
    curve = _alpha_curve(mm, radii, strategy, family, seed)
    return ConcentrationProfile(radii, np.clip(curve, 0.0, 0.5), strategy)


# ---------------------------------------------------------------------------
# median-deviation inequalities
# ---------------------------------------------------------------------------

def deviation_check(mm: MetricMeasureSpace, f, profile: ConcentrationProfile) -> DeviationReport:
    """Verify the median tail inequalities of a Lipschitz field.

    With L the field's Lipschitz constant (floored at 1e-12) and m
    its lower median, checks at the radius r = L s for every profile
    breakpoint s

        mu(f >= m + r)       <= alpha(r / L) = alpha(s)
        mu(f <= m - r)       <= alpha(s)
        mu(|f - m| >= r)     <= 2 alpha(s)

    Parametrizing the checked radii through the breakpoints makes the right
    side the exact stored samples, with no step-function interpolation.  The
    profile must be exact: a family lower bound on the right side cannot
    certify an upper-bound inequality.
    """
    if profile.strategy != "exact":
        raise ValueError("deviation_check requires an exact profile")
    v = as_field(f, mm.n)
    L = max(lipschitz_constant(mm.space, v), 1e-12)
    rs, margins = _deviation_margins(_FamilyStack(v[None], mm.weights), np.array([L]), profile)

    def _rep(margins):
        if not margins.size:  # no breakpoint: nothing to check
            return CheckReport(True, math.inf)
        k = int(np.argmin(margins))
        return CheckReport(bool(margins[k] >= -VERDICT_TOL), float(margins[k]),
                           witness={"r": float(rs[0, k])})

    return DeviationReport(*(_rep(mg[0]) for mg in margins), L)


def _deviation_margins(stack: _FamilyStack, L: np.ndarray, profile: ConcentrationProfile):
    """The radii r = L s of every row f of ``stack`` with constant L, and the
    margins of its upper, lower and two-sided inequalities at those radii."""
    rows = vs, _, cw = stack.values
    m = stack.medians[:, None]
    rs = L[:, None] * profile.radii
    up = cw[:, -1:] - _mass_below(rows, m + rs)
    # mu(f <= t) is the mass of the values not above t
    lo = np.take_along_axis(cw, vs.shape[1] - _count_below(-vs, -(m - rs)), axis=1)
    rhs = profile.alphas
    # the two tails are disjoint for r > 0
    return rs, (rhs - up, rhs - lo, 2 * rhs - (up + lo))


# ---------------------------------------------------------------------------
# moment concentration and tail decay
# ---------------------------------------------------------------------------

def moment_norm(mm: MetricMeasureSpace, f, q: float) -> float:
    """L^q(mu) norm of f - mean(f)."""
    if q < 1:
        raise ValueError("q must be at least 1")
    w = mm.weights
    return float(_lq_norms(w, _deviations(w, as_field(f, mm.n)[None]), q)[0])


def _moment_powers(mm: MetricMeasureSpace, family: LipschitzFamily, p: float,
                   q: float) -> np.ndarray:
    """||f - mean f||_q^p of every member, from the family's stacked deviations."""
    w = mm.weights
    return _pow(_lq_norms(w, family._stacked(w).dev, q), p)


def check_moment_concentration(mm: MetricMeasureSpace, family: LipschitzFamily,
                               p: float, q: float, C: float) -> MomentReport:
    """Does every family member satisfy ||f - mean||_q^p <= q / C?

    Also reports the largest constant for which the inequality holds,
    q / max_f ||f - mean||_q^p (infinite for an all-constant family).
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be at least 1")
    if C <= 0:
        raise ValueError("C must be positive")
    powers = _moment_powers(mm, family, p, q)
    worst = int(np.argmax(powers))
    largest = float(q / powers[worst]) if powers[worst] > 0 else math.inf
    holds = bool(powers[worst] <= (q / C) * (1 + 1e-12))
    return MomentReport(holds, largest, worst)


def check_linear_tail_decay(mm: MetricMeasureSpace, family: LipschitzFamily,
                            C: float, r_grid) -> CheckReport:
    """Verify mu(|f - mean| >= r) <= 1 / (C r) over the family and grid."""
    if C <= 0:
        raise ValueError("C must be positive")
    rs = np.asarray(r_grid, dtype=float)
    margins = np.minimum(1.0, 1.0 / (C * rs)) - family._stacked(mm.weights).tails(rs)
    k, j = np.unravel_index(int(np.argmin(margins)), margins.shape)
    worst = float(margins[k, j])
    return CheckReport(bool(worst >= -VERDICT_TOL), worst,
                       witness={"member": int(k), "r": float(rs[j])})


# ---------------------------------------------------------------------------
# mean-tail envelope and the enlargement transfer check
# ---------------------------------------------------------------------------

def tail_envelope(mm: MetricMeasureSpace, family: LipschitzFamily | None = None,
                  radii: np.ndarray | None = None, seed: int = 0) -> SampledDecreasing:
    """Measured mean-deviation tail envelope of the space (n <= 16).

    Dominates, by construction, the tails of every supplied family member at
    every breakpoint and the tails of the truncated distance cones
    min(d(A, .), rho) and max(-d(., A), -rho) at the radii the enlargement
    argument consumes (mass(A) * rho).  Feeding it to
    :func:`enlargement_check_from_tail_bound` therefore exercises the full
    transfer with a hypothesis that genuinely holds.  Its values never rise.

    The cones are read in event form (:func:`_cone_front`): a row's tail at
    rho is set by two counts and two flags, which change only where rho, or
    the thresholds built from it, cross one of the row's values.  Each row
    is read at the ends of the stretches between the crossings of rho,
    stretches the front already covers are dropped, and the crossings of
    the thresholds inside the rest are placed and confirmed, so a row costs
    a few readings rather than one per radius.  The first sample point past
    each front sample comes from one search per radius among the products
    mass * radius.  The envelope is the same, bit for bit, as reading every
    row at every radius.
    """
    if mm.n > EXACT_MAX_N:
        raise ValueError(f"tail envelope enumeration requires n <= {EXACT_MAX_N}")
    if radii is None:
        radii = breakpoint_radii(mm.space)
    # ascending radii make every sample row below ascend in s
    radii = np.sort(np.asarray(radii, dtype=float))
    if not len(radii):
        # sampled nowhere: the trivial bound 1 everywhere
        return SampledDecreasing(np.empty(0), np.empty(0))
    if family is None:
        family = generate_family(mm, count=2 * mm.n + 8, seed=seed)

    # the front: the samples (s, v) no other at or past s covers, ascending
    # in s, from the family members' full tail curves on the grid first
    tails = family._stacked(mm.weights).tails(radii * (1 - 1e-9))
    # a tail curve never rises: only its samples above the next can be tops
    tops = np.append(tails[:, :-1] > tails[:, 1:], np.ones((len(tails), 1), bool), axis=1)
    front = _merge_front((np.empty(0), np.empty(0)),
                         np.broadcast_to(radii, tails.shape)[tops], tails[tops])

    # truncated distance cones min(d(A, .), rho): one point (mass(A) rho,
    # tail at mass(A) rho) per (A, rho); the reversed cones have the same
    # centered deviations, so both directions reduce to this computation
    masses, build, _ = next(_candidate_groups(mm, "exact", None, 0.0, seed))
    step = _row_block(_CONE_ROW_BYTES * (mm.n + 2))
    for lo in range(0, len(masses), step):
        dirs = (_prefix_masses(m, mm.weights) for m in build(slice(lo, lo + step)))
        ms, ws, cw = (np.concatenate(parts) for parts in zip(*dirs))
        front = _cone_front(front, np.tile(masses[lo:lo + step], 2), ms, ws, cw, radii)

    # t -> max{v : s >= t} changes value only at the first sample point past
    # a front sample, the last excepted: the envelope keeps it only there and
    # at the first point of all, with its value unchanged at every point
    ts, tv = front
    if not len(ts):
        return SampledDecreasing(np.empty(0), np.empty(0))
    past = _first_points_past(np.append(0.0, ts[:-1]), radii, np.unique(masses))
    first, after = past[0], past[1:]
    # first reads the first front sample and after[j] the (j + 1)-th, so no
    # value repeats
    starts = np.unique(np.append(after[after < np.inf], first))
    return SampledDecreasing(starts, tv[np.searchsorted(ts, starts, side="left")])


# bytes per subset of the cone kernel, over n + 2 stretches per row
_CONE_ROW_BYTES = 512

# (row, radius) pairs up to which a block of cones is read at every radius
_CONE_GRID_PAIRS = 16384

# the fields of the cone kernel's readings, stacked
_S, _KEY, _MARGIN, _RHO, _HI, _LO, _KA, _KB = range(8)


def _cone_thresholds(mass, rho, below, below_sum):
    """s, hi and lo of rows of mass ``mass`` at radii ``rho``, from the mass
    and the weighted sum of each row's values below rho: the float formula
    of the whole-grid scan, which every sample of the envelope reads."""
    s = mass * rho
    # relative and absolute shrink: the absolute part covers the
    # membership snap and mean rounding for tiny-mass subsets
    thr = s * (1 - 1e-9) - 1e-12 * np.maximum(1.0, rho)
    # mean of min(m, rho) from the prefix sums below rho
    mean_f = below_sum + rho * (1.0 - below)
    return s, mean_f + thr, mean_f - thr


def _cone_front(front: tuple[np.ndarray, np.ndarray], masses: np.ndarray, ms: np.ndarray,
                ws: np.ndarray, cw: np.ndarray, radii: np.ndarray):
    """``front`` with the samples (s, v) = (mass rho, tail at mass rho) of the
    truncated cones of sorted rows ``ms`` at ascending ``radii`` merged in.

    With c = #{values < rho}, the tail is (0 if hi > rho else 1 - mu(< hi))
    + (1 if lo >= rho else mu(<= lo)), hi and lo being the row's mean of
    min(m, rho) plus and minus the shrunk s: it reads two counts and two
    flags.  Stretches of radii with one c end also at rho = 1, where the
    absolute shrink bends, so hi and lo are affine in rho on each in exact
    arithmetic and each count and flag moves one way on it.  The formula
    rounds by less than 1e-15 of the scale rho + 1e-12 max(1, rho); a margin
    of 1e-13 of it separates a float comparison from the exact one.

    A stretch is read at its first and its last radius.  Ends that agree,
    each past the margin from every cut, hold the same tail at every radius
    between them.  Where they differ, the ends' counts bound the tail
    between them, and a stretch the front already covers is dropped.  In the
    rest the ends place each crossing of a cut; two readings past the margin
    confirm it, and the tail is read just before each crossing.  Any other
    stretch is read at every radius.
    """
    R, (m, n) = len(radii), ms.shape
    # flat rows, indexed row * width + k: one gather per lookup
    cwf = cw.ravel()
    cwm = np.concatenate([np.zeros((m, 1)), np.cumsum(ws * ms, axis=1)], axis=1).ravel()
    # each row between -inf and +inf: every threshold has neighbours in it
    pad = np.full((m, 1), np.inf)
    msp = np.concatenate([-pad, ms, pad], axis=1).ravel()
    cols = np.ascontiguousarray(ms.T)

    def thresholds(r, j, c):
        """rho, s, hi and lo at rows r and radius indices j, with c values
        of the row below rho."""
        rho, rc = radii[j], r * (n + 1) + c
        return (rho, *_cone_thresholds(masses[r], rho, cwf[rc], cwm[rc]))

    def counts(r, hi, lo):
        """The counts of the values of rows r below hi and at most lo."""
        ka = np.zeros(hi.shape, dtype=np.intp)
        kb = np.zeros(hi.shape, dtype=np.intp)
        for col in cols:
            x = col[r]
            ka += x < hi
            kb += x <= lo
        return ka, kb

    def tail(r, rho, hi, lo, ka, kb):
        """The tail with ka values below hi and kb at most lo."""
        return (np.where(hi > rho, 0.0, 1.0 - cwf[r * (n + 1) + ka])
                + np.where(lo >= rho, 1.0, cwf[r * (n + 1) + kb]))

    def read(r, rho, hi, lo, ka, kb):
        """The counts and flags as one key, and the distance from hi and lo
        to the cuts around them, negative if a count is wrong."""
        key = np.where(hi > rho, -1, ka) * (n + 2) + np.where(lo >= rho, -1, kb)
        pa, pb = r * (n + 2) + ka, r * (n + 2) + kb
        margin = np.minimum(np.abs(hi - rho), np.abs(lo - rho))
        for gap in (hi - msp[pa], msp[pa + 1] - hi, lo - msp[pb], msp[pb + 1] - lo):
            np.minimum(margin, gap, out=margin)
        return key, margin

    def tails(r, j, c, guess=None):
        """The fields at rows r and radius indices j, with the counts
        ``guess``, or counted over the rows."""
        rho, s, hi, lo = thresholds(r, j, c)
        ka, kb = counts(r, hi, lo) if guess is None else guess
        return np.stack([s, *read(r, rho, hi, lo, ka, kb), rho, hi, lo, ka, kb])

    def samples(r, j, c):
        """(s, v) at rows r and radius indices j."""
        rho, s, hi, lo = thresholds(r, j, c)
        return s, tail(r, rho, hi, lo, *counts(r, hi, lo))

    cross = np.searchsorted(radii, ms, side="right")  # c = #{cross <= j}
    # radii <= 0 give s <= 0, which never reaches the front
    j0, j1 = np.searchsorted(radii, [0.0, 1.0], side="right")
    if m * R <= _CONE_GRID_PAIRS:
        # a block this small takes fewer numpy calls read at every radius
        j = np.arange(j0, R)
        s, v = samples(np.arange(m)[:, None], j, (cross[:, :, None] <= j).sum(axis=1))
        return _merge_front(front, s.ravel(), v.ravel())

    # stretches [first, last] of rows r, with c values below every radius of
    # one and all on one side of rho = 1: c changes where rho passes a row
    # value, and the column of a stretch past rho = 1 counts that bound too
    bounds = np.sort(np.hstack([np.clip(cross, j0, R), np.tile([j0, j1, R], (m, 1))]), axis=1)
    r, col = np.nonzero(bounds[:, 1:] > bounds[:, :-1])
    first, last = bounds[r, col], bounds[r, col + 1] - 1
    c = col - (first >= j1)
    tol = 1e-13 * (radii + 1e-12 * np.maximum(1.0, radii))[last]

    b = tails(r, last, c)
    front = _merge_front(front, b[_S], tail(r, *b[_RHO:_KA], *b[_KA:].astype(np.intp)))
    # the first radius, with the counts of the previous stretch's last
    # reading (its own at a row's first), counted where those miss the margin
    after = np.append(False, r[1:] == r[:-1])
    a = tails(r, first, c, np.where(after, np.roll(b[_KA:], 1, axis=1), b[_KA:]).astype(np.intp))
    recount = np.nonzero(~(a[_MARGIN] > tol))[0]
    a[:, recount] = tails(r[recount], first[recount], c[recount])

    safe = (a[_MARGIN] > tol) & (b[_MARGIN] > tol)
    # between two safe ends that differ the tail is at most the one with
    # the fewest values below hi and the most at most lo, or with a flag's
    # 0 or 1; a stretch the front is that high at is covered
    i = np.nonzero(safe & (a[_KEY] != b[_KEY]))[0]
    (rho_a, hi_a, lo_a, ka_a, kb_a), (rho_b, hi_b, lo_b, ka_b, kb_b) = (
        [e[f, i] for f in (_RHO, _HI, _LO, _KA, _KB)] for e in (a, b))
    up_zero, down_one = (hi_a > rho_a, hi_b > rho_b), (lo_a >= rho_a, lo_b >= rho_b)
    rk = r[i] * (n + 1)
    up = 1.0 - cwf[rk + np.minimum(ka_a, ka_b).astype(np.intp)]
    top = (np.where(up_zero[0] | up_zero[1], np.maximum(up, 0.0), up)
           + np.where(down_one[0] | down_one[1], 1.0,
                      cwf[rk + np.maximum(kb_a, kb_b).astype(np.intp)]))
    open_ = top > _front_height(front, b[_S, i])
    # a stretch whose flags keep theirs is read at its crossings of the cuts
    # between the ends' counts of hi, and of lo
    flips = (up_zero[0] != up_zero[1]) | (down_one[0] != down_one[1])
    cut = i[open_ & ~flips]
    a, b = a[:, cut], b[:, cut]
    num = np.abs(b[_KA:] - a[_KA:]).astype(np.intp)  # (2, stretches)
    g = np.repeat(np.tile(np.arange(len(cut)), 2), num.ravel())
    kind = np.repeat([0, 1], num.sum(axis=1))
    nth = np.arange(len(g)) - np.repeat(np.cumsum(num.ravel()) - num.ravel(), num.ravel())
    x = ms[r[cut][g], np.minimum(a[_KA:], b[_KA:]).astype(np.intp)[kind, g] + nth]
    fa, fb, ra, rb = a[_HI + kind, g], b[_HI + kind, g], a[_RHO, g], b[_RHO, g]
    g = cut[g]
    # hi and lo are affine on the stretch: their values at its two ends
    # place each crossing at the first radius past it
    k = np.searchsorted(radii, ra + (x - fa) * (rb - ra) / np.where(fb == fa, 1.0, fb - fa),
                        side="right")
    k = np.clip(k, first[g] + 1, last[g])
    ok = np.ones(len(g), dtype=bool)
    for j, f_end in ((k - 1, fa), (k, fb)):
        _, _, hi, lo = thresholds(r[g], j, c[g])
        f = np.where(kind == 0, hi, lo)
        ok &= (np.abs(f - x) > tol[g]) & ((f > x) == (f_end > x))
    missed = np.zeros(len(r), dtype=bool)
    missed[g[~ok]] = True
    keep = ~missed[g]
    # the tail just before each confirmed crossing, and at every radius of
    # the other open stretches and the unsafe ones, a budget's worth of
    # stretches at a time
    front = _merge_front(front, *samples(r[g[keep]], k[keep] - 1, c[g[keep]]))
    whole = np.concatenate([np.nonzero(~safe)[0], i[open_ & flips], cut[missed[cut]]])
    step = _row_block(_CONE_ROW_BYTES * R)
    for w0 in range(0, len(whole), step):
        part = whole[w0:w0 + step]
        num = last[part] - first[part] + 1
        at = np.repeat(part, num)
        j = first[at] + np.arange(len(at)) - np.repeat(np.cumsum(num) - num, num)
        front = _merge_front(front, *samples(r[at], j, c[at]))
    return front


def _front_height(front: tuple[np.ndarray, np.ndarray], s: np.ndarray) -> np.ndarray:
    """The largest value of a front sample at or past each s, -inf if none:
    a sample (s, v) with v at most that is covered."""
    ts, tv = front
    return np.append(tv, -np.inf)[np.searchsorted(ts, s, side="left")]


def _merge_front(front: tuple[np.ndarray, np.ndarray], s: np.ndarray,
                 v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The front of ``front``'s samples and the samples (s, v) with s > 0:
    each sample above every other at or past its s."""
    new = (s > 0) & (v > _front_height(front, s))
    ts, tv = np.append(front[0], s[new]), np.append(front[1], v[new])
    order = np.lexsort((tv, ts))  # ascending in s, ties by v
    ts, tv = ts[order], tv[order]
    # the front keeps the samples above every later one
    top = tv > np.append(np.maximum.accumulate(tv[::-1])[-2::-1], -np.inf)
    return ts[top], tv[top]


def _first_points_past(t: np.ndarray, radii: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """The smallest sample point above each t >= 0, inf if none: a radius
    or a product mass * radius.  The distinct ``masses`` are sorted, so the
    float products of one radius r > 0 never fall, and one search among
    them, inf appended, finds the first past t as the product itself."""
    best = np.append(radii, np.inf)[np.searchsorted(radii, t, side="right")]
    ext = np.append(masses, np.inf)
    for r in radii[radii > 0]:
        prods = ext * r
        np.minimum(best, prods[np.searchsorted(prods, t, side="right")], out=best)
    return best


def enlargement_check_from_tail_bound(mm: MetricMeasureSpace, beta,
                                      family: LipschitzFamily | None = None,
                                      radii: np.ndarray | None = None,
                                      seed: int = 0) -> TailTransferReport:
    """Transfer a mean-deviation tail bound into enlargement bounds.

    Hypothesis (tested on the extreme-point family, all 2n distance cones
    plus inf-convolution samples, hence necessary only): every 1-Lipschitz f
    has mu(|f - mean f| >= r) <= beta(r) at every breakpoint.  When it holds,
    asserts for every subset A with mu(A) > 0 and every breakpoint r

        1 - mu(B+(A, r)) <= beta(mu(A) r),   1 - mu(B-(A, r)) <= beta(mu(A) r)

    and alpha(r) <= beta(r/2), reporting worst margins.  mu is constant on
    segments of the grid, so a beta sampled without rises is read at both
    ends of each row's segments, O(n) points per row; any other beta on the
    whole grid.
    """
    if mm.n > EXACT_MAX_N:
        raise ValueError(f"transfer check requires n <= {EXACT_MAX_N}")
    b = _as_beta(beta)
    if radii is None:
        radii = breakpoint_radii(mm.space)
    radii = np.asarray(radii, dtype=float)
    if not len(radii):  # no breakpoint: nothing to check
        return TailTransferReport(True, math.inf, True, math.inf, math.inf, True)
    if family is None:
        family = generate_family(mm, count=2 * mm.n + 8, seed=seed)

    hyp_margin = float(np.min(b(radii) - family._stacked(mm.weights).tails(radii)))
    hypothesis_ok = hyp_margin >= -VERDICT_TOL
    if not hypothesis_ok:
        return TailTransferReport(False, hyp_margin, False, None, None, True,
                                  notes="hypothesis not satisfied on the family; "
                                        "conclusions not asserted")

    order = np.argsort(radii, kind="stable")
    rs, B = radii[order], len(radii)
    ts = snap_threshold(rs)
    # on a segment of constant mu, a beta that is 1 below its first sample
    # and never rises from it is smallest at the segment's first or last radius
    at_ends = isinstance(b, SampledDecreasing) and bool(np.all(np.diff(b.values) <= 0))
    enl_margin = math.inf
    ends = np.zeros(B + 1)  # the exact alpha curve's events, from mass >= 1/2
    for masses, *dirs in _sorted_chunks(mm, "exact", None, 0.0, seed):
        half = masses >= 0.5
        for side in dirs:
            ms, _, cw = side
            e = np.searchsorted(ts, ms, "right")
            np.maximum.at(ends, e[half].ravel(), (1.0 - cw[half, :-1]).ravel())
            if at_ends:  # segment i covers [e[i - 1], e[i]), the last one [e[n - 1], B)
                last = np.append(e, np.full((len(e), 1), B), axis=1)
                first = np.append(np.zeros_like(e[:, :1]), e, axis=1)
                ks = np.minimum([first, last - 1], B - 1)
                margins = (b(masses[:, None] * rs[ks]).min(axis=0) - (1.0 - cw))[last > first]
            else:
                mu = _mass_below(side, snap_threshold(radii))
                margins = b(masses[:, None] * radii[None, :]) - (1.0 - mu)
            enl_margin = min(enl_margin, float(np.min(margins, initial=math.inf)))
    alpha_margin = float(np.min(b(radii / 2.0) - _curve(order, ends)))
    passed = enl_margin >= -VERDICT_TOL and alpha_margin >= -VERDICT_TOL
    return TailTransferReport(True, hyp_margin, True, enl_margin, alpha_margin, passed)


# ---------------------------------------------------------------------------
# explicit constants
# ---------------------------------------------------------------------------

def _safe_exp(x: float) -> float:
    """exp with overflow to +inf; an infinite constant makes the tail bound
    it feeds trivially true, which is the honest reading of a huge fit."""
    return math.inf if x > 709.0 else math.exp(x)


def median_to_mean_tail_constants(C: float, c: float, p: float) -> tuple[float, float, float]:
    """Constants upgrading median tails C e^{-c r^p} to mean tails.

    Returns (C', kappa_p, c_p) with c_p = Gamma(1/p + 1),
    kappa_p = min(1, 2^{1-p}) and C' = max(C, 1) e^{c_p^p C^p}; the upgraded
    tail is C' e^{-kappa_p c r^p}.
    """
    if C <= 0 or c <= 0 or p <= 0:
        raise ValueError("C, c, p must be positive")
    c_p = math.gamma(1.0 / p + 1.0)
    kappa = min(1.0, 2.0 ** (1.0 - p))
    C_prime = max(C, 1.0) * _safe_exp(c_p ** p * C ** p)
    return C_prime, kappa, c_p


def normal_equivalence_constants(direction: str, C: float, c: float) -> tuple[float, float]:
    """Constants linking normal concentration and mean-deviation tails.

    "forward": alpha <= C e^{-c r^2} gives mean tails C' e^{-c' r^2} with
    C' = max(2C, 1) e^{4 Gamma(3/2)^2 C^2} and c' = c/2.
    "backward": mean tails C' e^{-c' r^2} give alpha <= C e^{-c r^2} with
    C = C' and c = c'/4.
    """
    if C <= 0 or c <= 0:
        raise ValueError("C and c must be positive")
    if direction == "forward":
        gamma32 = math.gamma(1.5)
        return max(2.0 * C, 1.0) * _safe_exp(4.0 * gamma32 ** 2 * C ** 2), c / 2.0
    if direction == "backward":
        return C, c / 4.0
    raise ValueError("direction must be 'forward' or 'backward'")


def moment_bound_from_normal_tails(C_prime: float, c_prime: float, q: float) -> float:
    """Upper bound on ||f - mean||_q under mean tails C' e^{-c' r^2}.

    The bound sqrt(2 pi) C' e^{1/(4e) - 1/2} sqrt(q / c') holds for every
    q >= 1 and every 1-Lipschitz f.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    if C_prime <= 0 or c_prime <= 0:
        raise ValueError("constants must be positive")
    return math.sqrt(2.0 * math.pi) * C_prime * math.exp(1.0 / (4.0 * math.e) - 0.5) \
        * math.sqrt(q / c_prime)


def tail_bound_from_square_moments(C: float, r: float) -> tuple[str, float]:
    """Optimal Chebyshev tail from (2, q)-moment concentration with constant C.

    Minimizing r^{-q} (q/C)^{q/2} over q >= 1 gives exp(-C r^2 / (2e)) in the
    normal regime r^2 >= e/C and C^{-1/2} / r in the linear regime below it;
    at the boundary both coincide.
    """
    if C <= 0 or r <= 0:
        raise ValueError("C and r must be positive")
    if r * r >= math.e / C:
        return "normal", math.exp(-C * r * r / (2.0 * math.e))
    return "linear", 1.0 / (math.sqrt(C) * r)


def tail_bound_from_first_moment(C: float, p: float, r: float) -> float:
    """Tail bound 1 / (C^{1/p} r) under ||f - mean||_1^p <= 1/C."""
    if C <= 0 or r <= 0 or p < 1:
        raise ValueError("C and r must be positive and p >= 1")
    return 1.0 / (C ** (1.0 / p) * r)


# ---------------------------------------------------------------------------
# profile fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileFit:
    """A certified dominating fit C e^{-c r^p} of a concentration profile.

    p = 2 for the "normal" model and 1 for "exponential"; ``certified`` means
    the fit dominates every breakpoint sample.  ``degenerate`` marks the
    all-zero-profile fallback.
    """

    model: str
    C: float
    c: float
    certified: bool
    degenerate: bool = False

    @property
    def exponent(self) -> float:
        return 2.0 if self.model == "normal" else 1.0

    def bound(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return self.C * np.exp(-self.c * r ** self.exponent)


DEGENERATE_RATE = 1e12


def fit_profile(profile: ConcentrationProfile, model: str) -> ProfileFit:
    """Least-squares log-linear fit, then inflate C until it dominates.

    Exponential fits regress log(alpha) on r, normal fits on r^2, over the
    breakpoints with positive alpha; C is then raised to the smallest value
    making C e^{-c r^p} >= alpha(r) at every breakpoint, so the returned fit
    is always certified.  An all-zero profile returns the degenerate fit
    C = 1/2 with an arbitrarily large rate.
    """
    if model not in ("normal", "exponential"):
        raise ValueError("model must be 'normal' or 'exponential'")
    p = 2.0 if model == "normal" else 1.0
    rs = profile.radii
    al = profile.alphas
    pos = al > 0
    if not pos.any():
        return ProfileFit(model, 0.5, DEGENERATE_RATE, True, degenerate=True)
    x = rs[pos] ** p
    y = np.log(al[pos])
    if np.unique(x).size >= 2:
        slope, intercept = np.polyfit(x, y, 1)
        c = max(float(-slope), 1e-12)
        C = float(math.exp(intercept))
    else:
        c = 1.0 / float(x[0])
        C = float(al[pos][0]) * math.e
    C = max(C, float(np.max(al[pos] * np.exp(c * x))))
    certified = bool(np.all(C * np.exp(-c * rs ** p) >= al - 1e-15))
    return ProfileFit(model, C, c, certified)
