"""Lipschitz constants, medians, means, and 1-Lipschitz test families.

On an irreversible metric the Lipschitz condition is one-sided,
f(z) - f(x) <= L d(x, z), so the constant is a maximum over ordered pairs.
The generated families (distance cones plus inf-convolution regularizations
of random fields) are the search space used by the concentration and
observable-diameter suprema downstream.  A family is one (m, n) stack of
fields, and the per-field statistics here are row operations on a stack;
the one-field functions are their one-row calls.  A family keeps its rows
sorted for the measure last asked (:class:`_FamilyStack`), so every median,
partial diameter, tail and moment reader of one run slices one stable sort.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quasimetric import (
    MetricMeasureSpace,
    ProbabilityMeasure,
    QuasiMetricSpace,
    _frozen_array,
    _mass_below,
    _min_plus,
    _row_block,
    _sorted_rows,
    _stable_order,
    diameter,
)

__all__ = [
    "ScalarField",
    "LipschitzFamily",
    "as_field",
    "lipschitz_constant",
    "median",
    "mean",
    "inf_convolution",
    "generate_family",
]

LIPSCHITZ_TOL = 1e-10


@dataclass(frozen=True)
class ScalarField:
    """One real value per point of a space."""

    values: np.ndarray

    def __post_init__(self):
        v = _frozen_array(self.values)
        if v.ndim != 1:
            raise ValueError("scalar field must be a vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("scalar field has non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def as_field(f, n: int) -> np.ndarray:
    """Coerce a ScalarField or array-like to a validated length-n vector."""
    v = f.values if isinstance(f, ScalarField) else np.asarray(f, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"field has shape {v.shape}, expected ({n},)")
    if not np.all(np.isfinite(v)):
        raise ValueError("field has non-finite entries")
    return v


@dataclass(frozen=True, eq=False)
class LipschitzFamily:
    """Certified 1-Lipschitz fields on ``space``: the rows of one read-only
    (m, n) array ``values``, with one provenance tag per row.

    Construction validates the stack (non-empty, 2-d, finite, one column per
    point, one tag per row) and certifies every row once: its one-sided
    Lipschitz constant, kept in ``lipschitz``, must be at most
    1 + LIPSCHITZ_TOL, or a ValueError names the first member that fails.
    Tags are one of "distance-to-point", "negative-distance-from-point",
    "inf-convolution", "user".  Iteration yields the rows.
    """

    space: QuasiMetricSpace
    values: np.ndarray
    tags: tuple[str, ...]
    lipschitz: np.ndarray = field(init=False, repr=False)
    _stack: _FamilyStack | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        v = _frozen_array(self.values)
        if v.size == 0:
            raise ValueError("empty family")
        if v.ndim != 2 or v.shape[1] != self.space.n:
            raise ValueError(f"family has shape {v.shape}, expected (m, {self.space.n})")
        if not np.all(np.isfinite(v)):
            raise ValueError("family has non-finite entries")
        tags = tuple(self.tags)
        if len(tags) != len(v):
            raise ValueError("one tag per field required")
        L = _frozen_array(_lipschitz_constants(self.space.dist, v))
        bad = np.flatnonzero(L > 1.0 + LIPSCHITZ_TOL)
        if bad.size:
            raise ValueError(f"family member {bad[0]} fails 1-Lipschitz certification")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "lipschitz", L)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def _stacked(self, weights: np.ndarray) -> _FamilyStack:
        """The rows sorted for ``weights``, kept until another measure asks."""
        stack = self._stack
        if stack is None or not np.array_equal(stack.weights, weights):
            stack = _FamilyStack(self.values, weights)
            object.__setattr__(self, "_stack", stack)
        return stack


class _FamilyStack:
    """Rows of fields on one measure, each sorted once, stably.

    It keeps the sort order of every field and of its deviations
    |f - mean f|, the deviations ``dev`` in point order, whose moments sum
    in that order, the lower ``medians`` (the first sorted value v of each
    row with mu(f <= v) >= 1/2 and mu(f >= v) >= 1/2) and the tail table of
    the last grid read.  Sorted rows and prefix masses are gathered from
    the kept order when read, the same bits at every read, so a stack kept
    for a whole run holds little more than the deviations.
    """

    def __init__(self, rows: np.ndarray, weights: np.ndarray):
        self.rows, self.weights, self._tails = rows, weights, None
        self.order = _stable_order(rows)
        self.dev = _deviations(weights, rows)
        self.dev_order = _stable_order(self.dev)
        vs, ws, cw = self.values
        below = cw[:, 1:]                          # mu(f <= vs[i])
        above = 1.0 - below + ws                   # mu(f >= vs[i])
        ok = (below >= 0.5 - 1e-15) & (above >= 0.5 - 1e-15)
        # a row has no such index only through rounding of its cumulative sums
        idx = np.where(ok.any(axis=1), ok.argmax(axis=1), np.abs(below - 0.5).argmin(axis=1))
        self.medians = np.take_along_axis(vs, idx[:, None], axis=1)[:, 0]

    @property
    def values(self):
        """(sorted rows, their weights, prefix masses) as _sorted_rows gives
        them: a row's last prefix mass is its own cumsum total."""
        return _sorted_rows(self.rows, self.weights, self.order)

    def tails(self, ts: np.ndarray) -> np.ndarray:
        """mu(|f - mean f| >= t) of every row at every t of ``ts``: the row's
        cumsum total less its mass below t.  The read-only table of the last
        grid asked is kept, so the readers of one grid share it."""
        memo = self._tails
        if memo is None or not np.array_equal(memo[0], ts):
            devs = _sorted_rows(self.dev, self.weights, self.dev_order)
            table = devs[2][:, -1:] - _mass_below(devs, ts)
            table.setflags(write=False)
            memo = self._tails = (np.array(ts), table)
        return memo[1]


def _positive(dist: np.ndarray) -> np.ndarray:
    """The distances with every zero (the diagonal) raised to +inf."""
    return np.where(dist > 0, dist, np.inf)


def _fill_diagonal(q: np.ndarray, value: float) -> None:
    """Set q[..., i, i] = value in a contiguous matrix or stack of square
    matrices, through a strided view of the diagonal."""
    diagonal = q.reshape(*q.shape[:-2], -1)[..., ::q.shape[-1] + 1]
    # a copy would take the value and leave q as it was
    assert np.may_share_memory(diagonal, q)
    diagonal[...] = value


def _slopes(dpos: np.ndarray, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Ascending slope max_z (f(z) - f(x))^+ / d(x, z) at every point.

    f is one field (n,) or a stack of fields (R, n); dpos is
    ``_positive(dist)`` and ``out`` an optional scratch buffer of shape
    f.shape + (n,).
    """
    q = np.subtract(f[..., None, :], f[..., :, None], out=out)
    np.divide(q, dpos, out=q)
    _fill_diagonal(q, -np.inf)
    return np.maximum(q.max(axis=-1), 0.0)


def _lipschitz_constants(dist: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each row's smallest L >= 0 with f(z) - f(x) <= L d(x, z) over ordered
    pairs x != z: its largest ascending slope, in blocks whose (rows, n, n)
    quotients fit _ROW_BUDGET; a maximum is exact, so the blocks change no
    constant."""
    m, n = rows.shape
    out = np.empty(m)
    dpos = _positive(dist)
    step = _row_block(8 * n * n)
    buf = np.empty((min(step, m), n, n))  # one block's quotients at a time
    for lo in range(0, m, step):
        v = rows[lo:lo + step]
        out[lo:lo + step] = _slopes(dpos, v, buf[:len(v)]).max(axis=1)
    return out


def lipschitz_constant(space: QuasiMetricSpace, f) -> float:
    """Smallest L with f(z) - f(x) <= L d(x, z) over ordered pairs x != z."""
    return float(_lipschitz_constants(space.dist, as_field(f, space.n)[None])[0])


def median(measure: ProbabilityMeasure, f) -> float:
    """Lower median: the smallest attained value m with mu(f <= m) >= 1/2
    and mu(f >= m) >= 1/2."""
    return float(_FamilyStack(as_field(f, measure.n)[None], measure.weights).medians[0])


def mean(measure: ProbabilityMeasure, f) -> float:
    """Measure-weighted average of f."""
    v = as_field(f, measure.n)
    return float(measure.weights @ v)


def _deviations(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|f - mean(f)| for every row f; ``np.vecdot`` takes each row's mean
    with the same dot product as ``mean``, bit for bit."""
    return np.abs(rows - np.vecdot(rows, weights)[:, None])


def inf_convolution(space: QuasiMetricSpace, g) -> ScalarField:
    """McShane-type 1-Lipschitz regularization f(x) = min_z (g(z) + d(z, x)).

    Fixed points of the construction are exactly the 1-Lipschitz fields.
    """
    return ScalarField(_min_plus(space.dist, as_field(g, space.n)[None])[0])


def generate_family(mm: MetricMeasureSpace, count: int | None = None,
                    seed: int = 0) -> LipschitzFamily:
    """Deterministic 1-Lipschitz family of the given size.

    Always contains d(p, .) and -d(., p) for every point p; the remaining
    count - 2n members are inf-convolutions of uniform random fields with
    amplitude equal to the space diameter (larger amplitudes collapse to
    distance cones under the convolution and are wasted samples).
    """
    n = mm.n
    if count is None:
        count = 2 * n
    if count < 2 * n:
        raise ValueError(f"count must be at least 2n = {2 * n}")
    k = count - 2 * n
    raw = np.random.default_rng(seed).uniform(0.0, 1.0, (k, n)) * diameter(mm.space)
    values = np.concatenate([mm.dist, -mm.dist.T, _min_plus(mm.dist, raw)])
    tags = (("distance-to-point",) * n + ("negative-distance-from-point",) * n
            + ("inf-convolution",) * k)
    return LipschitzFamily(mm.space, values, tags)
