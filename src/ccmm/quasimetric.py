"""Finite irreversible metric measure spaces.

An irreversible (quasi-)metric keeps positivity and the directed triangle
inequality but drops symmetry, so every subset has distinct forward and
backward r-neighborhoods. This module holds the dense-matrix representation,
the validator, shortest-path construction from weighted digraphs, the
neighborhood and diameter primitives every other module builds on, and the
stably sorted rows and exact integer counts every mass and tail reader
builds on.

All types are immutable after construction and every operation is a pure
function, so everything here is safe to evaluate concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "QuasiMetricSpace",
    "ProbabilityMeasure",
    "MetricMeasureSpace",
    "PointSet",
    "ViolationReport",
    "validate",
    "from_digraph",
    "forward_neighborhood",
    "backward_neighborhood",
    "reverse",
    "diameter",
    "random_mm_space",
]

# Strict-inequality ball membership snaps floating-point ties to "outside":
# a point at distance m belongs to the open r-ball only if m < r and
# |m - r| > SNAP_RTOL * max(1, r).  Radii are expected at the scale of the
# attained distances; radii below the snap tolerance collapse the ball.
SNAP_RTOL = 1e-12

MEASURE_ATOL = 1e-12


def snap_threshold(r: float | np.ndarray) -> float | np.ndarray:
    """Effective threshold for open-ball membership at radius r."""
    return r - SNAP_RTOL * np.maximum(1.0, r)


# Bytes one block of rows may use: no blocked temporary (subset rows, family
# certification and construction, exact validation, the shortest-path
# closure) is larger, so memory does not grow with the number of rows.
_ROW_BUDGET = 8 << 20


def _row_block(row_bytes: int) -> int:
    """Rows per block when each row's temporary takes ``row_bytes``; a row
    of no bytes, such as one over an empty grid, counts as one."""
    return max(1, _ROW_BUDGET // max(1, row_bytes))


def _min_plus(dist: np.ndarray, G: np.ndarray) -> np.ndarray:
    """min_z (G[r, z] + dist[z, x]) for every row r of G and point x, in
    blocks whose (rows, n, n) sums fit _ROW_BUDGET; a minimum is exact, so
    the blocks change no value."""
    out = np.empty(G.shape)
    step = _row_block(8 * dist.size)
    for lo in range(0, len(G), step):
        out[lo:lo + step] = (G[lo:lo + step, :, None] + dist).min(axis=1)
    return out


def _stable_order(rows: np.ndarray) -> np.ndarray:
    """Each row's stable sort order, tied values in point order, in the
    narrowest unsigned type that indexes a row."""
    order = np.argsort(rows, axis=1, kind="stable")
    return order.astype(np.min_scalar_type(rows.shape[1] - 1))


def _sorted_rows(rows: np.ndarray, weights: np.ndarray, order: np.ndarray):
    """Each row in its ``order``, its weights in that order, and cw[r, k]
    the mass of row r's first k values, summed in that order."""
    ws = weights[order]
    cw = np.zeros((len(rows), rows.shape[1] + 1))
    np.cumsum(ws, axis=1, out=cw[:, 1:])
    return np.take_along_axis(rows, order, axis=1), ws, cw


def _count_below(rows: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """#{x : rows[r, x] < cuts[i]} for every row r and cut i, in any cut
    order; a 2-d ``cuts`` gives each row its own cuts.  #{x : v <= t} is
    the count of -v below -t taken from the row length: negation is exact.

    Shared cuts: each entry's place among the sorted cuts is found once,
    and a per-row histogram of the places, summed up, counts the entries
    below every cut.  Per-row cuts: one stable sort per row merges its cuts,
    placed first, with its entries, so an entry equal to a cut sorts after
    it.  The counting is integer throughout, so no rounding can move an
    entry across a cut.
    """
    R, B = len(rows), cuts.shape[-1]
    if cuts.ndim == 2:
        order = np.argsort(np.concatenate([cuts, rows], axis=1), axis=1, kind="stable")
        counts = np.empty(order.shape, dtype=np.intp)
        np.put_along_axis(counts, order, np.cumsum(order >= B, axis=1), axis=1)
        return counts[:, :B]
    order = np.argsort(cuts, kind="stable")
    # an entry is below the k-th smallest cut iff at most k cuts are <= it
    place = np.searchsorted(cuts[order], rows, side="right")
    place += (B + 1) * np.arange(R)[:, None]
    counts = np.bincount(place.ravel(), minlength=R * (B + 1)).reshape(R, B + 1)
    np.cumsum(counts, axis=1, out=counts)
    return counts[:, np.argsort(order)]


def _balls(dist: np.ndarray, weights: np.ndarray, centers=slice(None)):
    """The forward row d(c, .) and backward row d(., c) of every center c of
    ``centers``, in scan order c0 forward, c0 backward, c1 forward, ...,
    each sorted once, stably: the orders, as _stable_order gives them, the
    sorted rows and their prefix masses cw, as _sorted_rows gives them.  The
    smallest ball of mass >= m around a row's center is its first
    _count_below(cw[:, 1:], [m]) + 1 points."""
    rows = np.stack([dist[centers], dist.T[centers]], axis=1).reshape(-1, len(dist))
    order = _stable_order(rows)
    vs, _, cw = _sorted_rows(rows, weights, order)
    return order, vs, cw


def _mass_below(rows, cuts: np.ndarray) -> np.ndarray:
    """mu(f < t) for every sorted row f of ``rows`` = (values, weights,
    prefix masses) and every cut t, read off its prefix masses at an exact
    count."""
    vs, _, cw = rows
    return np.take_along_axis(cw, _count_below(vs, cuts), axis=1)


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QuasiMetricSpace:
    """Finite point set with an asymmetric distance matrix.

    ``dist[i, j]`` is the distance from i to j.  The constructor enforces the
    cheap invariants (square, finite, zero diagonal, positive off-diagonal);
    the O(n^3) directed triangle inequality is checked by :func:`validate`.
    """

    dist: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        d = _frozen_array(self.dist)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("distance matrix has non-finite entries")
        if np.any(d < 0):
            raise ValueError("distance matrix has negative entries")
        if np.any(np.diag(d) != 0):
            raise ValueError("distance matrix has a nonzero diagonal entry")
        off = d + np.eye(d.shape[0])
        if np.any(off <= 0):
            raise ValueError("off-diagonal distances must be strictly positive")
        object.__setattr__(self, "dist", d)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != d.shape[0]:
                raise ValueError("label count does not match point count")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.dist - self.dist.T)) <= tol * max(1.0, float(self.dist.max())))


@dataclass(frozen=True)
class ProbabilityMeasure:
    """Nonnegative weights summing to one over the point set."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights)
        if w.ndim != 1:
            raise ValueError("measure weights must be a vector")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("measure weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > MEASURE_ATOL:
            raise ValueError(f"measure weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityMeasure":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def normalized(cls, raw: Iterable[float]) -> "ProbabilityMeasure":
        w = np.asarray(list(raw), dtype=float)
        return cls(w / w.sum())


@dataclass(frozen=True)
class MetricMeasureSpace:
    """A quasi-metric space together with a probability measure."""

    space: QuasiMetricSpace
    measure: ProbabilityMeasure

    def __post_init__(self):
        if self.space.n != self.measure.n:
            raise ValueError("measure length does not match point count")

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def dist(self) -> np.ndarray:
        return self.space.dist

    @property
    def weights(self) -> np.ndarray:
        return self.measure.weights

    @classmethod
    def with_uniform(cls, space: QuasiMetricSpace) -> "MetricMeasureSpace":
        return cls(space, ProbabilityMeasure.uniform(space.n))


@dataclass(frozen=True)
class PointSet:
    """Sorted, duplicate-free point indices into a space of size n."""

    members: tuple[int, ...]

    def __post_init__(self):
        m = tuple(int(i) for i in self.members)
        if any(b <= a for a, b in zip(m, m[1:])):
            raise ValueError("members must be strictly increasing")
        if m and m[0] < 0:
            raise ValueError("negative point index")
        object.__setattr__(self, "members", m)

    @classmethod
    def of(cls, members: Iterable[int], n: int | None = None) -> "PointSet":
        m = tuple(sorted(set(int(i) for i in members)))
        if n is not None and m and m[-1] >= n:
            raise ValueError(f"point index {m[-1]} out of range for n={n}")
        return cls(m)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def array(self) -> np.ndarray:
        return np.asarray(self.members, dtype=int)


def as_pointset(A, n: int) -> PointSet:
    if isinstance(A, PointSet):
        if A.members and A.members[-1] >= n:
            raise ValueError("point index out of range")
        return A
    return PointSet.of(A, n)


@dataclass(frozen=True)
class ViolationReport:
    """Why a matrix is not a quasi-metric.

    ``triangles`` lists ordered triples (i, j, k) with
    dist(i, k) > dist(i, j) + dist(j, k); ``diagonal`` and ``positivity``
    list index pairs for nonzero d(i, i) and nonpositive d(i, j), i != j.
    Listing may be truncated at ``max_report`` entries per kind.
    """

    triangles: tuple[tuple[int, int, int], ...] = ()
    diagonal: tuple[int, ...] = ()
    positivity: tuple[tuple[int, int], ...] = ()
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not (self.triangles or self.diagonal or self.positivity or self.truncated)

    def __str__(self) -> str:
        lines = []
        for i in self.diagonal:
            lines.append(f"nonzero diagonal at ({i}, {i})")
        for i, j in self.positivity:
            lines.append(f"nonpositive off-diagonal distance at ({i}, {j})")
        for i, j, k in self.triangles:
            lines.append(f"triangle violation ({i}, {j}, {k}): d(i,k) > d(i,j) + d(j,k)")
        if self.truncated:
            lines.append("... report truncated")
        return "\n".join(lines) or "no violations"


def validate(
    matrix,
    rel_tol: float = 0.0,
    sampled: bool = False,
    seed: int = 0,
    max_report: int = 100,
    labels: Sequence[str] | None = None,
):
    """Check a matrix and return either a QuasiMetricSpace or a ViolationReport.

    The directed triangle inequality is checked exactly by default
    (``rel_tol=0``); pass a relative tolerance for spaces assembled from
    floating-point sums.  One min-plus product of the matrix with itself
    decides validity; only an invalid matrix is scanned, middle point by
    middle point, for the triples it lists.  With ``sampled=True`` only
    10*n^2 random triples are tested, for matrices too large for the O(n^3)
    product; they are drawn in blocks under the row budget.

    Raises ValueError for malformed input (non-square, NaN, negative).
    """
    d = np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {d.shape}")
    if np.any(np.isnan(d)) or not np.all(np.isfinite(d)):
        raise ValueError("matrix has NaN or non-finite entries")
    if np.any(d < 0):
        raise ValueError("matrix has negative entries")
    n = d.shape[0]

    bad_diag = np.flatnonzero(np.diag(d) != 0)
    diagonal = tuple(bad_diag[:max_report].tolist())
    bad_pos = np.argwhere((d <= 0) & ~np.eye(n, dtype=bool))
    positivity = tuple((int(i), int(j)) for i, j in bad_pos[:max_report])

    slack = rel_tol * (max(1.0, float(d.max())) if n else 1.0)
    triangles: list[tuple[int, int, int]] = []

    def listed(i, j, k) -> bool:
        """List the triples (i, j, k) up to ``max_report``; True once full."""
        room = max_report - len(triangles)
        triangles.extend(zip(i[:room].tolist(), j[:room].tolist(), k[:room].tolist()))
        return len(i) > 0 and len(triangles) >= max_report

    full = False
    if sampled and n > 2:
        rng = np.random.default_rng(seed)
        m = 10 * n * n
        # triples drawn block by block, three indices and three distances
        # each; drawn row by row, they are the same triples at any block size
        step = _row_block(64)
        for lo in range(0, m, step):
            ii, jj, kk = rng.integers(0, n, (min(step, m - lo), 3)).T
            bad = d[ii, kk] > d[ii, jj] + d[jj, kk] + slack
            if full := listed(ii[bad], jj[bad], kk[bad]):
                break
    elif (d > _min_plus(d, d) + slack).any():
        # fl(d(i,j) + d(j,k)) + slack is monotone in the sum, so some j
        # violates at (i, k) exactly when the least sum over j does
        for j in range(n):
            # d(i,k) <= d(i,j) + d(j,k) for this middle point j
            i, k = np.nonzero(d > d[:, j][:, None] + d[j, :][None, :] + slack)
            if full := listed(i, np.full_like(i, j), k):
                break

    truncated = full or len(bad_diag) > max_report or len(bad_pos) > max_report
    report = ViolationReport(tuple(triangles), diagonal, positivity, truncated)
    if report.ok:
        return QuasiMetricSpace(d, tuple(labels) if labels is not None else None)
    return report


def from_digraph(edges: Iterable[tuple[int, int, float]], n: int,
                 labels: Sequence[str] | None = None) -> QuasiMetricSpace:
    """Shortest-directed-path metric of a strongly connected weighted digraph.

    ``edges`` are (i, j, weight) triples with weight > 0; self-loops are
    skipped and parallel edges keep the cheapest weight.  Raises ValueError
    naming the first bad edge in input order, or an unreachable pair if the
    digraph is not strongly connected.
    """
    e = np.array(list(edges), dtype=float).reshape(-1, 3)
    ij = np.trunc(e[:, :2])  # int() of each index, as a float
    w = e[:, 2]
    outside = ~np.all((ij >= 0) & (ij < n), axis=1)
    loop = ij[:, 0] == ij[:, 1]
    bad = outside | (~loop & ~((w > 0) & np.isfinite(w)))
    if bad.any():
        k = int(np.argmax(bad))
        i, j = int(e[k, 0]), int(e[k, 1])
        if outside[k]:
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        raise ValueError(f"edge ({i}, {j}) has nonpositive weight {float(w[k])}")
    key = (ij[~loop, 0] * n + ij[~loop, 1]).astype(np.intp)
    w = w[~loop]
    # sorted by edge, cheapest first: each edge's first entry is kept, and
    # the kept edges come grouped by tail
    order = np.lexsort((w, key))
    key, w = key[order], w[order]
    first = np.diff(key, prepend=-1) != 0
    tail, head = np.divmod(key[first], n)
    starts = np.searchsorted(tail, np.arange(n + 1))
    dist = np.empty((n, n))
    # a block's pending entries and their arrays take under 64 bytes each
    step = _row_block(64 * n)
    for lo in range(0, n, step):
        block = dist[lo:lo + step]
        _close_rows(block, lo, starts, head, w[first])
        missing = np.isinf(block)
        if missing.any():
            i, j = divmod(int(missing.argmax()), n)
            raise ValueError(f"digraph is not strongly connected: "
                             f"no path from {lo + i} to {j}")
    return QuasiMetricSpace(dist, tuple(labels) if labels is not None else None)


def _close_rows(block: np.ndarray, lo: int, starts: np.ndarray, heads: np.ndarray,
                w: np.ndarray) -> None:
    """Shortest-path distances from sources lo, lo + 1, ... into ``block``.

    The edges out of u are heads[starts[u]:starts[u + 1]], with weights w.
    An entry is pending from its first finite value until it is settled,
    when its out-edges are relaxed, once.  Each round settles the pending
    entries of at most fl(m + least weight), m their row's smallest pending
    value: rounding is monotone and fl(d + w) >= d, so every later
    candidate in the row is at least that sum, and only a smaller one would
    replace an entry.  A candidate is fl(d(u) + w(u, v)), as in Dijkstra's
    method, and every order of such relaxations, run to the end, yields the
    same floats: the greatest d with d(v) = min(start(v), min_u fl(d(u) +
    w(u, v))), start being 0 at the source and inf elsewhere.
    """
    rows, n = block.shape
    flat = block.reshape(-1)
    flat.fill(np.inf)
    pending = np.arange(rows) * (n + 1) + lo
    flat[pending] = 0.0
    degree = np.diff(starts)
    least = float(w.min()) if len(w) else 0.0
    # relaxations per chunk, whose arrays take under 64 bytes each: the
    # frontier's expansion is cut at multiples of ``step`` without splitting
    # an entry's edges, so a chunk holds fewer than step + max degree of them
    step = max(1, _row_block(64) - int(degree.max(initial=0)))
    while len(pending):
        vals = flat[pending]
        row = pending // n
        floor = np.full(rows, np.inf)
        np.minimum.at(floor, row, vals)
        settle = vals <= (floor + least)[row]
        frontier, pending = pending[settle], pending[~settle]
        tail = frontier % n
        counts = degree[tail]
        ends = np.cumsum(counts)
        # out-edge k of frontier entry e sits at ends[e] - counts[e] + k of
        # the frontier's expansion, and is edge starts[tail[e]] + k
        shift = starts[tail] - (ends - counts)
        cuts = [0, *np.searchsorted(ends, np.arange(step, ends[-1], step), "right"),
                len(frontier)]
        fresh = []
        for a, b in zip(cuts, cuts[1:]):
            if a == b:
                continue
            edge = np.repeat(shift[a:b], counts[a:b])
            edge += np.arange(ends[a] - counts[a], ends[b - 1])
            target = np.repeat(frontier[a:b] - tail[a:b], counts[a:b]) + heads[edge]
            cand = np.repeat(flat[frontier[a:b]], counts[a:b]) + w[edge]
            old = flat[target]
            better = cand < old
            target = target[better]
            fresh.append(target[old[better] == np.inf])
            np.minimum.at(flat, target, cand[better])
        fresh = np.sort(np.concatenate(fresh))
        pending = np.concatenate([pending, fresh[np.diff(fresh, prepend=-1) != 0]])


def forward_neighborhood(space: QuasiMetricSpace, A, r: float) -> PointSet:
    """Open forward r-neighborhood {x : min_{z in A} d(z, x) < r}.

    Membership is strict; floating-point ties within the snap tolerance
    resolve to exclusion.
    """
    ps = as_pointset(A, space.n)
    if not len(ps):
        raise ValueError("neighborhood of an empty set")
    m = space.dist[ps.array(), :].min(axis=0)
    return PointSet.of(np.nonzero(m < snap_threshold(float(r)))[0], space.n)


def backward_neighborhood(space: QuasiMetricSpace, A, r: float) -> PointSet:
    """Open backward r-neighborhood {x : min_{z in A} d(x, z) < r}."""
    ps = as_pointset(A, space.n)
    if not len(ps):
        raise ValueError("neighborhood of an empty set")
    m = space.dist[:, ps.array()].min(axis=1)
    return PointSet.of(np.nonzero(m < snap_threshold(float(r)))[0], space.n)


def reverse(space: QuasiMetricSpace) -> QuasiMetricSpace:
    """The reversed space, dist'(i, j) = dist(j, i)."""
    return QuasiMetricSpace(space.dist.T.copy(), space.labels)


def diameter(space: QuasiMetricSpace, A=None) -> float:
    """max over ordered pairs (x, z) in A of d(x, z); the whole space by default."""
    if A is None:
        return float(space.dist.max())
    ps = as_pointset(A, space.n)
    if not len(ps):
        raise ValueError("diameter of an empty set")
    idx = ps.array()
    return float(space.dist[np.ix_(idx, idx)].max())


def breakpoint_radii(space: QuasiMetricSpace) -> np.ndarray:
    """Radii where step functions of r can change, both sides of each jump.

    Every attained positive distance d is paired with d + delta
    (delta = 1e-9 * diameter), so evaluating a profile on this grid captures
    the value at the jump and just after it; the final point lies beyond the
    diameter.  A one-point space has no positive distance and an empty grid.
    """
    vals = np.unique(space.dist[space.dist > 0])
    delta = 1e-9 * float(vals.max(initial=0.0))
    return np.unique(np.concatenate([vals, vals + delta]))


def random_mm_space(seed: int, n_low: int = 3, n_high: int = 12,
                    symmetric: bool = False) -> MetricMeasureSpace:
    """A random irreversible metric measure space from a weighted digraph.

    A directed cycle guarantees strong connectivity; extra random edges give
    the metric its asymmetry.  Weights of the random measure are strictly
    positive.  Deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_low, n_high + 1))
    edges = [(i, (i + 1) % n, float(rng.uniform(0.2, 1.2))) for i in range(n)]
    extra = int(rng.integers(n, 3 * n + 1))
    for _ in range(extra):
        i, j = rng.integers(0, n, 2)
        if i != j:
            edges.append((int(i), int(j), float(rng.uniform(0.2, 1.2))))
    if symmetric:
        edges = edges + [(j, i, w) for i, j, w in edges]
    space = from_digraph(edges, n)
    if symmetric:
        d = 0.5 * (space.dist + space.dist.T)
        space = QuasiMetricSpace(d)
    w = rng.uniform(0.1, 1.0, n)
    return MetricMeasureSpace(space, ProbabilityMeasure(w / w.sum()))
