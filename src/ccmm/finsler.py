"""Discretization of irreversible Finsler (Randers) geometries.

A Randers metric F(x, v) = sqrt(a_x(v, v)) + b_x(v) with ||b||_a < 1 is the
simplest strictly irreversible Finsler class and has closed-form lengths on
constant data, which makes every asymmetric code path testable against
ground truth.  Domains are sampled on structured grids, neighbors get
directed edge weights from chord quadrature of F, and the all-pairs
shortest-path closure turns the graph into a quasi-metric space; measures
are weighted by e^{-psi} times the Riemannian volume density.

Metric and one-form callables receive covering-space coordinates along
chords; supply periodic callables on periodic domains (the catalog's
documents use constant or coordinate-periodic data throughout).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quasimetric import MetricMeasureSpace, ProbabilityMeasure, from_digraph

__all__ = [
    "Interval",
    "Torus",
    "LatLongSphere",
    "RandersSpec",
    "CatalogEntry",
    "finsler_length",
    "build_space",
    "stencil_chordal_bound",
    "catalog",
    "catalog_entry",
]

# The 8-neighbor stencil of a two-dimensional grid, row by row.
_STENCIL_8 = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0))


# ---------------------------------------------------------------------------
# sample domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """A closed interval sampled on a staggered grid (cell midpoints)."""

    x0: float
    x1: float

    @property
    def dim(self) -> int:
        return 1

    def sample(self, resolution: int) -> np.ndarray:
        h = (self.x1 - self.x0) / resolution
        return (self.x0 + (np.arange(resolution) + 0.5) * h)[:, None]

    def cell_volume(self, resolution: int) -> float:
        return (self.x1 - self.x0) / resolution

    def displacement(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return q - p

    def wraps(self) -> tuple[bool, ...]:
        return (False,)


@dataclass(frozen=True)
class Torus:
    """A flat torus of the given side length; dim 1 is a circle."""

    side: float
    dim: int = 2

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"torus dim must be 1 or 2, got {self.dim}")

    def sample(self, resolution: int) -> np.ndarray:
        h = self.side / resolution
        axes = [np.arange(resolution) * h for _ in range(self.dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def cell_volume(self, resolution: int) -> float:
        return (self.side / resolution) ** self.dim

    def displacement(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        d = q - p
        return (d + self.side / 2.0) % self.side - self.side / 2.0

    def wraps(self) -> tuple[bool, ...]:
        return (True,) * self.dim


@dataclass(frozen=True)
class LatLongSphere:
    """The unit sphere in latitude-longitude coordinates (theta, phi).

    Theta is staggered away from the poles; phi wraps.  The induced metric
    tensor in these coordinates is diag(1, sin^2 theta).
    """

    @property
    def dim(self) -> int:
        return 2

    def sample(self, resolution: int) -> np.ndarray:
        thetas = (np.arange(resolution) + 0.5) * math.pi / resolution
        phis = np.arange(resolution) * 2.0 * math.pi / resolution
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        return np.stack([tt.ravel(), pp.ravel()], axis=1)

    def cell_volume(self, resolution: int) -> float:
        return (math.pi / resolution) * (2.0 * math.pi / resolution)

    def displacement(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        d = q - p
        d[..., 1] = (d[..., 1] + math.pi) % (2.0 * math.pi) - math.pi
        return d

    def wraps(self) -> tuple[bool, ...]:
        return (False, True)


Domain = Interval | Torus | LatLongSphere


# ---------------------------------------------------------------------------
# Randers data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandersSpec:
    """Randers data on a sampled domain.

    ``riemannian`` maps a coordinate point to a positive-definite matrix,
    ``one_form`` to a covector; F(x, v) = sqrt(v a(x) v) + b(x) . v.  The
    construction requires ||b(x)||_{a(x)} < 1 wherever it evaluates, which
    keeps F positive and strongly convex.
    """

    domain: Domain
    riemannian: Callable[[np.ndarray], np.ndarray]
    one_form: Callable[[np.ndarray], np.ndarray]
    resolution: int

    def __post_init__(self):
        if self.resolution < 4:
            raise ValueError("resolution must be at least 4 points per axis")


@dataclass(frozen=True)
class CatalogEntry:
    """A named Randers space with density and optional analytic certificates.

    ``certified`` may carry "K" (weighted-Ricci lower bound), "a"
    (distortion bound) and "D" (diameter); the constants are analytic
    annotations with a provenance note, never computed from the metric data.
    """

    id: str
    spec: RandersSpec
    density: Callable[[np.ndarray], float]
    certified: dict[str, float] | None
    note: str


def _chord_lengths(spec: RandersSpec, P: np.ndarray, Q: np.ndarray,
                   subdivisions: int = 16) -> np.ndarray:
    """Composite-midpoint quadrature of F along every straight chord P[k] -> Q[k].

    The metric and the one-form are read once per midpoint, chord by chord;
    one batched solve checks the one-form norms, and ``np.cumsum`` adds each
    chord's terms left to right, as a loop over its midpoints does.
    Aborts naming the first midpoint, in that order, where the one-form
    reaches unit norm, and otherwise the first where v a v < 0.
    """
    V = Q - P
    t = (np.arange(subdivisions) + 0.5) / subdivisions
    X = (P[:, None, :] + t[:, None] * V[:, None, :]).reshape(-1, P.shape[1])
    A = np.array([spec.riemannian(x) for x in X], dtype=float)
    B = np.array([spec.one_form(x) for x in X], dtype=float)
    # each point's matrix and covector, shaped as np.atleast_2d and
    # np.atleast_1d shape one
    A = A.reshape(len(X), *np.atleast_2d(A[0]).shape)
    B = B.reshape(len(X), *np.atleast_1d(B[0]).shape)
    norm2 = np.vecdot(B, np.linalg.solve(A, B[..., None])[..., 0])
    bad = np.flatnonzero(norm2 >= 1.0)
    if bad.size:
        k = bad[0]
        raise ValueError(f"one-form norm reaches {math.sqrt(norm2[k]):.6g} >= 1 "
                         f"at point {X[k].tolist()}")
    Vx = np.repeat(V, subdivisions, axis=0)
    vav = np.vecdot(np.matmul(Vx[:, None, :], A)[:, 0, :], Vx)
    if (vav < 0).any():
        raise ValueError(f"metric is not positive definite at point {X[np.argmax(vav < 0)].tolist()}")
    terms = (np.sqrt(vav) + np.vecdot(B, Vx)).reshape(len(V), subdivisions)
    return np.cumsum(terms, axis=1)[:, -1] / subdivisions


def finsler_length(spec: RandersSpec, polyline, subdivisions: int = 16) -> float:
    """Composite-midpoint quadrature of F along straight coordinate chords.

    The integrand is positively 1-homogeneous in the velocity, so the
    parametrization drops out up to quadrature error; ``subdivisions`` is
    the midpoint count per chord.  Aborts naming the sample point if the
    one-form reaches unit norm there.
    """
    if subdivisions < 1:
        raise ValueError("subdivisions must be at least 1")
    pts = np.array([np.asarray(p, dtype=float) for p in polyline])
    if len(pts) < 2:
        raise ValueError("polyline needs at least two points")
    return float(np.cumsum(_chord_lengths(spec, pts[:-1], pts[1:], subdivisions))[-1])


def stencil_chordal_bound(domain: Domain) -> float:
    """Worst-case ratio of stencil-path length to straight-chord length.

    1 on one-dimensional domains (paths follow the geometry exactly); the
    8-neighbor stencil on two-dimensional grids overshoots by at most
    1/cos(pi/8) for directions between a grid axis and a diagonal.
    """
    if domain.dim == 1:
        return 1.0
    return 1.0 / math.cos(math.pi / 8.0)


def _grid_neighbors(domain: Domain, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The stencil edges (i, j) of the sample grid, ``resolution`` points
    per axis, as two index arrays, in ascending i and, for each i, in
    stencil order (right then left in one dimension, _STENCIL_8 in two)."""
    shape = (resolution,) * domain.dim
    offsets = np.array([(1,), (-1,)] if domain.dim == 1 else _STENCIL_8)
    # tgt[ax, i, k]: the axis-ax grid index of point i moved by offset k
    tgt = np.indices(shape).reshape(len(shape), -1, 1) + offsets.T[:, None, :]
    ok = np.ones(tgt.shape[1:], dtype=bool)
    for ax, (size, wraps) in enumerate(zip(shape, domain.wraps())):
        if wraps:
            tgt[ax] %= size
        else:
            ok &= (tgt[ax] >= 0) & (tgt[ax] < size)
    src = np.broadcast_to(np.arange(ok.shape[0])[:, None], ok.shape)
    return src[ok], np.ravel_multi_index(tuple(tgt), shape, mode="clip")[ok]


def build_space(entry: CatalogEntry, resolution: int | None = None) -> MetricMeasureSpace:
    """Sample, connect, weight, and close a catalog entry into an mm-space.

    Directed edge weights are chord quadratures of F (asymmetric whenever
    the one-form is nonzero), the metric is the all-pairs shortest-path
    closure, and the measure is e^{-psi} times the Riemannian volume density
    times the coordinate cell volume, normalized to total mass one.
    """
    spec = entry.spec
    res = resolution if resolution is not None else spec.resolution
    if res < 4:
        raise ValueError("resolution must be at least 4 points per axis")
    domain = spec.domain
    points = domain.sample(res)
    n = len(points)
    src, dst = _grid_neighbors(domain, res)
    P = points[src]
    lengths = _chord_lengths(spec, P, P + domain.displacement(P, points[dst]))
    space = from_digraph(zip(src.tolist(), dst.tolist(), lengths.tolist()), n)
    dens = np.empty(n)
    for i, x in enumerate(points):
        a_mat = np.atleast_2d(np.asarray(spec.riemannian(x), dtype=float))
        vol = math.sqrt(max(float(np.linalg.det(a_mat)), 0.0))
        dens[i] = math.exp(-float(entry.density(x))) * vol
    weights = dens * domain.cell_volume(res)
    measure = ProbabilityMeasure(weights / weights.sum())
    return MetricMeasureSpace(space, measure)


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

def _round_sphere(x: np.ndarray) -> np.ndarray:
    """The round unit sphere's tensor diag(1, sin^2 theta) at (theta, phi)."""
    s = math.sin(float(x[0]))
    return np.array([[1.0, 0.0], [0.0, s * s]])


# The shipped example spaces, as the documents that ``entry_from_dict`` reads.
_CATALOG = (
    {"id": "g1", "domain": {"type": "interval", "x0": -5.0, "x1": 5.0},
     "resolution": 128, "density": {"type": "quadratic", "k": 1.0},
     "certified": {"K": 1.0, "D": 10.0},
     "note": "Gaussian-weighted flat line: the flat metric has zero curvature and "
             "the weighted term equals the density Hessian, which is K = 1; the "
             "diameter of the interval is 10."},
    {"id": "t2", "domain": {"type": "torus", "side": 1.0, "dim": 2},
     "resolution": 16, "certified": {"K": 0.0, "a": 0.0, "D": 1.0 / math.sqrt(2.0)},
     "note": "Flat unit square torus with uniform density: flat, undistorted, "
             "diameter attained at the half-diagonal offset."},
    {"id": "r1", "domain": {"type": "torus", "side": 1.0, "dim": 1},
     "resolution": 64, "one_form": [0.3],
     "note": "Flat circle with a constant one-form of norm 0.3: the canonical "
             "irreversibility exerciser, no curvature certificate."},
    {"id": "s2", "domain": {"type": "sphere"}, "resolution": 16, "metric": "round",
     "certified": {"K": 1.0, "a": 0.0, "D": math.pi},
     "note": "Round unit sphere on a pole-staggered latitude-longitude grid with "
             "uniform density: constant curvature one, no distortion, diameter pi."},
)


def catalog() -> list[CatalogEntry]:
    """The shipped example spaces with analytically certified constants,
    built by ``entry_from_dict`` from the same documents that
    ``ccmm gen --spec`` reads."""
    return [entry_from_dict(doc) for doc in _CATALOG]


def catalog_entry(entry_id: str) -> CatalogEntry:
    for e in catalog():
        if e.id == entry_id:
            return e
    raise KeyError(f"no catalog entry named {entry_id!r}; "
                   f"known ids: {', '.join(e.id for e in catalog())}")


def entry_from_dict(doc: dict) -> CatalogEntry:
    """The package's one CatalogEntry constructor, from a JSON-friendly
    document: the catalog's own entries and ``ccmm gen --spec`` files alike.

    Schema (a missing key takes the first form listed):
      { "id": str,
        "domain": {"type": "interval", "x0": f, "x1": f}
                | {"type": "torus", "side": f, "dim": 1|2}
                | {"type": "sphere"},
        "resolution": int,
        "metric": "euclidean" (np.eye(dim)) | [[...]] (constant matrix)
                | "round" (sphere only: diag(1, sin^2 theta)),
        "one_form": null (zero covector) | [b_1, ...] (constant covector),
        "density": {"type": "uniform"}
                 | {"type": "quadratic", "k": f}   (psi = k |x|^2 / 2),
        "certified": null | {"K": f, "a": f, "D": f},
        "note": str }

    Only constant data, the round sphere and the listed densities are
    expressible declaratively; richer fields need RandersSpec callables.
    """
    dom = doc["domain"]
    kind = dom["type"]
    if kind == "interval":
        domain: Domain = Interval(float(dom["x0"]), float(dom["x1"]))
    elif kind == "torus":
        domain = Torus(float(dom["side"]), int(dom.get("dim", 2)))
    elif kind == "sphere":
        domain = LatLongSphere()
    else:
        raise ValueError(f"unknown domain type {kind!r}")

    metric = doc.get("metric", "euclidean")
    if metric == "round":
        if kind != "sphere":
            raise ValueError("the 'round' metric is the sphere's coordinate tensor")
        riem = _round_sphere
    else:
        const = np.eye(domain.dim) if metric == "euclidean" else np.asarray(metric, dtype=float)
        if const.shape != (domain.dim, domain.dim):
            raise ValueError(f"metric matrix must be {domain.dim}x{domain.dim}")
        riem = lambda _x, _m=const: _m

    form = doc.get("one_form")
    vec = np.zeros(domain.dim) if form is None else np.asarray(form, dtype=float)
    if vec.shape != (domain.dim,):
        raise ValueError(f"one_form must have length {domain.dim}")
    one_form = lambda _x, _b=vec: _b

    dens = doc.get("density", {"type": "uniform"})
    if dens["type"] == "uniform":
        density = lambda _x: 0.0
    elif dens["type"] == "quadratic":
        k = float(dens["k"])
        density = lambda x, _k=k: 0.5 * _k * float(np.dot(x, x))
    else:
        raise ValueError(f"unknown density type {dens['type']!r}")

    spec = RandersSpec(domain, riem, one_form, int(doc["resolution"]))
    certified = doc.get("certified")
    return CatalogEntry(str(doc.get("id", "custom")), spec, density,
                        dict(certified) if certified else None,
                        str(doc.get("note", "")))
