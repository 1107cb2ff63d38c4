"""Randers lengths, catalog builds, and their analytic ground truths."""
import math

import numpy as np
import pytest

from ccmm.finsler import (
    Interval,
    LatLongSphere,
    RandersSpec,
    Torus,
    _grid_neighbors,
    build_space,
    catalog,
    catalog_entry,
    entry_from_dict,
    finsler_length,
    stencil_chordal_bound,
)
from ccmm.io import space_hash
from ccmm.quasimetric import QuasiMetricSpace, diameter, validate
from oracles import finsler_length_plain, grid_neighbors_plain


def test_euclidean_chord_exact():
    e = catalog_entry("g1")
    for ell in (0.5, 2.5, 7.0):
        got = finsler_length(e.spec, [np.array([0.0]), np.array([ell])], 8)
        assert got == pytest.approx(ell, rel=1e-12)


def test_constant_form_chord_closed_form():
    r1 = catalog_entry("r1")
    v = 0.25
    fwd = finsler_length(r1.spec, [np.array([0.0]), np.array([v])], 4)
    bwd = finsler_length(r1.spec, [np.array([v]), np.array([0.0])], 4)
    assert fwd == pytest.approx(v * 1.3, rel=1e-12)
    assert bwd == pytest.approx(v * 0.7, rel=1e-12)


# a metric and a one-form that vary along the interval
_VARYING = RandersSpec(
    Interval(0.0, 1.0),
    riemannian=lambda x: np.array([[1.0 + 0.5 * math.sin(3 * float(x[0]))]]),
    one_form=lambda x: np.array([0.2 * math.cos(2 * float(x[0]))]),
    resolution=8,
)


def test_quadrature_self_convergence():
    # a varying metric: doubling the midpoint count never loses accuracy
    # against a fine reference by more than 1e-8
    spec = _VARYING
    chord = [np.array([0.05]), np.array([0.95])]
    ref = finsler_length(spec, chord, 1024)
    prev_err = abs(finsler_length(spec, chord, 1) - ref)
    for k in (2, 4, 8, 16, 32):
        err = abs(finsler_length(spec, chord, k) - ref)
        assert err <= prev_err + 1e-8
        prev_err = err


def test_one_form_norm_abort_names_point():
    spec = RandersSpec(
        Interval(0.0, 1.0),
        riemannian=lambda x: np.eye(1),
        one_form=lambda x: np.array([2.0 * float(x[0])]),
        resolution=8,
    )
    with pytest.raises(ValueError, match="at point"):
        finsler_length(spec, [np.array([0.0]), np.array([1.0])], 4)


def _sphere_spec(one_form):
    return RandersSpec(LatLongSphere(), catalog_entry("s2").spec.riemannian, one_form, 8)


def _tilted_torus_form(x):
    return np.array([0.2 * math.sin(2 * math.pi * float(x[1])), -0.1])


def _tilted_torus_metric(x):
    c = 0.3 * math.cos(2 * math.pi * float(x[0]))
    return np.array([[1.5 + c, 0.2 + 0.1 * c], [0.2 + 0.1 * c, 0.8 - 0.5 * c]])


@pytest.mark.parametrize("subdivisions", [1, 4, 16, 33])
@pytest.mark.parametrize("spec, polyline", [
    (_VARYING, [[0.05], [0.95], [0.3], [0.31], [1.7]]),
    (catalog_entry("s2").spec, [[0.1, 0.0], [1.2, 2.9], [3.0, -0.4], [0.7, 0.7]]),
    (_sphere_spec(lambda x: np.array([0.3 * math.cos(float(x[1])), 0.1 * math.sin(float(x[0]))])),
     [[0.4, 0.2], [2.5, 1.1], [1.1, 6.0]]),
    (RandersSpec(Torus(1.0, dim=2), _tilted_torus_metric, _tilted_torus_form, 8),
     [[0.0, 0.0], [0.3, -0.2], [1.4, 0.9], [1.4, 0.95]]),
    # more chords than numpy's pairwise sum adds one by one
    (RandersSpec(Torus(1.0, dim=2), _tilted_torus_metric, _tilted_torus_form, 8),
     [[0.13 * k, (0.37 * k * k) % 1.0] for k in range(40)]),
], ids=["varying-interval", "s2", "s2-with-form", "tilted-torus", "tilted-torus-40-points"])
def test_finsler_length_bit_identical_to_plain_loop(spec, polyline, subdivisions):
    pts = [np.array(p) for p in polyline]
    assert finsler_length(spec, pts, subdivisions) == finsler_length_plain(spec, pts, subdivisions)


def test_one_form_abort_names_the_first_point_in_chord_order():
    # the one-form reaches norm 2 past x = 0.85: at the fourth midpoint of the
    # first chord and at the first midpoint of the second
    spec = RandersSpec(
        Interval(0.0, 2.0),
        riemannian=lambda x: np.eye(1),
        one_form=lambda x: np.array([2.0 if float(x[0]) > 0.85 else 0.0]),
        resolution=8,
    )
    polyline = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
    with pytest.raises(ValueError, match="at point") as want:
        finsler_length_plain(spec, polyline, 4)
    with pytest.raises(ValueError, match="at point") as got:
        finsler_length(spec, polyline, 4)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith("at point [0.875]")


def test_indefinite_metric_abort_names_point():
    spec = RandersSpec(
        Interval(0.0, 1.0),
        riemannian=lambda x: np.array([[1.0 if float(x[0]) < 0.5 else -1.0]]),
        one_form=lambda x: np.zeros(1),
        resolution=8,
    )
    with pytest.raises(ValueError, match=r"not positive definite at point \[0.625\]"):
        finsler_length(spec, [np.array([0.0]), np.array([1.0])], 4)


@pytest.mark.parametrize("domain", [Interval(-1.0, 2.0), Torus(1.0, dim=1), Torus(2.0, dim=2),
                                    LatLongSphere()],
                         ids=["interval", "circle", "torus", "sphere"])
def test_grid_neighbors_match_plain_loop(domain):
    for res in (4, 5, 6, 7, 8, 9, 16):
        src, dst = _grid_neighbors(domain, res)
        assert list(zip(src.tolist(), dst.tolist())) == grid_neighbors_plain(domain, res)


# space hashes of the catalog builds, from the per-point quadrature that the
# batched chord kernel replaced: dist and weights stay the same bit for bit
_CATALOG_HASHES = {
    ("g1", 4): "cf5cb973bac3c02a", ("g1", 7): "04995007dcf2a22a",
    ("g1", 16): "a7d10809494b0611", ("g1", 32): "d5f6c17cc3275ef2",
    ("g1", 128): "ca2c827909dbf79d",
    ("t2", 4): "5a24d6c3b98937b7", ("t2", 7): "09854e5d9b4fcd39",
    ("t2", 16): "3f7ae26df5474841", ("t2", 32): "0cac4aef247b8bab",
    ("r1", 4): "6065197de9edaada", ("r1", 7): "fb77548650778cb4",
    ("r1", 16): "8eae735fda23ba2c", ("r1", 32): "4dbddea3659d2d0c",
    ("r1", 64): "9d4d81f123a73ecb",
    ("s2", 4): "b6431edbedbc6acc", ("s2", 7): "eab79fbf161f379d",
    ("s2", 16): "ac94b92c6307a698", ("s2", 32): "4d6366068d755112",
}


@pytest.mark.parametrize("entry_id, res", sorted(_CATALOG_HASHES))
def test_catalog_space_hash_pinned(entry_id, res):
    assert space_hash(build_space(catalog_entry(entry_id), resolution=res)) \
        == _CATALOG_HASHES[entry_id, res]


def test_catalog_ids_and_certificates():
    ids = [e.id for e in catalog()]
    assert ids == ["g1", "t2", "r1", "s2"]
    g1 = catalog_entry("g1")
    assert g1.certified["K"] == 1.0
    t2 = catalog_entry("t2")
    assert t2.certified == {"K": 0.0, "a": 0.0, "D": 1.0 / math.sqrt(2.0)}
    assert catalog_entry("s2").certified["K"] == 1.0
    with pytest.raises(KeyError):
        catalog_entry("nope")


def test_g1_build_measure_and_symmetry():
    mm = build_space(catalog_entry("g1"), resolution=64)
    assert mm.n == 64
    assert mm.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert mm.space.is_symmetric()
    # the measure is the discretized Gaussian restricted to the interval
    xs = (np.arange(64) + 0.5) * (10.0 / 64) - 5.0
    expect = np.exp(-0.5 * xs ** 2)
    expect /= expect.sum()
    assert np.allclose(mm.weights, expect, rtol=1e-12)


def test_t2_diameter_half_diagonal():
    mm = build_space(catalog_entry("t2"))
    assert mm.space.is_symmetric()
    assert diameter(mm.space) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)


def test_t2_matches_wrapped_euclidean_within_stencil_bound():
    entry = catalog_entry("t2")
    res = 8
    mm = build_space(entry, resolution=res)
    bound = stencil_chordal_bound(entry.spec.domain)
    pts = entry.spec.domain.sample(res)
    for i in (0, 5, 17):
        for j in (3, 29, 50):
            d = pts[j] - pts[i]
            d = (d + 0.5) % 1.0 - 0.5
            true = float(np.hypot(d[0], d[1]))
            if true == 0.0:
                continue
            assert mm.dist[i, j] >= true - 1e-12
            assert mm.dist[i, j] <= true * bound * (1 + 1e-9)


def test_r1_asymmetry_ratio():
    mm = build_space(catalog_entry("r1"))
    with np.errstate(divide="ignore"):
        ratio = np.where(mm.dist.T > 0, mm.dist / np.where(mm.dist.T > 0, mm.dist.T, 1), 0)
    assert ratio.max() == pytest.approx(1.3 / 0.7, rel=1e-9)


def test_refinement_trend_two_fixed_points():
    # distance between fixed physical points moves less than the chordal
    # bound allows as the resolution doubles
    entry = catalog_entry("t2")
    bound = stencil_chordal_bound(entry.spec.domain)
    target = np.array([0.25, 0.5])
    vals = []
    for res in (8, 16, 32):
        mm = build_space(entry, resolution=res)
        pts = entry.spec.domain.sample(res)
        i = int(np.argmin(np.abs(pts - 0.0).sum(axis=1)))
        j = int(np.argmin(np.abs(pts - target).sum(axis=1)))
        vals.append(mm.dist[i, j])
    true = float(np.hypot(0.25, 0.5))
    for v in vals:
        assert true - 1e-12 <= v <= true * bound * (1 + 1e-9)


def test_build_space_validates_as_quasimetric():
    mm = build_space(catalog_entry("r1"), resolution=16)
    assert isinstance(validate(mm.dist, rel_tol=1e-12), QuasiMetricSpace)


def test_sphere_build_basics():
    mm = build_space(catalog_entry("s2"), resolution=8)
    assert mm.n == 64
    assert mm.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert mm.space.is_symmetric()
    # diameter overshoots pi by the grid factor near the poles, never more
    d = diameter(mm.space)
    bound = stencil_chordal_bound(catalog_entry("s2").spec.domain)
    assert math.pi - 1e-9 <= d <= math.pi * bound * 1.3


def test_resolution_floor():
    with pytest.raises(ValueError):
        build_space(catalog_entry("g1"), resolution=3)


def test_entry_from_dict_matches_catalog_g1():
    doc = {
        "id": "my-line",
        "domain": {"type": "interval", "x0": -5.0, "x1": 5.0},
        "resolution": 32,
        "metric": "euclidean",
        "one_form": None,
        "density": {"type": "quadratic", "k": 1.0},
        "certified": {"K": 1.0},
        "note": "declarative twin of the Gaussian line",
    }
    mine = build_space(entry_from_dict(doc))
    ref = build_space(catalog_entry("g1"), resolution=32)
    assert np.array_equal(mine.dist, ref.dist)
    assert np.allclose(mine.weights, ref.weights, rtol=1e-15)
    assert space_hash(mine) == _CATALOG_HASHES["g1", 32]


def test_entry_from_dict_constant_form_circle():
    doc = {
        "id": "lean",
        "domain": {"type": "torus", "side": 1.0, "dim": 1},
        "resolution": 16,
        "metric": [[1.0]],
        "one_form": [0.3],
        "density": {"type": "uniform"},
    }
    mm = build_space(entry_from_dict(doc))
    ratio = (mm.dist / np.where(mm.dist.T > 0, mm.dist.T, np.inf)).max()
    assert ratio == pytest.approx(1.3 / 0.7, rel=1e-9)
    assert space_hash(mm) == _CATALOG_HASHES["r1", 16]


def test_entry_from_dict_rejects_malformed():
    with pytest.raises(ValueError, match="domain type"):
        entry_from_dict({"domain": {"type": "klein-bottle"}, "resolution": 8})
    with pytest.raises(ValueError, match="one_form"):
        entry_from_dict({"domain": {"type": "torus", "side": 1.0, "dim": 2},
                         "resolution": 8, "one_form": [0.1]})
