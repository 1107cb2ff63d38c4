"""The test family as one certified (m, n) stack, read with row operations.

Every stacked reader is checked against the member-by-member loop it
replaced (``tests/oracles.py``): margins and witnesses must be equal, and
members and tails bit for bit.  Every reader of one run slices the family's
one sorted stack, built once.
"""
import numpy as np
from hypothesis import example, given, settings, strategies as st

from ccmm import lipschitz, quasimetric, verify
from ccmm.concentration import (
    ConcentrationProfile,
    enlargement_check_from_tail_bound,
    moment_bound_from_normal_tails,
    moment_norm,
    tail_bound_from_first_moment,
    tail_bound_from_square_moments,
)
from ccmm.finsler import build_space, catalog_entry
from ccmm.lipschitz import LipschitzFamily, _deviations, generate_family
from ccmm.quasimetric import (
    MetricMeasureSpace,
    ProbabilityMeasure,
    QuasiMetricSpace,
    random_mm_space,
    validate,
)
from oracles import (
    family_tails_plain,
    generate_family_plain,
    lipschitz_constant_bruteforce,
    median_plain,
    mf3_plain,
    moment_norm_plain,
    thm33_plain,
    thm37_plain,
    thm38_plain,
    thm39_plain,
    transfer_hypothesis_plain,
)


def synthetic_case(rng):
    """A space with zero-weight points and a family of near-tied, constant or
    single members; past 16 points an unstable sort would reorder ties."""
    n = int(rng.integers(2, 8) if rng.random() < 0.7 else rng.integers(17, 40))
    # off-diagonal distances of 8 make every field of range below 8 1-Lipschitz
    dist = np.full((n, n), 8.0)
    np.fill_diagonal(dist, 0.0)
    w = rng.random(n) * (rng.random(n) < 0.7)
    w[rng.integers(n)] += 0.1
    mm = MetricMeasureSpace(validate(dist), ProbabilityMeasure(w / w.sum()))
    # near-tie values: a few bases, each with its neighbours one ulp away
    bases = rng.uniform(0.0, 4.0, 3)
    pool = np.concatenate([bases, np.nextafter(bases, 5.0), np.nextafter(bases, -1.0)])
    members = int(rng.integers(1, 6))
    rows = rng.choice(pool, size=(members, n))
    constant = rng.random(members) < 0.25
    rows[constant] = rows[constant, :1]
    if rng.random() < 0.15:  # every member constant
        rows[:] = rows[:, :1]
    return mm, LipschitzFamily(mm.space, rows, ("user",) * members)


def generated_case(rng):
    mm = random_mm_space(int(rng.integers(0, 150)), n_low=3, n_high=7)
    count = 2 * mm.n + int(rng.integers(0, 12))
    seed = int(rng.integers(0, 1000))
    fam = generate_family(mm, count=count, seed=seed)
    want, tags = generate_family_plain(mm, count, seed)
    assert np.array_equal(fam.values, want) and list(fam.tags) == tags
    return mm, fam


def check_stack_against_loops(seed):
    rng = np.random.default_rng(seed)
    mm, fam = (synthetic_case if rng.random() < 0.5 else generated_case)(rng)
    w, F = mm.weights, fam.values
    stack = fam._stacked(w)
    assert fam.lipschitz.tolist() == [lipschitz_constant_bruteforce(mm.space, v) for v in F]
    assert stack.medians.tolist() == [median_plain(w, v) for v in F]
    for q in (1.0, 2.0, 4.0, 8.0, 3.3):
        assert [moment_norm(mm, v, q) for v in F] == [moment_norm_plain(w, v, q) for v in F]

    # profile radii: every positive deviation value and a few others
    devs = np.unique(_deviations(w, F))
    rs = np.unique(np.concatenate([devs[devs > 0], rng.uniform(0.01, 5.0, 4)]))
    alphas = np.sort(rng.uniform(0.0, 0.5, len(rs)) * (rng.random() < 0.9))[::-1]
    profile = ConcentrationProfile(rs, alphas, "exact")
    for ts in (rs, rs * (1 - 1e-9)):  # the transfer check's and the envelope's
        assert np.array_equal(stack.tails(ts), family_tails_plain(w, F, ts))

    ctx = verify._SuiteContext(mm, 0, 1, None, None)
    ctx.family, ctx.profile = fam, profile
    entry = verify._run_thm38(ctx)
    assert (entry.margin, entry.witness, entry.notes) == thm38_plain(
        mm, F, rs, tail_bound_from_square_moments)
    entry = verify._run_thm39(ctx)
    assert (entry.margin, entry.witness) == thm39_plain(mm, F, rs, tail_bound_from_first_moment)
    if not ctx.exact_ok:
        return
    beta = lambda s: 0.6 * np.exp(-s)  # noqa: E731
    rep = enlargement_check_from_tail_bound(mm, beta, family=fam, radii=rs)
    assert rep.hypothesis_margin == transfer_hypothesis_plain(w, F, beta(rs), rs)
    C2, c2 = verify._mean_tail_constants(ctx)
    bounds = {q: moment_bound_from_normal_tails(C2, c2, q) for q in (1.0, 2.0, 4.0, 8.0)}
    for run, want in ((verify._run_mf3, mf3_plain(mm, F, profile)),
                      (verify._run_thm33, thm33_plain(mm, F, rs, C2, c2)),
                      (verify._run_thm37, thm37_plain(mm, F, bounds))):
        entry = run(ctx)
        assert (entry.margin, entry.witness) == want, run.__name__


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(199)  # infinite normal constants: every thm33 margin is inf, no witness
def test_stacked_readers_match_the_member_loops(seed):
    check_stack_against_loops(seed)


def test_thm38_skips_a_premise_that_is_not_finite():
    # two points of zero weight and distances near 1e30: at the 8 largest
    # radii the moment at the optimal exponent overflows to inf, and its
    # weighted sum reads nan, which must count as an unmet premise
    base = random_mm_space(21)
    w = base.weights.copy()
    w[:2] = 0.0
    mm = MetricMeasureSpace(QuasiMetricSpace(base.dist * 1e30), ProbabilityMeasure(w / w.sum()))
    ctx = verify._SuiteContext(mm, 0, 1, None, None)
    with np.errstate(over="ignore", invalid="ignore"):
        entry = verify._run_thm38(ctx)
        want = thm38_plain(mm, ctx.family.values, ctx.profile.radii,
                           tail_bound_from_square_moments)
    assert (entry.margin, entry.witness, entry.notes) == want
    # 8 radii times 20 members
    assert entry.notes.endswith("; 160 points skipped (moment premise unmet at the optimal "
                                "exponent)")


def test_stacked_readers_match_the_member_loops_one_row_per_block(monkeypatch):
    monkeypatch.setattr(quasimetric, "_ROW_BUDGET", 1)
    for seed in range(12):
        check_stack_against_loops(seed)


def test_each_member_is_certified_once(monkeypatch):
    from ccmm import lipschitz

    real = lipschitz._lipschitz_constants
    certified = []

    def counting(dist, rows):
        certified.append(np.array(rows))
        return real(dist, rows)

    entry = catalog_entry("t2")
    certificate = dict(entry.certified or {}, dim=entry.spec.domain.dim)
    for mm, certified_constants in ((random_mm_space(0), None),
                                    (build_space(entry, resolution=4), certificate)):
        certified.clear()
        monkeypatch.setattr(lipschitz, "_lipschitz_constants", counting, raising=False)
        verify.run_verify(mm, sections=sorted(verify.SECTIONS), restarts=2,
                          certified=certified_constants)
        monkeypatch.undo()
        fam = generate_family(mm, count=2 * mm.n + 8, seed=0)
        assert certified, "no member was certified"
        assert np.array_equal(np.concatenate(certified), fam.values)


def test_each_family_is_deviated_and_sorted_once(monkeypatch):
    real_dev, real_sort = lipschitz._deviations, lipschitz._stable_order
    deviated, sorted_rows = [], []

    def deviating(weights, rows):
        deviated.append(np.array(rows))
        return real_dev(weights, rows)

    def sorting(rows):
        sorted_rows.append(np.array(rows))
        return real_sort(rows)

    cases = [(random_mm_space(0), None)]
    # t2 at 4 reads the exact profile; g1 at 24 (n > 16) reads the family
    # profile and the enlargement check's level sets too
    for cid, resolution in (("t2", 4), ("g1", 24)):
        entry = catalog_entry(cid)
        certificate = dict(entry.certified or {}, dim=entry.spec.domain.dim)
        cases.append((build_space(entry, resolution=resolution), certificate))
    for mm, certified_constants in cases:
        deviated.clear()
        sorted_rows.clear()
        monkeypatch.setattr(lipschitz, "_deviations", deviating)
        monkeypatch.setattr(lipschitz, "_stable_order", sorting)
        verify.run_verify(mm, sections=sorted(verify.SECTIONS), restarts=2,
                          certified=certified_constants)
        monkeypatch.undo()
        fam = generate_family(mm, count=2 * mm.n + 8, seed=0)
        dev = _deviations(mm.weights, fam.values)
        assert len(deviated) == 1 and np.array_equal(deviated[0], fam.values)
        # the members once and their deviations once, and no other rows
        assert len(sorted_rows) == 2
        for rows in (fam.values, dev):
            assert sum(np.array_equal(r, rows) for r in sorted_rows) == 1
