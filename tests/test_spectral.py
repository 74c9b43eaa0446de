import math
import tracemalloc
from dataclasses import asdict
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st, target

from vvcantor import (BracketingResult, Catalog, ClosedForm, ContractionMap,
                      InsufficientDataError, MonteCarloNeckEvaluator,
                      NoisyRootError, WeightedIFS, Xoshiro256StarStar,
                      bracketing_check, build_tree, center_counts,
                      cutset_stats_check, cut_set, empirical_exponent,
                      f_exact_homogeneous, gamma_exact_homogeneous, solve_gamma,
                      solve_gamma_recursive, stream_seed)
from vvcantor import _kernels
from vvcantor.catalog import map_table
from vvcantor.spectral import _recursive_f
from conftest import (env_table, make_cantor, make_two_system, member_bracketing_sums,
                      scalar_neck_blocks, scalar_tree_stream, segment_entries)
from test_properties import catalogs

GAMMA_CANTOR = math.log(2.0) / math.log(6.0)


def rng_for(seed):
    return Xoshiro256StarStar(stream_seed(seed, 0))


# ---------------------------------------------------------------------------
# exact evaluators and roots

def test_f_exact_cantor_root_and_origin(cantor):
    assert abs(f_exact_homogeneous(cantor, GAMMA_CANTOR)) < 1e-14
    assert abs(f_exact_homogeneous(cantor, 1e-12) - math.log(2.0)) < 1e-10


def test_f_exact_strictly_decreasing(two_system):
    xs = np.linspace(0.05, 2.0, 40)
    vals = [f_exact_homogeneous(two_system, float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_exact_two_system_root_against_scalar_oracle(two_system):
    # independent oracle: bisection on the product form of the root equation
    def product_form(g):
        return 0.5 * math.log(2.0 * 6.0 ** -g) + 0.5 * math.log(3.0 * 15.0 ** -g)

    lo, hi = 1e-9, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if product_form(mid) > 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    rep = gamma_exact_homogeneous(two_system, tolerance=1e-13)
    assert rep.method == "exact-homogeneous"
    assert abs(rep.gamma - oracle) < 1e-12


def test_solve_gamma_cantor_closed_form(cantor):
    rep = gamma_exact_homogeneous(cantor)
    assert rep.method == "exact-selfsimilar"
    assert abs(rep.gamma - GAMMA_CANTOR) <= 1e-10


def test_solve_gamma_lebesgue_weyl_exponent(lebesgue):
    rep = gamma_exact_homogeneous(lebesgue)
    assert abs(rep.gamma - 0.5) <= 1e-10


def test_recursive_root(cantor, two_system):
    assert abs(solve_gamma_recursive(cantor) - GAMMA_CANTOR) <= 1e-10
    # oracle: bisect sum_j p_j sum_i (r m)^g = 1 directly
    def mean_form(g):
        return 0.5 * (2.0 * 6.0 ** -g) + 0.5 * (3.0 * 15.0 ** -g) - 1.0

    lo, hi = 1e-9, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_form(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(solve_gamma_recursive(two_system) - 0.5 * (lo + hi)) < 1e-10


# ---------------------------------------------------------------------------
# one protocol for every evaluator

EVALUATORS = {
    "exact": lambda: ClosedForm(partial(f_exact_homogeneous, make_two_system()),
                                "exact-homogeneous"),
    "recursive-oracle": lambda: ClosedForm(partial(_recursive_f, make_two_system()),
                                           "recursive-oracle"),
    "monte-carlo": lambda: MonteCarloNeckEvaluator(make_two_system(), 2, 300, master_seed=11),
    # alike blocks: se 0 or rounding, and still a CI
    "monte-carlo-cantor-v1": lambda: MonteCarloNeckEvaluator(make_cantor(), 1, 200,
                                                             master_seed=5),
}


@pytest.mark.parametrize("make", EVALUATORS.values(), ids=EVALUATORS.keys())
def test_solve_gamma_reports_what_the_evaluator_carries(make):
    ev = make()
    rep = solve_gamma(ev)
    assert (rep.ci is None) == (ev.blocks is None)
    assert (rep.method, rep.seed, rep.blocks) == (ev.method, ev.master_seed, ev.blocks)
    if ev.blocks is None:
        assert all(e.se == 0.0 for e in rep.f_evaluations)


def test_exact_wrappers_are_closed_form_solves(two_system):
    exact = ClosedForm(partial(f_exact_homogeneous, two_system), "exact-homogeneous")
    assert asdict(gamma_exact_homogeneous(two_system)) == asdict(solve_gamma(exact, 1e-10))
    recursive = ClosedForm(partial(_recursive_f, two_system), "recursive-oracle")
    assert solve_gamma_recursive(two_system) == solve_gamma(recursive, 1e-10).gamma


def test_hand_written_evaluator_solves_without_a_ci():
    """Any object with the protocol is solved; one without blocks is exact."""
    class Line:
        method, blocks, master_seed = "line", None, None

        def f(self, x):
            return 0.4 - x, 0.0

    rep = solve_gamma(Line(), tolerance=1e-6)
    assert abs(rep.gamma - 0.4) <= 1e-6
    assert rep.ci is None and rep.method == "line"


def test_exponent_ordering_diagnostic(two_system):
    hom = gamma_exact_homogeneous(two_system).gamma
    rec = solve_gamma_recursive(two_system)
    ev = MonteCarloNeckEvaluator(two_system, 2, 2000, master_seed=11)
    mc = solve_gamma(ev).gamma
    for g in (hom, rec, mc):
        assert 0.0 < g < 1.0
    assert hom <= rec  # convexity of the mixture


# ---------------------------------------------------------------------------
# Monte Carlo estimates

def test_single_type_blocks_have_unit_length(two_system):
    ev = MonteCarloNeckEvaluator(two_system, 1, 200, master_seed=3)
    assert (ev.neck_waits == 1).all()


def test_single_system_block_identity(cantor):
    # one system: each block's log sum is n(1) * log(sum of map factors)
    ev = MonteCarloNeckEvaluator(cantor, 2, 100, master_seed=5)
    x = 0.3
    per = math.log(2.0 * (1 / 6) ** x)
    ls = ev.log_sums(x)
    assert np.allclose(ls, ev.neck_waits * per, rtol=1e-12)


def test_monte_carlo_matches_exact_within_3se(two_system):
    ev = MonteCarloNeckEvaluator(two_system, 1, 10_000, master_seed=7)
    for x in (0.15, 0.25, 0.35, 0.45, 0.6):
        fhat, se = ev.f(x)
        assert se > 0
        assert abs(fhat - f_exact_homogeneous(two_system, x)) <= 3 * se


def test_monte_carlo_deterministic(two_system):
    a = MonteCarloNeckEvaluator(two_system, 2, 300, master_seed=9).f(0.4)
    b = MonteCarloNeckEvaluator(two_system, 2, 300, master_seed=9).f(0.4)
    assert a == b


def test_common_random_numbers_make_estimate_decreasing(two_system):
    ev = MonteCarloNeckEvaluator(two_system, 2, 500, master_seed=13)
    xs = np.linspace(0.1, 1.5, 15)
    vals = [ev.f(float(x))[0] for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_mc_root_interval_covers_exact_root(two_system):
    ev = MonteCarloNeckEvaluator(two_system, 1, 10_000, master_seed=7)
    rep = solve_gamma(ev)
    exact = gamma_exact_homogeneous(two_system).gamma
    assert rep.ci is not None
    assert rep.ci[0] <= exact <= rep.ci[1]
    assert rep.method == "monte-carlo-neck"
    assert rep.blocks == 10_000


def test_f_by_root_type_reports_every_type(two_system):
    ev = MonteCarloNeckEvaluator(two_system, 2, 400, master_seed=15)
    cond = ev.f_by_root_type(0.5)
    assert set(cond) == {0, 1}


def test_extend_matches_fresh_evaluator(two_system):
    grown = MonteCarloNeckEvaluator(two_system, 2, 30, master_seed=17)
    grown.log_sums(0.4)  # a log-sums memo must not outlive extend
    grown.extend(0)  # draws nothing
    grown.extend(25)
    fresh = MonteCarloNeckEvaluator(two_system, 2, 55, master_seed=17)
    assert grown.blocks == fresh.blocks == 55
    assert np.array_equal(grown.neck_waits, fresh.neck_waits)
    for x in (0.4, 0.0, 1.3):  # 0.4 first, where a stale memo would answer
        assert grown.log_sums(x).tobytes() == fresh.log_sums(x).tobytes()
    assert grown.f_by_root_type(0.4) == fresh.f_by_root_type(0.4)


def test_neck_timeout_with_tiny_cap(two_system, monkeypatch):
    from vvcantor import NeckTimeoutError, spectral

    monkeypatch.setattr(spectral, "DEFAULT_ENV_CAP", 1)
    with pytest.raises(NeckTimeoutError):
        # V=2 first environments are rarely necks; a cap of 1 trips fast
        MonteCarloNeckEvaluator(two_system, 2, 50, master_seed=1)


def test_neck_timeout_names_scalar_block(two_system, monkeypatch):
    """At V = 4 almost no block necks within a few thousand levels. The
    lanes must fail on the block that drawing blocks one by one fails on
    (here block 2: blocks 0 and 1 neck in time)."""
    from vvcantor import NeckTimeoutError, spectral

    blocks, cap = 40, 3000
    with pytest.raises(NeckTimeoutError) as scalar:
        scalar_neck_blocks(two_system, 4, 379, 0, blocks, cap)
    assert str(scalar.value).startswith("block 2 ")
    monkeypatch.setattr(spectral, "DEFAULT_ENV_CAP", cap)
    with pytest.raises(NeckTimeoutError, match=f"^{scalar.value}$"):
        MonteCarloNeckEvaluator(two_system, 4, blocks, master_seed=379)


def test_running_lanes_past_the_node_cap_are_refused(two_system, monkeypatch):
    """The same 40 blocks with the node cap at 9,000: all 40 still run at
    level 226, where their rows pass it, so the draw stops there with
    ``TreeTooLargeError``, far below the table that running all 40 lanes to
    3,000 levels would need."""
    from vvcantor import TreeTooLargeError, spectral

    blocks, cap = 40, 3000
    monkeypatch.setattr(spectral, "DEFAULT_NODE_CAP", 3 * cap)
    naive = blocks * cap * (4 + 4 * 3) * 8  # every lane to the cap, 8 bytes per table entry
    tracemalloc.start()
    try:
        with pytest.raises(TreeTooLargeError, match="^40 Monte Carlo blocks from block 0 "
                                                    "still run at level 226, past 9000 rows$"):
            MonteCarloNeckEvaluator(two_system, 4, blocks, master_seed=379)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < naive / 8


def test_noisy_root_raised_when_growth_capped(monkeypatch):
    # mixture dominated by a system whose root sits exactly on a probe point
    cat = Catalog(0.0, 1.0, (
        WeightedIFS((ContractionMap(0.5, 0.0), ContractionMap(0.5, 0.5)),
                    (0.5, 0.5)),
        WeightedIFS((ContractionMap(1 / 3, 0.0), ContractionMap(1 / 3, 2 / 3)),
                    (0.5, 0.5)),
    ), (0.9, 0.1))
    for seed in range(200):
        ev = MonteCarloNeckEvaluator(cat, 1, 4, master_seed=seed)
        v, se = ev.f(0.5)
        if se > 0 and abs(v) <= 3 * se:  # ambiguous at the first halving probe
            monkeypatch.setattr("vvcantor.spectral.MAX_BLOCK_GROWTH", 1)
            with pytest.raises(NoisyRootError):
                solve_gamma(ev)
            return
    pytest.fail("no seed produced an ambiguous probe")


def test_block_average_converges_along_one_sequence(two_system):
    # running a single environment sequence through 20 necks is the same
    # estimator as averaging 20 blocks
    x = 0.5
    root, envs = scalar_tree_stream(two_system, 2, 20, 123)
    deep = build_tree(two_system, 2, 0, root_type=root,
                      environments=env_table(two_system, 2, envs))
    lens = np.array([deep.neck_levels[19]])
    layout = _kernels.block_layout(segment_entries(deep.level_sys, deep.child, np.array([0]), lens),
                                   lens, np.array([root]))
    lhs = _kernels.block_log_sums(layout, 2, map_table(two_system), x)[0] / 20.0
    ev = MonteCarloNeckEvaluator(two_system, 2, 2000, master_seed=99)
    fhat, se = ev.f(x)
    se_20 = se * math.sqrt(2000 / 20.0)
    assert abs(lhs - fhat) <= 5 * se_20


# ---------------------------------------------------------------------------
# empirical slope

def test_empirical_exponent_insufficient_data():
    xs = np.geomspace(1, 100, 20)
    with pytest.raises(InsufficientDataError):
        empirical_exponent((xs, np.zeros(20)), (1, 100))
    with pytest.raises(InsufficientDataError):
        empirical_exponent((xs, np.full(20, 5.0)), (1, 100))  # one repeated count
    with pytest.raises(InsufficientDataError):
        empirical_exponent((xs[:4], np.arange(4) + 1), (1, 100))


def test_empirical_exponent_recovers_power_law():
    xs = np.geomspace(10, 1e5, 40)
    counts = np.floor(2.0 * xs ** 0.37)
    fit = empirical_exponent((xs, counts), (10, 1e5))
    assert abs(fit.slope - 0.37) < 0.01
    assert fit.n_points == 40


# ---------------------------------------------------------------------------
# bracketing and cut-set statistics

def _feasible_tree(catalog, v, k, depth, seeds, node_cap=2_000_000):
    from vvcantor import DepthExhaustedError, TreeTooLargeError

    for seed in seeds:
        try:
            tree = build_tree(catalog, v, depth, rng=rng_for(seed), node_cap=node_cap)
            cut_set(tree, k)
            return tree, seed
        except (DepthExhaustedError, TreeTooLargeError):
            continue
    pytest.fail("no feasible tree in the seed range")


def test_bracketing_k0_reduces_to_center(two_system):
    tree, _ = _feasible_tree(two_system, 2, 1, 10, range(40))
    xs = np.geomspace(2.0, 1e4, 8)
    res = bracketing_check(tree, 0, center_counts(tree, xs, 8))
    assert np.array_equal(res.lower, res.center_dirichlet)
    assert np.array_equal(res.upper, res.center_neumann)
    assert res.n_fail == 0 and res.n_warn == 0


def test_bracketing_k0_is_the_center_without_a_subtree(two_system, monkeypatch):
    from vvcantor import spectral

    tree, _ = _feasible_tree(two_system, 2, 1, 10, range(40))
    center = center_counts(tree, np.geomspace(2.0, 1e4, 8), 8)

    def no_subtree(*args):
        raise AssertionError("k = 0 rebuilt the whole tree")

    monkeypatch.setattr(spectral, "neck_subtree", no_subtree)
    assert bracketing_check(tree, 0, center) is center
    assert center.k == 0 and center.status == ["ok"] * 8


@pytest.mark.parametrize("lower, center_d, center_n, upper, status", [
    ([0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3], ["ok"] * 4),
    ([0, 2, 2, 3], [0, 1, 2, 3], [1, 1, 3, 3], [1, 2, 3, 4], ["ok", "warn", "ok", "ok"]),
    ([0, 1, 2, 3], [0, 2, 3, 3], [0, 1, 2, 3], [0, 1, 2, 3], ["ok", "fail", "fail", "ok"]),
    ([0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 4, 3], [0, 1, 2, 3], ["ok", "ok", "fail", "ok"]),
    ([1, 0, 0, 2], [0, 0, 1, 1], [0, 1, 1, 1], [0, 1, 1, 0], ["warn", "ok", "ok", "fail"]),
    # a run of three: the third warning's neighbour is a warning, not a failure
    ([1, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], ["fail", "fail", "fail", "ok"]),
])
def test_bracketing_status_escalates_adjacent_warnings(lower, center_d, center_n,
                                                       upper, status):
    """A unit violation at an isolated point warns; a unit violation next to
    another, or a violation of 2 (summed over the three links of the
    chain), fails."""
    res = BracketingResult(k=1, level=3, splits=1, x=np.geomspace(1.0, 8.0, 4),
                           lower=np.array(lower), center_dirichlet=np.array(center_d),
                           center_neumann=np.array(center_n), upper=np.array(upper))
    assert res.status == status
    assert (res.n_warn, res.n_fail) == (status.count("warn"), status.count("fail"))


def test_bracketing_holds_on_random_trees(two_system):
    tree, _ = _feasible_tree(two_system, 2, 3, 12, range(40))
    xs = np.geomspace(2.0, 5e4, 16)
    for k in (1, 2, 3):
        cs = cut_set(tree, k)
        level = min(tree.depth, int(cs.levels.max()) + 3)
        res = bracketing_check(tree, k, center_counts(tree, xs, level))
        assert res.n_fail == 0
        assert (res.lower <= res.center_dirichlet).all()
        assert (res.center_dirichlet <= res.center_neumann).all()
        assert (res.center_neumann <= res.upper).all()


@st.composite
def necked_trees(draw):
    """Trees of ``catalogs()`` with V = 1-3 types and depth 2-8 whose table
    levels are necks three times in four, so that cut sets exist at V > 1
    too and spread over several neck levels."""
    from vvcantor import TreeTooLargeError

    catalog = draw(catalogs())
    v, depth = draw(st.integers(1, 3)), draw(st.integers(2, 8))
    n_maps = [s.size for s in catalog.systems]
    level_sys = np.zeros((depth, v), np.int64)
    child = np.zeros((depth, v, max(n_maps)), np.int64)
    for l in range(depth):
        neck, common = draw(st.integers(0, 3)) > 0, draw(st.integers(0, v - 1))
        for t in range(v):
            j = level_sys[l, t] = draw(st.integers(0, len(n_maps) - 1))
            for i in range(n_maps[j]):
                child[l, t, i] = common if neck else draw(st.integers(0, v - 1))
    try:
        return build_tree(catalog, v, depth, root_type=draw(st.integers(0, v - 1)),
                          environments=(level_sys, child), node_cap=20_000)
    except TreeTooLargeError:
        assume(False)


@settings(deadline=None)
@given(tree=necked_trees(), k=st.integers(1, 3))
def test_bracketing_sums_match_member_oracle(tree, k):
    """On random catalogs, the sums that count each distinct product of a
    neck level once equal the member-by-member sums."""
    from vvcantor import DepthExhaustedError

    try:
        cs = cut_set(tree, k)
    except DepthExhaustedError:
        assume(False)
    spread = np.unique(cs.levels).size
    target(float(spread))  # steer the search to cut sets over many neck levels
    event(f"V = {tree.v_types}, cut set over {min(spread, 3)}{'+' * (spread >= 3)} neck levels")
    event(f"members share products: {np.unique(cs.products).size < cs.size}")
    center = center_counts(tree, np.geomspace(1.0, 1e5, 12), tree.depth)
    res = bracketing_check(tree, k, center)
    lower, upper = member_bracketing_sums(tree, k, center)
    assert np.array_equal(res.lower, lower) and np.array_equal(res.upper, upper)


def test_bracketing_counts_each_distinct_product_once(two_system, monkeypatch):
    """perfbench's fixed spectral tree has 50,664 cut-set members at its one
    neck level, 11, with 4 distinct products: each k passes 4 x 16 shifts to
    the condensed count, not 50,664 x 16, and gets the oracle's sums."""
    from vvcantor import condensed_counts, spectral

    tree = build_tree(two_system, 2, 11, rng=rng_for(17678329206797003235))
    center = center_counts(tree, np.geomspace(2.0, 5e4, 16), 11)
    shifts = []

    def recorded(tree, level, splits, xs):
        shifts.append(len(xs))
        return condensed_counts(tree, level, splits, xs)

    monkeypatch.setattr(spectral, "condensed_counts", recorded)
    for k in (1, 2, 3):
        shifts.clear()
        cs = cut_set(tree, k)
        res = bracketing_check(tree, k, center)
        assert cs.size == 50_664 and set(cs.levels.tolist()) == {11}
        assert shifts == [np.unique(cs.products).size * 16] == [64]
        assert res.n_fail == 0
    assert all(np.array_equal(a, b) for a, b in
               zip((res.lower, res.upper), member_bracketing_sums(tree, 3, center)))


def test_bracketing_counts_on_root_only_subtrees(two_system, monkeypatch):
    """Every neck subtree that ``bracketing_check`` builds materializes its
    root alone and keeps the table below it; the sums still equal the
    member-by-member oracle's."""
    from vvcantor import neck_subtree, spectral

    tree, _ = _feasible_tree(two_system, 2, 3, 12, range(40))
    center = center_counts(tree, np.geomspace(2.0, 5e4, 16), tree.depth)
    built = []

    def recorded(tree, level, depth):
        sub = neck_subtree(tree, level, depth)
        built.append((sub.node_count, sub.env_levels + level))
        return sub

    monkeypatch.setattr(spectral, "neck_subtree", recorded)
    for k in (1, 2, 3):
        built.clear()
        res = bracketing_check(tree, k, center)
        assert built and set(built) == {(1, tree.env_levels)}
        lower, upper = member_bracketing_sums(tree, k, center)
        assert np.array_equal(res.lower, lower) and np.array_equal(res.upper, upper)


def test_bracketing_small_shift_zeroes_dirichlet_side(two_system):
    tree, _ = _feasible_tree(two_system, 2, 1, 10, range(40))
    xs = np.array([0.25, 0.5])  # below 1/(b-a) = 1
    res = bracketing_check(tree, 1, center_counts(tree, xs, min(tree.depth, 9)))
    assert (res.lower == 0).all()
    assert (res.center_dirichlet == 0).all()


def test_bracketing_below_a_cut_set_member_raises_depth_exhausted(two_system):
    """A center level above the deepest cut-set member is a typed error whose
    hint is the levels missing, not an untyped ``ValueError``."""
    from vvcantor import DepthExhaustedError

    tree, _ = _feasible_tree(two_system, 2, 3, 12, range(40))
    deepest = int(cut_set(tree, 3).levels.max())
    center = center_counts(tree, np.geomspace(2.0, 5e4, 4), deepest - 1)
    with pytest.raises(DepthExhaustedError) as err:
        bracketing_check(tree, 3, center)
    assert err.value.extra_depth_hint == 1


def test_cutset_stats_cantor(cantor):
    tree = build_tree(cantor, 1, 10, rng=rng_for(1))
    rows = cutset_stats_check(tree, range(0, 6), level=8)
    for row in rows:
        assert row.chain_lower_ok and row.chain_upper_ok
        assert row.scale_lower_ok  # harmonic scale >= e^k
        if row.k >= 1:
            level = math.ceil(row.k / math.log(6.0))
            assert row.harmonic_scale == 6.0 ** level
            assert row.size == 2 ** level
    assert rows[0].size == 1 and rows[0].harmonic_scale == 1.0


def test_cutset_stats_reports_count_ratios(two_system):
    tree, _ = _feasible_tree(two_system, 2, 2, 10, range(40))
    rows = cutset_stats_check(tree, [1, 2], level=min(10, tree.depth))
    for row in rows:
        assert row.nd_at_scale is not None
        assert row.ratio_nd_over_size is not None
