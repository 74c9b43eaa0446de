"""Properties that must hold on every valid catalog, checked on random ones:
1-3 systems of 2-4 maps, V = 1-3 types, trees of depth <= 5, neck-block
batches of up to 8 blocks of up to 12 levels, and Monte Carlo draws of up
to 40 blocks."""

from dataclasses import asdict
from unittest import mock

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

from vvcantor import (DIRICHLET, NEUMANN, Catalog, ContractionMap,
                      MonteCarloNeckEvaluator, NeckTimeoutError, TreeTooLargeError,
                      WeightedIFS, Xoshiro256StarStar, assemble, build_tree,
                      condensed_counts, decompose, inertia_counts, stream_seed,
                      validate_catalog)
from vvcantor import _kernels, spectral
from vvcantor.catalog import map_table
from vvcantor.vtree import (Environment, LevelDraws, environments_to_obj,
                            sample_environment)
from conftest import (PackedBlocks, ScalarXoshiro256StarStar, csr_block_log_sums,
                      csr_pack_blocks, dense_counts, make_two_system, pack_blocks,
                      scalar_is_neck, scalar_neck_blocks, scalar_sample_environment,
                      scalar_stream_seed, segment_levels, unpack_layout)

XS = np.geomspace(1.0, 1e6, 25)
MAX_CELLS = 256  # keeps the dense oracle cheap


def _normalized(ints):
    return tuple(i / sum(ints) for i in ints)


@st.composite
def catalogs(draw):
    """Maps tile [0, 1] left to right: integer cell lengths and gaps (0 for
    touching cells), scaled by their total. Each offset is the previous
    offset plus ratio plus gap, so touching images share an endpoint exactly."""
    systems = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 4))
        lengths = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
        gaps = draw(st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1))
        total = sum(lengths) + sum(gaps)
        maps, offset = [], 0.0
        for length, gap in zip(lengths, gaps + [0]):
            maps.append(ContractionMap(length / total, offset))
            offset = offset + length / total + gap / total
        weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        systems.append(WeightedIFS(tuple(maps), _normalized(weights)))
    probs = draw(st.lists(st.integers(1, 5), min_size=len(systems),
                          max_size=len(systems)))
    return Catalog(0.0, 1.0, tuple(systems), _normalized(probs))


# Touching images whose composed endpoints round apart by one ulp at level 2.
SIXTHS = Catalog(0.0, 1.0, (WeightedIFS(
    (ContractionMap(1 / 6, 0.0), ContractionMap(1 / 6, 1 / 6),
     ContractionMap(1 / 6, 5 / 6)), (1 / 3, 1 / 3, 1 / 3)),), (1.0,))


# A level-1 Neumann eigenvalue within rounding below x = 10, a point of XS:
# the float pencil's exact inertia, the dense oracle and the condensed count
# give N_N = 2 there, the Sturm count 1.
TIE = Catalog(0.0, 1.0, (WeightedIFS(
    (ContractionMap(2 / 6, 0.0), ContractionMap(3 / 6, 2 / 6 + 1 / 6)), (3 / 5, 2 / 5)),), (1.0,))


@settings(deadline=None)
@example(catalog=SIXTHS, v=1, depth=2, seed=0)
@example(catalog=TIE, v=1, depth=1, seed=0)
@given(catalog=catalogs(), v=st.integers(1, 3), depth=st.integers(0, 5),
       seed=st.integers(0, 2 ** 64 - 1))
def test_random_catalog_properties(catalog, v, depth, seed):
    """The Sturm counts rise with x, N_N - N_D is 0, 1 or 2, and both equal
    the dense oracle wherever the Sturm count does not change within 1e-9
    relative: within rounding of an eigenvalue it need not."""
    assert validate_catalog(catalog).ok
    tree = build_tree(catalog, v, depth, rng=Xoshiro256StarStar(stream_seed(seed, 0)))
    level = max(l for l in range(depth + 1) if tree.generations[l].size <= MAX_CELLS)
    dec = decompose(tree, level)
    assert abs(dec.masses.sum() - 1.0) < 1e-12

    pd = assemble(dec, DIRICHLET)  # raises SingularMassError if M is not definite
    pn = assemble(dec, NEUMANN)
    nd, nn = inertia_counts(pd, XS), inertia_counts(pn, XS)
    assert (np.diff(nd) >= 0).all() and (np.diff(nn) >= 0).all()
    assert ((nn - nd >= 0) & (nn - nd <= 2)).all()
    for pen, counts in ((pd, nd), (pn, nn)):
        near = inertia_counts(pen, XS * (1 - 1e-9)) != inertia_counts(pen, XS * (1 + 1e-9))
        assert np.array_equal(counts[~near], dense_counts(pen, XS)[~near])


def test_condensed_count_takes_the_tie_below_x():
    """On ``TIE`` the condensed count, which the CLI writes, gives the dense
    oracle's N_N = 2 at x = 10."""
    tree = build_tree(TIE, 1, 1, rng=Xoshiro256StarStar(stream_seed(0, 0)))
    xs = np.array([10.0])
    assert condensed_counts(tree, 1, 1, xs)[1].tolist() == [2]
    assert dense_counts(assemble(decompose(tree, 1), NEUMANN), xs).tolist() == [2]


@settings(deadline=None)
@example(catalog=make_two_system(), v=255, depth=3, seed=7)  # uint8
@example(catalog=make_two_system(), v=300, depth=3, seed=7)  # uint16
@given(catalog=catalogs(), v=st.integers(1, 3), depth=st.integers(0, 5),
       seed=st.integers(0, 2 ** 64 - 1))
def test_tree_nodes_follow_parent_row_and_map(catalog, v, depth, seed):
    """Every node is its parent's child: type from the environment row, and
    products and shift from the catalog map, recomputed one scalar at a time.
    At V = 255 an index product taken in the uint8 table dtype overflows;
    V = 300 gives a uint16 table."""
    tree = build_tree(catalog, v, depth, rng=Xoshiro256StarStar(stream_seed(seed, 0)))
    root = tree.generations[0]
    assert root.types.tolist() == [tree.root_type] and root.parent.tolist() == [-1]
    assert (root.rprod.tolist(), root.mprod.tolist(), root.shift.tolist()) == ([1.0], [1.0], [0.0])
    for level_sys, child, up, gen in zip(tree.level_sys.tolist(), tree.child.tolist(),
                                         tree.generations, tree.generations[1:]):
        sys_of = [level_sys[t] for t in up.types.tolist()]
        assert list(zip(gen.parent.tolist(), gen.pos.tolist())) == [
            (p, q) for p, j in enumerate(sys_of) for q in range(catalog.systems[j].size)]
        for p, q, t, r, m, c in zip(gen.parent.tolist(), gen.pos.tolist(), gen.types.tolist(),
                                    gen.rprod.tolist(), gen.mprod.tolist(), gen.shift.tolist()):
            system = catalog.systems[sys_of[p]]
            up_r = up.rprod[p].item()
            assert t == child[up.types[p]][q]
            assert r == up_r * system.maps[q].ratio
            assert m == up.mprod[p].item() * system.weights[q]
            assert c == up_r * system.maps[q].offset + up.shift[p].item()


# Three systems whose index probabilities add up, left to right, to
# 0.9999999999999999: a draw above that sum takes the last system.
SHORT_SUM = Catalog(0.0, 1.0, make_two_system().systems + (WeightedIFS(
    (ContractionMap(0.25, 0.0), ContractionMap(0.25, 0.75)), (0.5, 0.5)),), (0.7, 0.2, 0.1))


@settings(deadline=None)
@example(catalog=SHORT_SUM, v=3, depth=3, extra=10, root=None, seed=4)
@example(catalog=make_two_system(), v=255, depth=3, extra=2, root=None, seed=7)  # uint8
@example(catalog=make_two_system(), v=300, depth=3, extra=2, root=None, seed=7)  # uint16
@given(catalog=catalogs(), v=st.integers(1, 3), depth=st.integers(0, 5),
       extra=st.integers(0, 10), root=st.none() | st.integers(0, 2),
       seed=st.integers(0, 2 ** 64 - 1))
def test_tree_stream_matches_scalar_oracle(catalog, v, depth, extra, root, seed):
    """A drawn tree's environment table, in ``LevelDraws``' dtype, neck
    levels and environments.json objects are those of the scalar oracle's
    draws, root type given or drawn; so is ``sample_environment`` on the
    stream that follows. V = 255 and 300 give the widest uint8 table and a
    uint16 one."""
    root_type = None if root is None else root % v
    rng = Xoshiro256StarStar(stream_seed(seed, 0))
    tree = build_tree(catalog, v, depth, root_type=root_type, env_levels=depth + extra, rng=rng)
    oracle = ScalarXoshiro256StarStar(scalar_stream_seed(seed, 0))
    if root_type is None:
        root_type = oracle.randint(v)
    envs = [scalar_sample_environment(catalog, v, oracle) for _ in range(depth + extra)]
    level_sys, child = pack_blocks(v, map_table(catalog).shape[1], [0], [envs])[:2]
    assert tree.root_type == root_type and type(tree.root_type) is int
    for got, want in ((tree.level_sys, level_sys), (tree.child, child)):
        assert got.dtype == LevelDraws(catalog, v).dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert tree.neck_levels == tuple(l for l, env in enumerate(envs, 1) if scalar_is_neck(env))
    assert environments_to_obj(tree) == [asdict(env) for env in envs]
    env = scalar_sample_environment(catalog, v, oracle)
    got = sample_environment(catalog, v, rng)
    assert got == env and got.is_neck == scalar_is_neck(env)


# One four-map system whose maps all have different ratio*weight products.
UNEQUAL = Catalog(0.0, 1.0, (WeightedIFS(
    (ContractionMap(0.1, 0.0), ContractionMap(0.2, 0.15), ContractionMap(0.3, 0.4),
     ContractionMap(0.25, 0.75)), (0.1, 0.2, 0.3, 0.4)),), (1.0,))


def _scalar_blocks(catalog, v, lens, seed):
    """Root types and environments of blocks of ``lens`` levels, drawn by
    the scalar oracle."""
    rng = ScalarXoshiro256StarStar(scalar_stream_seed(seed, 0))
    roots = [rng.randint(v) for _ in lens]
    return roots, [[scalar_sample_environment(catalog, v, rng) for _ in range(n)] for n in lens]


@settings(deadline=None)
@example(catalog=make_two_system(), v=2, lens=[3, 1, 4], seed=1, x=0.0)
# Types send several different products to one child type: summing them
# map slot first, or pairwise, changes the bits.
@example(catalog=UNEQUAL, v=3, lens=[2], seed=39, x=0.7)
# Both sides of the row-sum rule: left to right below 8 types, pairwise
# from 8 on, where left-to-right sums differ from the oracle's.
@example(catalog=make_two_system(), v=7, lens=[4, 4, 4], seed=1, x=0.7)
@example(catalog=make_two_system(), v=9, lens=[4, 4, 4], seed=1, x=0.7)
@example(catalog=make_two_system(), v=255, lens=[2, 1, 3], seed=3, x=0.3)  # uint8
@example(catalog=make_two_system(), v=300, lens=[2, 1, 3], seed=3, x=0.3)  # uint16
# Zero-length blocks and tied lengths, which keep their id order.
@example(catalog=make_two_system(), v=2, lens=[0, 3, 1, 3, 0, 1, 3], seed=5, x=0.3)
@example(catalog=make_two_system(), v=3, lens=[0, 0], seed=2, x=0.3)
@given(catalog=catalogs(), v=st.integers(1, 3),
       lens=st.lists(st.integers(0, 12), max_size=8), seed=st.integers(0, 2 ** 64 - 1),
       x=st.one_of(st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.7]), st.floats(0.0, 4.0)))
def test_block_dp_matches_csr_oracle(catalog, v, lens, seed, x):
    """The dense neck-block DP, fed the ``block_layout`` of the
    ``segment_levels`` of the block-major table, is bit-identical to the
    CSR layout with its ``np.add.at`` scatter, at x = 0 (log node counts)
    too, on the int64 table and on the same table in ``LevelDraws``'
    dtype. The layout orders the blocks longest first, stable by id."""
    roots, blocks = _scalar_blocks(catalog, v, lens, seed)
    table = map_table(catalog)
    level_sys, child, lens, roots = pack_blocks(v, table.shape[1], roots, blocks)
    *csr, rm = csr_pack_blocks(catalog, v, roots, blocks)
    want = csr_block_log_sums(*csr, rm ** x, v).tobytes()
    dtype = LevelDraws(catalog, v).dtype
    starts = np.cumsum(lens) - lens
    for env in ((level_sys, child), (level_sys.astype(dtype), child.astype(dtype))):
        layout = _kernels.block_layout(segment_levels(*env, starts, lens), lens, roots)
        assert layout.order.tolist() == sorted(range(len(lens)), key=lambda b: -lens[b])
        assert _kernels.block_log_sums(layout, v, catalog, x).tobytes() == want


def test_block_dp_adds_each_bin_type_by_type():
    """At level 1 of block 1, one (block, child type) bin gets six
    products, three map slots from each of two types, whose sum slot by
    slot differs in the last bit from their sum type by type, and so do
    the log-sums built on them. The DP, on lanes-last rows with several
    blocks, equals the CSR oracle byte for byte, so it adds type by type,
    slots ascending, as the oracle does."""
    catalog = Catalog(0.0, 1.0, (WeightedIFS(
        (ContractionMap(0.1, 0.0), ContractionMap(0.2, 0.3), ContractionMap(0.3, 0.6)),
        (0.2, 0.3, 0.5)),), (1.0,))
    v, x = 2, 0.3
    split = Environment((0, 0), ((0, 1, 1), (1, 1, 1)))
    merge = Environment((0, 0), ((1, 1, 1), (1, 1, 1)))
    roots, blocks = [1, 0, 0], [[merge], [split, merge], [split, merge, merge]]
    f = (map_table(catalog)[0, :, 0] * map_table(catalog)[0, :, 1]) ** x
    # Level 0 of block 1 (root type 0) gives the state a; level 1 sends
    # a[t] * f[i] for every type t and slot i to child type 1.
    s0 = f[0] + (f[1] + f[2])
    a = (f[0] / s0, (f[1] + f[2]) / s0)
    by_type = by_slot = 0.0
    for t, i in np.ndindex(v, 3):
        by_type += a[t] * f[i]
    for i, t in np.ndindex(3, v):
        by_slot += a[t] * f[i]
    assert by_type != by_slot
    assert np.log(s0) + np.log(by_type) != np.log(s0) + np.log(by_slot)
    level_sys, child, lens, roots = pack_blocks(v, 3, roots, blocks)
    layout = _kernels.block_layout(segment_levels(level_sys, child, np.cumsum(lens) - lens,
                                                  lens), lens, roots)
    *csr, rm = csr_pack_blocks(catalog, v, roots, blocks)
    assert (_kernels.block_log_sums(layout, v, catalog, x).tobytes()
            == csr_block_log_sums(*csr, rm ** x, v).tobytes())


MC_ENV_CAP = 150  # keeps the scalar oracle cheap where necks are rare


def _assert_packed_equal(evaluator, want, dtype):
    """The evaluator's block layout, rebuilt block-major, equals the
    oracle's int64 blocks, with the table in ``dtype``; so do its neck
    waits, and the layout runs longest first."""
    got = unpack_layout(evaluator._layout)
    for name, g, w in zip(PackedBlocks._fields, got, want):
        table = name in ("level_sys", "child")
        assert g.dtype == (dtype if table else w.dtype) and g.shape == w.shape, name
        assert np.array_equal(g, w), name
    assert np.array_equal(evaluator.neck_waits, want.lens)
    assert np.array_equal(evaluator._layout.order, np.argsort(-want.lens, kind="stable"))


def _past_cap(lens, cap) -> bool:
    """Whether the rows of the running lanes of one draw of blocks with neck
    waits ``lens``, level times the blocks whose wait is past the level,
    pass ``cap`` at some level."""
    levels = np.arange(1, lens.max(), dtype=np.int64)
    return bool((levels * (lens[:, None] > levels).sum(axis=0) > cap).any())


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the typed error it raises."""
    try:
        return call(*args)
    except (NeckTimeoutError, TreeTooLargeError) as err:
        return err


@settings(deadline=None, max_examples=40)
@example(catalog=SHORT_SUM, v=3, n=12, k=5, seed=4, budget=1 << 20)
@example(catalog=make_two_system(), v=2, n=30, k=10, seed=1, budget=50)
# extend times out at block 2, or passes the cap where the first 30 blocks do not
@example(catalog=SHORT_SUM, v=3, n=2, k=10, seed=23, budget=1 << 20)
@example(catalog=make_two_system(), v=2, n=30, k=10, seed=4, budget=200)
@given(catalog=catalogs(), v=st.integers(1, 3), n=st.integers(2, 40),
       k=st.integers(1, 10), seed=st.integers(0, 2 ** 64 - 1),
       budget=st.sampled_from([1 << 20, 400, 1]))
def test_mc_lanes_match_scalar_oracle(catalog, v, n, k, seed, budget):
    """Lockstep lanes draw exactly the scalar oracle's blocks while the
    running rows stay within the node cap ``budget``; past it they raise
    ``TreeTooLargeError``. Within it a timeout names the oracle's block;
    with a small cap the oracle cannot tell whether the lanes past the
    failing block pass it first, so either typed error is accepted there.
    ``extend(k)`` raises exactly when a fresh draw of n + k blocks does,
    with its error, and then leaves the evaluator as it was; otherwise it
    has the fresh layout's bytes and log-sums."""
    with mock.patch.object(spectral, "DEFAULT_NODE_CAP", budget), \
            mock.patch.object(spectral, "DEFAULT_ENV_CAP", MC_ENV_CAP):
        fresh = _outcome(MonteCarloNeckEvaluator, catalog, v, n + k, seed)
        try:
            want = scalar_neck_blocks(catalog, v, seed, 0, n + k, MC_ENV_CAP)
        except NeckTimeoutError as err:
            event("timeout")
            if budget == 1 << 20:  # 50 lanes at MC_ENV_CAP levels stay within it
                assert type(fresh) is NeckTimeoutError and str(fresh) == str(err)
            else:
                assert isinstance(fresh, (NeckTimeoutError, TreeTooLargeError))
        else:
            if _past_cap(want.lens, budget):
                event("past the node cap")
                assert isinstance(fresh, TreeTooLargeError)
            else:
                _assert_packed_equal(fresh, want, LevelDraws(catalog, v).dtype)
        grown = _outcome(MonteCarloNeckEvaluator, catalog, v, n, seed)
        if isinstance(grown, Exception):  # the first n blocks fail alone
            assert isinstance(fresh, Exception)
            return
        layout = grown._layout
        err = _outcome(grown.extend, k)
    if isinstance(fresh, Exception):
        event("extend fails")
        assert type(err) is type(fresh) and str(err) == str(fresh)
        assert grown._layout is layout
    else:
        assert err is None
        for name in ("order", "roots", "lens", "counts", "level_sys", "child"):
            got, ref = getattr(grown._layout, name), getattr(fresh._layout, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
        assert grown.log_sums(0.3).tobytes() == fresh.log_sums(0.3).tobytes()
