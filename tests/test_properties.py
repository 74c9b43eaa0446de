"""Properties that must hold on every valid catalog, checked on random ones:
1-3 systems of 2-4 maps, V = 1-3 types, trees of depth <= 5, neck-block
batches of up to 8 blocks of up to 12 levels, and Monte Carlo draws of up
to 40 blocks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from vvcantor import (DIRICHLET, NEUMANN, Catalog, ContractionMap,
                      MonteCarloNeckEvaluator, NeckTimeoutError, WeightedIFS,
                      Xoshiro256StarStar, assemble, build_tree, decompose,
                      inertia_counts, stream_seed, validate_catalog)
from vvcantor import _kernels, spectral
from vvcantor.catalog import map_table
from vvcantor.vtree import sample_environment
from conftest import (csr_block_log_sums, csr_pack_blocks, dense_counts,
                      make_two_system, scalar_neck_blocks)

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


@settings(deadline=None)
@example(catalog=SIXTHS, v=1, depth=2, seed=0)
@given(catalog=catalogs(), v=st.integers(1, 3), depth=st.integers(0, 5),
       seed=st.integers(0, 2 ** 64 - 1))
def test_random_catalog_properties(catalog, v, depth, seed):
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
    assert (nd == dense_counts(pd, XS)).all() and (nn == dense_counts(pn, XS)).all()


@settings(deadline=None)
@given(catalog=catalogs(), v=st.integers(1, 3), depth=st.integers(0, 5),
       seed=st.integers(0, 2 ** 64 - 1))
def test_tree_nodes_follow_parent_row_and_map(catalog, v, depth, seed):
    """Every node is its parent's child: type from the environment row, and
    products and shift from the catalog map, recomputed one scalar at a time."""
    tree = build_tree(catalog, v, depth, rng=Xoshiro256StarStar(stream_seed(seed, 0)))
    root = tree.generations[0]
    assert root.types.tolist() == [tree.root_type] and root.parent.tolist() == [-1]
    assert (root.rprod.tolist(), root.mprod.tolist(), root.shift.tolist()) == ([1.0], [1.0], [0.0])
    for env, up, gen in zip(tree.environments, tree.generations, tree.generations[1:]):
        sys_of = [env.indices[t] for t in up.types.tolist()]
        assert up.system.tolist() == sys_of
        assert list(zip(gen.parent.tolist(), gen.pos.tolist())) == [
            (p, q) for p, j in enumerate(sys_of) for q in range(catalog.systems[j].size)]
        for p, q, t, r, m, c in zip(gen.parent.tolist(), gen.pos.tolist(), gen.types.tolist(),
                                    gen.rprod.tolist(), gen.mprod.tolist(), gen.shift.tolist()):
            system = catalog.systems[sys_of[p]]
            up_r = up.rprod[p].item()
            assert t == env.child_types[up.types[p]][q]
            assert r == up_r * system.maps[q].ratio
            assert m == up.mprod[p].item() * system.weights[q]
            assert c == up_r * system.maps[q].offset + up.shift[p].item()
    assert (tree.generations[-1].system == -1).all()


@settings(deadline=None)
@example(catalog=make_two_system(), v=2, lens=[3, 1, 4], seed=1, x=0.0)
@given(catalog=catalogs(), v=st.integers(1, 3),
       lens=st.lists(st.integers(0, 12), max_size=8), seed=st.integers(0, 2 ** 64 - 1),
       x=st.one_of(st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.7]), st.floats(0.0, 4.0)))
def test_block_dp_matches_csr_oracle(catalog, v, lens, seed, x):
    """The dense neck-block DP is bit-identical to the CSR layout with its
    ``np.add.at`` scatter, at x = 0 (log node counts) too."""
    rng = Xoshiro256StarStar(stream_seed(seed, 0))
    roots = [rng.randint(v) for _ in lens]
    blocks = [[sample_environment(catalog, v, rng) for _ in range(n)] for n in lens]
    table = map_table(catalog)
    got = _kernels.block_log_sums(*_kernels.pack_blocks(v, table.shape[1], roots, blocks),
                                  table, x)
    *csr, rm = csr_pack_blocks(catalog, v, roots, blocks)
    assert got.tobytes() == csr_block_log_sums(*csr, rm ** x, v).tobytes()


# Three systems whose index probabilities add up, left to right, to
# 0.9999999999999999: a draw above that sum takes the last system.
SHORT_SUM = Catalog(0.0, 1.0, make_two_system().systems + (WeightedIFS(
    (ContractionMap(0.25, 0.0), ContractionMap(0.25, 0.75)), (0.5, 0.5)),), (0.7, 0.2, 0.1))
MC_ENV_CAP = 150  # keeps the scalar oracle cheap where necks are rare


def _assert_packed_equal(got, want):
    for name, g, w in zip(_kernels.PackedBlocks._fields, got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert np.array_equal(g, w), name


@settings(deadline=None, max_examples=40)
@example(catalog=SHORT_SUM, v=3, n=12, k=5, seed=4, budget=1 << 20)
@example(catalog=make_two_system(), v=2, n=30, k=10, seed=1, budget=50)
@given(catalog=catalogs(), v=st.integers(1, 3), n=st.integers(2, 40),
       k=st.integers(1, 10), seed=st.integers(0, 2 ** 64 - 1),
       budget=st.sampled_from([1 << 20, 400, 1]))
def test_mc_lanes_match_scalar_oracle(catalog, v, n, k, seed, budget):
    """Lockstep lanes draw exactly the scalar oracle's blocks, also after
    ``extend`` and when a small row budget sheds and redraws lanes; a
    timeout names the oracle's block."""
    with mock.patch.object(spectral, "_ROW_BUDGET", budget):
        try:
            want = scalar_neck_blocks(catalog, v, seed, 0, n + k, MC_ENV_CAP)
        except NeckTimeoutError as err:
            event("timeout")
            with pytest.raises(NeckTimeoutError, match=f"^{err}$"):
                MonteCarloNeckEvaluator(catalog, v, n, seed, MC_ENV_CAP).extend(k)
            return
        _assert_packed_equal(MonteCarloNeckEvaluator(catalog, v, n + k, seed, MC_ENV_CAP)._packed,
                             want)
        grown = MonteCarloNeckEvaluator(catalog, v, n, seed, MC_ENV_CAP)
        grown.extend(k)
        _assert_packed_equal(grown._packed, want)
