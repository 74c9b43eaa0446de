"""Properties that must hold on every valid catalog, checked on random ones:
1-3 systems of 2-4 maps, V = 1-3 types, trees of depth <= 5 and neck-block
batches of up to 8 blocks of up to 12 levels."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from vvcantor import (DIRICHLET, NEUMANN, Catalog, ContractionMap, WeightedIFS,
                      Xoshiro256StarStar, assemble, build_tree, decompose,
                      inertia_counts, stream_seed, validate_catalog)
from vvcantor import _kernels
from vvcantor.catalog import map_table
from vvcantor.vtree import sample_environment
from conftest import csr_block_log_sums, csr_pack_blocks, dense_counts, make_two_system

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
