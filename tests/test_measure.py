import io
import math

import numpy as np
import pytest

from vvcantor import (DepthExhaustedError, Xoshiro256StarStar, build_tree,
                      cells_to_csv, cut_set, decompose, gaps_to_csv, stream_seed)
from conftest import interval_mass


def rng_for(seed):
    return Xoshiro256StarStar(stream_seed(seed, 0))


def test_cantor_level_one_cells(cantor):
    dec = decompose(build_tree(cantor, 1, 1, rng=rng_for(1)), 1)
    assert np.allclose(dec.lefts, [0.0, 2 / 3])
    assert np.allclose(dec.rights, [1 / 3, 1.0])
    assert np.allclose(dec.masses, [0.5, 0.5])
    assert dec.lefts[1] > dec.rights[0]  # one gap, (1/3, 2/3)


def test_level_zero_single_cell(two_system):
    dec = decompose(build_tree(two_system, 2, 0, rng=rng_for(1)), 0)
    assert dec.n_cells == 1
    assert dec.lefts[0] == 0.0 and dec.rights[0] == 1.0 and dec.masses[0] == 1.0
    buf = io.StringIO()
    gaps_to_csv(dec, buf)
    assert buf.getvalue() == "left,right\r\n"


def test_mass_conservation_at_depth(two_system):
    tree = build_tree(two_system, 3, 12, rng=rng_for(8), node_cap=2_000_000)
    dec = decompose(tree, 12)
    assert abs(dec.masses.sum() - 1.0) < 1e-12


def test_cell_mass_cantor_level_two(cantor):
    dec = decompose(build_tree(cantor, 1, 2, rng=rng_for(1)), 2)
    assert dec.masses.tolist() == [0.25] * 4


def test_density_times_length_is_mass(two_system):
    tree = build_tree(two_system, 2, 8, rng=rng_for(9), node_cap=2_000_000)
    dec = decompose(tree, 8)
    lengths = dec.rights - dec.lefts
    assert np.allclose(dec.densities * lengths, dec.masses, rtol=1e-12, atol=0)


def test_measure_whole_interval_and_gaps(cantor):
    dec = decompose(build_tree(cantor, 1, 4, rng=rng_for(1)), 4)
    assert abs(interval_mass(dec, 0.0, 1.0) - 1.0) < 1e-12
    for gl, gr in zip(dec.rights[:-1], dec.lefts[1:]):  # gaps, or touching cells
        assert interval_mass(dec, gl, gr) == 0.0


def test_measure_half_left_cell(cantor):
    dec = decompose(build_tree(cantor, 1, 1, rng=rng_for(1)), 1)
    assert math.isclose(interval_mass(dec, 0.0, 1 / 6), 0.25, rel_tol=1e-12)
    # quadrature oracle: midpoint rule on the piecewise-constant density
    grid = np.linspace(0.0, 1 / 6, 20_001)
    mids = 0.5 * (grid[:-1] + grid[1:])
    dens = np.where(mids < 1 / 3, 1.5, 0.0)
    assert abs(np.sum(dens * np.diff(grid)) - 0.25) < 1e-10


def test_measure_additive(two_system):
    tree = build_tree(two_system, 2, 6, rng=rng_for(10), node_cap=2_000_000)
    dec = decompose(tree, 6)
    rng = np.random.default_rng(0)
    for _ in range(50):
        u, v, w = np.sort(rng.uniform(0.0, 1.0, 3))
        whole = interval_mass(dec, u, w)
        parts = interval_mass(dec, u, v) + interval_mass(dec, v, w)
        assert abs(whole - parts) < 1e-12


def test_level_beyond_depth_rejected(cantor):
    tree = build_tree(cantor, 1, 3, rng=rng_for(1))
    with pytest.raises(DepthExhaustedError):
        decompose(tree, 4)


def test_child_rescaling_matches_subtree(two_system):
    # mass of A inside the i-th first-level cell equals the child's weight
    # times the child subtree measure of the pulled-back interval
    n = 5
    tree = build_tree(two_system, 2, n + 1, rng=rng_for(12), node_cap=2_000_000)
    parent = decompose(tree, n + 1)
    gen1 = tree.generations[1]
    sys0 = two_system.systems[tree.level_sys[0][tree.root_type]]
    rng = np.random.default_rng(1)
    for i in range(gen1.size):
        child = build_tree(two_system, 2, n, root_type=int(gen1.types[i]),
                           environments=(tree.level_sys[1:n + 1],
                                         tree.child[1:n + 1]))
        cdec = decompose(child, n)
        r, c = sys0.maps[i].ratio, sys0.maps[i].offset
        lo_cell, hi_cell = r * 0.0 + c, r * 1.0 + c
        for _ in range(8):
            u, v = np.sort(rng.uniform(lo_cell, hi_cell, 2))
            lhs = interval_mass(parent, u, v)
            rhs = sys0.weights[i] * interval_mass(cdec, (u - c) / r, (v - c) / r)
            assert abs(lhs - rhs) < 1e-12


def test_cut_set_masses_partition_unity(two_system):
    from vvcantor import DepthExhaustedError, TreeTooLargeError

    for seed in range(30):
        try:
            tree = build_tree(two_system, 2, 10, rng=rng_for(seed), node_cap=500_000)
            cs = cut_set(tree, 2)
        except (DepthExhaustedError, TreeTooLargeError):
            continue
        total = sum(float(tree.generations[l].mprod[i])
                    for l, i in zip(cs.levels.tolist(), cs.node_index.tolist()))
        assert abs(total - 1.0) < 1e-12
        return
    pytest.fail("no feasible tree found")


def test_endpoints_persist_to_next_level(two_system):
    # exact in exact arithmetic; composing affine maps leaves ulp drift
    tree = build_tree(two_system, 2, 7, rng=rng_for(13), node_cap=2_000_000)
    d6 = decompose(tree, 6)
    d7 = decompose(tree, 7)
    pts7 = np.sort(np.concatenate([d7.lefts, d7.rights]))
    for p in np.concatenate([d6.lefts, d6.rights]):
        i = np.searchsorted(pts7, p)
        near = min(abs(pts7[j] - p) for j in (max(i - 1, 0), min(i, pts7.size - 1)))
        assert near < 1e-13


def test_cells_csv_round_trip(cantor):
    dec = decompose(build_tree(cantor, 1, 5, rng=rng_for(1)), 5)
    buf = io.StringIO()
    cells_to_csv(dec, buf, meta={"seed": 1})
    lines = [line for line in buf.getvalue().splitlines() if not line.startswith("#")]
    assert lines[0] == "left,right,mass,density"
    lefts, rights, masses, densities = np.array([l.split(",") for l in lines[1:]], float).T
    assert np.array_equal(lefts, dec.lefts)
    assert np.array_equal(rights, dec.rights)
    assert np.array_equal(masses, dec.masses)
    assert np.array_equal(densities, dec.densities)
    buf = io.StringIO()
    gaps_to_csv(dec, buf)
    gaps = np.array([l.split(",") for l in buf.getvalue().splitlines()[1:]], float).T
    gap = lefts[1:] > rights[:-1]
    assert np.array_equal(gaps, [rights[:-1][gap], lefts[1:][gap]])
