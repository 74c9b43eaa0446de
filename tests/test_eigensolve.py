import math

import numpy as np
import pytest

from vvcantor import (DIRICHLET, NEUMANN, InvalidInputError, Pencil,
                      Xoshiro256StarStar, assemble, build_tree,
                      counting_function, decompose, eigenvalue,
                      first_eigenvalue_bounds, inertia_count, inertia_counts,
                      refine_uniform, spectral_upper_bound, stream_seed)
from conftest import dense_counts, dense_eigenvalues, make_two_system


def rng_for(seed):
    return Xoshiro256StarStar(stream_seed(seed, 0))


def diag_pencil(kd, md):
    n = len(kd)
    return Pencil(bc=DIRICHLET, mesh=np.arange(float(n + 1)),
                  kd=np.asarray(kd, float), ko=np.zeros(n - 1),
                  md=np.asarray(md, float), mo=np.zeros(n - 1), provenance={})


def random_pencil(rng, n):
    kd = rng.uniform(-2.0, 2.0, n)
    ko = rng.uniform(-1.0, 1.0, n - 1)
    md = rng.uniform(1.0, 2.0, n)
    mo = rng.uniform(-0.25, 0.25, n - 1)
    return Pencil(bc=DIRICHLET, mesh=np.arange(float(n + 1)), kd=kd, ko=ko,
                  md=md, mo=mo, provenance={})


def test_diagonal_pencil_count():
    pen = diag_pencil([1.0, 4.0], [1.0, 1.0])
    assert inertia_count(pen, 2.0) == 1
    assert inertia_count(pen, 0.5) == 0
    assert inertia_count(pen, 4.0) == 2  # ties count


def test_one_by_one_pencil_counts_and_tie():
    pen = diag_pencil([4.0], [1 / 3])
    assert inertia_count(pen, 12.0 - 1e-6) == 0
    assert inertia_count(pen, 12.0) == 1
    assert inertia_count(pen, 12.0 + 1e-6) == 1
    assert math.isclose(eigenvalue(pen, 1), 12.0, rel_tol=1e-10)


def test_negative_shift_counts(lebesgue):
    dec = refine_uniform(decompose(build_tree(lebesgue, 1, 0, rng=rng_for(1)), 0), 8)
    pd = assemble(dec, DIRICHLET)
    pn = assemble(dec, NEUMANN)
    assert inertia_count(pd, -1.0) == 0
    assert inertia_count(pn, -1.0) == 0
    assert inertia_count(pn, 0.0) >= 1  # constant null mode, dyadic mesh


def test_counting_function_monotone_and_sorted_required(lebesgue):
    dec = refine_uniform(decompose(build_tree(lebesgue, 1, 0, rng=rng_for(1)), 0), 4096)
    pen = assemble(dec, DIRICHLET)
    samples = counting_function(pen, np.geomspace(1.0, 1e5, 30))
    counts = [s.count for s in samples]
    assert counts == sorted(counts)
    with pytest.raises(ValueError):
        counting_function(pen, [3.0, 1.0])
    assert counting_function(pen, [0.0])[0].count == 0
    assert [s.count for s in counting_function(pen, [50.0])] == [2]


def test_nan_rejected(lebesgue):
    dec = refine_uniform(decompose(build_tree(lebesgue, 1, 0, rng=rng_for(1)), 0), 4)
    pen = assemble(dec, DIRICHLET)
    with pytest.raises(InvalidInputError):
        inertia_counts(pen, [float("nan")])


@pytest.mark.parametrize("shift", [math.inf, -math.inf])
def test_infinite_shift_rejected(lebesgue, shift):
    dec = refine_uniform(decompose(build_tree(lebesgue, 1, 0, rng=rng_for(1)), 0), 4)
    pen = assemble(dec, DIRICHLET)
    with pytest.raises(InvalidInputError):
        inertia_counts(pen, [1.0, shift])


def test_fine_mesh_first_eigenvalue_close_to_pi_squared(lebesgue):
    dec = refine_uniform(decompose(build_tree(lebesgue, 1, 0, rng=rng_for(1)), 0), 512)
    pen = assemble(dec, DIRICHLET)
    assert abs(eigenvalue(pen, 1) / math.pi ** 2 - 1) < 1e-3


def test_degenerate_pair_returns_equal_values():
    # two decoupled identical blocks force eigenvalue multiplicity two
    kd = np.array([2.0, 2.0])
    md = np.array([1.0, 1.0])
    pen = diag_pencil(kd, md)
    assert eigenvalue(pen, 1) == eigenvalue(pen, 2)


def test_eigenvalue_index_range():
    pen = diag_pencil([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(IndexError):
        eigenvalue(pen, 3)
    with pytest.raises(IndexError):
        eigenvalue(pen, 0)


def test_counts_match_dense_oracle_small_random():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        pen = random_pencil(rng, n)
        eigs = dense_eigenvalues(pen)
        shifts = np.sort(rng.uniform(eigs.min() - 1.0, eigs.max() + 1.0, 10))
        assert np.array_equal(inertia_counts(pen, shifts), dense_counts(pen, shifts))


def test_eigenvalues_match_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        pen = random_pencil(rng, n)
        eigs = dense_eigenvalues(pen)
        if eigs[0] <= 0:  # bisection brackets [0, upper]; shift to positive
            pen.kd = pen.kd + (2 * abs(eigs[0]) + 1.0) * pen.md
            pen.ko = pen.ko + (2 * abs(eigs[0]) + 1.0) * pen.mo
            eigs = dense_eigenvalues(pen)
        for i in (1, n):
            assert math.isclose(eigenvalue(pen, i), eigs[i - 1],
                                rel_tol=1e-8, abs_tol=1e-12)


def test_upper_bound_covers_spectrum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pen = random_pencil(rng, int(rng.integers(2, 30)))
        ub = spectral_upper_bound(pen)
        assert inertia_count(pen, ub) == pen.dim


def test_first_eigenvalue_bounds_hold(two_system):
    lower, upper = first_eigenvalue_bounds(two_system)
    assert lower == 1.0
    for seed in (3, 4, 5):
        tree = build_tree(two_system, 2, 4, rng=rng_for(seed), node_cap=500_000)
        pen = assemble(decompose(tree, 4), DIRICHLET)
        lam1 = eigenvalue(pen, 1)
        assert lam1 >= lower
        assert lam1 <= upper  # level >= 2 meshes contain the bound's test function


def test_linear_count_bound(two_system):
    tree = build_tree(two_system, 2, 6, rng=rng_for(6), node_cap=500_000)
    pen = assemble(decompose(tree, 6), DIRICHLET)
    xs = np.geomspace(1.0, 1e7, 50)
    counts = inertia_counts(pen, xs)
    assert (counts <= 0.25 * xs).all()  # (b - a)/4 with unit interval


def test_weyl_slope_window(lebesgue):
    from vvcantor import empirical_exponent

    dec = refine_uniform(decompose(build_tree(lebesgue, 1, 0, rng=rng_for(1)), 0), 4096)
    pen = assemble(dec, DIRICHLET)
    xs = np.geomspace(1e2, 1e4, 8)
    fit = empirical_exponent((xs, inertia_counts(pen, xs)), (1e2, 1e4))
    assert abs(fit.slope - 0.5) <= 0.03
