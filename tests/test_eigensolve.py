import math

import numpy as np
import pytest

from vvcantor import (DIRICHLET, NEUMANN, InvalidInputError, Pencil,
                      Xoshiro256StarStar, assemble, build_tree, decompose,
                      inertia_counts, refine_uniform, scale_extrema, stream_seed)
from conftest import dense_counts, dense_eigenvalues


def rng_for(seed):
    return Xoshiro256StarStar(stream_seed(seed, 0))


def diag_pencil(kd, md):
    n = len(kd)
    return Pencil(kd=np.asarray(kd, float), ko=np.zeros(n - 1),
                  md=np.asarray(md, float), mo=np.zeros(n - 1))


def random_pencil(rng, n):
    kd = rng.uniform(-2.0, 2.0, n)
    ko = rng.uniform(-1.0, 1.0, n - 1)
    md = rng.uniform(1.0, 2.0, n)
    mo = rng.uniform(-0.25, 0.25, n - 1)
    return Pencil(kd=kd, ko=ko, md=md, mo=mo)


def test_diagonal_pencil_count():
    pen = diag_pencil([1.0, 4.0], [1.0, 1.0])
    assert inertia_counts(pen, [2.0, 0.5, 4.0]).tolist() == [1, 0, 2]  # ties count


def test_one_by_one_pencil_counts_and_tie():
    pen = diag_pencil([4.0], [1 / 3])
    # the one eigenvalue is 12, and the tie at 12 counts
    assert inertia_counts(pen, [12.0 - 1e-6, 12.0, 12.0 + 1e-6]).tolist() == [0, 1, 1]


def test_negative_shift_counts(lebesgue):
    dec = refine_uniform(decompose(build_tree(lebesgue, 1, 0, rng=rng_for(1)), 0), 8)
    pd = assemble(dec, DIRICHLET)
    pn = assemble(dec, NEUMANN)
    assert inertia_counts(pd, [-1.0])[0] == 0
    assert inertia_counts(pn, [-1.0])[0] == 0
    assert inertia_counts(pn, [0.0])[0] >= 1  # constant null mode, dyadic mesh


def test_inertia_counts_monotone(lebesgue):
    dec = refine_uniform(decompose(build_tree(lebesgue, 1, 0, rng=rng_for(1)), 0), 4096)
    pen = assemble(dec, DIRICHLET)
    counts = inertia_counts(pen, np.geomspace(1.0, 1e5, 30)).tolist()
    assert counts == sorted(counts)
    assert inertia_counts(pen, [0.0, 50.0]).tolist() == [0, 2]


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
    # lambda_1 within 0.1% of pi^2: none below 0.999 pi^2, one by 1.001 pi^2
    low, high = inertia_counts(pen, [0.999 * math.pi ** 2, 1.001 * math.pi ** 2])
    assert low == 0 and high >= 1


def test_degenerate_pair_returns_equal_values():
    # two decoupled identical blocks force eigenvalue multiplicity two
    kd = np.array([2.0, 2.0])
    md = np.array([1.0, 1.0])
    pen = diag_pencil(kd, md)
    # both eigenvalues are 2: the count jumps from 0 to 2 there
    assert inertia_counts(pen, [np.nextafter(2.0, 0.0), 2.0]).tolist() == [0, 2]


def test_eigenvalue_index_range():
    # eigenvalues are indexed 1..dim: counts run from 0 to dim, no further
    pen = diag_pencil([1.0, 2.0], [1.0, 1.0])
    assert inertia_counts(pen, [-1e6, 0.5, 1.0, 1.5, 2.0, 1e6]).tolist() == [0, 0, 1, 1, 2, 2]


def test_counts_match_dense_oracle_small_random():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        pen = random_pencil(rng, n)
        eigs = dense_eigenvalues(pen)
        shifts = np.sort(rng.uniform(eigs.min() - 1.0, eigs.max() + 1.0, 10))
        assert np.array_equal(inertia_counts(pen, shifts), dense_counts(pen, shifts))


def test_first_eigenvalue_bounds_hold(two_system):
    """The enclosure of the first pinned-end eigenvalue of every measure
    built from the catalog, [1/(b-a), (1 - r_inf^2) / ((r_inf m_inf (1 -
    r_sup))^2 (b-a))]. The lower bound holds for every probability measure
    on [a, b]; the upper one on meshes of level >= 2, which hold the
    piecewise linear test function it comes from."""
    ex = scale_extrema(two_system)
    a, b = two_system.lower, two_system.upper
    lower = 1.0 / (b - a)
    upper = (1.0 - ex.r_inf ** 2) / ((ex.r_inf * ex.m_inf * (1.0 - ex.r_sup)) ** 2 * (b - a))
    assert lower == 1.0
    for seed in (3, 4, 5):
        tree = build_tree(two_system, 2, 4, rng=rng_for(seed), node_cap=500_000)
        pen = assemble(decompose(tree, 4), DIRICHLET)
        below, at_upper = inertia_counts(pen, [np.nextafter(lower, 0.0), upper])
        assert below == 0 and at_upper >= 1


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
