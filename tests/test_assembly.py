import io
import math

import numpy as np
import pytest

from vvcantor import (DIRICHLET, NEUMANN, Pencil, SingularMassError,
                      Xoshiro256StarStar, assemble, build_tree, decompose,
                      inertia_counts, pencil_to_csv, refine_uniform, stream_seed)
from vvcantor.pencil import _check_mass_definite
from conftest import dense_eigenvalues, interval_mass


def rng_for(seed):
    return Xoshiro256StarStar(stream_seed(seed, 0))


def level0(catalog):
    return decompose(build_tree(catalog, 1, 0, rng=rng_for(1)), 0)


def test_two_element_uniform_dirichlet(lebesgue):
    dec = refine_uniform(level0(lebesgue), 2)
    pen = assemble(dec, DIRICHLET)
    assert pen.dim == 1
    assert pen.kd[0] == 4.0
    assert math.isclose(pen.md[0], 1 / 3, rel_tol=1e-15)
    # the one eigenvalue is 12 to 1e-10
    assert inertia_counts(pen, [12.0 * (1 - 1e-10), 12.0 * (1 + 1e-10)]).tolist() == [0, 1]


def test_two_element_uniform_neumann_null_mode(lebesgue):
    pen = assemble(refine_uniform(level0(lebesgue), 2), NEUMANN)
    assert pen.dim == 3
    # the lowest eigenvalue is 0: on a dyadic mesh the zero pivot is exact
    assert inertia_counts(pen, [-1e-9, 0.0]).tolist() == [0, 1]


def test_cantor_gap_element_keeps_mass_definite(cantor):
    dec = decompose(build_tree(cantor, 1, 1, rng=rng_for(1)), 1)
    pen = assemble(dec, NEUMANN)
    assert pen.dim == 4  # nodes 0, 1/3, 2/3 and 1
    # middle element is a gap: stiffness couples through, mass does not
    assert pen.mo[1] == 0.0
    deco = np.array([0.0])
    assert inertia_counts(pen, deco)[0] >= 1  # factorization ran fine


def test_refine_identity_and_mass_preservation(two_system):
    tree = build_tree(two_system, 2, 4, rng=rng_for(2), node_cap=500_000)
    dec = decompose(tree, 4)
    assert refine_uniform(dec, 1) is dec
    ref = refine_uniform(dec, 7)
    assert ref.n_cells == 7 * dec.n_cells
    assert abs(ref.masses.sum() - 1.0) < 1e-12
    rng = np.random.default_rng(3)
    for _ in range(20):
        u, v = np.sort(rng.uniform(0, 1, 2))
        assert abs(interval_mass(dec, u, v) - interval_mass(ref, u, v)) < 1e-12


def test_refined_uniform_dirichlet_near_sine_spectrum(lebesgue):
    pen = assemble(refine_uniform(level0(lebesgue), 512), DIRICHLET)
    # lambda_1 within 1% of pi^2: none below 0.99 pi^2, one by 1.01 pi^2
    low, high = inertia_counts(pen, [0.99 * math.pi ** 2, 1.01 * math.pi ** 2])
    assert low == 0 and high >= 1


def test_ritz_values_decrease_under_nested_refinement(cantor):
    dec = decompose(build_tree(cantor, 1, 3, rng=rng_for(1)), 3)
    coarse = assemble(refine_uniform(dec, 2), DIRICHLET)
    fine = assemble(refine_uniform(dec, 4), DIRICHLET)
    # the i-th fine Ritz value is at most the i-th coarse one
    coarse_eigs = dense_eigenvalues(coarse)[:3]
    assert (inertia_counts(fine, coarse_eigs * (1 + 1e-12)) >= [1, 2, 3]).all()


def test_counting_interlace_between_boundary_conditions(two_system):
    tree = build_tree(two_system, 2, 6, rng=rng_for(5), node_cap=500_000)
    dec = decompose(tree, 6)
    pd = assemble(dec, DIRICHLET)
    pn = assemble(dec, NEUMANN)
    assert pd.dim == pn.dim - 2
    xs = np.geomspace(0.5, 1e6, 40)
    cd = inertia_counts(pd, xs)
    cn = inertia_counts(pn, xs)
    assert ((cn - cd) >= 0).all()
    assert ((cn - cd) <= 2).all()


def test_dirichlet_empty_for_single_unrefined_cell(lebesgue):
    pen = assemble(level0(lebesgue), DIRICHLET)
    assert pen.dim == 0
    assert inertia_counts(pen, np.array([10.0]))[0] == 0


def test_singular_mass_detected():
    # crafted pencil with an isolated massless node
    pen = Pencil(kd=np.array([1.0, 2.0, 2.0, 1.0]), ko=np.array([-1.0, -1.0, -1.0]),
                 md=np.array([1.0, 0.0, 1.0, 1.0]), mo=np.zeros(3))
    with pytest.raises(SingularMassError, match="near node 1$"):
        _check_mass_definite(pen)


def test_pencil_csv_export(cantor):
    pen = assemble(decompose(build_tree(cantor, 1, 2, rng=rng_for(1)), 2), DIRICHLET)
    buf = io.StringIO()
    pencil_to_csv(pen, buf, meta={"seed": 1})
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "i,k_diag,k_off,m_diag,m_off"
    assert len(lines) == 2 + pen.dim
    # 17 significant digits round-trip
    first = lines[2].split(",")
    assert float(first[1]) == pen.kd[0]
