import numpy as np

from vvcantor import DIRICHLET, MonteCarloNeckEvaluator, Pencil, _kernels, inertia_counts
from conftest import dense_counts, make_two_system


def test_sturm_tie_counts_as_at_or_below():
    # 4 - 12 * (1/3) is exactly 0: the tie lane counts and is replaced
    # without touching its neighbours in the same batch
    kd = np.array([4.0])
    empty = np.zeros(0)
    md = np.array([1 / 3])
    counts = _kernels.sturm_counts(kd, empty, md, empty, np.array([12.0, 11.0, 13.0]))
    assert counts.tolist() == [1, 0, 1]


def test_sturm_zero_pivot_after_first_row():
    # K = tridiag(-1, 2, -1), M = I. At x = 1 the second pivot is exactly
    # 2 - 1 - 1/1 = 0; it counts as nonpositive and, in the 3-row pencil,
    # its tiny negative replacement keeps the third pivot from dividing by 0.
    for n in (2, 3):
        pen = Pencil(bc=DIRICHLET, mesh=np.arange(n + 2.0), kd=np.full(n, 2.0),
                     ko=np.full(n - 1, -1.0), md=np.ones(n), mo=np.zeros(n - 1),
                     provenance={})
        assert inertia_counts(pen, [1.0]).tolist() == [1]
        xs = np.array([0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.5, 3.0 - 1e-9, 3.0 + 1e-9, 4.0])
        assert np.array_equal(inertia_counts(pen, xs), dense_counts(pen, xs))


def test_numpy_dp_handles_unit_blocks():
    cat = make_two_system()
    ev = MonteCarloNeckEvaluator(cat, 1, 50, master_seed=2)
    ls = ev.log_sums(0.5)
    assert ls.shape == (50,)
    assert np.isfinite(ls).all()
