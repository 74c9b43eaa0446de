import numpy as np
import pytest

from vvcantor import Catalog, ContractionMap, WeightedIFS


def make_cantor() -> Catalog:
    return Catalog(0.0, 1.0, (
        WeightedIFS((ContractionMap(1 / 3, 0.0), ContractionMap(1 / 3, 2 / 3)),
                    (0.5, 0.5)),
    ), (1.0,))


def make_lebesgue() -> Catalog:
    return Catalog(0.0, 1.0, (
        WeightedIFS((ContractionMap(0.5, 0.0), ContractionMap(0.5, 0.5)),
                    (0.5, 0.5)),
    ), (1.0,))


def make_two_system() -> Catalog:
    """Cantor plus a three-map fifths system, equal index probabilities."""
    return Catalog(0.0, 1.0, (
        WeightedIFS((ContractionMap(1 / 3, 0.0), ContractionMap(1 / 3, 2 / 3)),
                    (0.5, 0.5)),
        WeightedIFS((ContractionMap(0.2, 0.0), ContractionMap(0.2, 0.4),
                     ContractionMap(0.2, 0.8)), (1 / 3, 1 / 3, 1 / 3)),
    ), (0.5, 0.5))


@pytest.fixture
def cantor():
    return make_cantor()


@pytest.fixture
def lebesgue():
    return make_lebesgue()


@pytest.fixture
def two_system():
    return make_two_system()


def dense_eigenvalues(pencil):
    """Independent oracle: full dense eigensolve of the generalized pair
    via Cholesky reduction."""
    n = pencil.dim
    K = np.diag(pencil.kd)
    M = np.diag(pencil.md)
    if n > 1:
        K += np.diag(pencil.ko, 1) + np.diag(pencil.ko, -1)
        M += np.diag(pencil.mo, 1) + np.diag(pencil.mo, -1)
    L = np.linalg.cholesky(M)
    A = np.linalg.solve(L, np.linalg.solve(L, K).T).T
    return np.linalg.eigvalsh(0.5 * (A + A.T))


def dense_counts(pencil, xs):
    """Number of dense-oracle eigenvalues <= x, for each x."""
    return np.searchsorted(dense_eigenvalues(pencil), np.atleast_1d(xs), side="right")


_EPS = 1.1102230246251565e-16  # 2^-53


def sequential_sturm_counts(kd, ko, md, mo, xs):
    """Oracle for ``_kernels.sturm_counts``: the plain row-by-row Sturm
    recurrence, one row of every shift per step, with the kernel's
    exact-zero pivot replacement."""
    xs = np.asarray(xs, dtype=np.float64)
    n = kd.shape[0]
    counts = np.zeros(xs.shape[0], np.int64)
    if n == 0:
        return counts
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = kd[0] - xs * md[0]
        counts += a <= 0.0
        repl = -(1e-300 + _EPS * (abs(kd[0]) + np.abs(xs) * md[0]))
        d = np.where(a == 0.0, repl, a)
        for i in range(1, n):
            b = ko[i - 1] - xs * mo[i - 1]
            a = kd[i] - xs * md[i] - (b * b) / d
            counts += a <= 0.0
            repl = -(1e-300 + _EPS * (abs(kd[i]) + np.abs(xs) * md[i]))
            d = np.where(a == 0.0, repl, a)
    return counts
