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
