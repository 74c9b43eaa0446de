"""Properties that must hold on every valid catalog, checked on random ones:
1-3 systems of 2-4 maps, V = 1-3 types, trees of depth <= 5."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from vvcantor import (DIRICHLET, NEUMANN, Catalog, ContractionMap, WeightedIFS,
                      Xoshiro256StarStar, assemble, build_tree, decompose,
                      inertia_counts, stream_seed, validate_catalog)
from conftest import dense_counts

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
