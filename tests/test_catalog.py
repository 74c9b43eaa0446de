import itertools
import math

import pytest

from vvcantor import (Catalog, ContractionMap, EmptyCatalogError, WeightedIFS,
                      catalog_from_dict, catalog_to_dict, scale_extrema,
                      validate_catalog)
from conftest import make_cantor, make_lebesgue, make_two_system


def test_cantor_is_valid(cantor):
    rep = validate_catalog(cantor)
    assert rep.ok and rep.violations == []


def test_cantor_extrema(cantor):
    ex = scale_extrema(cantor)
    assert (ex.r_inf, ex.r_sup, ex.m_inf, ex.m_sup) == (1 / 3, 1 / 3, 0.5, 0.5)
    assert ex.eta == (1 / 3) * 0.5


def test_overlapping_cells_flagged():
    bad = Catalog(0.0, 1.0, (
        WeightedIFS((ContractionMap(0.5, 0.0), ContractionMap(0.6, 0.4)),
                    (0.5, 0.5)),
    ), (1.0,))
    rep = validate_catalog(bad)
    assert not rep.ok
    assert any("overlap" in v.message for v in rep.violations)
    assert any(v.system == 0 for v in rep.violations)
    # A NaN offset fails every comparison, so each check flags unless it holds.
    nan_offset = Catalog(0.0, 1.0, (
        WeightedIFS((ContractionMap(1 / 3, 0.0), ContractionMap(1 / 3, math.nan)),
                    (0.5, 0.5)),
    ), (1.0,))
    messages = [v.message for v in validate_catalog(nan_offset).violations]
    assert any("leaves the base interval" in m for m in messages)
    assert any("rightmost image ends at nan" in m for m in messages)
    assert any("overlap" in m for m in messages)


def test_single_map_system_flagged():
    bad = Catalog(0.0, 1.0, (
        WeightedIFS((ContractionMap(0.5, 0.0),), (1.0,)),
    ), (1.0,))
    rep = validate_catalog(bad)
    assert any("2 maps" in v.message for v in rep.violations)


def test_weight_sum_and_probability_vector_flagged():
    bad = Catalog(0.0, 1.0, (
        WeightedIFS((ContractionMap(1 / 3, 0.0), ContractionMap(1 / 3, 2 / 3)),
                    (0.5, 0.4)),
    ), (0.7,))
    rep = validate_catalog(bad)
    assert any("weights sum" in v.message for v in rep.violations)
    assert any("index distribution sums" in v.message for v in rep.violations)
    nan_prob = Catalog(0.0, 1.0, make_cantor().systems, (math.nan,))
    messages = [v.message for v in validate_catalog(nan_prob).violations]
    assert messages == ["index distribution has negative or NaN entries",
                        "index distribution sums to nan, not 1"]


def test_touching_cells_are_allowed(lebesgue):
    assert validate_catalog(lebesgue).ok


def test_two_system_extrema(two_system):
    ex = scale_extrema(two_system)
    assert ex.r_inf == 0.2 and ex.r_sup == 1 / 3
    assert ex.m_inf == 1 / 3 and ex.m_sup == 0.5


def test_asymmetric_weights_extrema():
    cat = Catalog(0.0, 1.0, (
        WeightedIFS((ContractionMap(1 / 3, 0.0), ContractionMap(1 / 3, 2 / 3)),
                    (0.2, 0.8)),
    ), (1.0,))
    ex = scale_extrema(cat)
    assert (ex.m_inf, ex.m_sup) == (0.2, 0.8)


def test_extrema_invariant_under_system_permutation(two_system):
    base = scale_extrema(two_system)
    for perm in itertools.permutations(range(2)):
        shuffled = Catalog(0.0, 1.0,
                           tuple(two_system.systems[i] for i in perm),
                           tuple(two_system.index_probs[i] for i in perm))
        assert scale_extrema(shuffled) == base


def test_empty_catalog_raises():
    with pytest.raises(EmptyCatalogError):
        scale_extrema(Catalog(0.0, 1.0, (), ()))


def test_images_tile_interval_without_interior_overlap():
    for cat in (make_cantor(), make_lebesgue(), make_two_system()):
        a, b = cat.lower, cat.upper
        for sys_ in cat.systems:
            ends = [(m(a), m(b)) for m in sys_.maps]
            assert abs(ends[0][0] - a) < 1e-12
            assert abs(ends[-1][1] - b) < 1e-12
            for (l1, r1), (l2, r2) in zip(ends, ends[1:]):
                assert l1 < r1 <= l2 < r2


def test_dict_round_trip(two_system):
    doc = catalog_to_dict(two_system)
    back = catalog_from_dict(doc)
    assert back == two_system


def test_unknown_dict_fields_rejected():
    with pytest.raises(ValueError, match="unknown"):
        catalog_from_dict({"interval": [0, 1], "systems": [], "bogus": 1})
