"""The output writers must write the bytes of the row-template writers they
replaced (``conftest``), on random catalogs and on hand-built columns with
signed zeros and repeats. Repeating columns are formatted once per distinct
value; cell ends once per decomposition, in text that ``cells.csv`` and
``gaps.csv`` share whichever is written first; ``tree.jsonl`` paths are
gathered from their parents' paths, checked on a root-only tree and on a
width-3 catalog."""

import io

import numpy as np
from hypothesis import example, given, settings, strategies as st

import pytest

from vvcantor import (DIRICHLET, NEUMANN, Pencil, Xoshiro256StarStar, assemble,
                      build_tree, cells_to_csv, decompose, gaps_to_csv,
                      pencil_to_csv, refine_uniform, stream_seed)
from vvcantor.measure import CellDecomposition
from vvcantor import _format
from vvcantor._format import format_distinct, write_rows
from vvcantor.measure import counting_to_csv
from vvcantor.vtree import tree_to_jsonl
from conftest import (make_cantor, make_two_system, template_cells_to_csv,
                      template_counting_to_csv, template_gaps_to_csv,
                      template_pencil_to_csv, template_tree_to_jsonl)
from test_properties import catalogs

MAX_ROWS = 2000
META = {"seed": 1, "subcommand": "test"}

# Bit patterns: +-0.0, two quiet NaN payloads and a negative NaN, +-inf, the
# smallest and largest subnormals, the smallest normal and 1.0.
SPECIAL_BITS = (0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000,
                0x7FF800000000DEAD, 0xFFF8000000000000, 0x7FF0000000000000,
                0xFFF0000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
                0x0010000000000000, 0x3FF0000000000000)


def _floats(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


@st.composite
def float_arrays(draw):
    """Up to 200 entries drawn from a pool of some special bit patterns and
    up to 4 arbitrary ones, so values repeat heavily."""
    pool = sorted(draw(st.sets(st.sampled_from(SPECIAL_BITS)))) + draw(
        st.lists(st.integers(0, 2 ** 64 - 1), max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=200)) if pool else []
    return _floats([pool[i] for i in picks])


@settings(deadline=None)
@example(values=_floats([]))
@example(values=_floats([0x8000000000000000]))
@example(values=_floats([0x0000000000000000, 0x8000000000000000] * 3))
@given(values=float_arrays())
def test_format_distinct_matches_per_value_format(values):
    for fmt in ("{:.17g}".format, repr):
        calls = []

        def counted(v, fmt=fmt):
            calls.append(v)
            return fmt(v)

        assert format_distinct(values, counted) == [fmt(v) for v in values.tolist()]
        assert len(calls) == len(set(values.view(np.uint64).tolist()))


def test_write_rows_interleaves_pieces_and_stops_at_shortest():
    buf = io.StringIO()
    write_rows(buf, ("<", "|", ">\n"), (["a", "b", "c"], ["1", "2"]))
    assert buf.getvalue() == "<a|1>\n<b|2>\n"
    n = 2 * _format._BLOCK_ROWS + 3  # rows cross two block boundaries
    left, right = [str(i) for i in range(n + 1)], [str(-i) for i in range(n)]
    buf = io.StringIO()
    write_rows(buf, ("", ",", "\r\n"), (left, right))
    assert buf.getvalue() == "".join(f"{a},{b}\r\n" for a, b in zip(left, right))
    buf = io.StringIO()
    write_rows(buf, ("", ",", "\r\n"), (np.array(left, dtype=object), right))
    assert buf.getvalue() == "".join(f"{a},{b}\r\n" for a, b in zip(left, right))


def _same(write, oracle, *args) -> None:
    got, want = io.StringIO(), io.StringIO()
    write(*args[:1], got, *args[1:])
    oracle(*args[:1], want, *args[1:])
    assert got.getvalue() == want.getvalue()


@settings(deadline=None)
@given(catalog=catalogs(), v=st.integers(1, 3), depth=st.integers(0, 5),
       splits=st.integers(1, 3), seed=st.integers(0, 2 ** 64 - 1),
       xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20),
       counts=st.lists(st.integers(0, 2 ** 62), min_size=20, max_size=20))
def test_writers_match_row_template_oracle(catalog, v, depth, splits, seed, xs, counts):
    tree = build_tree(catalog, v, depth, rng=Xoshiro256StarStar(stream_seed(seed, 0)))
    _same(tree_to_jsonl, template_tree_to_jsonl, tree)
    level = max(l for l in range(depth + 1) if tree.generations[l].size * splits <= MAX_ROWS)
    dec = decompose(tree, level)
    _same(cells_to_csv, template_cells_to_csv, dec, META)
    _same(gaps_to_csv, template_gaps_to_csv, dec, META)
    for bc in (DIRICHLET, NEUMANN):
        _same(pencil_to_csv, template_pencil_to_csv,
              assemble(refine_uniform(dec, splits), bc), META)
    n = len(xs)
    got, want = io.StringIO(), io.StringIO()
    counting_to_csv(got, xs, np.array(counts[:n]), np.array(counts[-n:]), level, splits, META)
    template_counting_to_csv(want, xs, counts[:n], counts[-n:], level, splits, META)
    assert got.getvalue() == want.getvalue()


def test_pencil_with_signed_zeros_and_repeats_matches_oracle():
    kd = np.array([2.0, -0.0, 0.0, 2.0, 2.0, -0.0, 1e-310])
    ko = np.array([-1.0, 0.0, -0.0, -1.0, -1.0, -0.0])
    md = np.full(7, 1 / 3)
    mo = np.array([1 / 6, -0.0, 1 / 6, 0.0, 1 / 6, 1 / 6])
    pencil = Pencil(kd, ko, md, mo)
    _same(pencil_to_csv, template_pencil_to_csv, pencil, META)
    lines = io.StringIO()
    pencil_to_csv(pencil, lines)
    assert lines.getvalue().split("\r\n")[2:4] == ["1,-0,0,0.33333333333333331,-0",
                                                  "2,0,-0,0.33333333333333331,0.16666666666666666"]


def _cells(lefts, rights, masses=None) -> CellDecomposition:
    lefts, rights = np.array(lefts, np.float64), np.array(rights, np.float64)
    masses = np.full(lefts.shape, 0.25) if masses is None else np.array(masses, np.float64)
    return CellDecomposition(interval=(0.0, 1.0), lefts=lefts, rights=rights, masses=masses)


# Hand-built decompositions: a touching join from -0.0 to 0.0, a zero-length
# cell (infinite density, and NaN with zero mass) between two gaps,
# subnormal and 1e300-scale ends, one cell, no gaps, and no cells.
HAND_BUILT = {
    "signed_zero_join": _cells([-1.0, 0.0, 0.5], [-0.0, 0.5, 1.0]),
    "zero_length_cell": _cells([0.0, 0.3, 0.3, 0.6], [0.1, 0.3, 0.3, 0.9],
                               [0.5, 0.0, 0.25, 0.25]),
    "extreme_scales": _cells([5e-324, 1e-310, 1e300],
                             [1e-310, 2.2250738585072014e-308, 1.7976931348623157e308],
                             [1e-300, 0.5, 0.5]),
    "single_cell": _cells([0.0], [1.0], [1.0]),
    "no_gaps": _cells([0.0, 0.25, 0.5, 0.75], [0.25, 0.5, 0.75, 1.0]),
    "no_cells": _cells([], []),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_cells_and_gaps_match_oracle(name):
    dec = HAND_BUILT[name]
    with np.errstate(divide="ignore", invalid="ignore"):
        _same(cells_to_csv, template_cells_to_csv, dec, META)
        _same(gaps_to_csv, template_gaps_to_csv, dec, META)


def test_touching_join_keeps_both_signed_zeros():
    """The right end -0.0 equals the next left 0.0 but has other bits, so
    each keeps its own text rather than sharing the left's."""
    cells = io.StringIO()
    cells_to_csv(_cells([-1.0, 0.0, 0.5], [-0.0, 0.5, 1.0]), cells)
    assert cells.getvalue().split("\r\n")[1:3] == ["-1,-0,0.25,0.25", "0,0.5,0.25,0.5"]


@pytest.mark.parametrize("name", ["signed_zero_join", "zero_length_cell", "extreme_scales",
                                  "cantor_depth_4"])
def test_gaps_before_cells_writes_the_same_bytes(name):
    """The shared endpoint text does not depend on which writer computes it."""
    def fresh():
        if name == "cantor_depth_4":
            return decompose(build_tree(make_cantor(), 1, 4, rng=Xoshiro256StarStar(1)), 4)
        d = HAND_BUILT[name]
        return _cells(d.lefts, d.rights, d.masses)

    texts = {}
    for order in ((cells_to_csv, gaps_to_csv), (gaps_to_csv, cells_to_csv)):
        dec = fresh()
        with np.errstate(divide="ignore", invalid="ignore"):
            for write in order:
                buf = io.StringIO()
                write(dec, buf, META)
                texts.setdefault(write.__name__, set()).add(buf.getvalue())
    assert all(len(t) == 1 for t in texts.values())


def test_root_only_tree_matches_oracle():
    tree = build_tree(make_two_system(), 2, 0, rng=Xoshiro256StarStar(stream_seed(3, 0)))
    _same(tree_to_jsonl, template_tree_to_jsonl, tree)
    buf = io.StringIO()
    tree_to_jsonl(tree, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1 and '"path": []' in lines[0] and '"system": null' in lines[0]


def test_width_three_tree_matches_oracle():
    """Two-system catalog (3 maps in its second system) at depth 5, with
    nodes in every slot at several levels."""
    tree = build_tree(make_two_system(), 2, 5, rng=Xoshiro256StarStar(stream_seed(3, 0)))
    assert sum(int((gen.pos == 2).any()) for gen in tree.generations) >= 2
    _same(tree_to_jsonl, template_tree_to_jsonl, tree)
