"""The output writers must write the bytes of the row-template writers they
replaced (``conftest``), on random catalogs, on hand-built columns with
signed zeros and repeats, and on the shipped configs at level 12. Repeating
columns are formatted once per distinct value; cell ends once per
decomposition, in text that ``cells.csv`` and ``gaps.csv`` share whichever
is written first; ``tree.jsonl`` paths are gathered from their parents'
paths and the rest of a line is formatted once per class of nodes, checked
on a root-only tree, a width-3 catalog, a catalog whose products stay
distinct, a 256-system tree whose writing must take memory linear in its
nodes and trees of the benchmark's export size.

``float_text`` must write ``"{:.17g}".format``'s bytes for every double and
``int_text`` ``str``'s for every int64, as rows of NUL-padded text, and the
float kernel must prove nearly every value it is given: a kernel that fell
back to Python everywhere would keep the bytes and lose the speed. The
byte-matrix table writer must write the row template's bytes on tables
that end on and around its block edges, with every fallback value there."""

import io
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

import pytest

from vvcantor import (DIRICHLET, NEUMANN, Pencil, Xoshiro256StarStar, assemble,
                      build_tree, catalog_from_dict, cells_to_csv, decompose,
                      gaps_to_csv, pencil_to_csv, refine_uniform, stream_seed)
from vvcantor.cli import RunConfig, _build
from vvcantor.measure import CellDecomposition
from vvcantor import _format
from vvcantor._format import float_text, int_text
from vvcantor.measure import counting_to_csv, write_csv
from vvcantor.vtree import tree_to_jsonl
from conftest import (make_cantor, make_two_system, template_cells_to_csv,
                      template_counting_to_csv, template_gaps_to_csv,
                      template_pencil_to_csv, template_tree_to_jsonl, template_write_csv)
from test_properties import catalogs

MAX_ROWS = 2000
META = {"seed": 1, "subcommand": "test"}


def _floats(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


def _assert_same_text(got: str, want: str) -> None:
    """``got == want``. On a mismatch, fail with the first line that
    differs, both versions of it and their line ends, instead of letting
    pytest diff texts of megabytes."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    n = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
             min(len(got_lines), len(want_lines)))
    pytest.fail(f"texts differ from line {n + 1} on:\n  got  {got_lines[n:n + 1]!r}\n"
                f"  want {want_lines[n:n + 1]!r}", pytrace=False)


def _same(write, oracle, *args) -> None:
    got, want = io.StringIO(), io.StringIO()
    write(*args[:1], got, *args[1:])
    oracle(*args[:1], want, *args[1:])
    _assert_same_text(got.getvalue(), want.getvalue())


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
    _assert_same_text(got.getvalue(), want.getvalue())


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
    return CellDecomposition(lefts=lefts, rights=rights, masses=masses)


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


# Unequal ratios and weights, whose products depend on the order of their
# factors, so a generation's nodes keep hundreds of distinct products.
UNEQUAL = {"interval": [0.0, 1.0], "index_distribution": [0.5, 0.5], "systems": [
    {"maps": [{"r": 0.3, "c": 0.0}, {"r": 0.25, "c": 0.35}, {"r": 0.2, "c": 0.7}],
     "weights": [0.5, 0.3, 0.2]},
    {"maps": [{"r": 0.41, "c": 0.0}, {"r": 0.37, "c": 0.55}], "weights": [0.45, 0.55]}]}


def test_tree_whose_products_do_not_collapse_matches_oracle():
    """The line texts are formatted once per class of equal products; here
    the classes stay many, and their pairs are merged by bits."""
    tree = build_tree(catalog_from_dict(UNEQUAL), 3, 11,
                      rng=Xoshiro256StarStar(stream_seed(5, 0)))
    last = tree.generations[-1]
    assert tree.node_count == 48_570
    assert len(set(last.rprod.tolist())) > 100 and len(set(last.mprod.tolist())) > 100
    _same(tree_to_jsonl, template_tree_to_jsonl, tree)


class _Discard:
    def write(self, text: str) -> None:
        pass


def test_many_system_tree_writes_in_memory_linear_in_its_nodes():
    """256 two-map systems with distinct weights at V = 256: the classes
    stay as many as the nodes and the parents' types are spread over the
    systems. Writing takes under 10 times the tree's own arrays (7.3 times
    when measured); classes keyed by the parent's system as well scattered
    over (parent classes) x (systems) x width and took 22 times."""
    systems = [{"maps": [{"r": 0.3 + 0.0004 * j, "c": 0.0}, {"r": 0.4 - 0.0003 * j, "c": 0.5}],
                "weights": [0.3 + 0.001 * j, 0.7 - 0.001 * j]} for j in range(256)]
    catalog = catalog_from_dict({"interval": [0.0, 1.0], "systems": systems,
                                 "index_distribution": [1 / 256] * 256})
    tree = build_tree(catalog, 256, 10, rng=Xoshiro256StarStar(stream_seed(7, 0)))
    assert tree.node_count == 2047
    assert len(set(tree.generations[-1].mprod.tolist())) > 1000
    _same(tree_to_jsonl, template_tree_to_jsonl, tree)
    size = sum(a.nbytes for g in tree.generations
               for a in (g.parent, g.pos, g.types, g.rprod, g.mprod, g.shift))
    tracemalloc.start()
    try:
        tree_to_jsonl(tree, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * size


@pytest.mark.parametrize("seed", [1, 2])
def test_export_sized_tree_matches_oracle(seed):
    """two_system_v2 at depth 13 is the size of the benchmark's export tree."""
    doc = json.loads((CONFIGS / "two_system_v2.json").read_text())
    cfg = RunConfig.from_dict({**doc, "seed": seed, "depth": 13, "level": 13})
    tree = _build(cfg, 13)
    assert tree.node_count == {1: 171_853, 2: 179_699}[seed]
    _same(tree_to_jsonl, template_tree_to_jsonl, tree)


# ---------------------------------------------------------------------------
# float_text and int_text against Python's formatter

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _proven(values) -> np.ndarray:
    """The kernel's proven mask over a whole array, a block at a time."""
    values = np.asarray(values, np.float64)
    step = _format._BLOCK_ROWS
    return np.concatenate([_format._digit_text(values[lo:lo + step])[1]
                           for lo in range(0, values.shape[0], step)] or [np.zeros(0, bool)])


def _texts(text, align) -> list:
    """The rows of a text matrix without their NULs, checking that it is
    uint8, as wide as its longest row, and padded only on the side away
    from ``align``."""
    assert text.dtype == np.uint8 and text.ndim == 2
    rows = [row.tobytes() for row in text]
    strip = bytes.rstrip if align == "left" else bytes.lstrip
    texts = [strip(row, b"\0") for row in rows]
    assert all(b"\0" not in t for t in texts)
    assert text.shape[1] == max(map(len, texts), default=0)
    return [t.decode("ascii") for t in texts]


def _check_17g(values) -> None:
    got = _texts(float_text(values), "left")
    assert got == ["{:.17g}".format(v) for v in np.asarray(values).tolist()]


def _powers_of_ten() -> list:
    values = []
    for k in range(-325, 309):
        v = float(f"1e{k}")
        values += [v, float(np.nextafter(v, -np.inf)), float(np.nextafter(v, np.inf))]
    return values


EDGE_VALUES = [
    *_powers_of_ten(),
    2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, float(2 ** 53 + 1),
    *(float(m + d) for m in (10 ** 16, 10 ** 17) for d in (-1, 1)),
    *(float(np.nextafter(m, t)) for m in (1e16, 1e17) for t in (0.0, np.inf)),
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1234567890123456.75, -1234567890123456.75,
]


def _floats_bits(v: float) -> int:
    return int(np.array(v, np.float64).view(np.uint64))


@settings(deadline=None)
@example(bits=[])
@example(bits=[0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000,
               0x7FF800000000DEAD, 0xFFF0000000000000, 0x0000000000000001])
@given(bits=st.lists(st.one_of(st.integers(0, 2 ** 64 - 1),
                               st.floats(width=64).map(_floats_bits)),
                     max_size=64))
def test_format_17g_matches_format_on_every_bit_pattern(bits):
    """Raw bit patterns reach NaN payloads, +-inf, +-0 and subnormals as
    well as every exponent; ``st.floats`` adds short decimals and ties."""
    _check_17g(_floats(bits))


def test_format_17g_edge_values():
    _check_17g(np.array(EDGE_VALUES))
    assert _texts(float_text(np.array([1234567890123456.75, -1234567890123456.75])),
                  "left") == ["1234567890123456.8", "-1234567890123456.8"]


def test_format_17g_across_blocks_with_fallbacks():
    """Fallback rows (zeros, NaN, subnormals, ties) land in several blocks
    and at both ends of one."""
    rng = np.random.default_rng(5)
    n = 2 * _format._BLOCK_ROWS + 7
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    odd = [0.0, -0.0, np.nan, 5e-324, 1234567890123456.75, np.inf]
    for i, at in enumerate((0, _format._BLOCK_ROWS - 1, _format._BLOCK_ROWS,
                            2 * _format._BLOCK_ROWS, n - 1)):
        values[at] = odd[i % len(odd)]
    _check_17g(values)
    _check_17g(np.zeros(0))


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_exponent_guess_off_by_one_falls_back(monkeypatch, shift):
    """numpy's log10 need not round correctly, so near a power of ten the
    guessed exponent may be one off either way; the product then leaves
    [1e16, 1e17) and the value goes to Python."""
    rng = np.random.default_rng(7)
    values = (1.0 + 9.0 * rng.random(1000)) * 10.0 ** rng.integers(-260, 280, 1000)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    assert not _proven(values).any()
    _check_17g(values)


def test_power_table_is_exact_rounding():
    """Each entry is 10**(16 - k) rounded, plus its rounded remainder,
    checked with exact rationals."""
    ks = range(_format._K_MIN, _format._K_MAX + 1)
    assert len(_format._P_HI) == len(ks)
    for k, hi, lo in zip(ks, _format._P_HI.tolist(), _format._P_LO.tolist()):
        exact = Fraction(10) ** (16 - k)
        assert hi == float(exact)
        assert lo == float(exact - Fraction(hi))


def test_kernel_proves_uniform_doubles():
    values = np.random.default_rng(29).random(100_000)
    assert _proven(values).mean() >= 0.999
    _check_17g(values)


def _level_12(name: str):
    cfg = RunConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    return decompose(_build(cfg, 12), 12)


def test_kernel_proves_every_nonzero_cell_end():
    """0.0, the interval's left end, is the one value the kernel leaves to
    Python on two_system_v2 at level 12."""
    dec = _level_12("two_system_v2")
    ends = np.concatenate([dec.lefts, dec.rights])
    assert _proven(ends).tolist() == (ends != 0.0).tolist()


@pytest.mark.parametrize("name", ["cantor", "lebesgue", "two_system_v2"])
def test_level_12_cells_and_gaps_match_oracle(name):
    _same(cells_to_csv, template_cells_to_csv, _level_12(name), META)
    _same(gaps_to_csv, template_gaps_to_csv, _level_12(name), META)


# ---------------------------------------------------------------------------
# The byte-matrix table writer against the row template

BLOCK = _format._BLOCK_ROWS
INT_EXTREMES = [0, -1, 9, -10, 2 ** 63 - 1, -2 ** 63]
FALLBACKS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 1234567890123456.75]


def _table(n: int, rng) -> tuple:
    """An int64 column, an all-distinct and a repeating float column of n
    rows. Around each block edge (and the table's ends) rows b - 4 .. b + 3
    take every fallback value, rotated by the edge's number, and the int
    extremes."""
    ints = rng.integers(-10 ** 6, 10 ** 6, n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    repeats = rng.choice([0.25, -1 / 3, 1e-5], n)
    for e, edge in enumerate([*range(0, n, BLOCK), n]):
        for k, i in enumerate(range(edge - 4, edge + 4)):
            if 0 <= i < n:
                floats[i] = FALLBACKS[(k + e) % len(FALLBACKS)]
                repeats[i] = FALLBACKS[(k + e + 1) % len(FALLBACKS)]
                ints[i] = INT_EXTREMES[(k + e) % len(INT_EXTREMES)]
    return ints, floats, repeats


def _same_table(ints, floats, repeats) -> None:
    """``write_csv`` of the columns, with the all-distinct floats both as a
    float column and as text already formatted, against the template."""
    got, want = io.StringIO(), io.StringIO()
    write_csv(got, "i,x,text,r", (ints, floats, float_text(floats), repeats), META)
    template_write_csv(want, "i,x,text,r", "{},{:.17g},{:.17g},{:.17g}",
                       (ints.tolist(), floats.tolist(), floats.tolist(), repeats.tolist()),
                       META)
    _assert_same_text(got.getvalue(), want.getvalue())


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_table_writer_on_block_edges(n):
    _same_table(*_table(n, np.random.default_rng(n)))


def test_int_text_matches_str():
    rng = np.random.default_rng(11)
    values = np.concatenate([INT_EXTREMES, rng.integers(-2 ** 63, 2 ** 63 - 1, 1000,
                                                        endpoint=True),
                             10 ** np.arange(19), -10 ** np.arange(19)]).astype(np.int64)
    assert _texts(int_text(values), "right") == [str(v) for v in values.tolist()]
    assert _texts(int_text(np.arange(100_000)), "right") == [str(v) for v in range(100_000)]
    assert int_text(np.zeros(0, np.int64)).shape[0] == 0


def test_longest_float_text_fills_the_width():
    """A negative value with 17 significant digits and a three-digit
    exponent has the longest ``.17g`` text, 24 characters."""
    v = -1.2345678901234567e-100
    assert "{:.17g}".format(v) == "-1.2345678901234567e-100"
    text = float_text(np.array([0.5, v]))
    assert text.shape == (2, _format._WIDTH) == (2, 24)
    assert _texts(text, "left") == ["0.5", "-1.2345678901234567e-100"]
    _same_table(np.array([-2 ** 63, 0]), np.array([v, v]), np.array([v, 0.5]))


@settings(deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-2 ** 63, 2 ** 63 - 1),
                               st.one_of(st.integers(0, 2 ** 64 - 1),
                                         st.floats(width=64).map(_floats_bits)),
                               st.sampled_from(FALLBACKS + [0.5, -2.0])),
                     max_size=60))
def test_table_writer_matches_template_on_random_columns(rows):
    ints = np.array([r[0] for r in rows], np.int64)
    floats = _floats([r[1] for r in rows])
    _same_table(ints, floats, np.array([r[2] for r in rows], np.float64))


def test_spectral_sized_pencil_matches_oracle():
    """two_system_v2 at its own level 12 and splits 1 gives a Dirichlet
    pencil of 98,782 rows, the size of a spectral workload pencil."""
    pencil = assemble(refine_uniform(_level_12("two_system_v2"), 1), DIRICHLET)
    assert pencil.dim == 98_782
    _same(pencil_to_csv, template_pencil_to_csv, pencil, META)
