import tracemalloc

import numpy as np
import pytest

from vvcantor import MonteCarloNeckEvaluator, Pencil, _kernels, inertia_counts
from vvcantor.catalog import map_table
from conftest import dense_counts, make_two_system, segment_entries, sequential_sturm_counts


def _bit_groups(*columns):
    """Oracle of ``_kernels.groups``: each row's bit tuple, and the first row
    holding each tuple."""
    rows = [tuple(c[i].tobytes() for c in columns) for i in range(len(columns[0]))]
    first = {}
    for i, row in enumerate(rows):
        first.setdefault(row, i)
    return rows, first


def test_groups_match_a_bit_tuple_oracle():
    """Float64, uint8 and int64 columns group by the bits of each row: -0.0
    and 0.0 apart, equal NaN bit patterns together, the kept row is the
    first of its group, the kept rows rebuild every column, and no rows
    give empty arrays."""
    rng = np.random.default_rng(7)
    other_nan = np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0]
    floats = rng.choice([0.0, -0.0, np.nan, other_nan, 1.5, -2.25, np.inf], 300)
    small = rng.integers(0, 3, 300).astype(np.uint8)
    signed = rng.choice([-1, 0, 7, 2 ** 40], 300).astype(np.int64)
    for columns in ((floats,), (floats, small), (floats, small, signed), (signed, small)):
        group, first = _kernels.groups(*columns)
        rows, oracle = _bit_groups(*columns)
        assert group.shape == (300,) and first.shape == (len(oracle),)
        assert sorted(first.tolist()) == sorted(oracle.values())
        assert [first[g] for g in group.tolist()] == [oracle[row] for row in rows]
        for c in columns:
            assert c[first][group].tobytes() == c.tobytes()

    group, first = _kernels.groups(np.array([0.0, -0.0, np.nan, 0.0, np.nan, -0.0]))
    assert group[0] == group[3] != group[1] == group[5]
    assert group[2] == group[4] and first.tolist().count(2) == 1

    group, first = _kernels.groups(np.zeros(0), np.zeros(0, np.uint8))
    assert group.shape == first.shape == (0,)


def test_groups_of_nonnegative_rows_number_them_in_sorted_order():
    """``groups(*rows.T[::-1])`` numbers distinct nonnegative integer rows in
    lexicographic order and keeps each one's first row, as ``np.unique``
    along axis 0 does."""
    rows = np.random.default_rng(3).integers(0, 4, (500, 3))
    rows[:, 1] *= 1 << 33
    group, first = _kernels.groups(*rows.T[::-1])
    _, index, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(first, index) and np.array_equal(group, inverse.ravel())


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
        pen = Pencil(kd=np.full(n, 2.0), ko=np.full(n - 1, -1.0),
                     md=np.ones(n), mo=np.zeros(n - 1))
        assert inertia_counts(pen, [1.0]).tolist() == [1]
        xs = np.array([0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.5, 3.0 - 1e-9, 3.0 + 1e-9, 4.0])
        assert np.array_equal(inertia_counts(pen, xs), dense_counts(pen, xs))


def _integer_pencil(rng, n):
    # small integer entries make exact-zero pivots common
    m = max(n - 1, 0)
    return (rng.integers(-3, 4, n).astype(float), rng.integers(-2, 3, m).astype(float),
            rng.integers(1, 3, n).astype(float), rng.integers(0, 2, m).astype(float))


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_sturm_matches_sequential_oracle_at_zero_pivots(monkeypatch, chunk):
    # budgets of 1-7 rows x shifts put zero pivots on the first and last
    # rows of chunks, where the re-run and the carried pivot meet
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for _ in range(400):
        pencil = _integer_pencil(rng, int(rng.integers(1, 12)))
        xs = rng.integers(-4, 5, int(rng.integers(1, 4))).astype(float)
        assert np.array_equal(_kernels.sturm_counts(*pencil, xs),
                              sequential_sturm_counts(*pencil, xs))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_sturm_matches_sequential_oracle_on_tiny_pencils(n):
    rng = np.random.default_rng(n)
    xs = np.concatenate((np.arange(-4.0, 5.0), rng.normal(0.0, 3.0, 20)))
    for _ in range(50):
        pencil = _integer_pencil(rng, n)
        assert np.array_equal(_kernels.sturm_counts(*pencil, xs),
                              sequential_sturm_counts(*pencil, xs))


def test_sturm_matches_sequential_oracle_with_one_row_chunks():
    # more shifts than the chunk budget: every chunk is a single row
    # K = [[1, -2], [-2, 4]], M = I: eigenvalues 0 and 5
    kd, ko, md, mo = np.array([1.0, 4.0]), np.array([-2.0]), np.ones(2), np.zeros(1)
    assert 200_000 > _kernels._CHUNK
    # exact ties only in the second row, which the carried first pivot
    # reaches by the fast path; then a zero first pivot too
    for zeros in ([0.0, 5.0], [0.0, 5.0, 1.0]):
        xs = np.random.default_rng(3).uniform(-1.0, 6.0, 200_000)
        xs[:len(zeros)] = zeros
        assert np.array_equal(_kernels.sturm_counts(kd, ko, md, mo, xs),
                              sequential_sturm_counts(kd, ko, md, mo, xs))


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sturm_working_memory_is_bounded():
    rng = np.random.default_rng(4)
    n = 100_000
    long = (2.0 + rng.random(n), -rng.random(n - 1), 1e-3 * rng.random(n) + 1e-4,
            1e-4 * rng.random(n - 1))
    xs = np.geomspace(1.0, 1e4, 16)
    # a full n x s buffer would be 12.8 MB
    assert _peak_bytes(_kernels.sturm_counts, *long, xs) < 4_000_000
    short = (np.array([2.0, 2.0]), np.array([-1.0]), np.ones(2), np.array([0.25]))
    xs = np.linspace(0.0, 5.0, 810_000)
    assert (_peak_bytes(_kernels.sturm_counts, *short, xs)
            <= _peak_bytes(sequential_sturm_counts, *short, xs))


def test_block_dp_working_memory_is_its_buffers():
    """The neck-block DP allocates, above the layout it reads, its
    products, targets, state and sums, sized by the blocks of the largest
    level, plus the block offsets, the log-sums and one level's (block,
    type) sums; numpy's ufunc buffers fit in the 256 KiB slack. A (W, V,
    blocks) gather buffer beside the products, or the previous level's
    sums kept alive while the next are allocated, would not fit."""
    cat, v = make_two_system(), 2
    layout = MonteCarloNeckEvaluator(cat, v, 20_000, master_seed=1)._layout
    table = map_table(cat)
    n0, width = int(layout.counts[0]), table.shape[1]
    buffers = 8 * n0 * (2 * v * width + v + 1)  # products, targets, state, sums
    slack = 8 * n0 * (v + 1) + 8 * layout.order.shape[0] + (256 << 10)
    assert _peak_bytes(_kernels.block_log_sums, layout, v, table, 0.4) <= buffers + slack


def test_numpy_dp_handles_unit_blocks():
    cat = make_two_system()
    ev = MonteCarloNeckEvaluator(cat, 1, 50, master_seed=2)
    ls = ev.log_sums(0.5)
    assert ls.shape == (50,)
    assert np.isfinite(ls).all()


@pytest.mark.parametrize("block", [0, 1])
@pytest.mark.parametrize("extra", [1, -1])
def test_block_layout_rejects_entries_off_the_lengths(block, extra):
    """Entries that give a block one row more, or one row fewer, than its
    length raise ``ValueError``; for block 0, the shorter one, a row more
    would otherwise land on a row of block 1."""
    level_sys, child = np.zeros((7, 2), np.int64), np.zeros((7, 2, 2), np.int64)
    starts, lens, roots = np.array([0, 3]), np.array([2, 3]), np.array([0, 1])
    layout = _kernels.block_layout(segment_entries(level_sys, child, starts, lens), lens, roots)
    assert layout.counts.tolist() == [2, 2, 1]
    drawn = lens.copy()
    drawn[block] += extra
    with pytest.raises(ValueError):
        _kernels.block_layout(segment_entries(level_sys, child, starts, drawn), lens, roots)
