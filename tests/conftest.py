from collections import namedtuple
from itertools import chain, repeat

import numpy as np
import pytest
from hypothesis import settings

from vvcantor import (Catalog, ContractionMap, Environment, NeckTimeoutError,
                      WeightedIFS, condensed_counts, cut_set, neck_subtree)
from vvcantor.catalog import map_table
from vvcantor.measure import write_meta
from vvcantor.spectral import DEFAULT_ENV_CAP, MC_BLOCK_STREAM_BASE


# ``pytest --hypothesis-profile=ci`` searches harder than a local run for a
# counterexample, above all a condensed count that the dense oracle refutes.
settings.register_profile("ci", max_examples=300, deadline=None)


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


# The Python-int xoshiro256** generator, stream seeding and environment draw
# that the one-lane ``Xoshiro256StarStar`` and ``vtree.LevelDraws`` replaced,
# and the packing of ``Environment`` lists into the environment table, kept
# verbatim as their oracle. Oracle tests use no generator or draw code of
# the package.

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns ``(new_state, output)``."""
    state = (state + GOLDEN) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def scalar_stream_seed(master_seed: int, stream_id: int) -> int:
    """Derive the 64-bit seed of stream ``stream_id`` from the master seed."""
    if stream_id < 0:
        raise ValueError("stream_id must be non-negative")
    state = (master_seed + (stream_id + 1) * GOLDEN) & MASK64
    _, out = splitmix64_next(state)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


class ScalarXoshiro256StarStar:
    """xoshiro256** generator with splitmix64 state expansion.

    ``uniform`` returns a double in [0, 1) built from the top 53 bits;
    ``randint(n)`` is ``floor(uniform() * n)``; ``categorical(p)`` walks the
    cumulative sums of ``p`` with one ``uniform`` draw. These definitions are
    part of the reproducibility contract.
    """

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        state = seed & MASK64
        s = []
        for _ in range(4):
            state, word = splitmix64_next(state)
            s.append(word)
        if not any(s):  # all-zero state is invalid for xoshiro
            s[0] = GOLDEN
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2^-53

    def randint(self, n: int) -> int:
        """Uniform integer in ``{0, ..., n-1}``."""
        if n <= 0:
            raise ValueError("n must be positive")
        return int(self.uniform() * n)

    def categorical(self, probs) -> int:
        """Index drawn according to the probability vector ``probs``."""
        u = self.uniform()
        acc = 0.0
        last = 0
        for idx, p in enumerate(probs):
            acc += p
            last = idx
            if u < acc:
                return idx
        return last


def scalar_sample_environment(catalog, v_types: int, rng) -> Environment:
    """Draw an environment.

    Draw order (reproducibility contract): system indices for types 0..V-1
    from the catalog's index distribution, then child-type rows type by type,
    each entry uniform on {0..V-1}.
    """
    if v_types < 1:
        raise ValueError("v_types must be >= 1")
    indices = tuple(rng.categorical(catalog.index_probs) for _ in range(v_types))
    rows = tuple(
        tuple(rng.randint(v_types) for _ in range(catalog.systems[j].size))
        for j in indices
    )
    return Environment(indices, rows)


def scalar_is_neck(env: Environment) -> bool:
    first = env.child_types[0][0]
    return all(t == first for row in env.child_types for t in row)


# Blocks stacked block-major: block b, with root type ``roots[b]``, is
# ``lens[b]`` levels of the environment table (``vtree``) following those of
# blocks 0..b-1.
PackedBlocks = namedtuple("PackedBlocks", "level_sys child lens roots")


def pack_blocks(v_types: int, width: int, root_types, blocks) -> PackedBlocks:
    """Pack environment sequences block-major: block b, ``blocks[b]`` with
    root type ``roots[b] = root_types[b]``, is ``lens[b]`` levels following
    those of blocks 0..b-1. ``level_sys[l, v]`` is the system of type v at
    level l and ``child[l, v, i]`` the type of its child i, 0 past the
    system's maps; ``width`` is the catalog's largest map count."""
    lens = np.fromiter(map(len, blocks), np.int64, len(blocks))
    n = int(lens.sum())
    envs = [env for envs in blocks for env in envs]
    pads = [(0,) * (width - k) for k in range(width + 1)]
    level_sys = np.fromiter(chain.from_iterable(env.indices for env in envs),
                            np.int64, n * v_types).reshape(n, v_types)
    child = np.fromiter(chain.from_iterable(row + pads[len(row)] for env in envs
                                            for row in env.child_types),
                        np.int64, n * v_types * width).reshape(n, v_types, width)
    return PackedBlocks(level_sys, child, lens, np.array(root_types, np.int64))


def unpack_layout(layout) -> PackedBlocks:
    """The blocks of a ``_kernels.block_layout``, block-major: each block's
    rows in its entries' order, ``lens`` counted from the entries, roots in
    block order."""
    blocks, level_sys, child = (np.concatenate(col) for col in zip(*layout.entries()))
    order = np.argsort(blocks, kind="stable")
    return PackedBlocks(level_sys[order], child[order],
                        np.bincount(blocks, minlength=layout.roots.shape[0]),
                        layout.roots)


def segment_entries(level_sys, child, starts, lens):
    """``_kernels.block_layout`` entries of blocks that are segments of one
    table: block b is rows ``starts[b] .. starts[b] + lens[b] - 1``."""
    for p in range(int(lens.max(initial=0))):
        blocks = np.flatnonzero(lens > p)
        rows = starts[blocks] + p
        yield blocks, level_sys[rows], child[rows]


def scalar_tree_stream(catalog, v_types: int, necks: int, seed: int,
                       cap: int = 100_000) -> tuple[int, list]:
    """The oracle's draws on tree stream 0 of ``seed``: the root type, then
    environments up to the ``necks``-th neck."""
    rng = ScalarXoshiro256StarStar(scalar_stream_seed(seed, 0))
    root = rng.randint(v_types)
    envs, seen = [], 0
    while seen < necks:
        envs.append(scalar_sample_environment(catalog, v_types, rng))
        seen += scalar_is_neck(envs[-1])
        assert len(envs) < cap, "no neck within cap"
    return root, envs


def env_table(catalog, v_types: int, envs) -> tuple:
    """The ``(level_sys, child)`` table of an ``Environment`` list."""
    return pack_blocks(v_types, map_table(catalog).shape[1], [0], [envs])[:2]


# The row-template writers that ``measure.write_csv`` and
# ``vtree.tree_to_jsonl`` replaced, kept verbatim as their oracle: every
# float formatted by its own ``str.format``/``repr`` call, one row at a time.

def template_write_csv(fp, header: str, row: str, columns, meta=None) -> None:
    write_meta(fp, meta)
    fp.write(f"{header}\r\n")
    fp.writelines(map(f"{row}\r\n".format, *columns))


def template_cells_to_csv(d, fp, meta=None) -> None:
    template_write_csv(fp, "left,right,mass,density", "{:.17g},{:.17g},{:.17g},{:.17g}",
                       (d.lefts.tolist(), d.rights.tolist(), d.masses.tolist(),
                        d.densities.tolist()), meta)


def template_gaps_to_csv(d, fp, meta=None) -> None:
    gap = d.lefts[1:] > d.rights[:-1]
    template_write_csv(fp, "left,right", "{:.17g},{:.17g}",
                       (d.rights[:-1][gap].tolist(), d.lefts[1:][gap].tolist()), meta)


def template_pencil_to_csv(pencil, fp, meta=None) -> None:
    template_write_csv(fp, "i,k_diag,k_off,m_diag,m_off", "{},{:.17g},{:.17g},{:.17g},{:.17g}",
                       (range(pencil.dim), pencil.kd.tolist(), pencil.ko.tolist() + [0.0],
                        pencil.md.tolist(), pencil.mo.tolist() + [0.0]), meta)


def template_counting_to_csv(fp, xs, counts_d, counts_n, level, splits, meta=None) -> None:
    template_write_csv(fp, "x,n_dirichlet,n_neumann,level,splits", "{:.17g},{},{},{},{}",
                       (np.asarray(xs, np.float64).tolist(),
                        np.asarray(counts_d, np.int64).tolist(),
                        np.asarray(counts_n, np.int64).tolist(), repeat(level),
                        repeat(splits)), meta)


def template_tree_to_jsonl(tree, fp) -> None:
    paths, sep = [""], ""
    for level, gen in enumerate(tree.generations):
        if level:
            paths = [f"{paths[p]}{sep}{q}"
                     for p, q in zip(gen.parent.tolist(), gen.pos.tolist())]
            sep = ", "
        systems = (tree.level_sys[level][gen.types].tolist() if level < tree.depth
                   else ["null"] * gen.size)
        fp.writelines(
            f'{{"m_product": {m!r}, "path": [{path}], "r_product": {r!r}, '
            f'"system": {s}, "type": {t}}}\n'
            for path, t, s, r, m in zip(paths, gen.types.tolist(), systems,
                                        gen.rprod.tolist(), gen.mprod.tolist()))


# The bracketing sums as ``spectral.bracketing_check`` made them before it
# counted each distinct product of a neck level once, kept verbatim as its
# oracle: one condensed count per cut-set member at its rescaled shifts.

def member_bracketing_sums(tree, k, center) -> tuple:
    """The lower and upper sums of the k-th cut set at ``center``'s level,
    splits and shifts."""
    level, splits, xs = center.level, center.splits, center.x
    cs = cut_set(tree, k)
    lower, upper = np.zeros((2, xs.shape[0]), np.int64)
    for l in np.unique(cs.levels):
        prods = cs.products[cs.levels == l]
        args = (prods[:, None] * xs[None, :]).ravel()
        sub_d, sub_n = condensed_counts(neck_subtree(tree, int(l), level - int(l)),
                                        level - int(l), splits, args)
        lower += sub_d.reshape(prods.shape[0], -1).sum(axis=0)
        upper += sub_n.reshape(prods.shape[0], -1).sum(axis=0)
    return lower, upper


@pytest.fixture
def cantor():
    return make_cantor()


@pytest.fixture
def lebesgue():
    return make_lebesgue()


@pytest.fixture
def two_system():
    return make_two_system()


def interval_mass(dec, lo, hi) -> float:
    """Mass of [lo, hi] under a decomposition: density times overlap."""
    overlap = np.minimum(hi, dec.rights) - np.maximum(lo, dec.lefts)
    return float((dec.densities * np.clip(overlap, 0.0, None)).sum())


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


# The CSR neck-block DP that ``_kernels.block_log_sums`` replaced, kept
# verbatim as its oracle. A batch of blocks is packed level-major:
#   level_sys[l, v]   system index assigned to type v at packed level l
#   row_off[l, v]     start of the child-type row for (l, v) in types_flat
#   types_flat[t]     concatenated child-type rows
#   block_ptr[b]      half-open level range [block_ptr[b], block_ptr[b+1])
#   root_types[b]     type of the block's root
#   sys_off[j], n_maps[j]   per-system slice of the map table
#   fx[m]             per-map factor (ratio*weight)**x, precomputed

def csr_pack_blocks(catalog, v_types: int, root_types, blocks) -> tuple:
    """Pack blocks for ``csr_block_log_sums``.

    ``blocks[b]`` is the environment sequence of block b and
    ``root_types[b]`` its root type. Returns ``(level_sys, row_off,
    types_flat, block_ptr, root_types, sys_off, n_maps, rm)`` where
    ``rm[m]`` is map m's ratio*weight; pass ``rm ** x`` as ``fx``.
    """
    n_maps = np.array([s.size for s in catalog.systems], np.int64)
    sys_off = np.concatenate(([0], np.cumsum(n_maps)[:-1]))
    rm = np.array([m.ratio * w for s in catalog.systems
                   for m, w in zip(s.maps, s.weights)])
    lens = np.array([len(envs) for envs in blocks], np.int64)
    block_ptr = np.concatenate(([0], np.cumsum(lens)))
    total_levels = int(block_ptr[-1])
    level_sys = np.empty((total_levels, v_types), np.int64)
    row_off = np.empty((total_levels, v_types), np.int64)
    flat: list[int] = []
    l = 0
    for envs in blocks:
        for env in envs:
            for vt in range(v_types):
                level_sys[l, vt] = env.indices[vt]
                row_off[l, vt] = len(flat)
                flat.extend(env.child_types[vt])
            l += 1
    return (level_sys, row_off, np.array(flat, np.int64), block_ptr,
            np.array(root_types, np.int64), sys_off, n_maps, rm)


def csr_block_log_sums(level_sys, row_off, types_flat, block_ptr, root_types,
                       sys_off, n_maps, fx, n_types) -> np.ndarray:
    """log of sum over block paths of the per-path factor products."""
    n_blocks = root_types.shape[0]
    out = np.zeros(n_blocks, np.float64)
    lens = block_ptr[1:] - block_ptr[:-1]
    amat = np.zeros((n_blocks, n_types), np.float64)
    amat[np.arange(n_blocks), root_types] = 1.0
    max_len = int(lens.max()) if n_blocks else 0
    for p in range(max_len):
        active = np.nonzero(lens > p)[0]
        levels = block_ptr[active] + p
        new = np.zeros((active.shape[0], n_types), np.float64)
        for v in range(n_types):
            av = amat[active, v]
            sysv = level_sys[levels, v]
            cnt = n_maps[sysv]
            rep = np.repeat(np.arange(active.shape[0]), cnt)
            starts = np.concatenate(([0], np.cumsum(cnt)[:-1]))
            local = np.arange(cnt.sum()) - np.repeat(starts, cnt)
            targets = types_flat[np.repeat(row_off[levels, v], cnt) + local]
            vals = av[rep] * fx[np.repeat(sys_off[sysv], cnt) + local]
            np.add.at(new, (rep, targets), vals)
        sums = new.sum(axis=1)
        out[active] += np.log(sums)
        amat[active] = new / sums[:, None]
    return out


# The scalar Monte Carlo block loop that the lockstep lanes of
# ``MonteCarloNeckEvaluator`` replaced, kept verbatim as their oracle:
# block b draws its root type and environments one scalar call at a time.

def scalar_neck_blocks(catalog, v_types: int, master_seed: int, first: int,
                       count: int, env_cap: int = DEFAULT_ENV_CAP) -> PackedBlocks:
    """Blocks ``first .. first + count - 1``, packed."""
    roots, blocks = [], []
    for b in range(first, first + count):
        rng = ScalarXoshiro256StarStar(scalar_stream_seed(master_seed, MC_BLOCK_STREAM_BASE + b))
        roots.append(rng.randint(v_types))
        envs = [scalar_sample_environment(catalog, v_types, rng)]
        while not scalar_is_neck(envs[-1]):
            if len(envs) >= env_cap:
                raise NeckTimeoutError(
                    f"block {b} saw no neck within {env_cap} levels")
            envs.append(scalar_sample_environment(catalog, v_types, rng))
        blocks.append(envs)
    return pack_blocks(v_types, map_table(catalog).shape[1], roots, blocks)
