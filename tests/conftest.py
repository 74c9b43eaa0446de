import numpy as np
import pytest

from vvcantor import (Catalog, ContractionMap, NeckTimeoutError, WeightedIFS,
                      Xoshiro256StarStar, sample_environment, stream_seed)
from vvcantor import _kernels
from vvcantor.catalog import map_table
from vvcantor.spectral import DEFAULT_ENV_CAP, MC_BLOCK_STREAM_BASE


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
                       count: int, env_cap: int = DEFAULT_ENV_CAP) -> _kernels.PackedBlocks:
    """Blocks ``first .. first + count - 1``, packed."""
    roots, blocks = [], []
    for b in range(first, first + count):
        rng = Xoshiro256StarStar(stream_seed(master_seed, MC_BLOCK_STREAM_BASE + b))
        roots.append(rng.randint(v_types))
        envs = [sample_environment(catalog, v_types, rng)]
        while not envs[-1].is_neck:
            if len(envs) >= env_cap:
                raise NeckTimeoutError(
                    f"block {b} saw no neck within {env_cap} levels")
            envs.append(sample_environment(catalog, v_types, rng))
        blocks.append(envs)
    return _kernels.pack_blocks(v_types, map_table(catalog).shape[1], roots, blocks)
