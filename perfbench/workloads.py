"""Workload generators: each turns a workload seed into CLI configs.

The program sees only the generated configs. Every case carries a ``load``
record (tree seed, level, cells, nodes, blocks) computed from the
environment sequence alone, so two runs can be shown to do the same work,
and every generator returns the candidate tree seeds it rejected and why.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from vvcantor.catalog import catalog_from_dict
from vvcantor.errors import DepthExhaustedError
from vvcantor.rng import Xoshiro256StarStar, stream_seed
from vvcantor.spectral import TREE_STREAM
from vvcantor.vtree import build_tree, cut_set, sample_environment

WORKLOADS = ("spectral", "montecarlo", "export")

LEBESGUE = {
    "interval": [0.0, 1.0],
    "systems": [{"maps": [{"r": 0.5, "c": 0.0}, {"r": 0.5, "c": 0.5}],
                 "weights": [0.5, 0.5]}],
    "index_distribution": [1.0],
}
CANTOR = {
    "interval": [0.0, 1.0],
    "systems": [{"maps": [{"r": 1 / 3, "c": 0.0}, {"r": 1 / 3, "c": 2 / 3}],
                 "weights": [0.5, 0.5]}],
    "index_distribution": [1.0],
}
# The catalog of configs/two_system_v2.json, copied so that the benchmark's
# inputs do not move when the shipped configs do.
TWO_SYSTEM = {
    "interval": [0.0, 1.0],
    "systems": [
        {"maps": [{"r": 1 / 3, "c": 0.0}, {"r": 1 / 3, "c": 2 / 3}],
         "weights": [0.5, 0.5]},
        {"maps": [{"r": 0.2, "c": 0.0}, {"r": 0.2, "c": 0.4}, {"r": 0.2, "c": 0.8}],
         "weights": [1 / 3, 1 / 3, 1 / 3]},
    ],
    "index_distribution": [0.5, 0.5],
}

MAX_LEVEL = 18
MAX_CANDIDATES = 2000


@dataclass
class Case:
    name: str
    doc: dict                      # the config the CLI reads
    subcommands: tuple[str, ...]
    load: dict                     # work this case asks for


@dataclass
class Plan:
    cases: list[Case] = field(default_factory=list)
    rejected: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class Sizes:
    """Spectral, montecarlo and export sizes; ``TINY`` is for self-checks."""

    spectral_cases: int = 1
    spectral_cells: tuple[int, int] = (48_000, 52_000)
    # Bracketing assembles one sub-pencil per neck level of each cut set,
    # (subtree cells) / (center cells) = 1 / (generation size at that level)
    # of the center's size, and counts it at (members at that level) * 16
    # shifts. Capping both keeps bracket's work within a few percent of its
    # twelve center-pencil passes, and peak memory set by the center pencils.
    spectral_sub_share: float = 0.1
    spectral_members: int = 256
    # Tree seeds run on every workload seed without the caps. Tree seed
    # 17678329206797003235 has a neck at its finest level (11): 50664
    # members, about 4.9M bracketing shifts on one-cell sub-pencils.
    spectral_fixed: tuple[int, ...] = (17678329206797003235,)
    mc_blocks: int = 20_000
    mc_level: int = 6
    export_depth: int = 16
    export_nodes: tuple[int, int] = (195_000, 205_000)
    # measure's time goes with the finest generation, which holds 50-67% of
    # the nodes depending on the tree; this window keeps it within +-7%.
    export_cells: tuple[int, int] = (105_000, 120_000)


FULL = Sizes()
TINY = Sizes(spectral_cells=(300, 900), spectral_sub_share=1.0,
             spectral_members=900, spectral_fixed=(), mc_blocks=200,
             export_depth=6, export_nodes=(150, 400), export_cells=(1, 400))


def _doc(catalog: dict, v: int, seed: int, level: int, **extra) -> dict:
    doc = {"schema": 1, "catalog": catalog, "v": v, "seed": seed,
           "depth": level, "level": level, "splits": 1, "k_range": [1, 3],
           "x_grid": {"lo": 2.0, "hi": 50000.0, "count": 16},
           "mc_blocks": 4000, "node_cap": 2_000_000}
    doc.update(extra)
    return doc


def generation_sizes(catalog, v: int, tree_seed: int, levels: int,
                     stop_above: int | None = None):
    """Cells per generation 0..levels and the neck levels, from the same
    draws the CLI makes for ``seed = tree_seed`` (root type, then one
    environment per level). Stops after the first generation larger than
    ``stop_above``."""
    rng = Xoshiro256StarStar(stream_seed(tree_seed, TREE_STREAM))
    counts = [0] * v
    counts[rng.randint(v)] = 1
    sizes = [1]
    necks = []
    for level in range(1, levels + 1):
        env = sample_environment(catalog, v, rng)
        nxt = [0] * v
        for t in range(v):
            for child in env.child_types[t]:
                nxt[child] += counts[t]
        counts = nxt
        sizes.append(sum(counts))
        if env.is_neck:
            necks.append(level)
        if stop_above is not None and sizes[-1] > stop_above:
            break
    return sizes, necks


def _candidates(workload: str, seed: int):
    rng = random.Random(f"vvcantor-perfbench/{workload}/{seed}")
    for _ in range(MAX_CANDIDATES):
        yield rng.getrandbits(64)
    raise RuntimeError(f"no {workload} case found in {MAX_CANDIDATES} candidates")


def _pencil_dims(cells: int) -> dict:
    # Every two_system cell is separated from the next by a gap element, so
    # the mesh has 2 * cells nodes; Dirichlet drops both end nodes.
    return {"dirichlet": 2 * cells - 2, "neumann": 2 * cells}


def _spectral_load(catalog, tree_seed: int, sizes: Sizes) -> tuple[dict | None, str, str]:
    """The load of a tree seed's spectral case, or None with the kind of
    rejection ("window" or "cut_sets") and why. The caller applies the
    sub-pencil caps."""
    lo, hi = sizes.spectral_cells
    cells, necks = generation_sizes(catalog, 2, tree_seed, MAX_LEVEL, hi)
    level = next((l for l, n in enumerate(cells) if lo <= n <= hi), None)
    if level is None:
        return None, "window", f"no level with {lo}-{hi} cells"
    tree = build_tree(catalog, 2, level,
                      rng=Xoshiro256StarStar(stream_seed(tree_seed, TREE_STREAM)))
    try:
        cut_sets = [cut_set(tree, k) for k in (1, 2, 3)]
    except DepthExhaustedError as exc:
        return None, "cut_sets", str(exc)
    per_level = [np.unique(cs.levels, return_counts=True) for cs in cut_sets]
    cut_levels = [levels.tolist() for levels, _ in per_level]
    return {"tree_seed": tree_seed, "level": level, "cells": cells[level],
            "nodes": sum(cells[:level + 1]),
            "necks": [l for l in necks if l <= level], "cut_levels": cut_levels,
            "sub_share": sum(1 / cells[l] for levels in cut_levels for l in levels),
            "max_members": max(int(counts.max()) for _, counts in per_level),
            "pencil_dims": _pencil_dims(cells[level])}, "", ""


def _spectral_case(name: str, load: dict) -> Case:
    return Case(name=name, doc=_doc(TWO_SYSTEM, 2, load["tree_seed"], load["level"]),
                subcommands=("count", "bracket", "cutsets"), load=load)


def spectral_plan(seed: int, sizes: Sizes = FULL) -> Plan:
    """``spectral_cases`` two-system V = 2 trees whose finest generation has
    ``spectral_cells`` cells, whose cut sets for k = 1..3 are complete and
    whose bracketing sub-pencils are within the caps, plus the
    ``spectral_fixed`` trees, uncapped."""
    catalog = catalog_from_dict(TWO_SYSTEM)
    plan = Plan()
    for tree_seed in _candidates("spectral", seed):
        if len(plan.cases) == sizes.spectral_cases:
            break
        load, kind, why = _spectral_load(catalog, tree_seed, sizes)
        if load is not None and (load["sub_share"] > sizes.spectral_sub_share
                                 or load["max_members"] > sizes.spectral_members):
            kind, why = "caps", (f"sub-pencil share {load['sub_share']:.3f}, "
                                 f"{load['max_members']} members at one level")
        if kind:
            plan.rejected.append({"tree_seed": tree_seed, "kind": kind, "why": why})
            continue
        plan.cases.append(_spectral_case(f"spectral-{len(plan.cases)}", load))
    for i, tree_seed in enumerate(sizes.spectral_fixed):
        load, _, why = _spectral_load(catalog, tree_seed, sizes)
        if load is None:
            raise RuntimeError(f"fixed spectral tree seed {tree_seed}: {why}")
        plan.cases.append(_spectral_case(f"spectral-fixed-{i}", load))
    return plan


def montecarlo_plan(seed: int, sizes: Sizes = FULL) -> Plan:
    """One exponent estimate from ``mc_blocks`` neck blocks."""
    catalog = catalog_from_dict(TWO_SYSTEM)
    tree_seed = next(_candidates("montecarlo", seed))
    cells, _ = generation_sizes(catalog, 2, tree_seed, sizes.mc_level)
    return Plan([Case(
        name="montecarlo-0",
        doc=_doc(TWO_SYSTEM, 2, tree_seed, sizes.mc_level, mc_blocks=sizes.mc_blocks),
        subcommands=("exponent",),
        load={"tree_seed": tree_seed, "level": sizes.mc_level,
              "cells": cells[-1], "blocks": sizes.mc_blocks,
              "pencil_dims": _pencil_dims(cells[-1])})])


def export_plan(seed: int, sizes: Sizes = FULL) -> Plan:
    """Deep Lebesgue and Cantor trees plus a two-system tree of
    ``export_nodes`` nodes and ``export_cells`` cells, each written out by
    ``tree`` and ``measure``."""
    plan = Plan()
    candidates = _candidates("export", seed)
    depth = sizes.export_depth
    for name, catalog in (("lebesgue", LEBESGUE), ("cantor", CANTOR)):
        tree_seed = next(candidates)
        plan.cases.append(Case(
            name=f"export-{name}", doc=_doc(catalog, 1, tree_seed, depth),
            subcommands=("tree", "measure"),
            load={"tree_seed": tree_seed, "level": depth, "cells": 2 ** depth,
                  "nodes": 2 ** (depth + 1) - 1}))
    catalog = catalog_from_dict(TWO_SYSTEM)
    lo, hi = sizes.export_nodes
    cells_lo, cells_hi = sizes.export_cells
    for tree_seed in candidates:
        cells, _ = generation_sizes(catalog, 2, tree_seed, MAX_LEVEL)
        totals = [sum(cells[:l + 1]) for l in range(len(cells))]
        level = next((l for l, n in enumerate(totals)
                      if lo <= n <= hi and cells_lo <= cells[l] <= cells_hi), None)
        if level is None:
            plan.rejected.append({"tree_seed": tree_seed, "kind": "window",
                                  "why": f"no depth with {lo}-{hi} nodes and "
                                         f"{cells_lo}-{cells_hi} cells"})
            continue
        plan.cases.append(Case(
            name="export-two_system", doc=_doc(TWO_SYSTEM, 2, tree_seed, level),
            subcommands=("tree", "measure"),
            load={"tree_seed": tree_seed, "level": level, "cells": cells[level],
                  "nodes": totals[level]}))
        break
    return plan


PLANS = {"spectral": spectral_plan, "montecarlo": montecarlo_plan,
         "export": export_plan}
