"""Command line interface: validate, tree, measure, count, exponent,
bracket, cutsets.

``validate`` prints its report to stdout and writes nothing; every other
subcommand writes to ``--out`` and a meta sidecar there. Each run draws
one environment table of ``max(depth, level)`` levels and counts at
``level``; generations are materialized to ``depth`` for ``tree``,
``cutsets`` and ``bracket``, to ``level`` for ``measure`` and ``count``,
and not below the root for ``exponent``. Every N_D and N_N written comes
from ``condense.condensed_counts`` on the table; ``pencil`` serves only
``count``'s ``pencil_dirichlet.csv``.

Configs are strict JSON: unknown fields, duplicate keys, ``NaN`` or
``Infinity`` literals, numbers written as strings and numbers outside a
field's range are rejected, so typos in experiment sweeps fail loudly.
Scientific outputs are deterministic functions of (config, seed), byte for
byte, and wall-clock metadata lives in a separate ``*_meta.json`` sidecar so
the main outputs are hash-comparable across runs:

- ``tree.jsonl``: one JSON object per node, generation by generation and
  left to right within one, keys sorted, floats as ``repr``, LF line ends.
- ``cells.csv``, ``gaps.csv``, ``pencil_dirichlet.csv``, ``counting.csv``:
  ``# key=value`` meta lines (LF), then a header and rows ending in CRLF,
  floats with 17 significant digits (``.17g``).
- ``cutsets.csv``: the same meta lines and ``.17g`` floats, LF rows; its
  columns are the ``CutsetStatsRow`` fields in declaration order.
- JSON documents: sorted keys, indent 2, a final newline. Their keys are the
  field names of the result dataclasses (``ExponentReport``, ``FEval``,
  ``EmpiricalFit``, ``ScaleExtrema``, ``BracketingResult``, ``Environment``,
  ``Violation``); ``environments.json`` turns each level of the tree's
  environment table into an ``Environment``. Renaming a field, or
  reordering ``CutsetStatsRow``, is therefore an output change, and
  ``tests/test_golden.py`` fails on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import (Catalog, catalog_from_dict, json_int, json_number, json_object,
                      scale_extrema, validate_catalog)
from .condense import condensed_counts
from .errors import VVCantorError
from .measure import cells_to_csv, counting_to_csv, decompose, gaps_to_csv, write_meta
from .pencil import DIRICHLET, assemble, pencil_to_csv, refine_uniform
# Not called here since the condensed counts; perfbench/tracing.py still
# wraps vvcantor.cli.inertia_counts and its self-check expects it.
from .pencil import inertia_counts  # noqa: F401
from .rng import Xoshiro256StarStar, stream_seed
from .spectral import (DEFAULT_ENV_CAP, MAX_BLOCK_GROWTH, CutsetStatsRow,
                       MonteCarloNeckEvaluator, TREE_STREAM, bracketing_check,
                       center_counts, cutset_stats_check, empirical_exponent,
                       gamma_exact_homogeneous, solve_gamma, solve_gamma_recursive)
from .vtree import DEFAULT_NODE_CAP, build_tree, environments_to_obj, tree_to_jsonl

_TOP_KEYS = {"schema", "catalog", "v", "seed", "depth", "level", "splits",
             "k_range", "x_grid", "mc_blocks", "root_type", "node_cap"}


def _unique_keys(pairs: list) -> dict:
    """A JSON object; a repeated key is a config error, not an overwrite."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"duplicate keys: {sorted({k for k in keys if keys.count(k) > 1})}")
    return dict(pairs)


@dataclass
class RunConfig:
    catalog: Catalog
    v: int
    seed: int
    depth: int
    level: int
    splits: int
    k_range: tuple[int, int]
    x_grid: tuple[float, float, int]
    mc_blocks: int
    root_type: int | None
    node_cap: int
    raw: dict

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        unknown = set(json_object(doc, "config")) - _TOP_KEYS
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if doc.get("schema") != 1:
            raise ValueError("config schema must be 1")
        if "catalog" not in doc or "seed" not in doc:
            raise ValueError("config requires 'catalog' and 'seed'")
        catalog = catalog_from_dict(doc["catalog"])
        v = json_int(doc.get("v", 1), "v", 1, 256)  # types stay uint8 in the table
        seed = json_int(doc["seed"], "seed", 0, 2 ** 64 - 1)
        sizes = {key: json_int(doc[key], key, 0, DEFAULT_ENV_CAP)
                 for key in ("depth", "level") if key in doc}
        depth = sizes.get("depth", sizes.get("level", 8))
        level = sizes.get("level", depth)
        splits = json_int(doc.get("splits", 1), "splits", 1, 2 ** 53)  # exact as a float
        k_range = tuple(json_int(k, "k_range", 0, DEFAULT_ENV_CAP)  # each neck is a table level
                        for k in doc.get("k_range", [0, 3]))
        if len(k_range) != 2 or k_range[0] > k_range[1]:
            raise ValueError("k_range must be [lo, hi] with 0 <= lo <= hi")
        grid = doc.get("x_grid", {"lo": 1.0, "hi": 1e4, "count": 16})
        unknown = set(json_object(grid, "x_grid")) - {"lo", "hi", "count"}
        if unknown:
            raise ValueError(f"unknown x_grid fields: {sorted(unknown)}")
        count = json_int(grid.get("count"), "x_grid count", 2, DEFAULT_NODE_CAP)
        lo, hi = (json_number(grid.get(key), f"x_grid {key}") for key in ("lo", "hi"))
        if not 0 < lo < hi:
            raise ValueError("x_grid needs 0 < lo < hi")
        mc_blocks = json_int(doc.get("mc_blocks", 1000), "mc_blocks", 2,
                             DEFAULT_NODE_CAP // MAX_BLOCK_GROWTH)  # solve_gamma may grow them
        root_type = doc.get("root_type")
        if root_type is not None:
            root_type = json_int(root_type, "root_type", 0, v - 1)
        node_cap = json_int(doc.get("node_cap", DEFAULT_NODE_CAP), "node_cap", 1,
                            DEFAULT_NODE_CAP)
        return cls(catalog=catalog, v=v, seed=seed, depth=depth, level=level,
                   splits=splits, k_range=k_range, x_grid=(lo, hi, count),
                   mc_blocks=mc_blocks, root_type=root_type, node_cap=node_cap,
                   raw=doc)

    def grid(self) -> np.ndarray:
        lo, hi, count = self.x_grid
        return np.geomspace(lo, hi, count)

    def sha256(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _meta(cfg: RunConfig, subcommand: str) -> dict:
    return {
        "config_sha256": cfg.sha256(),
        "seed": cfg.seed,
        "package_version": __version__,
        "subcommand": subcommand,
    }


def _dumps(obj) -> str:
    """Every JSON output: sorted keys, indent 2; numpy arrays and scalars
    are written as their ``tolist()``."""
    return json.dumps(obj, sort_keys=True, indent=2, default=lambda a: a.tolist())


def _write_json(path: Path, obj) -> None:
    path.write_text(_dumps(obj) + "\n", newline="\n")


def _csv_value(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _tree_rng(cfg: RunConfig) -> Xoshiro256StarStar:
    return Xoshiro256StarStar(stream_seed(cfg.seed, TREE_STREAM))


def _build(cfg: RunConfig, depth: int):
    """The run's tree: one table of ``max(cfg.depth, cfg.level)`` levels,
    the same draws for every subcommand, materialized to ``depth``."""
    return build_tree(cfg.catalog, cfg.v, depth, root_type=cfg.root_type,
                      rng=_tree_rng(cfg), env_levels=max(cfg.depth, cfg.level),
                      node_cap=cfg.node_cap)


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_validate(cfg: RunConfig) -> int:
    rep = validate_catalog(cfg.catalog)
    obj = {"meta": _meta(cfg, "validate"),
           "valid": rep.ok,
           "violations": [asdict(v) for v in rep.violations]}
    if rep.ok:
        obj["extrema"] = asdict(scale_extrema(cfg.catalog))
    print(_dumps(obj))
    return 0 if rep.ok else 1


def _cmd_tree(cfg: RunConfig, out: Path) -> int:
    tree = _build(cfg, cfg.depth)
    with open(out / "tree.jsonl", "w", newline="\n") as fp:
        tree_to_jsonl(tree, fp)
    _write_json(out / "environments.json",
                {"meta": _meta(cfg, "tree"), "root_type": tree.root_type,
                 "environments": environments_to_obj(tree)})
    _write_json(out / "necks.json",
                {"meta": _meta(cfg, "tree"),
                 "neck_levels": list(tree.neck_levels),
                 "depth": tree.depth, "node_count": tree.node_count})
    return 0


def _cmd_measure(cfg: RunConfig, out: Path) -> int:
    tree = _build(cfg, cfg.level)
    dec = decompose(tree, cfg.level)
    meta = _meta(cfg, "measure")
    with open(out / "cells.csv", "w", newline="") as fp:
        cells_to_csv(dec, fp, meta)
    with open(out / "gaps.csv", "w", newline="") as fp:
        gaps_to_csv(dec, fp, meta)
    return 0


def _cmd_count(cfg: RunConfig, out: Path) -> int:
    tree = _build(cfg, cfg.level)
    xs = cfg.grid()
    dirichlet = assemble(refine_uniform(decompose(tree, cfg.level), cfg.splits), DIRICHLET)
    counts_d, counts_n = condensed_counts(tree, cfg.level, cfg.splits, xs)
    with open(out / "counting.csv", "w", newline="") as fp:
        counting_to_csv(fp, xs, counts_d, counts_n, cfg.level, cfg.splits,
                        _meta(cfg, "count"))
    with open(out / "pencil_dirichlet.csv", "w", newline="") as fp:
        pencil_to_csv(dirichlet, fp, _meta(cfg, "count"))
    return 0


def _cmd_exponent(cfg: RunConfig, out: Path) -> int:
    tree = _build(cfg, 0)  # the table alone
    xs = cfg.grid()
    counts_d = condensed_counts(tree, cfg.level, cfg.splits, xs)[0]
    fit = empirical_exponent((xs, counts_d), (cfg.x_grid[0], cfg.x_grid[1]))

    exact = gamma_exact_homogeneous(cfg.catalog)
    recursive = solve_gamma_recursive(cfg.catalog)
    evaluator = MonteCarloNeckEvaluator(cfg.catalog, cfg.v, cfg.mc_blocks, cfg.seed)
    mc = solve_gamma(evaluator)

    primary = exact if cfg.v == 1 else mc
    obj = {
        "meta": _meta(cfg, "exponent"),
        "gamma": primary.gamma,
        "method": primary.method,
        "exact_homogeneous": asdict(exact),
        "monte_carlo": asdict(mc),
        "recursive_oracle": recursive,
        "empirical": {**asdict(fit), "level": cfg.level, "splits": cfg.splits},
        "mean_first_neck": float(evaluator.neck_waits.mean()),
        "f_by_root_type_at_gamma": {
            str(t): v for t, v in evaluator.f_by_root_type(mc.gamma).items()
        },
    }
    _write_json(out / "exponent.json", obj)
    return 0


def _cmd_bracket(cfg: RunConfig, out: Path) -> int:
    tree = _build(cfg, cfg.depth)
    center = center_counts(tree, cfg.grid(), cfg.level, cfg.splits)
    results = []
    for k in range(cfg.k_range[0], cfg.k_range[1] + 1):
        res = bracketing_check(tree, k, center)
        results.append({**asdict(res), "n_warn": res.n_warn, "n_fail": res.n_fail})
    _write_json(out / "bracketing.json",
                {"meta": _meta(cfg, "bracket"), "results": results})
    return 0


def _cmd_cutsets(cfg: RunConfig, out: Path) -> int:
    tree = _build(cfg, cfg.depth)
    ks = range(cfg.k_range[0], cfg.k_range[1] + 1)
    rows = cutset_stats_check(tree, ks, level=cfg.level, splits=cfg.splits)
    with open(out / "cutsets.csv", "w", newline="") as fp:
        write_meta(fp, _meta(cfg, "cutsets"))
        fp.write(",".join(f.name for f in fields(CutsetStatsRow)) + "\n")
        fp.writelines(",".join(map(_csv_value, astuple(r))) + "\n" for r in rows)
    return 0


# Subcommands that write to --out; ``validate`` prints to stdout only.
_COMMANDS = {
    "tree": _cmd_tree,
    "measure": _cmd_measure,
    "count": _cmd_count,
    "exponent": _cmd_exponent,
    "bracket": _cmd_bracket,
    "cutsets": _cmd_cutsets,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vvcantor",
        description="Random tree Cantor measures and their spectral asymptotics.")
    parser.add_argument("subcommand", choices=sorted(["validate", *_COMMANDS]))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (64-bit unsigned)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored; every subcommand runs in one thread")
    args = parser.parse_args(argv)

    try:
        doc = json.loads(Path(args.config).read_text(), object_pairs_hook=_unique_keys)
        if args.seed is not None:
            doc = dict(doc, seed=args.seed)
        cfg = RunConfig.from_dict(doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.subcommand == "validate":
        return _cmd_validate(cfg)
    rep = validate_catalog(cfg.catalog)
    if not rep.ok:
        print(f"invalid catalog:\n{rep}", file=sys.stderr)
        return 2

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        started = time.time()
        code = _COMMANDS[args.subcommand](cfg, out)
        _write_json(out / f"{args.subcommand}_meta.json", {
            "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
            "elapsed_seconds": time.time() - started,
        })
    except VVCantorError as exc:
        print(f"{args.subcommand} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # --out is a file, lies under one, or a name is a directory
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
