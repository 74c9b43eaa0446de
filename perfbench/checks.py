"""Output checks for one CLI call: invariants on every seed, digests on the
default seed, and the realized load (pencil dims, nodes, cells, blocks).

Digests cover the scientific outputs only: ``meta`` keys are dropped from
JSON documents and ``#`` lines from CSVs, and the ``*_meta.json`` timing
sidecar is not read.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

OUTPUTS = {
    "tree": ("tree.jsonl", "environments.json", "necks.json"),
    "measure": ("cells.csv", "gaps.csv"),
    "count": ("counting.csv", "pencil_dirichlet.csv"),
    "exponent": ("exponent.json",),
    "bracket": ("bracketing.json",),
    "cutsets": ("cutsets.csv",),
}


def scientific_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        doc.pop("meta", None)
        return json.dumps(doc, sort_keys=True).encode()
    if path.suffix == ".csv":
        return b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"#"))
    return data


def digests(subcommand: str, out: Path) -> dict[str, str]:
    return {name: hashlib.sha256(scientific_bytes(out / name)).hexdigest()
            for name in OUTPUTS[subcommand]}


def _csv_rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(scientific_bytes(path).decode())))


def _lines(path: Path) -> int:
    return scientific_bytes(path).count(b"\n")


def realized(subcommand: str, out: Path) -> dict:
    """The load a call actually carried, read back from its outputs."""
    if subcommand == "count":
        return {"dirichlet_dim": _lines(out / "pencil_dirichlet.csv") - 1}
    if subcommand == "tree":
        return {"nodes": json.loads((out / "necks.json").read_text())["node_count"]}
    if subcommand == "measure":
        return {"cells": _lines(out / "cells.csv") - 1}
    if subcommand == "exponent":
        return {"blocks": json.loads((out / "exponent.json").read_text())
                ["monte_carlo"]["blocks"]}
    return {}


def invariants(subcommand: str, out: Path, load: dict) -> list[str]:
    """Promises of the package that hold for every config; [] when all hold."""
    problems = []
    if subcommand == "count":
        rows = _csv_rows(out / "counting.csv")
        nd = [int(r["n_dirichlet"]) for r in rows]
        nn = [int(r["n_neumann"]) for r in rows]
        if any(b < a for a, b in zip(nd, nd[1:])) or any(b < a for a, b in zip(nn, nn[1:])):
            problems.append("counts decrease in x")
        if any(not 0 <= n - d <= 2 for d, n in zip(nd, nn)):
            problems.append("N_N - N_D outside [0, 2]")
    elif subcommand == "bracket":
        results = json.loads((out / "bracketing.json").read_text())["results"]
        failed = [r["k"] for r in results if r["n_fail"] != 0]
        if failed:
            problems.append(f"bracketing fails for k = {failed}")
    elif subcommand == "tree":
        nodes = json.loads((out / "necks.json").read_text())["node_count"]
        if _lines(out / "tree.jsonl") != nodes:
            problems.append("tree.jsonl line count differs from node_count")
    elif subcommand == "exponent":
        gamma = json.loads((out / "exponent.json").read_text())["gamma"]
        if not (isinstance(gamma, float) and math.isfinite(gamma) and gamma > 0):
            problems.append(f"exponent gamma {gamma!r} is not a positive number")
    # Monte Carlo may grow its block count, so blocks are recorded, not checked.
    want = {"dirichlet_dim": load.get("pencil_dims", {}).get("dirichlet"),
            "nodes": load.get("nodes"), "cells": load.get("cells")}
    for key, value in realized(subcommand, out).items():
        if want.get(key) is not None and value != want[key]:
            problems.append(f"{key} {value} differs from the planned {want[key]}")
    return problems


def check(subcommand: str, out: Path, load: dict,
          expected: dict[str, str] | None) -> list[str]:
    """Every problem with one call's outputs; ``expected`` maps output file
    names to digests recorded from a known-good version."""
    try:
        problems = invariants(subcommand, out, load)
        if expected is not None:
            got = digests(subcommand, out)
            problems += [f"{name} digest changed" for name in expected
                         if got.get(name) != expected[name]]
    except (OSError, ValueError, KeyError, TypeError, IndexError, csv.Error) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems
