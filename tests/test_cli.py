import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vvcantor import spectral
from vvcantor.cli import RunConfig, main
from vvcantor.spectral import DEFAULT_ENV_CAP

ROOT = Path(__file__).resolve().parent.parent
CANTOR_CFG = ROOT / "configs" / "cantor.json"
LEBESGUE_CFG = ROOT / "configs" / "lebesgue.json"
TWOSYS_CFG = ROOT / "configs" / "two_system_v2.json"


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def small_cantor_doc(**overrides):
    doc = {
        "schema": 1,
        "catalog": {
            "interval": [0.0, 1.0],
            "systems": [{
                "maps": [{"r": 1 / 3, "c": 0.0}, {"r": 1 / 3, "c": 2 / 3}],
                "weights": [0.5, 0.5],
            }],
            "index_distribution": [1.0],
        },
        "v": 1,
        "seed": 42,
        "depth": 6,
        "level": 6,
        "splits": 1,
        "k_range": [0, 3],
        "x_grid": {"lo": 10.0, "hi": 10000.0, "count": 12},
        "mc_blocks": 200,
    }
    doc.update(overrides)
    return doc


def test_validate_valid_config(tmp_path, capsys):
    """``validate`` prints its report and creates no output directory."""
    out_dir = tmp_path / "out"
    assert main(["validate", "--config", str(CANTOR_CFG), "--out", str(out_dir)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True and out["violations"] == []
    assert out["extrema"]["eta"] == (1 / 3) * 0.5
    assert not out_dir.exists()


def test_validate_invalid_config(tmp_path, capsys):
    doc = small_cantor_doc()
    doc["catalog"]["systems"][0]["weights"] = [0.5, 0.4]
    cfg = write_cfg(tmp_path, doc)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False and out["violations"]


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_cantor_doc(typo_field=3))
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown config fields" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["tree", "exponent"])
def test_env_levels_is_an_unknown_field(tmp_path, capsys, subcommand):
    """The table is always drawn to ``max(depth, level)``: no key sets its
    length."""
    cfg = write_cfg(tmp_path, small_cantor_doc(env_levels=10))
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown config fields: ['env_levels']" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("subcommand", ["tree", "exponent"])
@pytest.mark.parametrize("field", ["depth", "level"])
def test_depth_or_level_past_the_cap_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                       subcommand, field):
    """A table of ``DEFAULT_ENV_CAP + 1`` levels is refused before any level
    is drawn, for the Monte Carlo blocks too."""
    from vvcantor.vtree import LevelDraws

    def no_draw(*args):
        raise AssertionError("a level was drawn")

    monkeypatch.setattr(LevelDraws, "__call__", no_draw)
    doc = small_cantor_doc(**{field: DEFAULT_ENV_CAP + 1})
    with pytest.raises(ValueError, match=f"^{field} must be in \\[0, {DEFAULT_ENV_CAP}\\]$"):
        RunConfig.from_dict(doc)
    cfg = write_cfg(tmp_path, doc)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"config error: {field} must be in [0, 100000]" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("subcommand, field, largest", [
    ("exponent", "mc_blocks", 625_000), ("count", "x_grid count", 10_000_000),
    ("tree", "v", 256), ("count", "splits", 2 ** 53), ("measure", "node_cap", 10_000_000)])
def test_oversized_sizes_are_config_errors(tmp_path, capsys, monkeypatch, subcommand, field,
                                           largest):
    """Monte Carlo blocks that ``solve_gamma`` may grow 16-fold past the node
    cap, a shift grid, a node cap or a type count past what the program
    holds, or more leaves per cell than a float counts exactly, are a config
    error before anything is allocated, and so is a size below the least
    that runs. 10^15 blocks or shifts, or 10^9 types, crashed with an
    untyped allocation error, and 10^400 splits with an untyped overflow."""
    smallest = {"v": 1, "splits": 1, "node_cap": 1}.get(field, 2)

    def sized(n):
        if field == "x_grid count":
            return small_cantor_doc(x_grid={"lo": 10.0, "hi": 10000.0, "count": n})
        return small_cantor_doc(**{field: n})

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated")

    RunConfig.from_dict(sized(largest))
    RunConfig.from_dict(sized(smallest))
    for n in (smallest - 1, largest + 1):
        with pytest.raises(ValueError,
                           match=f"^{field} must be in \\[{smallest}, {largest}\\]$"):
            RunConfig.from_dict(sized(n))
    monkeypatch.setattr(spectral, "_draw_blocks", no_alloc)
    monkeypatch.setattr(np, "geomspace", no_alloc)
    cfg = write_cfg(tmp_path, sized(10 ** 400))
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert (f"config error: {field} must be in [{smallest}, {largest}]"
            in capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("field, value", [
    ("v", 1.7), ("v", True), ("seed", 42.0), ("seed", "42"), ("depth", 6.9),
    ("level", 6.0), ("splits", "2"), ("k_range", [0, 3.0]), ("k_range", [False, 3]),
    ("x_grid", {"lo": 10.0, "hi": 10000.0, "count": 12.0}), ("mc_blocks", 200.0),
    ("root_type", 0.0), ("root_type", False), ("node_cap", 1e7),
])
def test_non_integer_field_is_a_config_error(tmp_path, capsys, field, value):
    """Integer fields take JSON integers only: a float, string or boolean
    is neither rounded nor parsed into a different experiment."""
    doc = small_cantor_doc(**{field: value})
    name = "x_grid count" if field == "x_grid" else field
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        RunConfig.from_dict(doc)
    cfg = write_cfg(tmp_path, doc)
    assert main(["tree", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"{name} must be an integer" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def _catalog_part(doc, path, value):
    """``doc`` with the catalog part at ``path`` (keys and indices) set to
    ``value``."""
    part = doc["catalog"]
    for key in path[:-1]:
        part = part[key]
    part[path[-1]] = value
    return doc


@pytest.mark.parametrize("doc, part", [
    ([], "config must be a JSON object"),
    (small_cantor_doc(catalog=[]), "catalog must be a JSON object"),
    (_catalog_part(small_cantor_doc(), ["systems", 0], []), "system 0 must be a JSON object"),
    (_catalog_part(small_cantor_doc(), ["systems", 0, "maps", 1], [1 / 3, 2 / 3]),
     "system 0 map 1 must be a JSON object"),
    (small_cantor_doc(x_grid=[10.0, 10000.0, 12]), "x_grid must be a JSON object"),
], ids=["config", "catalog", "system", "map", "x_grid"])
def test_malformed_config_shape_is_a_config_error(tmp_path, capsys, doc, part):
    """A list where the config expects an object names the part that is
    wrong instead of failing with a traceback."""
    with pytest.raises(ValueError, match=f"^{part}, got list$"):
        RunConfig.from_dict(doc)
    cfg = write_cfg(tmp_path, doc)
    assert main(["count", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"config error: {part}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# Each number field of the config: (id, path from the document, the name
# its error gives).
_NUMBER_FIELDS = [
    ("lo", ["x_grid", "lo"], "x_grid lo"),
    ("hi", ["x_grid", "hi"], "x_grid hi"),
    ("r", ["catalog", "systems", 0, "maps", 1, "r"], "system 0 map 1 r"),
    ("c", ["catalog", "systems", 0, "maps", 1, "c"], "system 0 map 1 c"),
    ("weight", ["catalog", "systems", 0, "weights", 1], "system 0 weight 1"),
    ("interval", ["catalog", "interval", 0], "interval 0"),
    ("index", ["catalog", "index_distribution", 0], "index_distribution 0"),
]
_NOT_NUMBERS = [("inf", math.inf), ("minus-inf", -math.inf), ("nan", math.nan),
                ("true", True), ("string", "0.5"), ("huge-int", 10 ** 400),
                ("missing", None)]


@pytest.mark.parametrize("path, name, value", [
    (path, name, value) for _, path, name in _NUMBER_FIELDS for _, value in _NOT_NUMBERS
], ids=[f"{f}-{v}" for f, _, _ in _NUMBER_FIELDS for v, _ in _NOT_NUMBERS])
def test_non_finite_x_grid_is_a_config_error(tmp_path, capsys, path, name, value):
    """Every number of the config, shifts and catalog alike, is a finite
    JSON number: ``NaN`` or ``Infinity`` (which ``json`` reads), a boolean,
    a string, an int past the float range or a missing key (null in a list)
    is rejected, never validated or counted."""
    doc = small_cantor_doc(x_grid={"lo": 1.0, "hi": 10000.0, "count": 4})
    part = doc
    for key in path[:-1]:
        part = part[key]
    if value is None and isinstance(part, dict):
        del part[path[-1]]
    else:
        part[path[-1]] = value
    with pytest.raises(ValueError, match=f"^{name} must be a finite number, got {value!r}$"):
        RunConfig.from_dict(doc)
    cfg = write_cfg(tmp_path, doc)
    assert main(["count", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"config error: {name} must be a finite number" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_duplicate_key_is_a_config_error(tmp_path, capsys):
    """A key given twice, at the top or inside the catalog, is refused
    rather than read as its last value."""
    text = json.dumps(small_cantor_doc(level=12))
    for dup in (text.replace('"level": 12', '"level": 12, "level": 3'),
                text.replace('"c": 0.0', '"c": 0.0, "c": 0.5')):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(dup)
        assert main(["measure", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config error: duplicate keys: [" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_null_root_type_is_allowed():
    assert RunConfig.from_dict(small_cantor_doc(root_type=None)).root_type is None


def test_invalid_catalog_blocks_other_commands(tmp_path, capsys):
    doc = small_cantor_doc()
    doc["catalog"]["systems"][0]["weights"] = [0.5, 0.4]
    cfg = write_cfg(tmp_path, doc)
    assert main(["tree", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "invalid catalog" in capsys.readouterr().err


def test_exponent_cantor_gamma(tmp_path):
    cfg = write_cfg(tmp_path, small_cantor_doc(
        level=10, x_grid={"lo": 100.0, "hi": 100000.0, "count": 24}))
    assert main(["exponent", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "exponent.json").read_text())
    assert abs(doc["gamma"] - math.log(2) / math.log(6)) < 1e-6
    assert doc["method"] == "exact-selfsimilar"
    assert abs(doc["recursive_oracle"] - doc["gamma"]) < 1e-9
    assert doc["meta"]["seed"] == 42
    assert "config_sha256" in doc["meta"]


def test_exponent_deterministic_bytes(tmp_path):
    cfg = write_cfg(tmp_path, small_cantor_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["exponent", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["exponent", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "exponent.json").read_bytes() == (out2 / "exponent.json").read_bytes()
    # timestamps live only in the sidecar
    assert "timestamp" not in (out1 / "exponent.json").read_text()


@pytest.mark.parametrize("config", [CANTOR_CFG, TWOSYS_CFG])
def test_exponent_runs_one_dp_pass_per_f_evaluation(tmp_path, monkeypatch, config):
    """The conditional means at gamma reuse the log-sums of the last f
    evaluation, which was at gamma."""
    from vvcantor import spectral

    calls = []
    dp = spectral._kernels.block_log_sums

    def counted(*args):
        calls.append(args[-1])
        return dp(*args)

    monkeypatch.setattr(spectral._kernels, "block_log_sums", counted)
    assert main(["exponent", "--config", str(config), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "exponent.json").read_text())
    assert len(calls) == len(doc["monte_carlo"]["f_evaluations"])


def test_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, small_cantor_doc(v=2, mc_blocks=100))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["exponent", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["exponent", "--config", str(cfg), "--seed", "7",
                 "--out", str(out2)]) == 0
    d1 = json.loads((out1 / "exponent.json").read_text())
    d2 = json.loads((out2 / "exponent.json").read_text())
    assert d1["meta"]["seed"] == 42 and d2["meta"]["seed"] == 7
    assert d1["monte_carlo"]["f_evaluations"] != d2["monte_carlo"]["f_evaluations"]


def test_tree_measure_count_outputs(tmp_path):
    cfg = write_cfg(tmp_path, small_cantor_doc())
    assert main(["tree", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert main(["measure", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert main(["count", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "tree.jsonl").read_text().splitlines()
    assert len(lines) == 2 ** 7 - 1
    necks = json.loads((tmp_path / "necks.json").read_text())
    assert necks["neck_levels"] == [1, 2, 3, 4, 5, 6]
    counting = (tmp_path / "counting.csv").read_text().splitlines()
    header_idx = next(i for i, l in enumerate(counting) if not l.startswith("#"))
    assert counting[header_idx] == "x,n_dirichlet,n_neumann,level,splits"
    rows = [l.split(",") for l in counting[header_idx + 1:]]
    assert len(rows) == 12
    assert all(int(r[1]) <= int(r[2]) <= int(r[1]) + 2 for r in rows)


def test_tree_lists_the_table_to_level(tmp_path):
    """With depth 4 and level 6, ``tree`` materializes 4 generations and
    lists all 6 levels of the run's table, the first 4 as at depth and
    level 4."""
    for name, depth, level in (("deep", 4, 6), ("flat", 4, 4)):
        cfg = write_cfg(tmp_path, small_cantor_doc(depth=depth, level=level), f"{name}.json")
        assert main(["tree", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    deep, flat = (json.loads((tmp_path / name / "environments.json").read_text())
                  for name in ("deep", "flat"))
    assert len(deep["environments"]) == 6 and deep["environments"][:4] == flat["environments"]
    assert ((tmp_path / "deep" / "tree.jsonl").read_bytes()
            == (tmp_path / "flat" / "tree.jsonl").read_bytes())


def test_cutsets_count_at_level(tmp_path, monkeypatch):
    """``cutsets`` with depth 8 and level 11 finds its cut sets on 8
    generations and counts at level 11, not at the materialized depth."""
    from vvcantor import spectral

    levels = []
    counts = spectral.condensed_counts

    def recorded(tree, level, splits, xs):
        levels.append((tree.depth, level))
        return counts(tree, level, splits, xs)

    monkeypatch.setattr(spectral, "condensed_counts", recorded)
    doc = dict(json.loads(TWOSYS_CFG.read_text()), depth=8, level=11)
    cfg = write_cfg(tmp_path, doc)
    assert main(["cutsets", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert levels == [(8, 11)]


def test_bracket_finds_cut_sets_at_depth_and_counts_at_level(tmp_path):
    """``bracket`` materializes generations to ``depth``, as ``cutsets``
    does: at depth 12 and level 60 it needs no generation past 12."""
    doc = dict(json.loads(TWOSYS_CFG.read_text()), depth=12, level=60,
               x_grid={"lo": 1e6, "hi": 1e30, "count": 57})
    cfg = write_cfg(tmp_path, doc)
    assert main(["bracket", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    results = json.loads((tmp_path / "bracketing.json").read_text())["results"]
    assert [r["k"] for r in results] == [1, 2, 3]
    assert all(r["n_fail"] == 0 for r in results)


def test_bracket_level_above_a_cut_set_member_is_a_typed_error(tmp_path, capsys):
    """A cut-set member deeper than ``level`` is a ``DepthExhaustedError``
    with exit code 2, and ``bracketing.json`` is not written."""
    cfg = write_cfg(tmp_path, dict(json.loads(TWOSYS_CFG.read_text()), depth=12, level=2))
    out_dir = tmp_path / "out"
    assert main(["bracket", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert "DepthExhaustedError" in capsys.readouterr().err
    assert not (out_dir / "bracketing.json").exists()


def test_exponent_counts_before_it_draws_blocks(tmp_path, capsys, monkeypatch):
    """``exponent`` counts and fits before the Monte Carlo solve, so a level
    past the leaf-shift underflow (two_system_v2 at v = 3 underflows at
    generation 281) is refused before any block is drawn."""
    def no_draw(*args):
        raise AssertionError("a Monte Carlo block was drawn")

    monkeypatch.setattr(spectral, "_draw_blocks", no_draw)
    cfg = write_cfg(tmp_path, dict(json.loads(TWOSYS_CFG.read_text()), v=3, level=400))
    out_dir = tmp_path / "out"
    assert main(["exponent", "--config", str(cfg), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "exponent failed: InvalidInputError: " in err
    assert "by generation 281, below the smallest normal float" in err
    assert not (out_dir / "exponent.json").exists()


def test_exponent_lanes_past_the_node_cap_are_a_typed_error(tmp_path, capsys, monkeypatch):
    """Monte Carlo lanes whose running rows pass the node cap are a
    ``TreeTooLargeError`` with exit code 2, and ``exponent.json`` is not
    written."""
    monkeypatch.setattr(spectral, "DEFAULT_NODE_CAP", 1000)
    cfg = write_cfg(tmp_path, dict(json.loads(TWOSYS_CFG.read_text()), level=6))
    out_dir = tmp_path / "out"
    assert main(["exponent", "--config", str(cfg), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "exponent failed: TreeTooLargeError: " in err and "past 1000 rows" in err
    assert not (out_dir / "exponent.json").exists()


LF_OUTPUTS = ("tree.jsonl", "environments.json", "necks.json", "exponent.json",
              "bracketing.json", "tree_meta.json", "exponent_meta.json",
              "bracket_meta.json")


def test_lf_outputs_hold_no_carriage_return(tmp_path):
    """``tree.jsonl`` and the JSON documents are opened with ``newline="\\n"``,
    so their line ends are LF on every platform, not ``os.linesep``."""
    cfg = write_cfg(tmp_path, small_cantor_doc())
    for sub in ("tree", "exponent", "bracket"):
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    for name in LF_OUTPUTS:
        data = (tmp_path / name).read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, name


def test_bracket_and_cutsets_outputs(tmp_path):
    assert main(["bracket", "--config", str(TWOSYS_CFG), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "bracketing.json").read_text())
    assert [r["k"] for r in doc["results"]] == [1, 2, 3]
    assert all(r["n_fail"] == 0 for r in doc["results"])
    assert main(["cutsets", "--config", str(TWOSYS_CFG), "--out", str(tmp_path)]) == 0
    table = (tmp_path / "cutsets.csv").read_text().splitlines()
    body = [l for l in table if not l.startswith("#")]
    assert body[0].startswith("k,size,harmonic_scale")
    assert len(body) == 4  # header + k in {1,2,3}


def test_decomposition_round_trips_to_identical_pencil(tmp_path):
    from vvcantor import DIRICHLET, assemble, cells_from_csv

    cfg = write_cfg(tmp_path, small_cantor_doc())
    assert main(["measure", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "cells.csv") as fp:
        dec = cells_from_csv(fp, interval=(0.0, 1.0))
    from vvcantor import Xoshiro256StarStar, build_tree, decompose, stream_seed
    from conftest import make_cantor

    tree = build_tree(make_cantor(), 1, 6, rng=Xoshiro256StarStar(stream_seed(42, 0)))
    direct = decompose(tree, 6)
    p1 = assemble(dec, DIRICHLET)
    p2 = assemble(direct, DIRICHLET)
    assert np.array_equal(p1.kd, p2.kd) and np.array_equal(p1.ko, p2.ko)
    assert np.array_equal(p1.md, p2.md) and np.array_equal(p1.mo, p2.mo)


def test_console_entry_point_runs(tmp_path):
    env_path = f"{ROOT / 'src'}"
    proc = subprocess.run(
        [sys.executable, "-m", "vvcantor.cli", "validate",
         "--config", str(LEBESGUE_CFG), "--out", str(tmp_path)],
        capture_output=True, text=True, env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["valid"] is True
