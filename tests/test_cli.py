import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    assert main(["validate", "--config", str(CANTOR_CFG), "--out", str(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True and out["violations"] == []
    assert out["extrema"]["eta"] == (1 / 3) * 0.5


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
def test_env_levels_below_depth_is_a_config_error(tmp_path, capsys, subcommand):
    cfg = write_cfg(tmp_path, small_cantor_doc(depth=6, level=4, env_levels=5))
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "env_levels" in capsys.readouterr().err
    assert not (tmp_path / "exponent.json").exists()


@pytest.mark.parametrize("subcommand", ["tree", "exponent"])
def test_env_levels_above_cap_is_a_config_error(tmp_path, capsys, subcommand):
    doc = small_cantor_doc(env_levels=DEFAULT_ENV_CAP + 1)
    with pytest.raises(ValueError, match="env_levels"):
        RunConfig.from_dict(doc)
    cfg = write_cfg(tmp_path, doc)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "env_levels" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("field, value", [
    ("v", 1.7), ("v", True), ("seed", 42.0), ("seed", "42"), ("depth", 6.9),
    ("level", 6.0), ("splits", "2"), ("k_range", [0, 3.0]), ("k_range", [False, 3]),
    ("x_grid", {"lo": 10.0, "hi": 10000.0, "count": 12.0}), ("mc_blocks", 200.0),
    ("root_type", 0.0), ("root_type", False), ("node_cap", 1e7), ("env_levels", 10.0),
    ("env_levels", "10"),
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


@pytest.mark.parametrize("key, value", [
    ("hi", math.inf), ("lo", -math.inf), ("hi", math.nan), ("lo", True), ("hi", "1e4"),
    ("hi", 10 ** 400),
], ids=["hi-inf", "lo-minus-inf", "hi-nan", "lo-true", "hi-string", "hi-huge-int"])
def test_non_finite_x_grid_is_a_config_error(tmp_path, capsys, key, value):
    """Shifts are finite JSON numbers: ``Infinity`` (which ``json`` reads),
    NaN, a boolean or a string is rejected, never counted."""
    grid = {"lo": 1.0, "hi": 10000.0, "count": 4, key: value}
    doc = small_cantor_doc(x_grid=grid)
    with pytest.raises(ValueError, match=f"^x_grid {key} must be a finite number"):
        RunConfig.from_dict(doc)
    cfg = write_cfg(tmp_path, doc)
    assert main(["count", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"x_grid {key} must be a finite number" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_null_root_type_and_env_levels_are_allowed():
    cfg = RunConfig.from_dict(small_cantor_doc(root_type=None, env_levels=None))
    assert cfg.root_type is None and cfg.env_levels is None


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
        dec = cells_from_csv(fp, level=6, interval=(0.0, 1.0))
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
