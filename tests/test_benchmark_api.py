"""What the benchmark in ``perfbench/`` uses of the package: the functions its
tracer wraps, the tree stream its workload plans read ahead of the CLI, and
the command line it runs. The benchmark only changes on its own, so these
must keep working."""

import json

import pytest

from vvcantor import Xoshiro256StarStar, build_tree, stream_seed
from vvcantor.catalog import catalog_from_dict, catalog_to_dict
from vvcantor.cli import RunConfig, main
from vvcantor.spectral import TREE_STREAM


@pytest.fixture
def perfbench(monkeypatch, request):
    monkeypatch.syspath_prepend(str(request.config.rootpath / "perfbench"))
    import tracing
    import workloads
    return tracing, workloads


def test_tracer_wraps_every_span(perfbench):
    import vvcantor.cli

    tracing, _ = perfbench
    original = vvcantor.cli.build_tree
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert vvcantor.cli.build_tree is not original
    finally:
        tracer.uninstall()
    assert vvcantor.cli.build_tree is original


def test_benchmark_command_line_runs(request, tmp_path):
    """``perfbench/run.py`` passes ``--threads 1`` on every call; a CLI
    without the flag would exit 2 on each one."""
    config = request.config.rootpath / "configs" / "cantor.json"
    assert main(["count", "--config", str(config), "--out", str(tmp_path),
                 "--threads", "1"]) == 0
    assert (tmp_path / "counting.csv").exists()


@pytest.mark.parametrize("tree_seed", [0, 1, 2, 17678329206797003235])
def test_plan_sizes_match_the_cli_tree(perfbench, tree_seed):
    """The plan's generation sizes and neck levels come from the draws the
    CLI makes for ``seed = tree_seed``."""
    _, workloads = perfbench
    catalog = catalog_from_dict(workloads.TWO_SYSTEM)
    sizes, necks = workloads.generation_sizes(catalog, 2, tree_seed, 11)
    tree = build_tree(catalog, 2, 11,
                      rng=Xoshiro256StarStar(stream_seed(tree_seed, TREE_STREAM)))
    assert sizes == [g.size for g in tree.generations]
    assert necks == list(tree.neck_levels)


def test_benchmark_configs_parse_unchanged(perfbench, request):
    """The shipped configs and every config the benchmark's full-size plans
    write pass the config rules, each field read as the document gives it."""
    _, workloads = perfbench
    configs = request.config.rootpath / "configs"
    docs = [json.loads(p.read_text()) for p in sorted(configs.glob("*.json"))]
    assert len(docs) == 3
    for workload in ("spectral", "montecarlo", "export"):
        cases = workloads.PLANS[workload](1, workloads.FULL).cases
        assert cases
        docs += [case.doc for case in cases]
    for doc in docs:
        cfg = RunConfig.from_dict(doc)
        for key, value in doc.items():
            if key == "catalog":
                assert catalog_to_dict(cfg.catalog) == value
            elif key == "x_grid":
                assert cfg.x_grid == (value["lo"], value["hi"], value["count"])
            elif key == "k_range":
                assert cfg.k_range == tuple(value)
            elif key != "schema":
                assert getattr(cfg, key) == value, key
