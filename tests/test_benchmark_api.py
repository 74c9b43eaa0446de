"""What the benchmark in ``perfbench/`` uses of the package: the functions its
tracer wraps, and the tree stream its workload plans read ahead of the CLI.
The benchmark only changes on its own, so these must keep working."""

import pytest

from vvcantor import Xoshiro256StarStar, build_tree, stream_seed
from vvcantor.catalog import catalog_from_dict
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
