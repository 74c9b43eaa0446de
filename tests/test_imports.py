"""Every import of the package and test modules binds a name the module uses.

Package ``__init__.py`` files re-export and are skipped, as is any import
statement with a ``# noqa`` comment (names kept importable for the tracer
in ``perfbench/tracing.py``, which patches them where they are imported).
Each name on a package ``# noqa: F401`` line must be one the tracer wraps
at that module, so when the tracer goes this test lists the imports to drop.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for pattern in ("src/vvcantor/*.py", "tests/*.py")
               for p in ROOT.glob(pattern) if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` for every imported name the module never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return unused


def test_every_import_is_used():
    assert FILES
    unused = [entry for path in FILES for entry in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def tracer_spans() -> set[tuple[str, str]]:
    """The (module, attribute path) keys of ``perfbench/tracing.SPANS``, read
    from its source so the benchmark package is not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    spans = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANS"])
    return set(ast.literal_eval(spans))


def test_tracer_only_imports_are_wrapped():
    spans = tracer_spans()
    kept, unwrapped = [], []
    for path in sorted((ROOT / "src" / "vvcantor").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "# noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                for alias in node.names:
                    name = alias.asname or alias.name
                    kept.append(name)
                    if (f"vvcantor.{path.stem}", name) not in spans:
                        unwrapped.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert kept
    assert not unwrapped, "noqa imports the tracer does not wrap:\n" + "\n".join(unwrapped)
