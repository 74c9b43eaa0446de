"""Every import of the package and test modules binds a name the module uses.

Package ``__init__.py`` files re-export and are skipped, as is any import
statement with a ``# noqa`` comment (names kept importable for the tracer
in ``perfbench/tracing.py``, which patches them where they are imported).
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
