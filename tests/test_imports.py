"""Every import of the package and test modules binds a name the module uses,
and every name the package exports is read by code that is not a test.

Package ``__init__.py`` files re-export and are skipped, as is any import
statement with a ``# noqa`` comment (names kept importable for the tracer
in ``perfbench/tracing.py``, which patches them where they are imported).
Each name on a package ``# noqa: F401`` line must be one the tracer wraps
at that module, so when the tracer goes this test lists the imports to drop.
"""

import ast
import dataclasses
import inspect
import re
import textwrap
from functools import cached_property
from pathlib import Path

import vvcantor

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


# Exports that no package module, benchmark module or README example reads,
# each with the reason it stays.
KEPT = {
    "catalog_to_dict": "inverse of catalog_from_dict; the oracle of the benchmark "
                       "config-parse check in tests/test_benchmark_api.py",
}


def names_read(source: str) -> set[str]:
    """Names, attributes, imported names and module path parts the source
    reads, except where a top-level ``def`` or ``class`` reads its own name."""
    read = set()
    for stmt in ast.parse(source).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names] + (node.module or "").split(".")
            elif isinstance(node, ast.Import):
                names = [part for a in node.names for part in a.name.split(".")]
            else:
                continue
            read.update(name for name in names if name != own)
    return read


def sources_outside_tests() -> list[str]:
    """The package modules, ``perfbench/*.py`` and the README example."""
    sources = [p.read_text() for p in FILES if p.parent.name == "vvcantor"]
    sources += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    sources += re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                          re.M | re.S)
    return sources


def read_outside_tests() -> set[str]:
    """``names_read`` over ``sources_outside_tests``."""
    return set().union(*map(names_read, sources_outside_tests()))


def loaded_outside_tests() -> set[str]:
    """The attribute names ``sources_outside_tests`` load (``obj.name`` in
    load context; an assignment to ``obj.name`` is not a read)."""
    return {node.attr for source in sources_outside_tests()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_export_is_read_outside_tests():
    """A name in ``vvcantor.__all__`` is read by another package module or
    its own (outside its own ``def``/``class``), by ``perfbench/*.py`` or by
    the README example; otherwise it is in ``KEPT``, with its reason. So an
    export only tests read cannot come back unnoticed."""
    read = read_outside_tests()
    unread = sorted(set(vvcantor.__all__) - read - set(KEPT))
    assert not unread, "exports nothing outside the tests reads:\n" + "\n".join(unread)
    assert not set(KEPT) - set(vvcantor.__all__), "KEPT names a name not exported"
    assert not set(KEPT) & read, "KEPT names an export that is read"


# Public members of exported classes that nothing outside the tests reads by
# name, each ``"Class.member"`` with the reason it stays.
KEPT_MEMBERS = {
    "CutSet.node_index": "three tests check cut-set membership path by path through it",
}

# Public members whose name is also an attribute of another exported class,
# so a read of the name need not read them: each ``"Class.member"`` with the
# ``"module.function"`` of the package that reads an attribute of that name.
SHARED_MEMBERS = {
    "ClosedForm.f": "spectral.solve_gamma",
    "MonteCarloNeckEvaluator.f": "spectral.solve_gamma",
    "MonteCarloNeckEvaluator.blocks": "spectral.solve_gamma",
    "WeightedIFS.size": "catalog.map_table",
}


def attributes(cls) -> set[str]:
    """The public fields, methods and properties a class defines itself."""
    return {name for name in (*vars(cls), *vars(cls).get("__annotations__", {}))
            if not name.startswith("_")}


def data_attributes(cls) -> set[str]:
    """The public fields of a dataclass, or the public attributes the
    class's own ``__init__`` assigns on ``self``."""
    if dataclasses.is_dataclass(cls):
        names = {field.name for field in dataclasses.fields(cls)}
    elif inspect.isfunction(init := vars(cls).get("__init__")):
        tree = ast.parse(textwrap.dedent(inspect.getsource(init)))
        names = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                 and isinstance(node.value, ast.Name) and node.value.id == "self"}
    else:
        names = set()
    return {name for name in names if not name.startswith("_")}


def output_schemas() -> set[str]:
    """The dataclasses ``cli``'s docstring names as output schemas: ``asdict``
    and ``astuple`` read their fields, not attribute loads."""
    from vvcantor import cli

    named = set(re.findall(r"``(\w+)``", cli.__doc__))
    return {name for name in named
            if dataclasses.is_dataclass(getattr(vvcantor, name, None))}


def site_reads(site: str, name: str) -> bool:
    """Whether the top-level function ``"module.function"`` of the package
    reads an attribute ``name``. The read is matched by name: on which
    class the function reads it is not checked."""
    module, function = site.split(".")
    tree = ast.parse((ROOT / "src" / "vvcantor" / f"{module}.py").read_text())
    body = next((node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == function), None)
    return body is not None and any(isinstance(node, ast.Attribute) and node.attr == name
                                    for node in ast.walk(body))


def test_every_member_is_read_outside_tests():
    """A public method, property or ``cached_property`` of a class in
    ``vvcantor.__all__`` is read by name where an export must be read
    (``read_outside_tests``), and a public dataclass field or attribute its
    ``__init__`` sets is loaded there (``loaded_outside_tests``), except
    the fields of the output schemas; otherwise it is in ``KEPT_MEMBERS``.
    So a second accessor, or a field or error payload only tests read,
    cannot come back unnoticed. Reads are matched by name,
    so a member counts as read when any attribute of that name is; a member
    whose name another exported class also defines is in ``SHARED_MEMBERS``
    with a function that reads an attribute of its name, so a new shared
    name is noticed; that the function reads it on this class is not checked."""
    read, loaded = read_outside_tests(), loaded_outside_tests()
    accessors = (property, cached_property, classmethod, staticmethod)
    classes = [cls for cls in (getattr(vvcantor, n) for n in vvcantor.__all__)
               if inspect.isclass(cls)]
    members = {f"{cls.__name__}.{name}": (cls, name)
               for cls in classes
               for name, member in vars(cls).items()
               if not name.startswith("_")
               and (inspect.isfunction(member) or isinstance(member, accessors))}
    schemas = output_schemas()
    assert members and {"CutsetStatsRow", "ExponentReport", "Environment"} <= schemas
    data = {f"{cls.__name__}.{name}": (cls, name)
            for cls in classes if cls.__name__ not in schemas
            for name in data_attributes(cls)}
    is_read = {m: name in read for m, (_, name) in members.items()}
    is_read.update({m: name in loaded for m, (_, name) in data.items()})
    unread = sorted(m for m, ok in is_read.items() if not ok and m not in KEPT_MEMBERS)
    assert not unread, "members nothing outside the tests reads:\n" + "\n".join(unread)
    assert not set(KEPT_MEMBERS) - set(is_read), "KEPT_MEMBERS names no exported member"
    assert not {m for m in KEPT_MEMBERS if is_read[m]}, "KEPT_MEMBERS names a read member"

    shared = {m for m, (cls, name) in members.items()
              if any(name in attributes(other) for other in classes if other is not cls)}
    unlisted = sorted(shared - set(SHARED_MEMBERS))
    assert not unlisted, "members sharing a name with another class:\n" + "\n".join(unlisted)
    assert not set(SHARED_MEMBERS) - shared, "SHARED_MEMBERS names an unshared member"
    unsited = sorted(m for m, site in SHARED_MEMBERS.items()
                     if not site_reads(site, members[m][1]))
    assert not unsited, "SHARED_MEMBERS sites that do not read the member:\n" + "\n".join(unsited)
