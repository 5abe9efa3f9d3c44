"""Design rules on the package source, read from its syntax trees."""

import ast
import importlib
from pathlib import Path

import termfisher

PACKAGE = Path(termfisher.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_imports(tree: ast.Module) -> set[str]:
    """The termfisher modules a module imports, by their dotted names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name.split(".")[0] == "termfisher"}
        elif isinstance(node, ast.ImportFrom):
            base = "termfisher" if node.level else node.module or ""
            if node.level and node.module:
                base += "." + node.module
            if base.split(".")[0] != "termfisher":
                continue
            if node.module:
                found.add(base)
            else:  # from . import name: each name is a module of the package
                found |= {f"{base}.{alias.name}" for alias in node.names}
    return found


def test_every_exported_name_is_loaded_by_a_package_module():
    # an exported name that no module of the package reads is code only tests reach
    loaded = {
        node.id
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(set(termfisher.__all__) - loaded) == []


def test_numerics_imports_from_the_package_only_errors():
    assert _package_imports(_tree(PACKAGE / "numerics.py")) == {"termfisher.errors"}


def _resolve(dotted: str) -> object:
    """The object a dotted name such as termfisher.corpus.TermDocumentMatrix
    names, importing each module on the way that is not yet imported."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def test_every_name_the_benchmark_tracer_wraps_exists():
    # the tracer only reports a name it cannot find, and its spans would then read 0
    wrapped = next(
        node.value
        for node in _tree(TRACER).body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["WRAPPED"]
    )
    names = [(ast.unparse(entry.elts[0]), ast.literal_eval(entry.elts[1])) for entry in wrapped.elts]
    assert names
    assert [f"{owner}.{attr}" for owner, attr in names if not hasattr(_resolve(owner), attr)] == []


def _empty_container(value: ast.expr | None) -> bool:
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    return isinstance(value, ast.Call) and ast.unparse(value) in ("dict()", "list()", "set()")


def test_no_memo_outlives_its_call():
    # no global statement, no functools cache and no module-level empty container:
    # every memo is made by the call that fills it and dropped with it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno}: global")
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names if a.name in ("cache", "lru_cache")]
            elif isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache"):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _empty_container(node.value):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
