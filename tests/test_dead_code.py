"""Library code that only tests reach does not belong in `src/`: every
top-level function, class and name bound by assignment in the package,
and every method and property of its classes, must be named by package
code outside its own definition or by the benchmark, which is only read
here. Every name a module of `src/` or `tests/` imports must be used by
that module, or, in `src/`, be read by the benchmark."""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _code_names(node: ast.AST) -> set[str]:
    """Names and attributes that node's code refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _bench_names() -> set[str]:
    """What bench/ refers to in code, imports and string constants;
    a string like "_Search.run" names each of its dotted parts, because
    the tracer resolves its targets from strings."""
    out = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        out |= _code_names(tree)
        for sub in ast.walk(tree):
            if isinstance(sub, ast.alias):
                out.add(sub.name.split(".")[-1])
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.update(sub.value.split("."))
    return out


def test_every_library_definition_is_named_outside_itself():
    # (module, index of the top-level statement, names its code uses)
    statements = []
    definitions = []
    for path in sorted((ROOT / "src" / "dpoterm").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for i, stmt in enumerate(tree.body):
            statements.append((path.name, i, _code_names(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.name, i, stmt.name))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                definitions += [
                    (path.name, i, t.id) for t in targets if isinstance(t, ast.Name)
                ]
    bench = _bench_names()
    unused = [
        f"{module}: {name}"
        for module, i, name in definitions
        if name not in bench
        and not any(
            name in names for m, j, names in statements if (m, j) != (module, i)
        )
    ]
    assert unused == [], "named by nothing in src/ outside itself nor in bench/"


def _attribute_uses(node: ast.AST):
    """Each attribute that node's code reads or writes, once per use."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_method_is_named_outside_itself():
    # a method, property or static method counts as used when some
    # attribute access of its name lies outside its own body (a bare
    # name is a local or global, never a member); dunders are called by
    # Python
    uses: Counter = Counter()
    methods = []
    for path in sorted((ROOT / "src" / "dpoterm").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        uses.update(_attribute_uses(tree))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    stmt.name.startswith("__") and stmt.name.endswith("__")
                ):
                    methods.append((path.name, cls.name, stmt))
    bench = _bench_names()
    unused = [
        f"{module}: {cls}.{stmt.name}"
        for module, cls, stmt in methods
        if stmt.name not in bench
        and uses[stmt.name] == Counter(_attribute_uses(stmt))[stmt.name]
    ]
    assert unused == [], "named by nothing in src/ outside itself nor in bench/"


def _unused_imports(tree: ast.Module):
    """Each name an import statement of tree binds that none of its
    code reads."""
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    yield bound


def test_every_imported_name_is_used():
    # a name the package imports only for the benchmark to read from it,
    # like certificate.check_certificate, counts as used
    bench = _bench_names()
    unused = []
    for path in sorted((ROOT / "src" / "dpoterm").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        unused += [f"{path.name}: {n}" for n in _unused_imports(tree) if n not in bench]
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        unused += [f"tests/{path.name}: {n}" for n in _unused_imports(tree)]
    assert unused == [], "imported but never used"
