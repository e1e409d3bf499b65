"""No module under src/ or tests/ imports a name it never uses, and every
top-level name in src/ is read by src/ or the benchmark.

A package's `__init__.py` imports names to re-export them, and a
`__future__` import changes the compiler, so neither is checked for unused
imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in imported.items()
        if name not in used
    ]


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        found
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for found in unused_imports(path)
    ]
    assert unused == []


# Read only by the lattice tests, which check the lock order and height.
READ_BY_TESTS = {"lock_leq", "LOCK_LATTICE_HEIGHT"}


def top_level_names(tree) -> list:
    """(name, first line, last line) of each top-level def, class and
    constant."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno, node.end_lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        found.append((name.id, node.lineno, node.end_lineno))
    return found


def loads(tree) -> list:
    """(name, line) of each name read: a variable, an attribute, or an
    imported name that is read under another name."""
    found = []
    renamed = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.asname:
                    renamed[alias.asname] = alias.name
    found += [(renamed[name], line) for name, line in found if name in renamed]
    return found


def test_every_top_level_name_in_src_is_read():
    """A def or constant that nothing in src/ or the benchmark reads, other
    than its own body, is dead code."""
    src = sorted((ROOT / "src").rglob("*.py"))
    bench = [
        path
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in src + bench}
    read = {}
    for path, tree in trees.items():
        for name, line in loads(tree):
            read.setdefault(name, []).append((path, line))
    unread = [
        f"{path.relative_to(ROOT)}:{first}: {name}"
        for path in src
        for name, first, last in top_level_names(trees[path])
        if name not in READ_BY_TESTS
        and name != "__all__"
        and all(
            where == path and first <= line <= last
            for where, line in read.get(name, ())
        )
    ]
    assert unread == []
