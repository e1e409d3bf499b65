"""No module under src/ or tests/ imports a name it never uses, every
top-level name in src/ is read by src/ or the benchmark, and a run in one
process loads nothing that only a forking run needs.

A package's `__init__.py` imports names to re-export them, and a
`__future__` import changes the compiler, so neither is checked for unused
imports.
"""

import ast
import os
import subprocess
import sys
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


ONE_PROCESS_RUN = """
import sys
import stublint.cli

def forking_modules():
    return [name for name in ("stublint.workers", "pickle") if name in sys.modules]

assert forking_modules() == [], forking_modules()
assert stublint.cli.main([sys.argv[1]]) == 1
assert forking_modules() == [], forking_modules()
"""


def test_a_run_in_one_process_loads_neither_the_workers_nor_pickle(tmp_path):
    """`stublint.workers`, and the `pickle` it imports, cost a run that
    forks nothing, and the benchmark's setup time, only when loaded.  A
    file of one function is never cut, so its run is in one process
    whatever the number of CPUs."""
    path = tmp_path / "one.c"
    path.write_text(
        "value bad(value a)\n{\n    CAMLparam1(a);\n    CAMLlocal1(v);\n"
        "    v = Tag_cons;\n    CAMLreturn(v);\n}\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", ONE_PROCESS_RUN, str(path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "NAKED_POINTER" in done.stdout


IMPORT_ONLY = """
import sys
sys.path.insert(0, sys.argv[1])
import stublint.cli
from stublint.lock_analysis import load_summaries

load_summaries(None)
print(" ".join(sorted(sys.modules)))
"""

# What the record classes once cost at start-up: `dataclasses` pulls in
# `inspect`, which pulls in `ast`, `dis` and `tokenize`; `typing` came with
# `NamedTuple`.
SLOW_TO_IMPORT = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


def test_start_up_loads_none_of_the_slow_standard_modules():
    """The benchmark's start-up, `import stublint.cli` and the built-in
    summaries, loads none of SLOW_TO_IMPORT.  `-S` skips the site, whose
    `.pth` files may import some of them and hide a regression."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_ONLY, str(ROOT / "src")],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "stublint.cli" in loaded
    assert loaded & SLOW_TO_IMPORT == set()
