"""The records built per token, statement and finding: slotted, positional."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import stublint
from stublint import lock_analysis
from stublint.c_frontend import nodes, parser, preprocess


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _classes():
    for info in pkgutil.walk_packages(stublint.__path__, "stublint."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_positioned_nodes_are_slotted_and_take_line_col_first():
    subs = list(_subclasses(nodes._At))
    assert nodes.StubFunction in subs and nodes.Name in subs
    for cls in subs:
        assert "__slots__" in vars(cls), cls.__name__
        params = list(inspect.signature(cls.__init__).parameters.values())[1:3]
        assert [p.name for p in params] == ["line", "col"], cls.__name__
        for p in params:
            assert p.kind is p.POSITIONAL_OR_KEYWORD, cls.__name__
            assert p.default is p.empty, cls.__name__


def test_every_record_is_slotted_and_pays_for_no_setattr():
    """A record is a class with fields, declared as annotations on it or a
    base.  Each one declares `__slots__`, and none defines the
    `__setattr__` a frozen record would pay for on every construction."""
    records = [
        cls
        for cls in _classes()
        if any("__annotations__" in vars(base) for base in cls.__mro__)
    ]
    assert len(records) >= 38
    assert {nodes.Name, nodes.StubUnit, preprocess.MacroDef} <= set(records)
    assert {preprocess.PreprocessResult, lock_analysis.SummaryTable} <= set(records)
    for cls in records:
        assert "__slots__" in vars(cls), cls.__name__
        assert all(
            "__setattr__" not in vars(base) for base in cls.__mro__[:-1]
        ), cls.__name__


def test_parser_passes_positions_by_position():
    tree = ast.parse(Path(parser.__file__).read_text(encoding="utf-8"))
    built = 0
    for call in ast.walk(tree):
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "nodes"
        ):
            built += 1
            keywords = {k.arg for k in call.keywords}
            assert not keywords & {"line", "col"}, ast.unparse(call)
    assert built > 30
