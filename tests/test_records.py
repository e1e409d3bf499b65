"""The records built per token, statement and finding: slotted, positional."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import stublint
from stublint.c_frontend import nodes, parser


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


def test_no_dataclass_is_frozen():
    records = [cls for cls in _classes() if dataclasses.is_dataclass(cls)]
    assert len(records) > 10
    for cls in records:
        assert not cls.__dataclass_params__.frozen, cls.__name__


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
