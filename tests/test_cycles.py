"""The pipeline makes no reference cycles.

`cli.main` pauses the cyclic garbage collector for the run, so anything the
pipeline leaves in a cycle (a closure that calls itself, a back-pointer)
would stay allocated until the caller collects.  This runs the pipeline
with the collector off and saving what it finds, and requires it to find
nothing.
"""

import gc
import types
from collections import Counter

from conftest import CORPUS
from stubgen import stubs

from stublint.c_frontend.parser import parse_tokens
from stublint.c_frontend.preprocess import preprocess_local
from stublint.cli import analyze_unit
from stublint.lock_analysis import load_summaries


def _sources():
    yield from stubs()
    for path in sorted(CORPUS.glob("**/*.c")):
        yield str(path), path.read_text()


def _describe(garbage) -> str:
    kinds = Counter(type(obj).__qualname__ for obj in garbage)
    functions = sorted(
        {obj.__qualname__ for obj in garbage if isinstance(obj, types.FunctionType)}
    )
    return f"cyclic garbage by type: {dict(kinds)}; functions: {functions}"


def test_pipeline_leaves_no_cyclic_garbage():
    table = load_summaries((CORPUS / "stublint-summaries.txt").read_text())
    collecting = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()  # what earlier tests left behind is not this pipeline's
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        for name, source in _sources():
            pre = preprocess_local(source, name)
            analyze_unit(parse_tokens(pre.tokens, name), table)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if collecting:
            gc.enable()
    assert not garbage, _describe(garbage)
