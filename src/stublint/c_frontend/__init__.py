"""Pragmatic frontend for the C subset that stub files actually use.

Pipeline: preprocess_local, which lexes the text as read from disk once and
runs the directives and a one-level macro expansion over its tokens, each
a plain (kind, text, line, col) tuple at its line and column on disk ->
parse_tokens, whose statement lists hold only the statements that execute
-> build_cfg, which lowers each function straight into basic blocks of those
statements, from the syntax alone: the summaries reach only the solver.
`parse_unit` is the first two in one call.  Anything outside the subset
degrades to an opaque statement or an UNSUPPORTED_CONSTRUCT diagnostic
instead of a silent misparse.
"""

from .preprocess import PreprocessError, PreprocessResult, preprocess_local
from .lexer import CLexError, Token, lex
from .parser import CParseError, parse_tokens, parse_unit
from .cfg import Cfg, build_cfg
from .nodes import StubFunction, StubUnit

__all__ = [
    "PreprocessError",
    "PreprocessResult",
    "preprocess_local",
    "CLexError",
    "Token",
    "lex",
    "CParseError",
    "parse_tokens",
    "parse_unit",
    "Cfg",
    "build_cfg",
    "StubFunction",
    "StubUnit",
]
