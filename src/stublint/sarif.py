"""SARIF 2.1.0 serialization of diagnostics.

One run, one tool, rules in the fixed vocabulary order, one result per
diagnostic.  `sarif_log` builds the log as a dict with its keys in a fixed
order.  `sarif` gives the same log as text, in pieces that a caller can
write out one after another without holding the whole document: the
skeleton (tool, rules, an empty results array) comes from
`json.dumps(..., indent=2)`, and each result is written directly in the
layout `indent=2` gives it, every string escaped by the `json` function
`ensure_ascii` uses.  So the pieces join to exactly
`json.dumps(sarif_log(diags), indent=2)` plus a newline, at a fraction of
the cost of `json`'s indenting encoder, which is pure Python; `emit_sarif`
joins them.  Identical findings serialize to identical bytes.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _str

from . import __version__
from .diagnostics import RULES

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_RULE_INDEX = {rule_id: i for i, rule_id in enumerate(RULES)}


def _location(file: str, line: int, col: int, message: str | None = None):
    loc = {
        "physicalLocation": {
            "artifactLocation": {"uri": file},
            "region": {
                "startLine": max(1, line),
                "startColumn": max(1, col),
            },
        }
    }
    if message is not None:
        loc["message"] = {"text": message}
    return loc


def sarif_log(diags) -> dict:
    rules = [
        {"id": rule_id, "shortDescription": {"text": text}}
        for rule_id, text in RULES.items()
    ]
    results = []
    for diag in diags:
        result = {
            "ruleId": diag.rule_id,
            "ruleIndex": _RULE_INDEX[diag.rule_id],
            "level": diag.severity,
            "message": {"text": diag.message},
            "locations": [_location(diag.file, diag.line, diag.column)],
        }
        if diag.related:
            result["relatedLocations"] = [
                _location(file, line, col, message)
                for file, line, col, message in diag.related
            ]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "stublint",
                        "version": __version__,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def sarif(diags) -> Iterator[str]:
    """The SARIF text of `diags`, in pieces: the skeleton up to the first
    result, each result, and the rest."""
    log = json.dumps(sarif_log([]), indent=2)
    head, _, tail = log.rpartition('"results": []')
    results = iter(diags)
    first = next(results, None)
    if first is None:
        yield log + "\n"
        return
    yield f'{head}"results": [\n{_result_text(first)}'
    for diag in results:
        yield ",\n" + _result_text(diag)
    yield f"\n      ]{tail}\n"


def emit_sarif(diags) -> str:
    """The SARIF text of `diags`, whole."""
    return "".join(sarif(diags))


def _result_text(diag) -> str:
    """One entry of the results array, as json.dumps(indent=2) lays it out."""
    text = (
        "        {\n"
        f'          "ruleId": {_str(diag.rule_id)},\n'
        f'          "ruleIndex": {_RULE_INDEX[diag.rule_id]},\n'
        f'          "level": {_str(diag.severity)},\n'
        '          "message": {\n'
        f'            "text": {_str(diag.message)}\n'
        "          },\n"
        '          "locations": [\n'
        f"{_location_text(diag.file, diag.line, diag.column)}\n"
        "          ]"
    )
    if diag.related:
        related = ",\n".join(_location_text(*loc) for loc in diag.related)
        text += f',\n          "relatedLocations": [\n{related}\n          ]'
    return text + "\n        }"


def _location_text(file: str, line: int, col: int, message: str | None = None):
    """One entry of a result's locations or relatedLocations array, as
    json.dumps(indent=2) lays out `_location`."""
    text = (
        "            {\n"
        '              "physicalLocation": {\n'
        '                "artifactLocation": {\n'
        f'                  "uri": {_str(file)}\n'
        "                },\n"
        '                "region": {\n'
        f'                  "startLine": {max(1, line)},\n'
        f'                  "startColumn": {max(1, col)}\n'
        "                }\n"
        "              }"
    )
    if message is not None:
        text += (
            ',\n              "message": {\n'
            f'                "text": {_str(message)}\n'
            "              }"
        )
    return text + "\n            }"
