"""SARIF 2.1.0 serialization against the vendored structural schema."""

import json

import jsonschema
from hypothesis import example, given, strategies as st

from stublint.diagnostics import RULES, Diagnostic
from stublint.sarif import emit_sarif, sarif_log

SAMPLE = [
    Diagnostic(
        "ARITY_MISMATCH",
        "error",
        "stubs.c",
        4,
        16,
        "'stub_f' takes 4 parameters but external 'f' has arity 3",
        related=(("bind.ml", 2, 1, "the external declaration"),),
    ),
    Diagnostic("MISSING_CAMLPARAM", "warning", "stubs.c", 9, 1, "no CAMLparam"),
    Diagnostic("NOTE", "note", "bind.ml", 1, 1, "no definition of 'g'"),
]


def test_log_validates_against_schema(sarif_subset_schema):
    jsonschema.validate(sarif_log(SAMPLE), sarif_subset_schema)


def test_empty_log_validates_too(sarif_subset_schema):
    log = sarif_log([])
    jsonschema.validate(log, sarif_subset_schema)
    assert log["runs"][0]["results"] == []


def test_rules_array_is_the_full_vocabulary_in_order():
    log = sarif_log([])
    ids = [r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]]
    assert ids == list(RULES)


def test_rule_index_points_into_rules_array():
    log = sarif_log(SAMPLE)
    run = log["runs"][0]
    ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    for result in run["results"]:
        assert ids[result["ruleIndex"]] == result["ruleId"]


def test_results_map_one_to_one_in_order():
    results = sarif_log(SAMPLE)["runs"][0]["results"]
    assert [r["level"] for r in results] == ["error", "warning", "note"]
    first = results[0]
    loc = first["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "stubs.c"
    assert loc["region"] == {"startLine": 4, "startColumn": 16}
    related = first["relatedLocations"][0]
    assert related["message"]["text"] == "the external declaration"
    assert related["physicalLocation"]["artifactLocation"]["uri"] == "bind.ml"


def test_no_related_key_when_there_is_nothing_related():
    results = sarif_log(SAMPLE)["runs"][0]["results"]
    assert "relatedLocations" not in results[1]


def test_emission_is_byte_deterministic():
    assert emit_sarif(SAMPLE) == emit_sarif(SAMPLE)
    parsed = json.loads(emit_sarif(SAMPLE))
    assert parsed["version"] == "2.1.0"


def test_no_wall_clock_anywhere():
    def keys(node):
        if isinstance(node, dict):
            for k, v in node.items():
                yield k
                yield from keys(v)
        elif isinstance(node, list):
            for item in node:
                yield from keys(item)

    for key in keys(json.loads(emit_sarif(SAMPLE))):
        assert "time" not in key.lower()
        assert "date" not in key.lower()


# Text with quotes, backslashes, control characters, line ends, non-ASCII
# and a lone surrogate (a file name decoded with surrogateescape).
SPECIAL = '"\\\n\r\t\x00\x1f\x7f\u2028é😀\udc80'
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(SPECIAL)))
POSITION = st.integers(min_value=-2, max_value=10**6)
DIAGNOSTIC = st.builds(
    Diagnostic,
    rule_id=st.sampled_from(list(RULES)),
    severity=st.sampled_from(["error", "warning", "note"]),
    file=TEXT,
    line=POSITION,
    column=POSITION,
    message=TEXT,
    related=st.lists(
        st.tuples(TEXT, POSITION, POSITION, st.none() | TEXT), max_size=3
    ).map(tuple),
)


@given(st.lists(DIAGNOSTIC, max_size=4))
@example([])
@example(SAMPLE)
def test_emit_sarif_writes_the_bytes_json_dumps_would(diags):
    assert emit_sarif(diags) == json.dumps(sarif_log(diags), indent=2) + "\n"
