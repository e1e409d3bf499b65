"""Findings on seeded random stubs stay byte-identical to the golden file."""

from pathlib import Path

from stubgen import REGENERATE, golden_text

GOLDEN = Path(__file__).parent / "data" / "golden_findings.txt"


def test_random_stub_findings_match_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = golden_text().splitlines()
    first = next(
        (i for i, pair in enumerate(zip(expected, actual)) if pair[0] != pair[1]),
        min(len(expected), len(actual)),
    )
    assert actual == expected, (
        f"findings differ from {GOLDEN.name} at line {first + 1}:\n"
        f"  golden: {expected[first] if first < len(expected) else '<end>'}\n"
        f"  actual: {actual[first] if first < len(actual) else '<end>'}\n"
        f"If the change of findings is intended, regenerate with: {REGENERATE}"
    )
