"""Every closed form reproduces its golden outputs bit for bit.

A change that moves a number regenerates the file with
`python scripts/golden.py --write` and records in CHANGES.md the worst
relative delta per form and why it moved.
"""
import json

import golden_forms


def test_closed_forms_match_the_golden_file():
    expected = json.loads(golden_forms.GOLDEN.read_text())
    actual = golden_forms.records()
    assert list(expected) == list(actual), "the golden file holds other forms"
    moved, _ = golden_forms.compare(expected, actual)
    assert not moved, f"{len(moved)} golden outputs moved:\n" + "\n".join(moved[:20])


def test_golden_file_stays_small():
    assert golden_forms.GOLDEN.stat().st_size <= 100_000
