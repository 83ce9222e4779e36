"""Every closed form, and afm_mass and the oracle on the verify_sweep families,
reproduces its golden outputs bit for bit.

A change that moves a number regenerates the files with
`python scripts/golden.py --write` and records in CHANGES.md the worst
relative delta per form and why it moved.
"""
import json

import golden_forms


def _assert_unmoved(slice_name):
    expected = json.loads(golden_forms.golden(slice_name).read_text())
    actual = golden_forms.records(slice_name)
    assert list(expected) == list(actual), "the golden file holds other forms"
    moved, _ = golden_forms.compare(expected, actual)
    assert not moved, f"{len(moved)} golden outputs moved:\n" + "\n".join(moved[:20])


def test_closed_forms_match_the_golden_file():
    _assert_unmoved("closed_forms")


def test_afm_mass_matches_the_golden_file():
    _assert_unmoved("afm_mass")


def test_oracle_matches_the_golden_file():
    _assert_unmoved("oracle")


def test_golden_file_stays_small():
    for slice_name in golden_forms.SLICES:
        assert golden_forms.golden(slice_name).stat().st_size <= 100_000, slice_name
