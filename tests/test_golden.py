"""Every closed form, and afm_mass and the oracle on the verify_sweep families,
reproduces its golden outputs bit for bit, and so do the Gaussian trial bound
and the closed three-body oscillator; the general oscillator reproduces its own within
golden_forms.TOLERANCE, 64 eps relative on each field.

A change that moves a number regenerates the files with
`python scripts/golden.py --write` and records in CHANGES.md the worst
relative delta per form and why it moved.
"""
import json
import sys

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


def test_trial_bound_matches_the_golden_file():
    _assert_unmoved("trial_bound")


def test_oscillator_matches_the_golden_file():
    """ho_energies_general (omegas and energy) at N = 3, 6, 12, 24 and 33, each
    field within 64 eps relative of the file, and ho_energy_3body_closed bitwise.

    The general levels are eigenvalues of the Jacobi solver, whose matrix
    products a BLAS build may sum in another order; on one build they are
    bitwise reproducible, and LAPACK's eigvalsh, a different algorithm, stays
    within 33 eps of them at these sizes. The closed three-body form is pure
    Python and so reproduces bitwise everywhere.
    """
    _assert_unmoved("ho")


def test_a_form_tolerance_admits_only_deltas_up_to_it():
    name, eps = "ho_energies_general", sys.float_info.epsilon
    expected = {name: {"inputs": "-", "outputs": [[(1.0).hex()]]}}
    for value, moved in ((1.0 + 4.0 * eps, 0), (1.0 + 1e-12, 1)):
        actual = {name: {"inputs": "-", "outputs": [[value.hex()]]}}
        lines, worst = golden_forms.compare(expected, actual)
        assert len(lines) == moved and worst[name] == value - 1.0


def test_golden_file_stays_small():
    for slice_name in golden_forms.SLICES:
        assert golden_forms.golden(slice_name).stat().st_size <= 100_000, slice_name
