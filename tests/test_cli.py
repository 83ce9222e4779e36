import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from auxfield.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    parse_system,
)
from auxfield.engine import afm_mass
from auxfield.ho import build_quadratic_form, ho_energy_3body_closed
from auxfield.model import BoundCharacter, Kinematics


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def write_spec(tmp_path, payload, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _power(coefficient, exponent):
    return {"type": "power", "coefficient": coefficient, "exponent": exponent}


def _gaussian(depth, range_):
    return {"type": "gaussian", "depth": depth, "range": range_}


LINEAR_SPEC = {
    "N": 3,
    "mass": 1.0,
    "kinematics": "semirelativistic",
    "one_body": [],
    "pairwise": [{"type": "power", "coefficient": 0.2, "exponent": 1.0}],
    "modes": [[0, 0], [0, 0]],
}

HO_SPEC = {
    "N": 3,
    "mass": 1.0,
    "kinematics": "nonrelativistic",
    "pairwise": [{"type": "power", "coefficient": 1.0, "exponent": 2.0}],
    "modes": [[0, 0], [0, 0]],
}

GAUSS_SPEC = {
    "N": 3,
    "mass": 1.0,
    "kinematics": "nonrelativistic",
    "pairwise": [{"type": "gaussian", "depth": 2.0, "range": 0.5}],
    "modes": [[0, 0], [0, 0]],
}

# A steep pairwise power whose mass, 2.14e196, lies past the float range of
# r^33.69 and of the oracle's field offsets at the stationary point.
OVERFLOW_SPEC = {
    "N": 6,
    "mass": 4.53e-201,
    "kinematics": "nonrelativistic",
    "one_body": [{"type": "power", "coefficient": -2.2e-311, "exponent": 36.97}],
    "pairwise": [{"type": "power", "coefficient": 33.69, "exponent": 33.69}],
    "modes": [[112, 179], [1908, 293], [136, 1578], [1908, 293], [200, 104]],
}


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_system_round_trip():
    spec, q = parse_system(LINEAR_SPEC)
    assert spec.n == 3
    assert spec.kinematics is Kinematics.SEMIRELATIVISTIC
    assert q.q == 3.0


# ---------------------------------------------------------------------------
# commands


def test_solve_json_output(tmp_path):
    path = write_spec(tmp_path, LINEAR_SPEC)
    code, text = run_cli(["solve", "--spec", path, "--format", "json"])
    assert code == EXIT_OK
    data = json.loads(text)
    spec, q = parse_system(LINEAR_SPEC)
    assert data["mass"] == pytest.approx(afm_mass(spec, q).mass, rel=1e-12)
    assert set(data) == {"mass", "X0", "mu0", "r0_one", "r0_pair", "bound"}
    assert data["bound"] == "upper"


def test_solve_tsv_and_json_agree_to_15_digits(tmp_path):
    path = write_spec(tmp_path, LINEAR_SPEC)
    _, tsv = run_cli(["solve", "--spec", path, "--format", "tsv"])
    _, js = run_cli(["solve", "--spec", path, "--format", "json"])
    data = json.loads(js)
    parsed = dict(line.split("\t") for line in tsv.strip().splitlines())
    for key, value in data.items():
        if isinstance(value, float):
            assert f"{float(parsed[key]):.15g}" == f"{value:.15g}"
        else:
            assert parsed[key] == value


def test_ho_command_value(tmp_path):
    path = write_spec(tmp_path, HO_SPEC)
    code, text = run_cli(["ho", "--spec", path, "--format", "json"])
    assert code == EXIT_OK
    data = json.loads(text)
    assert data["energy"] == pytest.approx(3.0 * math.sqrt(6.0), rel=1e-12)
    assert data["energy"] == pytest.approx(7.348469, abs=5e-7)


def test_ho_per_particle_masses_match_three_body_closed_form(tmp_path):
    spec = dict(HO_SPEC, masses=[1.0, 2.0, 3.5], one_body=[_power(0.4, 2.0)])
    del spec["mass"]
    path = write_spec(tmp_path, spec)
    code, text = run_cli(["ho", "--spec", path, "--format", "json"])
    assert code == EXIT_OK
    closed = ho_energy_3body_closed(
        [1.0, 2.0, 3.5], [0.4] * 3, [1.0] * 3, (0, 0), (0, 0)
    )
    assert json.loads(text)["energy"] == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("n", [40, 64])
def test_ho_takes_more_than_33_particles(tmp_path, n):
    rng = np.random.default_rng(n)
    masses = rng.uniform(0.1, 10.0, size=n)
    spec = dict(
        HO_SPEC,
        N=n,
        masses=masses.tolist(),
        one_body=[_power(0.4, 2.0)],
        modes=[[0, 1]] + [[0, 0]] * (n - 2),
    )
    del spec["mass"]
    path = write_spec(tmp_path, spec)
    code, text = run_cli(["ho", "--spec", path, "--format", "json"])
    assert code == EXIT_OK
    kbar = np.ones((n, n)) - np.eye(n)
    evals = np.linalg.eigvalsh(build_quadratic_form(masses, [0.4] * n, kbar))
    omegas = np.sqrt(2.0 * evals / masses[0])
    data = json.loads(text)
    assert np.max(np.abs(np.array(data["omegas"]) - omegas)) <= 1e-12 * omegas[-1]
    expected = 1.5 * omegas.sum() + omegas[0]
    assert data["energy"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "change,code,error",
    [
        # the second spring was dropped: 4.2426 is the level of spring 1 alone
        (
            {"pairwise": [], "one_body": [_power(1.0, 2.0), _power(5.0, 2.0)]},
            EXIT_VALIDATION,
            "UnsupportedCombination",
        ),
        ({"pairwise": []}, EXIT_VALIDATION, "NoRestoringForce"),
        (
            {"mass": 2.2e-309, "pairwise": [], "one_body": [_power(2.0, 2.0)]},
            EXIT_NUMERICAL,
            "NumericalError",
        ),
        # the pair spring times the kinematic factor 2 overflows the form
        (
            {"N": 2, "mass": 3.0, "pairwise": [_power(1.7e308, 2.0)], "modes": [[0, 0]]},
            EXIT_NUMERICAL,
            "NumericalError",
        ),
    ],
    ids=["two-springs-one-scope", "no-terms", "subnormal-mass", "form-past-float-range"],
)
def test_ho_rejects_what_it_would_answer_wrong(tmp_path, change, code, error):
    path = write_spec(tmp_path, dict(HO_SPEC, **change))
    exit_code, text = run_cli(["ho", "--spec", path, "--format", "json"])
    assert exit_code == code
    assert json.loads(text)["error"]["type"] == error


def test_ho_per_particle_masses_bound_where_k_plus_n_kbar_is_zero(tmp_path):
    # masses 1 and 3 put the pair at rho_1 = 3r/4, rho_2 = -r/4 from the
    # centre of mass, so the springs give (9/16 + 1/16) r^2 - r^2 / 2 = r^2 / 8:
    # a bound mode, though k + N kbar = 0 (which used to exit 2)
    spec = dict(
        HO_SPEC, N=2, masses=[1.0, 3.0], one_body=[_power(1.0, 2.0)],
        pairwise=[_power(-0.5, 2.0)], modes=[[0, 0]],
    )
    del spec["mass"]
    path = write_spec(tmp_path, spec)
    code, text = run_cli(["ho", "--spec", path, "--format", "json"])
    assert code == EXIT_OK
    omega = math.sqrt(2.0 * (1.0 / 8.0) / 0.75)  # reduced mass 3/4
    assert json.loads(text)["energy"] == pytest.approx(1.5 * omega, rel=1e-12)


def test_ho_semirelativistic_goes_through_oscillator_mass(tmp_path):
    spec = dict(HO_SPEC, kinematics="semirelativistic")
    path = write_spec(tmp_path, spec)
    code, text = run_cli(["ho", "--spec", path, "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(text)["bound"] == "upper"


def test_baryon_table_reference_row():
    code, text = run_cli(["baryon-table", "--lambda", "0.2", "--alphas", "0.4"])
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0].split("\t") == ["B", "L", "M0", "M1", "M2"]
    assert lines[1].split("\t") == ["0", "0", "2.468", "2.168", "2.168"]
    assert len(lines) == 17


def test_baryon_table_json_full_precision():
    code, text = run_cli(
        ["baryon-table", "--lambda", "0.2", "--alphas", "0.4", "--format", "json"]
    )
    rows = json.loads(text)
    assert len(rows) == 16
    assert rows[0]["M0"] == pytest.approx(2.468, abs=5e-4)
    assert abs(rows[0]["M0"] - round(rows[0]["M0"], 3)) > 0  # not pre-rounded


def test_baryon_table_variant_selection():
    code, text = run_cli(
        ["baryon-table", "--lambda", "0.2", "--alphas", "0.4", "--variant", "m2"]
    )
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0].split("\t") == ["B", "L", "M2"]
    assert lines[3].split("\t") == ["2", "0", "2.811"]


def test_gaussian_command(tmp_path):
    path = write_spec(tmp_path, GAUSS_SPEC)
    code, text = run_cli(["gaussian", "--spec", path, "--format", "json"])
    assert code == EXIT_OK
    data = json.loads(text)
    assert data["g"] == pytest.approx(8.0)
    assert data["g_critical"] == pytest.approx(9.0 * math.e / 6.0, rel=1e-12)
    assert "mass" not in data
    code, text = run_cli(
        ["gaussian", "--spec", path, "--add-rest-mass", "--format", "json"]
    )
    data = json.loads(text)
    assert data["mass"] == pytest.approx(data["energy"] + 3.0, rel=1e-12)


def test_duality_check_passes():
    code, text = run_cli(["duality-check", "--n", "3", "--format", "json"])
    assert code == EXIT_OK
    rows = json.loads(text)
    assert len(rows) == 3
    assert all(row["verdict"] == "match" for row in rows)


def test_duality_check_default_tsv_lists_every_identity():
    code, text = run_cli(["duality-check"])
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[0].split("\t") == [
        "check", "n", "closed_form", "oracle_value", "relative_gap", "verdict", "tolerance"
    ]
    rows = [line.split("\t") for line in lines[1:]]
    assert [(row[0], row[1]) for row in rows] == [
        (name, n)
        for n in ("2", "3", "4", "6")
        for name in ("gaussian-dual", "linear-dual", "funnel-dual")
    ]
    assert all(row[5] == "match" and float(row[4]) <= 1e-12 for row in rows)


@pytest.mark.parametrize("n", ["1", "0"])
def test_duality_check_rejects_fewer_than_two_bodies(n):
    code, text = run_cli(["duality-check", "--n", n, "--format", "json"])
    assert code == EXIT_VALIDATION
    assert json.loads(text)["error"]["type"] == "ValidationError"


def test_verify_matches_oracle(tmp_path):
    path = write_spec(tmp_path, LINEAR_SPEC)
    code, text = run_cli(["verify", "--spec", path, "--format", "json"])
    assert code == EXIT_OK
    data = json.loads(text)
    assert data["verdict"] == "match"
    assert data["relative_gap"] <= 1e-8


def test_verify_massive_spec_whose_root_lies_below_the_grid(tmp_path):
    # a repulsive one-body term with massive kinematics: the one root,
    # X0 = 8.2e-26, lies below the log grid, which ended in NoPositiveRoot
    payload = {
        "N": 2,
        "mass": 4.508873961551444,
        "kinematics": "semirelativistic",
        "one_body": [_power(-1.6611889449875474, -0.539082270107401)],
        "pairwise": [_power(1.1675940407044259, -0.4889100041740698)],
        "modes": [[3, 0]],
    }
    code, text = run_cli(["verify", "--spec", write_spec(tmp_path, payload), "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(text)["verdict"] == "match"


def test_verify_overflow_document_exits_cleanly(tmp_path):
    # the oracle's offsets and kinetic term leave the float range on the
    # way to this stationary point; they must read as barriers, not raise
    path = write_spec(tmp_path, OVERFLOW_SPEC)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-m", "auxfield.cli", "verify", "--spec", path]
    result = subprocess.run(
        argv + ["--format", "json"], env=env, capture_output=True, text=True, timeout=60
    )
    assert "Traceback" not in result.stderr
    assert result.returncode == EXIT_OK
    data = json.loads(result.stdout)
    assert data["verdict"] == "match"
    assert data["closed_form"] == pytest.approx(2.143002805165599e196, rel=1e-12)


def test_solve_keeps_mu0_finite_where_mass_squared_overflows(tmp_path):
    spec = dict(GAUSS_SPEC, mass=1.53e249, pairwise=[_gaussian(2.04e16, 2.0)])
    path = write_spec(tmp_path, spec)
    code, text = run_cli(["solve", "--spec", path, "--format", "json"])
    assert code == EXIT_OK
    data = json.loads(text)
    assert data["mu0"] == pytest.approx(1.53e249, rel=1e-12)


# ---------------------------------------------------------------------------
# exit codes and error objects


@pytest.mark.parametrize(
    "change,error",
    [
        (
            {"pairwise": [{"type": "power", "coefficient": 1.0, "exponent": -1.5}]},
            "InvalidExponent",
        ),
        ({"N": 3.7}, "ValidationError"),
        ({"modes": [[0.9, 0], [0, 0]]}, "ValidationError"),
        ({"pairwise": [5]}, "ValidationError"),
        ({"mass": float("nan")}, "SingularMasses"),
        ({"modes": [[0]]}, "ValidationError"),
        ({"modes": [[0, 0, 7], [0, 0]]}, "ValidationError"),
    ],
    ids=[
        "exponent",
        "fractional-N",
        "fractional-mode",
        "non-object-term",
        "nan-mass",
        "short-mode",
        "long-mode",
    ],
)
def test_invalid_exponent_exits_2(tmp_path, change, error):
    path = write_spec(tmp_path, dict(LINEAR_SPEC, **change))
    code, text = run_cli(["solve", "--spec", path, "--format", "json"])
    assert code == EXIT_VALIDATION
    assert json.loads(text)["error"]["type"] == error


@pytest.mark.parametrize(
    "change,message",
    [
        # without the check, the misspelt one-body term is dropped and solve
        # prints the pairwise-only mass of another Hamiltonian
        ({"one_bdy": [_power(0.3, 1.0)]}, "unknown keys ['one_bdy'] in the system spec"),
        ({"comment": "linear"}, "unknown keys ['comment'] in the system spec"),
        ({"pairwise": [dict(_power(0.2, 1.0), scale=2.0)]}, "unknown keys ['scale'] in a power term"),
        ({"pairwise": [dict(_gaussian(1.0, 1.0), exponent=2.0)]},
         "unknown keys ['exponent'] in a gaussian term"),
        ({"mass": True}, "expected a number, got True"),
        ({"pairwise": [_power(True, 1.0)]}, "expected a number, got True"),
        ({"modes": [[True, 0], [0, 0]]}, "expected a number, got True"),
        ({"mass": "1.0"}, "expected a number, got '1.0'"),
        ({"N": "3"}, "expected a number, got '3'"),
        ({"masses": [1.0, 1.0, 1.0]}, "give either mass or masses, not both"),
        ({"pairwise": {"type": "power"}}, "pairwise must be an array"),
    ],
    ids=[
        "misspelt-key",
        "unknown-key",
        "unknown-power-key",
        "unknown-gaussian-key",
        "boolean-mass",
        "boolean-coefficient",
        "boolean-mode",
        "string-mass",
        "string-N",
        "mass-and-masses",
        "object-for-array",
    ],
)
def test_spec_read_silently_wrong_exits_2(tmp_path, change, message):
    path = write_spec(tmp_path, dict(LINEAR_SPEC, **change))
    code, text = run_cli(["solve", "--spec", path, "--format", "json"])
    assert code == EXIT_VALIDATION
    error = json.loads(text)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].startswith(message)


def _steep_nr_spec(coefficient):
    return dict(
        LINEAR_SPEC,
        mass=1e-12,
        kinematics="nonrelativistic",
        pairwise=[_power(coefficient, -1.9)],
    )


@pytest.mark.parametrize("coefficient", [2e27], ids=["mass-overflows"])
def test_solve_mass_past_the_float_range_exits_3(tmp_path, coefficient):
    # X0 = 3.4e302 is a float; the mass, -2.7e313, is not
    path = write_spec(tmp_path, _steep_nr_spec(coefficient))
    code, text = run_cli(["solve", "--spec", path, "--format", "json"])
    assert code == EXIT_NUMERICAL
    assert json.loads(text)["error"]["type"] == "NumericalError"


def test_solve_mass_whose_parts_overflow(tmp_path):
    # X0 = 3.2e296; the kinetic and potential parts of the mass, 4.8e308 and
    # -5.1e308, are not floats, but their sum is
    path = write_spec(tmp_path, _steep_nr_spec(1e27))
    code, text = run_cli(["solve", "--spec", path, "--format", "json"])
    assert code == 0
    assert json.loads(text)["mass"] == pytest.approx(-2.5533234713086065e307, rel=1e-13)


def test_steep_pairwise_power_solves(tmp_path):
    steep = dict(
        LINEAR_SPEC,
        pairwise=[{"type": "power", "coefficient": 0.2, "exponent": 300.0}],
    )
    path = write_spec(tmp_path, steep)
    code, text = run_cli(["solve", "--spec", path, "--format", "json"])
    assert code == EXIT_OK
    assert math.isfinite(json.loads(text)["mass"])


@pytest.mark.parametrize(
    "change",
    [
        {
            "N": 2,
            "mass": 0.0,
            "pairwise": [{"type": "power", "coefficient": 1e-133, "exponent": 1e-24}],
            "modes": [[859, 0]],
        },
        {
            "N": 8,
            "mass": 690.0,
            "pairwise": [{"type": "power", "coefficient": 1e-260, "exponent": 1e-48}],
            "modes": [[500, 1000]] * 7,
        },
        {
            "mass": 1e200,
            "pairwise": [{"type": "power", "coefficient": 0.0, "exponent": 1.0}],
        },
    ],
    ids=["grid-underflow", "grid-overflow", "no-finite-scale"],
)
def test_root_scan_beyond_float_range_exits_cleanly(tmp_path, change):
    # the log-grid of X0 would reach 0, overflow its span, or have no scale
    path = write_spec(tmp_path, dict(LINEAR_SPEC, **change))
    code, _ = run_cli(["solve", "--spec", path, "--format", "json"])
    assert code in (EXIT_OK, EXIT_NUMERICAL)


@pytest.mark.parametrize("command", ["verify"])
@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
def test_unusable_tolerance_exits_2(tmp_path, command, tolerance):
    # the oracle comparison gap of verify; solve has no tolerance to set
    path = write_spec(tmp_path, LINEAR_SPEC)
    argv = [command, "--spec", path, "--format", "json", "--tolerance", tolerance]
    code, text = run_cli(argv)
    assert code == EXIT_VALIDATION
    assert json.loads(text)["error"]["type"] == "ValidationError"


def test_solve_has_no_tolerance_option(tmp_path):
    # solve polishes every root to one precision: argparse rejects the option
    path = write_spec(tmp_path, LINEAR_SPEC)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-m", "auxfield.cli", "solve", "--spec", path]
    result = subprocess.run(
        argv + ["--tolerance", "1e-8"], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == EXIT_VALIDATION
    assert result.stderr.startswith("usage: auxfield ")
    assert "unrecognized arguments: --tolerance 1e-8" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_missing_file_exits_2(tmp_path):
    code, _ = run_cli(["solve", "--spec", str(tmp_path / "nope.json")])
    assert code == EXIT_VALIDATION


def test_numerical_failure_exits_3(tmp_path):
    collapse = dict(
        LINEAR_SPEC,
        one_body=[{"type": "power", "coefficient": 3.0, "exponent": -1.0}],
        pairwise=[],
    )
    path = write_spec(tmp_path, collapse)
    code, text = run_cli(["solve", "--spec", path, "--format", "json"])
    assert code == EXIT_NUMERICAL
    assert json.loads(text)["error"]["type"] == "NoPositiveRoot"


@pytest.mark.parametrize(
    "payload",
    [
        {"N": 3, "mass": 2.223, "one_body": [_power(0.2111, -1.0)],
         "pairwise": [_power(-0.3962, 0.5)]},
        {"N": 2, "mass": 2.094, "one_body": [_power(0.3319, 1.0)],
         "pairwise": [_power(-0.3984, 1.0)]},
        {"N": 3, "mass": 0.6446887959414613, "one_body": [_power(-0.4086620820568579, 1.5)],
         "pairwise": [_power(0.8974629504068266, -0.5)]},
    ],
    ids=["coulomb+pair-sqrt", "linear+pair-linear", "one-body-falls"],
)
def test_verify_unbound_spec_exits_3(tmp_path, payload):
    # no bound state: neither route may print a mass (the oracle returned
    # -8.3e100, -9.0e301 and -5.4e307 on these specs)
    document = dict(payload, kinematics="nonrelativistic", modes=[[0, 0]] * (payload["N"] - 1))
    code, text = run_cli(["verify", "--spec", write_spec(tmp_path, document), "--format", "json"])
    assert code == EXIT_NUMERICAL
    assert json.loads(text)["error"]["type"] == "NoPositiveRoot"


def test_gaussian_below_critical_exits_3(tmp_path):
    weak = dict(GAUSS_SPEC, pairwise=[{"type": "gaussian", "depth": 0.1, "range": 0.5}])
    path = write_spec(tmp_path, weak)
    code, text = run_cli(["gaussian", "--spec", path, "--format", "json"])
    assert code == EXIT_NUMERICAL
    assert json.loads(text)["error"]["type"] == "NoBoundState"


@pytest.mark.parametrize(
    "command, error", [("gaussian", "NumericalError"), ("solve", "NoPositiveRoot")]
)
def test_subnormal_gaussian_level_exits_3_without_a_traceback(tmp_path, command, error):
    # the closed-form level of this spec lies past the float range (-inf), and
    # afm_mass finds no root: both commands refuse it with a typed error
    doc = dict(GAUSS_SPEC, N=2, mass=1e-320, pairwise=[_gaussian(0.5, 1e-320)], modes=[[0, 0]])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-m", "auxfield.cli", command, "--spec", write_spec(tmp_path, doc)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == EXIT_NUMERICAL
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {error}: ")
    assert "Traceback" not in result.stderr


def _fresh_python(*args):
    """Run a new interpreter that imports auxfield from src; it must exit 0."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run(
        [sys.executable, *args], env=env, check=True, capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "argv, layers",
    [
        ([], {"cli", "errors", "model"}),
        (["solve", "--spec", "{spec}"], {"cli", "errors", "model", "special", "engine"}),
        (["verify", "--spec", "{spec}"],
         {"cli", "errors", "model", "special", "engine", "oracles"}),
        (["baryon-table", "--lambda", "0.2", "--alphas", "0.4"],
         {"cli", "errors", "model", "special", "systems"}),
    ],
    ids=["import", "solve", "verify", "baryon-table"],
)
def test_command_loads_only_its_layers(tmp_path, argv, layers):
    # a cold CLI process compiles and loads only the layers its command calls;
    # solve, verify and baryon-table never build arrays, so none of them may
    # pay for importing numpy either, and the value types are plain slotted
    # classes, so none pays for dataclasses and the inspect chain it imports
    spec = write_spec(tmp_path, LINEAR_SPEC)
    code = (
        "import io, json, sys, auxfield.cli\n"
        "argv = sys.argv[1:]\n"
        "assert not argv or auxfield.cli.main(argv, out=io.StringIO()) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses'\n"
        "assert 'inspect' not in sys.modules, 'inspect'\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('auxfield'))))\n"
    )
    loaded = json.loads(_fresh_python("-c", code, *(a.format(spec=spec) for a in argv)).stdout)
    assert loaded == sorted({"auxfield"} | {f"auxfield.{layer}" for layer in layers})


@pytest.mark.parametrize(
    "code",
    [
        "from auxfield import engine, ho, oracles, special, systems\n"
        "assert engine.afm_mass and ho.srho_mass and oracles.numeric_afm_minimize\n"
        "assert special.lambert_w0 and systems.baryon_table",
        "import auxfield.engine\nassert auxfield.engine.afm_mass",
        "import auxfield\nfrom auxfield import *\n"
        "assert all(name in globals() for name in auxfield.__all__)",
    ],
    ids=["from-package", "dotted", "star"],
)
def test_public_import_forms_resolve(code):
    _fresh_python("-c", code)


def test_module_help_exits_0():
    assert "baryon-table" in _fresh_python("-m", "auxfield.cli", "--help").stdout


def test_solve_path_leaves_numpy_unloaded():
    # afm_mass on a power-law spec (structured solve) and on a gaussian well
    # (grid scan) builds no arrays, so solve never pays for importing numpy
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = (
        "import sys\n"
        "from auxfield import engine\n"
        "from auxfield.model import (GaussianWell, Identical, Kinematics,\n"
        "    PotentialTerm, PowerLaw, QuantumNumbers, Scope, SystemSpec)\n"
        "pair = lambda form: (PotentialTerm(Scope.PAIRWISE, form),)\n"
        "q = QuantumNumbers.ground(3)\n"
        "sr, nr = Kinematics.SEMIRELATIVISTIC, Kinematics.NONRELATIVISTIC\n"
        "power = SystemSpec(3, Identical(1.0), sr, (), pair(PowerLaw(0.2, 1.0)))\n"
        "well = SystemSpec(3, Identical(1.0), nr, (), pair(GaussianWell(10.0, 1.0)))\n"
        "engine.afm_mass(power, q), engine.afm_mass(well, q)\n"
        "assert 'numpy' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# ---------------------------------------------------------------------------
# fuzzed spec documents

_NUMBER = st.one_of(
    st.floats(-5.0, 5.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
)
_EXPONENT = st.one_of(
    st.sampled_from([-2.0, -1.0, -0.5, 0.0, 1.0, 2.0, 100.0, 150.0, 300.0]),
    st.floats(-3.0, 300.0),
)
_TERM = st.one_of(
    st.fixed_dictionaries(
        {"type": st.just("power"), "coefficient": _NUMBER, "exponent": _EXPONENT}
    ),
    st.fixed_dictionaries(
        {"type": st.just("gaussian"), "depth": _NUMBER, "range": _NUMBER}
    ),
    st.dictionaries(st.sampled_from(["type", "coefficient", "depth"]), _NUMBER),
    _NUMBER,
)
_MODE = st.one_of(
    st.lists(st.integers(-1, 2000), min_size=2, max_size=2),
    st.lists(st.one_of(st.integers(-1, 2000), st.floats(-1.0, 4.0)), max_size=3),
    _NUMBER,
)
_DOCUMENT = st.fixed_dictionaries(
    {
        "N": st.one_of(st.integers(2, 5), _NUMBER),
        "mass": _NUMBER,
        "kinematics": st.sampled_from(["nonrelativistic", "semirelativistic", "x"]),
        "one_body": st.lists(_TERM, max_size=2),
        "pairwise": st.lists(_TERM, max_size=2),
        "modes": st.lists(_MODE, max_size=5),
    }
)


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_DOCUMENT)
@example(
    {
        "N": 6,
        "mass": 4.53e-201,
        "kinematics": "nonrelativistic",
        "one_body": [{"type": "power", "coefficient": -2.2e-311, "exponent": 36.97}],
        "pairwise": [{"type": "power", "coefficient": 33.69, "exponent": 33.69}],
        "modes": [[112, 179], [1908, 293], [136, 1578], [1908, 293], [200, 104]],
    }
)
# a candidate grid scale (Q/N amp^2)^(1/(lam+1)) overflowed at lam = -0.999
@example(dict(LINEAR_SPEC, mass=0.0, pairwise=[_power(5.0, -0.999)]))
@example(
    dict(
        LINEAR_SPEC,
        one_body=[_power(5.0, -0.999)],
        pairwise=[_power(0.1, 1.0)],
        kinematics="nonrelativistic",
    )
)
def test_solve_exit_code_is_always_0_2_or_3(tmp_path, document):
    path = write_spec(tmp_path, document)
    code, _ = run_cli(["solve", "--spec", path, "--format", "json"])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL)


# _DOCUMENT rarely gets past validation. These documents keep its terms'
# numbers and exponents but take an integer N, a matching mode list, a
# valid kinematics and at most one well-typed term per scope, so that the
# commands' numerical paths run too.
_SHAPED_TERM = st.one_of(
    st.fixed_dictionaries(
        {
            "type": st.just("power"),
            "coefficient": _NUMBER,
            "exponent": st.one_of(st.just(2.0), _EXPONENT),
        }
    ),
    st.fixed_dictionaries(
        {"type": st.just("gaussian"), "depth": _NUMBER, "range": _NUMBER}
    ),
)


@st.composite
def _shaped_document(draw):
    n = draw(st.integers(2, 5))
    mode = st.lists(st.integers(0, 2000), min_size=2, max_size=2)
    return dict(
        draw(_DOCUMENT),
        N=n,
        mass=draw(st.one_of(st.floats(0.0, 5.0), _NUMBER)),
        kinematics=draw(st.sampled_from(["nonrelativistic", "semirelativistic"])),
        one_body=draw(st.lists(_SHAPED_TERM, max_size=1)),
        pairwise=draw(st.lists(_SHAPED_TERM, max_size=1)),
        modes=draw(st.lists(mode, min_size=n - 1, max_size=n - 1)),
    )


def _shaped_example(n, mass, kinematics, one_body=(), pairwise=()):
    return {
        "N": n,
        "mass": mass,
        "kinematics": kinematics,
        "one_body": list(one_body),
        "pairwise": list(pairwise),
        "modes": [[500, 500]] * (n - 1),
    }


@pytest.mark.parametrize("command", ["verify", "ho", "gaussian"])
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.one_of(_DOCUMENT, _shaped_document()))
@example(OVERFLOW_SPEC)
# a subnormal spring: Y**3 of the quartic seed left the float range
@example(_shaped_example(4, 1.34, "semirelativistic", pairwise=[_power(2.2e-309, 2.0)]))
# a nearly massless oscillator: Y underflowed to 0 and was divided by
@example(_shaped_example(3, 4.5e-203, "semirelativistic", one_body=[_power(1.2e-38, 2.0)]))
# a spring so weak that X0 = sqrt(2 m kappa) underflowed to 0
@example(_shaped_example(4, 3.9e-244, "nonrelativistic", one_body=[_power(1.4e-175, 2.0)]))
# the oracle's field magnitude |coef| |lambda| / 2 underflowed to 0
@example(
    _shaped_example(
        2,
        1.63,
        "semirelativistic",
        one_body=[_power(3.95, -0.5)],
        pairwise=[_power(-1.6e-252, 9.1e-199)],
    )
)
# the oracle's t/mag underflowed to 0 under a negative power
@example(_shaped_example(3, 0.5, "nonrelativistic", one_body=[_power(1.2e229, 1.0)]))
# a gaussian level whose Y = -beta Q / ((N-1) sqrt(2 N m alpha)) underflowed to 0
@example(
    _shaped_example(5, 2.5e45, "nonrelativistic", pairwise=[_gaussian(7.8e293, 2.0)])
)
# a gaussian range whose square underflowed to 0
@example(
    _shaped_example(5, 2.05, "nonrelativistic", pairwise=[_gaussian(0.15, 8.3e-177)])
)
# a spring whose oscillator matrix squared leaves the float range
@example(_shaped_example(2, 1.0, "nonrelativistic", pairwise=[_power(1e200, 2.0)]))
def test_command_exit_code_is_always_0_2_or_3(tmp_path, command, document):
    path = write_spec(tmp_path, document)
    code, _ = run_cli([command, "--spec", path, "--format", "json"])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL)
