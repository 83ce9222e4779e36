"""Command-line front end.

Parses system specifications from small JSON documents, dispatches to the
library, and emits either TSV or JSON. Exit codes: 0 on success, 2 when the
specification is invalid, 3 when the solve fails numerically (collapse, no
bound level, non-convergence) or a verification check is violated.

Spec file layout::

    {
      "N": 3,
      "mass": 1.0,                      # or "masses": [m1, m2, m3]
      "kinematics": "semirelativistic",
      "one_body":  [{"type": "power", "coefficient": 0.2, "exponent": 1.0}],
      "pairwise":  [{"type": "gaussian", "depth": 2.0, "range": 0.5}],
      "modes": [[0, 0], [0, 0]]
    }
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any, Sequence

from .errors import (
    AuxFieldError,
    NumericalError,
    ValidationError,
    require_tolerance,
)
from .model import (
    AFMSolution,
    GaussianWell,
    Identical,
    Kinematics,
    PerParticle,
    PotentialTerm,
    PowerLaw,
    QuantumNumbers,
    Scope,
    SystemSpec,
    validate,
)

if TYPE_CHECKING:
    from .oracles import OracleReport

# Each command handler imports the solver layers it calls, so a cold process
# compiles and loads only those.

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# spec file parsing and solution serialization


# the keys a spec document may hold, and those of each potential type
_SPEC_KEYS = frozenset({"N", "mass", "masses", "kinematics", "one_body", "pairwise", "modes"})
_TERM_KEYS = {"power": ("coefficient", "exponent"), "gaussian": ("depth", "range")}


def _number(value: Any) -> int | float:
    """A JSON number as parsed; true, false, strings and the rest are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"expected a number, got {value!r}")
    return value


def _integer(value: Any) -> int:
    """Integer value of a JSON number; fractions are rejected, not truncated."""
    whole = int(_number(value))
    if whole != float(value):
        raise ValidationError(f"expected an integer, got {value!r}")
    return whole


def _array(value: Any, key: str) -> list:
    """The JSON array given for key; anything else is rejected, not iterated."""
    if not isinstance(value, list):
        raise ValidationError(f"{key} must be an array, got {value!r}")
    return value


def _known_keys(raw: dict, allowed, where: str) -> None:
    unknown = sorted(raw.keys() - allowed)
    if unknown:
        raise ValidationError(f"unknown keys {unknown} in {where}")


def _mode(raw: Any) -> tuple[int, int]:
    """(n, l) of one internal mode; anything but two integers is rejected."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ValidationError(f"mode must be a pair [n, l] of integers, got {raw!r}")
    return _integer(raw[0]), _integer(raw[1])


def _parse_term(raw: Any, scope: Scope) -> PotentialTerm:
    if not isinstance(raw, dict):
        raise ValidationError(f"potential term must be an object, got {raw!r}")
    kind = raw.get("type")
    names = _TERM_KEYS.get(kind) if isinstance(kind, str) else None
    if names is None:
        raise ValidationError(f"unknown potential type {kind!r}")
    _known_keys(raw, ("type", *names), f"a {kind} term")
    a, b = (float(_number(raw[key])) for key in names)
    form = PowerLaw(a, b) if kind == "power" else GaussianWell(a, b)
    return PotentialTerm(scope, form)


def _terms(raw: dict, scope: Scope) -> tuple[PotentialTerm, ...]:
    """The potential terms listed under the scope's key (none when absent)."""
    key = scope.value
    return tuple(_parse_term(t, scope) for t in _array(raw.get(key, []), key))


def parse_system(raw: dict) -> tuple[SystemSpec, QuantumNumbers]:
    """Build and validate a system plus quantum numbers from a JSON document.

    Any key outside the layout in the module docstring, a document with both
    mass and masses, and a number given as a string or a boolean are
    rejected, since each would otherwise be read silently wrong.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"system spec must be an object, got {raw!r}")
    _known_keys(raw, _SPEC_KEYS, "the system spec")
    if "mass" in raw and "masses" in raw:
        raise ValidationError("give either mass or masses, not both")
    try:
        n = _integer(raw["N"])
        kin = Kinematics(raw["kinematics"])
        if "masses" in raw:
            masses: Any = PerParticle(
                tuple(float(_number(x)) for x in _array(raw["masses"], "masses"))
            )
        else:
            masses = Identical(float(_number(raw["mass"])))
        one_body, pairwise = _terms(raw, Scope.ONE_BODY), _terms(raw, Scope.PAIRWISE)
        modes = tuple(_mode(nl) for nl in _array(raw["modes"], "modes"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed system spec: {exc}") from exc
    spec = SystemSpec(n, masses, kin, one_body, pairwise)
    return validate(spec, QuantumNumbers(modes))


def load_system(path: str) -> tuple[SystemSpec, QuantumNumbers]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read spec file {path}: {exc}") from exc
    return parse_system(raw)


def solution_to_dict(sol: AFMSolution) -> dict:
    return {
        "mass": sol.mass,
        "X0": sol.x0,
        "mu0": sol.mu0,
        "r0_one": sol.r0_one,
        "r0_pair": sol.r0_pair,
        "bound": sol.bound_character.value,
    }


def report_to_dict(report: OracleReport) -> dict:
    return {
        "closed_form": report.closed_form,
        "oracle_value": report.oracle_value,
        "relative_gap": report.relative_gap,
        "verdict": report.verdict.value,
        "tolerance": report.tolerance,
    }


# ---------------------------------------------------------------------------
# output formatting


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(payload: Any, fmt: str, out) -> None:
    """Write a dict or a list of dicts as JSON or TSV (same values either way)."""
    if fmt == "json":
        json.dump(payload, out)
        out.write("\n")
        return
    if isinstance(payload, dict):
        for key, value in payload.items():
            out.write(f"{key}\t{_cell(value)}\n")
        return
    keys = list(payload[0].keys())
    out.write("\t".join(keys) + "\n")
    for row in payload:
        out.write("\t".join(_cell(row[k]) for k in keys) + "\n")


# ---------------------------------------------------------------------------
# commands


def _cmd_solve(args, out) -> int:
    from . import engine

    spec, q = load_system(args.spec)
    sol = engine.afm_mass(spec, q, tolerance=args.tolerance)
    emit(solution_to_dict(sol), args.format, out)
    return EXIT_OK


def _cmd_ho(args, out) -> int:
    from . import ho

    spec, q = load_system(args.spec)
    for term in spec.terms:
        if not (isinstance(term.form, PowerLaw) and term.form.exponent == 2.0):
            raise ValidationError("ho expects purely quadratic interactions")
    k = spec.one_body[0].form.coefficient if spec.one_body else 0.0
    kbar = spec.pairwise[0].form.coefficient if spec.pairwise else 0.0
    if spec.kinematics is Kinematics.SEMIRELATIVISTIC:
        sol = ho.srho_mass(spec.n, spec.identical_mass, k, kbar, q.q)
        emit(solution_to_dict(sol), args.format, out)
        return EXIT_OK
    if isinstance(spec.masses, PerParticle):
        masses: Sequence[float] = spec.masses.values
    else:
        masses = (spec.identical_mass,) * spec.n
    import numpy as np

    kbar_matrix = np.full((spec.n, spec.n), kbar)
    np.fill_diagonal(kbar_matrix, 0.0)
    entry = ho.ho_energies_general(masses, [k] * spec.n, kbar_matrix, q.modes)
    emit(
        {"energy": entry.energy, "omegas": list(entry.omegas)},
        args.format,
        out,
    )
    return EXIT_OK


def _cmd_baryon_table(args, out) -> int:
    from . import systems

    rows = systems.baryon_table(args.lambda_string, args.alphas)
    if args.variant is not None:
        col = {"m0": 2, "m1": 3, "m2": 4}[args.variant]
        payload = [
            {"B": row[0], "L": row[1], args.variant.upper(): row[col]} for row in rows
        ]
    else:
        payload = [
            {"B": b, "L": l, "M0": m0, "M1": m1, "M2": m2}
            for b, l, m0, m1, m2 in rows
        ]
    if args.format == "tsv":
        keys = list(payload[0].keys())
        out.write("\t".join(keys) + "\n")
        for row in payload:
            cells = [
                f"{v:.3f}" if isinstance(v, float) else str(v) for v in row.values()
            ]
            out.write("\t".join(cells) + "\n")
    else:
        emit(payload, "json", out)
    return EXIT_OK


def _cmd_gaussian(args, out) -> int:
    from . import systems

    spec, q = load_system(args.spec)
    if spec.one_body or len(spec.pairwise) != 1 or not isinstance(
        spec.pairwise[0].form, GaussianWell
    ):
        raise ValidationError("gaussian expects exactly one pairwise gaussian term")
    form = spec.pairwise[0].form
    level = systems.gaussian_spectrum(
        spec.n, spec.identical_mass, form.depth, form.range_, q.q
    )
    payload = {
        "energy": level.energy,
        "g": level.g,
        "g_critical": level.g_critical,
        "bound": level.bound_character.value,
    }
    if args.add_rest_mass:
        payload["mass"] = level.energy + spec.n * spec.identical_mass
    emit(payload, args.format, out)
    return EXIT_OK


def _cmd_duality_check(args, out) -> int:
    from . import oracles, systems

    if args.n is not None and args.n < 2:
        raise ValidationError(f"need --n >= 2, got {args.n}")
    ns = [args.n] if args.n is not None else [2, 3, 4, 6]
    payload = [
        {"check": name, "n": n, **report_to_dict(oracles.compare(direct, mapped, 1e-12))}
        for n in ns
        for name, direct, mapped in systems.duality_identities(n)
    ]
    emit(payload, args.format, out)
    if any(row["verdict"] != "match" for row in payload):
        raise NumericalError("a duality identity is violated")
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    from . import engine, oracles

    require_tolerance(args.tolerance)
    spec, q = load_system(args.spec)
    closed = engine.afm_mass(spec, q).mass
    oracle = oracles.numeric_afm_minimize(spec, q)
    report = oracles.compare(closed, oracle, args.tolerance)
    emit(report_to_dict(report), args.format, out)
    if report.verdict is not oracles.Verdict.MATCH:
        raise NumericalError(
            f"closed form and oracle disagree: gap {report.relative_gap}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auxfield",
        description="Approximate N-body spectra via the auxiliary field method.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--spec", required=True, help="path to a JSON system spec")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p = sub.add_parser("solve", help="auxiliary-field mass of the spec'd system")
    add_common(p)
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("ho", help="exact harmonic-oscillator level")
    add_common(p)
    p.set_defaults(func=_cmd_ho)

    p = sub.add_parser("baryon-table", help="three-quark mass table")
    p.add_argument("--lambda", dest="lambda_string", type=float, required=True)
    p.add_argument("--alphas", type=float, required=True)
    p.add_argument("--variant", choices=("m0", "m1", "m2"), default=None)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=_cmd_baryon_table)

    p = sub.add_parser("gaussian", help="pairwise gaussian-well level and criticals")
    add_common(p)
    p.add_argument("--add-rest-mass", action="store_true")
    p.set_defaults(func=_cmd_gaussian)

    p = sub.add_parser("duality-check", help="N-body vs two-body duality identities")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=_cmd_duality_check)

    p = sub.add_parser("verify", help="closed form against the numerical oracle")
    add_common(p)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        return args.func(args, out)
    except ValidationError as exc:
        _emit_error(exc, args, out)
        return EXIT_VALIDATION
    except AuxFieldError as exc:
        _emit_error(exc, args, out)
        return EXIT_NUMERICAL


def _emit_error(exc: Exception, args, out) -> None:
    if getattr(args, "format", "tsv") == "json":
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}}, out)
        out.write("\n")
    else:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
