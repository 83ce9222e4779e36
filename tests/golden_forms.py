"""Seeded draws of every closed form, and the golden file that pins their outputs.

Each form gets DRAWS argument tuples from its own `random.Random`, seeded by
the form's name; only `Random.random` is used, whose sequence Python keeps
fixed across versions. The outputs are recorded bit for bit as `float.hex`
strings: a float result as one string, a record (`AFMSolution`,
`GaussianSpectrum`) as its fields in order, an enum by its name, and a raise
as ``{"raise": type name, "message": str(error)}``. The inputs are not stored
(they would triple the file); a digest of them per form tells a changed draw
apart from a moved output.

`tests/test_golden.py` compares a fresh run with GOLDEN bitwise;
`scripts/golden.py --write` regenerates the file.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from enum import Enum
from pathlib import Path

from auxfield.engine import equal_power_mass, linear_mass
from auxfield.errors import AuxFieldError
from auxfield.ho import srho_mass
from auxfield.model import (
    Identical,
    Kinematics,
    PotentialTerm,
    PowerLaw,
    QuantumNumbers,
    Scope,
    SystemSpec,
)
from auxfield.special import cubic_root, lambert_w0, quartic_root
from auxfield.systems import (
    atomic_mass,
    baryonic_ur,
    coulomb_nbody,
    funnel_nbody_ur,
    gaussian_critical_coupling,
    gaussian_energy_alt,
    gaussian_spectrum,
    two_body_funnel_ur,
    two_body_linear_mass,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "closed_forms.json"
SEED = "closed-forms-1"
DRAWS = 90


class _Draw:
    """Argument values from one form's stream of `Random.random`."""

    def __init__(self, name: str):
        self._random = random.Random(f"{SEED}:{name}").random

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._random()

    def log(self, lo: float, hi: float) -> float:
        """10^u, u uniform in [lo, hi]."""
        return 10.0 ** self.uniform(lo, hi)

    def scale(self) -> float:
        """A positive scale, mostly within 1e-3..1e3 and one draw in five anywhere."""
        return self.log(-300.0, 300.0) if self._random() < 0.2 else self.log(-3.0, 3.0)

    def count(self, lo: int, hi: int) -> int:
        return lo + int(self._random() * (hi - lo + 1))

    def state(self, n: int) -> QuantumNumbers:
        """A state of N bodies with its first mode raised by 0-3 quanta."""
        return QuantumNumbers(((self.count(0, 3), 0),) + ((0, 0),) * (n - 2))


def _spec(n: int, m: float, kinematics: Kinematics, a: float, b: float, lam: float):
    one = (PotentialTerm(Scope.ONE_BODY, PowerLaw(a, lam)),) if a else ()
    pair = (PotentialTerm(Scope.PAIRWISE, PowerLaw(b, lam)),) if b else ()
    return SystemSpec(n, Identical(m), kinematics, one, pair)


def _equal_power(d: _Draw, kinematics: Kinematics) -> tuple:
    n = d.count(2, 6)
    if kinematics is Kinematics.NONRELATIVISTIC:
        m, lam = d.scale(), d.uniform(-1.9, 3.0)
    elif d.uniform(0.0, 1.0) < 0.5:  # massless: closed for every exponent
        m, lam = 0.0, d.uniform(-0.9, 3.0)
    else:  # massive: the exponents with an algebraic scale equation
        m, lam = d.scale(), (-1.0, 1.0, 2.0)[d.count(0, 2)]
    a = d.scale() if d.uniform(0.0, 1.0) < 0.7 else 0.0
    b = d.scale() * (1.0 if a == 0.0 or d.uniform(0.0, 1.0) < 0.9 else -0.1)
    return _spec(n, m, kinematics, a, b, lam), d.state(n)


def _q(d: _Draw, n: int) -> float:
    return d.count(0, 3) + 1.5 * (n - 1)


def _srho(d: _Draw) -> tuple:
    n = d.count(2, 6)
    return n, d.scale(), d.uniform(-0.2, 1.0), d.uniform(-0.1, 1.0), _q(d, n)


def _linear(d: _Draw) -> tuple:
    n = d.count(2, 6)
    return n, d.scale(), d.uniform(0.0, 1.0), d.uniform(-0.1, 1.0), _q(d, n)


def _baryonic(d: _Draw) -> tuple:
    n = d.count(2, 6)
    return n, d.scale(), d.uniform(0.0, 0.6), _q(d, n)


def _atomic(d: _Draw) -> tuple:
    n = d.count(2, 6)
    return n, d.scale(), d.uniform(0.0, 0.5), d.uniform(0.0, 1.0), _q(d, n)


def _coulomb(d: _Draw) -> tuple:
    n = d.count(2, 6)
    return n, d.scale(), d.uniform(0.0, 1.2), d.uniform(1.0, 4.0)


def _gaussian(d: _Draw) -> tuple:
    """Depths from half to fifty times the critical one, so a few levels are unbound."""
    n, m, beta = d.count(2, 6), d.scale(), d.scale()
    q = _q(d, n)
    g = d.log(-0.3, 1.7) * gaussian_critical_coupling(n, q)
    return n, m, g * beta * beta / m, beta, q


def _lambert(d: _Draw) -> tuple:
    pick = d.count(0, 3)
    if pick == 0:
        return (d.uniform(-math.exp(-1.0), 0.0),)
    if pick == 1:
        return (d.log(-300.0, -1.0) * (1.0 if d.uniform(0.0, 1.0) < 0.5 else -1.0),)
    return (d.log(-1.0, 308.0),)


FORMS = {
    "quartic_root": (quartic_root, lambda d: (d.scale() if d.count(0, 9) else 0.0,)),
    "cubic_root": (cubic_root, lambda d: (d.scale() if d.count(0, 9) else 0.0,)),
    "lambert_w0": (lambert_w0, _lambert),
    "srho_mass": (srho_mass, _srho),
    "linear_mass": (linear_mass, _linear),
    "two_body_linear_mass": (
        two_body_linear_mass,
        lambda d: (d.uniform(0.5, 4.0), d.scale(), d.scale(), d.uniform(1.5, 6.0)),
    ),
    "equal_power_mass_nr": (
        equal_power_mass, lambda d: _equal_power(d, Kinematics.NONRELATIVISTIC)
    ),
    "equal_power_mass_sr": (
        equal_power_mass, lambda d: _equal_power(d, Kinematics.SEMIRELATIVISTIC)
    ),
    "baryonic_ur": (baryonic_ur, _baryonic),
    "funnel_nbody_ur": (funnel_nbody_ur, _baryonic),
    "two_body_funnel_ur": (
        two_body_funnel_ur,
        lambda d: (d.uniform(0.5, 4.0), d.scale(), d.uniform(0.0, 6.0), d.uniform(1.5, 6.0)),
    ),
    "atomic_mass": (atomic_mass, _atomic),
    "coulomb_nbody": (coulomb_nbody, _coulomb),
    "gaussian_spectrum": (gaussian_spectrum, _gaussian),
    "gaussian_energy_alt": (gaussian_energy_alt, _gaussian),
}


def draws(name: str) -> list[tuple]:
    """The DRAWS argument tuples of one form."""
    d = _Draw(name)
    return [FORMS[name][1](d) for _ in range(DRAWS)]


def _encode(value) -> list[str]:
    if isinstance(value, float):
        return [value.hex()]
    if isinstance(value, Enum):
        return [value.name]
    return [part for name in value.__slots__ for part in _encode(getattr(value, name))]


def run(name: str, args: tuple):
    """One output record: the encoded result, or the raise it ends in."""
    try:
        return _encode(FORMS[name][0](*args))
    except AuxFieldError as error:
        return {"raise": type(error).__name__, "message": str(error)}


def digest(name: str) -> str:
    return hashlib.sha256(repr(draws(name)).encode()).hexdigest()[:16]


def records() -> dict:
    """Every form's input digest and output records, as the golden file holds them."""
    return {
        name: {"inputs": digest(name), "outputs": [run(name, args) for args in draws(name)]}
        for name in FORMS
    }


def write(path: Path = GOLDEN) -> None:
    """Write records() with one output record per line, so a diff shows each moved draw."""
    lines = ["{"]
    for i, (name, form) in enumerate(records().items()):
        lines.append(f'"{name}": {{"inputs": "{form["inputs"]}", "outputs": [')
        body = [json.dumps(out, separators=(",", ":")) for out in form["outputs"]]
        lines.append(",\n".join(body))
        lines.append("]}" + ("," if i < len(FORMS) - 1 else ""))
    lines.append("}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _delta(old: str, new: str) -> float:
    """Relative delta between two encoded fields; inf where they differ but are not floats."""
    if old == new:
        return 0.0
    try:
        a, b = float.fromhex(old), float.fromhex(new)
    except ValueError:
        return math.inf
    return abs(b - a) / abs(a) if a else math.inf


def compare(expected: dict, actual: dict) -> tuple[list[str], dict[str, float]]:
    """Lines naming every output that moved, and the worst relative delta per form."""
    lines, worst = [], {}
    for name, form in actual.items():
        old = expected.get(name)
        if old is None:
            lines.append(f"{name}: not in the golden file")
            continue
        if old["inputs"] != form["inputs"]:
            lines.append(f"{name}: the draws changed (input digest {form['inputs']})")
            continue
        worst[name] = 0.0
        for i, (was, now) in enumerate(zip(old["outputs"], form["outputs"])):
            if was == now:
                continue
            if isinstance(was, list) and isinstance(now, list) and len(was) == len(now):
                delta = max(_delta(a, b) for a, b in zip(was, now))
            else:
                delta = math.inf
            worst[name] = max(worst[name], delta)
            lines.append(
                f"{name} draw {i} {draws(name)[i]!r}: {was} -> {now} "
                f"(relative delta {delta:.3e})"
            )
    return lines, worst
