"""Seeded draws of every closed form, afm_mass, the oracle, the trial bound and the exact oscillator, and the golden files that pin them.

Each form gets DRAWS argument tuples from its own `random.Random`, seeded by
the form's name; only `Random.random` is used, whose sequence Python keeps
fixed across versions. The outputs are recorded bit for bit as `float.hex`
strings: a float result as one string, a record (`AFMSolution`,
`GaussianSpectrum`) as its fields in order, an enum by its name, and a raise
as ``{"raise": type name, "message": str(error)}``. The inputs are not stored
(they would triple the file); a digest of them per form tells a changed draw
apart from a moved output.

The forms fall into SLICES, one golden file each under GOLDEN_DIR, named
after the slice: `closed_forms` holds every scalar closed form, `afm_mass`
the generic solve on the six families of the verify_sweep benchmark, and
`oracle` the field-extremization oracle on the same draws of those families,
`trial_bound` the Gaussian trial bound on nonrelativistic pairwise power
laws and gaussian wells, and `ho` the exact oscillator at the
oscillator_exact benchmark's sizes.
`tests/test_golden.py` compares a fresh run with each file, bitwise except
where TOLERANCE grants a form a relative delta; `scripts/golden.py --write`
regenerates them.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from enum import Enum
from pathlib import Path

from auxfield.engine import afm_mass, equal_power_mass, linear_mass
from auxfield.errors import AuxFieldError
from auxfield.ho import ho_energies_general, ho_energy_3body_closed, srho_mass
from auxfield.model import (
    GaussianWell,
    Identical,
    Kinematics,
    PotentialTerm,
    PowerLaw,
    QuantumNumbers,
    Scope,
    SystemSpec,
)
from auxfield.oracles import gaussian_trial_bound, numeric_afm_minimize
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

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = "closed-forms-1"
DRAWS = 90
AFM_DRAWS = 64
HO_SIZES = (3, 6, 12, 24, 33)
# The general oscillator's levels are eigenvalues from matrix products, whose
# sums a BLAS build may order otherwise; LAPACK's eigvalsh, a different
# algorithm, stays within 33 eps of them at these sizes. Every other form is
# pure Python and compared bitwise.
TOLERANCE = {"ho_energies_general": 64.0 * sys.float_info.epsilon}


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


def _system(n: int, m: float, kinematics: Kinematics, one=None, pair=None) -> SystemSpec:
    """one and pair: None, or a potential form (a power law or a gaussian well)."""
    one = (PotentialTerm(Scope.ONE_BODY, one),) if one else ()
    pair = (PotentialTerm(Scope.PAIRWISE, pair),) if pair else ()
    return SystemSpec(n, Identical(m), kinematics, one, pair)


def _spec(n: int, m: float, kinematics: Kinematics, a: float, b: float, lam: float):
    one, pair = (PowerLaw(a, lam) if a else None), (PowerLaw(b, lam) if b else None)
    return _system(n, m, kinematics, one, pair)


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


# afm_mass on the six verify_sweep families, with that benchmark's ranges; the
# first mode is raised by 0-3 quanta (the gaussian wells stay in their ground
# state, whose critical depth the draw clears)


def _afm_srho(d: _Draw) -> tuple:
    n = d.count(2, 6)
    m = d.uniform(0.0, 4.0) if d.uniform(0.0, 1.0) > 0.15 else 0.0
    k, kbar = d.uniform(0.0, 3.0), d.uniform(0.05, 3.0)
    one = PowerLaw(k, 2.0) if k > 0.0 else None
    return _system(n, m, Kinematics.SEMIRELATIVISTIC, one, PowerLaw(kbar, 2.0)), d.state(n)


def _afm_linear(d: _Draw) -> tuple:
    n = d.count(2, 6)
    m = d.uniform(0.0, 3.0) if d.uniform(0.0, 1.0) > 0.2 else 0.0
    a, b = d.uniform(0.0, 1.5), d.uniform(0.05, 1.5)
    one = PowerLaw(a, 1.0) if a > 0.0 else None
    return _system(n, m, Kinematics.SEMIRELATIVISTIC, one, PowerLaw(b, 1.0)), d.state(n)


def _afm_equal_power(d: _Draw) -> tuple:
    n = d.count(2, 6)
    if d.uniform(0.0, 1.0) < 0.5:
        kinematics = Kinematics.NONRELATIVISTIC
        lam = (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.5, 3.0)[d.count(0, 7)]
        m = d.uniform(0.3, 4.0)
    else:  # massless only for rising potentials, one draw in five
        kinematics = Kinematics.SEMIRELATIVISTIC
        lam = (-1.0, -0.5, 0.5, 1.0, 2.0)[d.count(0, 4)]
        m = d.uniform(0.3, 3.0) if lam < 0.0 or d.uniform(0.0, 1.0) > 0.2 else 0.0
    a, b, q = d.uniform(0.05, 2.0), d.uniform(0.05, 2.0), d.state(n)
    if kinematics is Kinematics.SEMIRELATIVISTIC and lam == -1.0:
        # keep inverse-distance attraction clear of the collapse threshold
        amp = a * (n / q.q) ** 1.5 + b * n * ((n - 1) / (2.0 * q.q)) ** 1.5
        strength = amp * math.sqrt(q.q / n)
        scale = min(1.0, 0.7 / strength)
        a, b = a * scale, b * scale
    return _spec(n, m, kinematics, a, b, lam), q


def _afm_baryonic(d: _Draw) -> tuple:
    n, a = d.count(2, 5), d.uniform(0.05, 1.0)
    q = d.state(n)
    b = d.uniform(0.05, 0.8) * q.q * n / (n * (n - 1) / 2.0) ** 1.5
    spec = _system(n, 0.0, Kinematics.SEMIRELATIVISTIC, PowerLaw(a, 1.0), PowerLaw(b, -1.0))
    return spec, q


def _afm_atomic(d: _Draw) -> tuple:
    n, m = d.count(2, 6), d.uniform(0.5, 5.0)
    q = d.state(n)
    alpha = d.uniform(0.1, 0.8) * q.q / n
    alphabar = d.uniform(0.1, 0.6) * alpha * n * n / (n * (n - 1) / 2.0) ** 1.5
    one, pair = PowerLaw(alpha, -1.0), PowerLaw(-alphabar, -1.0)
    return _system(n, m, Kinematics.SEMIRELATIVISTIC, one, pair), q


def _afm_gaussian(d: _Draw) -> tuple:
    n, m, beta = d.count(2, 6), d.uniform(0.5, 3.0), d.uniform(0.3, 2.0)
    q = QuantumNumbers.ground(n)
    alpha = d.uniform(2.0, 50.0) * gaussian_critical_coupling(n, q.q) * beta * beta / m
    return _system(n, m, Kinematics.NONRELATIVISTIC, None, GaussianWell(alpha, beta)), q


# the Gaussian trial bound on one nonrelativistic pairwise term, with scales
# anywhere one draw in five, so its unit scale is exercised too


def _trial_power(d: _Draw) -> tuple:
    """Attraction c sgn(lam) r^lam for lam in -1.9..3 (validate admits no lone repulsion)."""
    n, m, c, lam = d.count(2, 6), d.scale(), d.scale(), d.uniform(-1.9, 3.0)
    return (_system(n, m, Kinematics.NONRELATIVISTIC, None, PowerLaw(c, lam)),)


def _trial_gaussian(d: _Draw) -> tuple:
    """Ground-state depths from half to fifty times the critical one."""
    n, m, beta = d.count(2, 6), d.scale(), d.scale()
    g = d.log(-0.3, 1.7) * gaussian_critical_coupling(n, 1.5 * (n - 1))
    well = GaussianWell(g * beta * beta / m, beta)
    return (_system(n, m, Kinematics.NONRELATIVISTIC, None, well),)


# the exact oscillator on oscillator_exact's draws: masses in 0.1..10, springs
# in 0..5, one mode excited; one draw in four has identical masses (a
# diagonal form, which takes no sweep)


def _modes(d: _Draw, n: int) -> tuple:
    modes = [(0, 0)] * (n - 1)
    modes[d.count(0, n - 2)] = (d.count(0, 1), d.count(0, 2))
    return tuple(modes)


def _ho_general(d: _Draw) -> tuple:
    """masses, k, kbar (its strict upper triangle, the part the form reads) and modes."""
    n = HO_SIZES[d.count(0, len(HO_SIZES) - 1)]
    if d.count(0, 3) == 3:
        m, k, kb = d.uniform(0.1, 10.0), d.uniform(0.0, 5.0), d.uniform(0.0, 5.0)
        masses, k, pair = (m,) * n, (k,) * n, lambda: kb
    else:
        masses = tuple(d.uniform(0.1, 10.0) for _ in range(n))
        k = tuple(d.uniform(0.0, 5.0) for _ in range(n))
        pair = lambda: d.uniform(0.0, 5.0)
    kbar = tuple(tuple(pair() if j > i else 0.0 for j in range(n)) for i in range(n))
    return masses, k, kbar, _modes(d, n)


def _ho_3body(d: _Draw) -> tuple:
    masses = tuple(d.uniform(0.1, 10.0) for _ in range(3))
    k = tuple(d.uniform(0.0, 5.0) for _ in range(3))
    pairs = tuple(d.uniform(0.0, 5.0) for _ in range(3))
    (mode,) = _modes(d, 2)
    return (masses, k, pairs) + ((mode, (0, 0)) if d.count(0, 1) else ((0, 0), mode))


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
AFM_FORMS = {
    "afm_srho": (afm_mass, _afm_srho),
    "afm_linear": (afm_mass, _afm_linear),
    "afm_equal_power": (afm_mass, _afm_equal_power),
    "afm_baryonic": (afm_mass, _afm_baryonic),
    "afm_atomic": (afm_mass, _afm_atomic),
    "afm_gaussian": (afm_mass, _afm_gaussian),
}
# the oracle on the same draws as the afm_mass slice (see draws)
ORACLE_FORMS = {
    name.replace("afm_", "oracle_", 1): (numeric_afm_minimize, draw)
    for name, (_, draw) in AFM_FORMS.items()
}
TRIAL_FORMS = {
    "trial_bound_power": (gaussian_trial_bound, _trial_power),
    "trial_bound_gaussian": (gaussian_trial_bound, _trial_gaussian),
}
HO_FORMS = {
    "ho_energies_general": (ho_energies_general, _ho_general),
    "ho_energy_3body_closed": (ho_energy_3body_closed, _ho_3body),
}
SLICES = {
    "closed_forms": list(FORMS),
    "afm_mass": list(AFM_FORMS),
    "oracle": list(ORACLE_FORMS),
    "trial_bound": list(TRIAL_FORMS),
    "ho": list(HO_FORMS),
}
FORMS.update(AFM_FORMS)
FORMS.update(ORACLE_FORMS)
FORMS.update(TRIAL_FORMS)
FORMS.update(HO_FORMS)


def golden(slice_name: str) -> Path:
    return GOLDEN_DIR / f"{slice_name}.json"


def draws(name: str) -> list[tuple]:
    """The argument tuples of one form: DRAWS for a closed form, AFM_DRAWS otherwise.

    oracle_<family> reads the stream of afm_<family>, so both solve the same specs.
    """
    d = _Draw(name.replace("oracle_", "afm_", 1))
    count = DRAWS if name in SLICES["closed_forms"] else AFM_DRAWS
    return [FORMS[name][1](d) for _ in range(count)]


def _encode(value) -> list[str]:
    if isinstance(value, float):
        return [value.hex()]
    if isinstance(value, Enum):
        return [value.name]
    if isinstance(value, tuple):
        return [part for item in value for part in _encode(item)]
    return [part for name in value.__slots__ for part in _encode(getattr(value, name))]


def run(name: str, args: tuple):
    """One output record: the encoded result, or the raise it ends in."""
    try:
        return _encode(FORMS[name][0](*args))
    except AuxFieldError as error:
        return {"raise": type(error).__name__, "message": str(error)}


def digest(name: str) -> str:
    return hashlib.sha256(repr(draws(name)).encode()).hexdigest()[:16]


def records(slice_name: str) -> dict:
    """Each form's input digest and output records, as the slice's golden file holds them."""
    return {
        name: {"inputs": digest(name), "outputs": [run(name, args) for args in draws(name)]}
        for name in SLICES[slice_name]
    }


def write(slice_name: str, path: Path | None = None) -> None:
    """Write records() with one output record per line, so a diff shows each moved draw."""
    forms = records(slice_name)
    lines = ["{"]
    for i, (name, form) in enumerate(forms.items()):
        lines.append(f'"{name}": {{"inputs": "{form["inputs"]}", "outputs": [')
        body = [json.dumps(out, separators=(",", ":")) for out in form["outputs"]]
        lines.append(",\n".join(body))
        lines.append("]}" + ("," if i < len(forms) - 1 else ""))
    lines.append("}")
    path = path or golden(slice_name)
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
    """Lines naming every output moved past its form's TOLERANCE (0 unless listed),
    and the worst relative delta per form."""
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
            if delta <= TOLERANCE.get(name, 0.0):
                continue
            lines.append(
                f"{name} draw {i} {draws(name)[i]!r}: {was} -> {now} "
                f"(relative delta {delta:.3e})"
            )
    return lines, worst
