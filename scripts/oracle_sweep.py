"""Sweep every closed-form mass against the direct field-extremization oracle.

Prints the worst relative gap per formula family over randomized parameter
draws, plus the duality identities. Everything should sit far below 1e-8;
the exit code is 1 if any line reads VIOLATION, else 0.

Usage: python scripts/oracle_sweep.py [draws per family]
"""
import sys

import numpy as np

from auxfield.engine import equal_power_mass, linear_mass
from auxfield.ho import srho_mass
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
from auxfield.oracles import numeric_afm_minimize
from auxfield.systems import (
    atomic_mass,
    baryonic_ur,
    duality_identities,
    gaussian_critical_coupling,
    gaussian_spectrum,
)

NR = Kinematics.NONRELATIVISTIC
SR = Kinematics.SEMIRELATIVISTIC


def build(n, m, kin, one=None, pair=None):
    one_body = (PotentialTerm(Scope.ONE_BODY, PowerLaw(*one)),) if one else ()
    pairwise = ()
    if pair is not None:
        form = GaussianWell(*pair[1:]) if pair[0] == "gauss" else PowerLaw(*pair)
        pairwise = (PotentialTerm(Scope.PAIRWISE, form),)
    return SystemSpec(n, Identical(m), kin, one_body, pairwise)


def sweep(draws):
    rng = np.random.default_rng(1)
    worst = {}

    def record(family, closed, oracle):
        gap = abs(closed - oracle) / abs(closed)
        worst[family] = max(worst.get(family, 0.0), gap)

    for _ in range(draws):
        n = int(rng.integers(2, 7))
        q = QuantumNumbers.ground(n)
        m = float(rng.uniform(0.3, 3.0))

        k, kbar = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.1, 2.0))
        spec = build(n, m, SR, one=(k, 2.0) if k else None, pair=(kbar, 2.0))
        record("oscillator", srho_mass(n, m, k, kbar, q.q).mass,
               numeric_afm_minimize(spec, q))

        a, b = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 1.0))
        spec = build(n, m, SR, one=(a, 1.0) if a else None, pair=(b, 1.0))
        record("linear", linear_mass(n, m, a, b, q.q).mass,
               numeric_afm_minimize(spec, q))

        a = float(rng.uniform(0.05, 1.0))
        b = float(rng.uniform(0.05, 0.7)) * q.q * n / (n * (n - 1) / 2.0) ** 1.5
        spec = build(n, 0.0, SR, one=(a, 1.0), pair=(b, -1.0))
        record("linear+coulomb", baryonic_ur(n, a, b, q.q).mass,
               numeric_afm_minimize(spec, q))

        alpha = float(rng.uniform(0.1, 0.7)) * q.q / n
        alphabar = float(rng.uniform(0.1, 0.5)) * alpha * n * n / (n * (n - 1) / 2.0) ** 1.5
        spec = build(n, m, SR, one=(alpha, -1.0), pair=(-alphabar, -1.0))
        record("atomic", atomic_mass(n, m, alpha, alphabar, q.q),
               numeric_afm_minimize(spec, q))

        beta = float(rng.uniform(0.3, 1.5))
        g = float(rng.uniform(2.0, 30.0)) * gaussian_critical_coupling(n, q.q)
        alpha = g * beta * beta / m
        spec = build(n, m, NR, pair=("gauss", alpha, beta))
        record("gaussian", n * m + gaussian_spectrum(n, m, alpha, beta, q.q).energy,
               numeric_afm_minimize(spec, q))

        lam = float(rng.choice([-1.5, -0.5, 0.5, 1.5, 3.0]))
        spec = build(n, m, NR, one=(0.3, lam), pair=(0.4, lam))
        record(f"equal-power", equal_power_mass(spec, q).mass,
               numeric_afm_minimize(spec, q))

    return worst


def main():
    draws = int(sys.argv[1]) if len(sys.argv) > 1 else 25
    print(f"closed form vs field-extremization oracle, {draws} draws per family")
    violated = False
    for family, gap in sorted(sweep(draws).items()):
        flag = "ok" if gap < 1e-8 else "VIOLATION"
        violated |= flag != "ok"
        print(f"  {family:16s} worst relative gap {gap:.2e}  {flag}")
    print("duality identities (direct vs two-body route)")
    worst = 0.0
    for n in (2, 3, 4, 6):
        for name, direct, mapped in duality_identities(n):
            gap = abs(direct - mapped) / abs(direct)
            worst = max(worst, gap)
            print(f"  {name:14s} N={n}  gap {gap:.2e}")
    print("worst duality gap:", f"{worst:.2e}", "ok" if worst < 1e-12 else "VIOLATION")
    return 1 if violated or not worst < 1e-12 else 0


if __name__ == "__main__":
    sys.exit(main())
