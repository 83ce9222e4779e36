import pytest

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


def power_system(
    n,
    m,
    kinematics,
    one=None,
    pair=None,
):
    """System with optional (coefficient, exponent) power terms per scope."""
    one_body = ()
    pairwise = ()
    if one is not None:
        one_body = (PotentialTerm(Scope.ONE_BODY, PowerLaw(*one)),)
    if pair is not None:
        pairwise = (PotentialTerm(Scope.PAIRWISE, PowerLaw(*pair)),)
    return SystemSpec(
        n=n,
        masses=Identical(m),
        kinematics=kinematics,
        one_body=one_body,
        pairwise=pairwise,
    )


def gaussian_system(n, m, depth, range_):
    return SystemSpec(
        n=n,
        masses=Identical(m),
        kinematics=Kinematics.NONRELATIVISTIC,
        pairwise=(PotentialTerm(Scope.PAIRWISE, GaussianWell(depth, range_)),),
    )


def ground(n):
    return QuantumNumbers.ground(n)


WIDE_EXPONENTS = (0.5, -0.5, -1.0, -1.5, 1.0, 1.5, 1.9, 2.1, 2.5, 3.0, 4.0, 10.0)


def wide_draw(rng, kinematics=Kinematics.SEMIRELATIVISTIC):
    """One spec of the wide family and its quantum numbers, from a numpy Generator.

    N in 2-5; m log-uniform in 1e-150..1e150, or massless in 30 % of
    semirelativistic draws; each scope present with probability 0.8, with
    coefficient +-10^U(-300, 300) and an exponent from WIDE_EXPONENTS, or in
    30 % of nonrelativistic draws a pairwise gaussian well of depth and
    range_ log-uniform in 1e-150..1e150; one mode up to (49, 49). Terms of
    one spec can lie 10^300 apart, so no single scale brings them all near 1.
    """
    n = int(rng.integers(2, 6))
    massless = rng.random() < 0.3
    semirel = kinematics is Kinematics.SEMIRELATIVISTIC
    m = 0.0 if massless and semirel else float(10.0 ** rng.uniform(-150.0, 150.0))
    if not semirel and rng.random() < 0.3:
        depth, range_ = (float(10.0 ** rng.uniform(-150.0, 150.0)) for _ in range(2))
        terms = ((), (PotentialTerm(Scope.PAIRWISE, GaussianWell(depth, range_)),))
    else:
        terms = []
        for scope in (Scope.ONE_BODY, Scope.PAIRWISE):
            coef = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0))
            lam = WIDE_EXPONENTS[int(rng.integers(len(WIDE_EXPONENTS)))]
            present = rng.random() < 0.8
            terms.append((PotentialTerm(scope, PowerLaw(coef, lam)),) if present else ())
    modes = [(0, 0)] * (n - 1)
    modes[int(rng.integers(n - 1))] = (int(rng.integers(50)), int(rng.integers(50)))
    return SystemSpec(n, Identical(m), kinematics, *terms), QuantumNumbers(tuple(modes))


@pytest.fixture
def nr():
    return Kinematics.NONRELATIVISTIC


@pytest.fixture
def sr():
    return Kinematics.SEMIRELATIVISTIC
