"""Seeded inputs, operations and output checks for the benchmark workloads.

Every workload turns a seed into a fixed list of operations before anything
is timed. An operation calls the library only through module attributes
(``engine.afm_mass``, never a name bound at import), so the span wrappers of
the traced run see every call. ``Op.run`` is the timed part; ``Op.check``
runs after the timed region and either returns the relative gaps it measured
or raises ``CheckFailed``.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from auxfield import cli, engine, ho, oracles, systems
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

NR = Kinematics.NONRELATIVISTIC
SR = Kinematics.SEMIRELATIVISTIC

ORACLE_TOL = 1e-8  # closed form and afm_mass against the oracle
SCAN_TOL = 1e-8  # afm_mass against the closed form
HO_TOL = 1e-10  # oscillator level against its reference
BOUND_SLACK = 1e-10  # trial bound may exceed the AFM energy by this much
# The oracle's default budget of 100 000 mass evaluations runs out on about one
# criterion-4 atomic draw in 500 (NonConvergence). A larger budget lets every
# draw converge, so those slow solves show in the latency tail instead.
ORACLE_BUDGET = 2_000_000

VERIFY_FAMILIES = ("srho", "linear", "equal_power", "baryonic", "atomic", "gaussian")
SCAN_KINDS = ("linear", "equal_power_nr", "equal_power_sr", "baryonic", "srho", "gaussian")
SCAN_BANDS = range(7)
HO_SIZES = (3, 6, 12, 24, 33)
CLI_COMMANDS = ("solve", "verify", "baryon_table")

# Op pool sizes: more than a run gets through, except cli_cold, which cycles.
VERIFY_DRAWS = 192  # per family
SCAN_SPECS = 1280  # per spec kind
HO_DRAWS = 600  # per matrix size
CLI_SPECS = 12
# Warm-up ops come from this seed, whatever --seed is, so that the warm-up
# share of setup_s does not depend on which draws a seed happens to make.
WARMUP_SEED = 0


class CheckFailed(Exception):
    """An operation returned a value outside its check tolerance."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    group keys the per-group metrics (family, matrix size or CLI command);
    label names the op in error messages; key holds every input at full
    precision and feeds the input digest.
    """

    group: str
    label: str
    key: bytes
    run: Callable[[], Any]
    check: Callable[[Any], dict[str, float]]


@dataclass
class Workload:
    """A seeded op list.

    op_clock times one op. In-process ops use the thread's CPU time, so time
    the process spends waiting for a core on a shared machine is not charged
    to the library; CLI ops use wall time from spawn to exit.
    """

    name: str
    ops: list[Op]
    warmup: list[Op]
    trace_ops: int  # length of the fixed prefix the traced run replays
    cleanup: Callable[[], None] = lambda: None
    op_clock: Callable[[], float] = time.thread_time

    def digest(self) -> str:
        h = hashlib.sha256()
        for op in self.ops:
            h.update(op.key)
            h.update(b"\n")
        return h.hexdigest()


def rel_gap(value: float, reference: float) -> float:
    """Gap in the form oracles.compare uses: |a - b| / max(1, |a|)."""
    return abs(value - reference) / max(1.0, abs(reference))


def _fail(op_label: str, what: str) -> CheckFailed:
    return CheckFailed(f"{op_label}: {what}")


def _lhs(rng: np.random.Generator, count: int, dims: int, block: int = 16) -> np.ndarray:
    """Uniforms in [0, 1), Latin-hypercube stratified in consecutive blocks.

    Each block of ``block`` rows puts exactly one value in each of ``block``
    equal strata of every column, so any run that completes a few blocks sees
    nearly the same mix of parameters whatever the seed.
    """
    out = np.empty((count, dims))
    for start in range(0, count, block):
        k = min(block, count - start)
        for d in range(dims):
            out[start : start + k, d] = (rng.permutation(k) + rng.random(k)) / k
    return out


def _pick(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi] from a uniform in [0, 1)."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * float(u)


def excited(n: int, band: int) -> QuantumNumbers:
    return QuantumNumbers(((band, 0),) + ((0, 0),) * (n - 2))


def power_system(n, m, kinematics, one=None, pair=None) -> SystemSpec:
    one_body = (PotentialTerm(Scope.ONE_BODY, PowerLaw(*one)),) if one else ()
    pairwise = (PotentialTerm(Scope.PAIRWISE, PowerLaw(*pair)),) if pair else ()
    return SystemSpec(n, Identical(m), kinematics, one_body, pairwise)


def gaussian_system(n, m, depth, range_) -> SystemSpec:
    term = PotentialTerm(Scope.PAIRWISE, GaussianWell(depth, range_))
    return SystemSpec(n, Identical(m), NR, (), (term,))


# ---------------------------------------------------------------------------
# closed-form families shared by verify_sweep and spectrum_scan
#
# Each family function maps one row of stratified uniforms to (spec, closed, params):
# the system, closed(q) the family's closed-form mass, and the drawn values.
# Columns: 0 particle count, 1-4 family parameters, 5 kinematics, 6 band.
# The ranges are those of acceptance criterion 4.

COLUMNS = 7


def _srho(u):
    n = _pick(u[0], 2, 6)
    m = _uniform((u[1] - 0.15) / 0.85, 0.0, 4.0) if u[1] > 0.15 else 0.0
    k = _uniform(u[2], 0.0, 3.0)
    kbar = _uniform(u[3], 0.05, 3.0)
    spec = power_system(n, m, SR, one=(k, 2.0) if k > 0 else None, pair=(kbar, 2.0))
    return spec, lambda q: ho.srho_mass(n, m, k, kbar, q.q).mass, (n, m, k, kbar)


def _linear(u):
    n = _pick(u[0], 2, 6)
    m = _uniform((u[1] - 0.2) / 0.8, 0.0, 3.0) if u[1] > 0.2 else 0.0
    a = _uniform(u[2], 0.0, 1.5)
    b = _uniform(u[3], 0.05, 1.5)
    spec = power_system(n, m, SR, one=(a, 1.0) if a > 0 else None, pair=(b, 1.0))
    return spec, lambda q: engine.linear_mass(n, m, a, b, q.q).mass, (n, m, a, b)


_NR_POWERS = (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.5, 3.0)
_SR_POWERS = (-1.0, -0.5, 0.5, 1.0, 2.0)


def _equal_power(u, kinematics, q_min, sr_powers=_SR_POWERS):
    """q_min(n) is the smallest principal number the spec is solved at."""
    n = _pick(u[0], 2, 6)
    if kinematics is NR:
        lam = _NR_POWERS[_pick(u[1], 0, len(_NR_POWERS) - 1)]
        m = _uniform(u[2], 0.3, 4.0)
    else:
        lam = sr_powers[_pick(u[1], 0, len(sr_powers) - 1)]
        # massless only for rising potentials, one draw in five
        if lam <= 0:
            m = _uniform(u[2], 0.3, 3.0)
        else:
            m = _uniform((u[2] - 0.2) / 0.8, 0.3, 3.0) if u[2] > 0.2 else 0.0
    a = _uniform(u[3], 0.05, 2.0)
    b = _uniform(u[4], 0.05, 2.0)
    if kinematics is SR and lam == -1.0:
        # keep inverse-distance attraction clear of the collapse threshold
        qq = q_min(n)
        amp = a * (n / qq) ** 1.5 + b * n * ((n - 1) / (2.0 * qq)) ** 1.5
        strength = amp * math.sqrt(qq / n)
        if strength >= 0.7:
            a *= 0.7 / strength
            b *= 0.7 / strength
    spec = power_system(n, m, kinematics, one=(a, lam), pair=(b, lam))
    return spec, lambda q: engine.equal_power_mass(spec, q).mass, (n, m, lam, a, b)


def _baryonic(u, q_min):
    n = _pick(u[0], 2, 5)
    a = _uniform(u[1], 0.05, 1.0)
    b = _uniform(u[2], 0.05, 0.8) * q_min(n) * n / (n * (n - 1) / 2.0) ** 1.5
    spec = power_system(n, 0.0, SR, one=(a, 1.0), pair=(b, -1.0))
    return spec, lambda q: systems.baryonic_ur(n, a, b, q.q).mass, (n, a, b)


def _atomic(u, q_of):
    """q_of(n) is the principal number the spec is solved at."""
    n = _pick(u[0], 2, 6)
    qq = q_of(n)
    m = _uniform(u[1], 0.5, 5.0)
    alpha = _uniform(u[2], 0.1, 0.8) * qq / n
    alphabar = _uniform(u[3], 0.1, 0.6) * alpha * n * n / (n * (n - 1) / 2.0) ** 1.5
    spec = power_system(n, m, SR, one=(alpha, -1.0), pair=(-alphabar, -1.0))
    closed = lambda q: systems.atomic_mass(n, m, alpha, alphabar, q.q)  # noqa: E731
    return spec, closed, (n, m, alpha, alphabar)


def _gaussian(u, q_top):
    """Depth above the critical coupling of q_top(n), the highest level solved."""
    n = _pick(u[0], 2, 6)
    m = _uniform(u[1], 0.5, 3.0)
    beta = _uniform(u[2], 0.3, 2.0)
    g = _uniform(u[3], 2.0, 50.0) * systems.gaussian_critical_coupling(n, q_top(n))
    alpha = g * beta * beta / m
    spec = gaussian_system(n, m, alpha, beta)
    closed = lambda q: n * m + systems.gaussian_spectrum(n, m, alpha, beta, q.q).energy  # noqa: E731
    return spec, closed, (n, m, alpha, beta)


def _key(name: str, params: tuple, q: QuantumNumbers) -> bytes:
    return f"{name}{tuple(float(p) for p in params)!r} modes={q.modes!r}".encode()


# ---------------------------------------------------------------------------
# verify_sweep: closed form, afm_mass and the field-extremization oracle


def _verify_op(index, family, spec, q, closed, params) -> Op:
    label = f"verify_sweep op {index} ({family}, N={spec.n}, modes={q.modes})"
    gaussian = family == "gaussian"

    def run():
        c = closed(q)
        a = engine.afm_mass(spec, q).mass
        o = oracles.numeric_afm_minimize(spec, q, max_evals=ORACLE_BUDGET)
        closed_report = oracles.compare(c, o, ORACLE_TOL)
        afm_report = oracles.compare(a, o, ORACLE_TOL)
        bound = oracles.gaussian_trial_bound(spec) if gaussian else None
        return c, a, o, closed_report, afm_report, bound

    def check(out):
        c, a, o, closed_report, afm_report, bound = out
        for name, report in (("closed form", closed_report), ("afm_mass", afm_report)):
            if report.verdict is not oracles.Verdict.MATCH:
                raise _fail(label, f"{name} vs oracle gap {report.relative_gap:.3e}")
        gaps = {"oracles": max(rel_gap(o, c), rel_gap(o, a)), "engine": rel_gap(a, c)}
        if gaps["oracles"] > ORACLE_TOL:
            raise _fail(label, f"oracle gap {gaps['oracles']:.3e} > {ORACLE_TOL}")
        if bound is not None:
            energy = a - spec.n * spec.identical_mass
            if bound > energy + BOUND_SLACK * max(1.0, abs(energy)):
                raise _fail(label, f"trial bound {bound!r} above AFM energy {energy!r}")
        return gaps

    return Op(family, label, _key(family, params, q), run, check)


def _verify_draw(family: str, u):
    if family == "srho":
        spec, closed, params = _srho(u)
        return spec, excited(spec.n, _pick(u[6], 0, 2)), closed, params
    if family == "linear":
        spec, closed, params = _linear(u)
        return spec, excited(spec.n, _pick(u[6], 0, 2)), closed, params
    if family == "equal_power":
        band = _pick(u[6], 0, 1)
        kin = NR if u[5] < 0.5 else SR
        spec, closed, params = _equal_power(u, kin, lambda n: excited(n, band).q)
        return spec, excited(spec.n, band), closed, params
    if family == "baryonic":
        band = _pick(u[6], 0, 2)
        spec, closed, params = _baryonic(u, lambda n: excited(n, band).q)
        return spec, excited(spec.n, band), closed, params
    if family == "atomic":
        band = _pick(u[6], 0, 1)
        spec, closed, params = _atomic(u, lambda n: excited(n, band).q)
        return spec, excited(spec.n, band), closed, params
    spec, closed, params = _gaussian(u, lambda n: QuantumNumbers.ground(n).q)
    return spec, QuantumNumbers.ground(spec.n), closed, params


def _verify_ops(seed: int, draws_per_family: int) -> list[Op]:
    """Criterion-4 style draws, interleaved so op i belongs to family i % 6."""
    rng = np.random.default_rng([seed, 1])
    draws = [
        [_verify_draw(family, row) for row in _lhs(rng, draws_per_family, COLUMNS)]
        for family in VERIFY_FAMILIES
    ]
    ops = []
    for j in range(draws_per_family):
        for family, family_draws in zip(VERIFY_FAMILIES, draws):
            ops.append(_verify_op(len(ops), family, *family_draws[j]))
    return ops


def verify_sweep(seed: int) -> Workload:
    # The traced prefix holds 32 draws per family, so the 11th-largest oracle
    # time (oracles.numeric_afm_minimize.tail_ms) is an atomic solve.
    ops = _verify_ops(seed, VERIFY_DRAWS)
    return Workload("verify_sweep", ops, _verify_ops(WARMUP_SEED, 1), trace_ops=192)


# ---------------------------------------------------------------------------
# spectrum_scan: afm_mass against the closed form, bands 0-6 of the first mode


def _scan_op(index, kind, spec, closed, params) -> Op:
    label = f"spectrum_scan op {index} ({kind}, N={spec.n})"
    levels = [excited(spec.n, band) for band in SCAN_BANDS]

    def run():
        return [(engine.afm_mass(spec, q).mass, closed(q)) for q in levels]

    def check(out):
        worst = 0.0
        for q, (a, c) in zip(levels, out):
            gap = rel_gap(a, c)
            if gap > SCAN_TOL:
                raise _fail(
                    label, f"modes {q.modes}: afm_mass {a!r} vs closed form {c!r}: gap {gap:.3e}"
                )
            worst = max(worst, gap)
        return {"engine": worst}

    return Op(kind, label, _key(kind, params, levels[0]), run, check)


def _scan_spec(kind: str, u):
    band0 = lambda n: excited(n, 0).q  # noqa: E731
    if kind == "linear":
        return _linear(u)
    if kind == "equal_power_nr":
        return _equal_power(u, NR, band0)
    if kind == "equal_power_sr":
        # exponents whose finite-mass scale equation is algebraic, so
        # equal_power_mass stays a closed form and never calls afm_mass
        return _equal_power(u, SR, band0, sr_powers=(-1.0, 1.0, 2.0))
    if kind == "baryonic":
        return _baryonic(u, band0)
    if kind == "srho":
        return _srho(u)
    return _gaussian(u, lambda n: excited(n, max(SCAN_BANDS)).q)


def _scan_ops(seed: int, specs_per_kind: int) -> list[Op]:
    """Seeded specs in rotation over six closed forms.

    One op solves the seven levels (bands 0-6) of one spec. A single level
    takes under a millisecond, and the tail of ~25 000 such ops measured the
    host's scheduling bursts rather than the library.
    """
    rng = np.random.default_rng([seed, 2])
    specs = [
        [_scan_spec(kind, row) for row in _lhs(rng, specs_per_kind, COLUMNS)]
        for kind in SCAN_KINDS
    ]
    ops = []
    for j in range(specs_per_kind):
        for kind, kind_specs in zip(SCAN_KINDS, specs):
            ops.append(_scan_op(len(ops), kind, *kind_specs[j]))
    return ops


def spectrum_scan(seed: int) -> Workload:
    ops = _scan_ops(seed, SCAN_SPECS)
    return Workload(
        "spectrum_scan", ops, _scan_ops(WARMUP_SEED, 1), trace_ops=20 * len(SCAN_KINDS)
    )


# ---------------------------------------------------------------------------
# oscillator_exact: ho_energies_general levels at growing matrix size


def _ho_op(index: int, n: int, identical: bool, rng: np.random.Generator) -> Op:
    if identical:
        m, k1, kb1 = rng.uniform(0.1, 10.0), rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)
        masses, k, kbar = np.full(n, m), np.full(n, k1), np.full((n, n), kb1)
    else:
        masses = rng.uniform(0.1, 10.0, size=n)
        k = rng.uniform(0.0, 5.0, size=n)
        upper = np.triu(rng.uniform(0.0, 5.0, size=(n, n)), 1)
        kbar = upper + upper.T
    np.fill_diagonal(kbar, 0.0)
    modes = [(0, 0)] * (n - 1)
    modes[int(rng.integers(0, n - 1))] = (int(rng.integers(0, 2)), int(rng.integers(0, 3)))
    modes = tuple(modes)
    kind = "identical" if identical else "distinct"
    label = f"oscillator_exact op {index} (N={n}, {kind} masses)"
    key = masses.tobytes() + k.tobytes() + kbar.tobytes() + repr(modes).encode()

    def run():
        return ho.ho_energies_general(masses, k, kbar, modes).energy

    def reference() -> float:
        if identical:
            q = sum(2 * a + b for a, b in modes) + 1.5 * (n - 1)
            return ho.ho_energy_identical(n, masses[0], k[0], kbar[0, 1], q)
        if n == 3:
            # Not used for identical masses: at degenerate frequencies its
            # discriminant cancels and the level loses about half its digits.
            pairs = (kbar[0, 1], kbar[0, 2], kbar[1, 2])
            # ascending eigenvalues: modes[1] excites the stiffer mode
            return ho.ho_energy_3body_closed(masses, k, pairs, modes[1], modes[0])
        other = float(masses.sum())
        return ho.ho_energies_general(masses, k, kbar, modes, reference_mass=other).energy

    def check(energy):
        ref = reference()
        gap = abs(energy - ref) / abs(ref)
        if gap > HO_TOL:
            raise _fail(label, f"energy {energy!r} vs reference {ref!r}: gap {gap:.3e}")
        return {"ho": gap}

    # identical-mass matrices are diagonal already; per-size metrics use
    # the distinct-mass group
    return Op(f"n{n}" if not identical else f"n{n}-identical", label, key, run, check)


def _ho_ops(seed: int, draws_per_size: int) -> list[Op]:
    """Round robin over the matrix sizes; one round in four has identical masses.

    The identical-mass rounds exercise the ho_energy_identical check at every
    size. Their matrix is diagonal already, so the eigensolver has no sweep to
    do; the other three rounds in four give it full matrices.
    """
    rng = np.random.default_rng([seed, 3])
    ops = []
    for j in range(draws_per_size):
        for n in HO_SIZES:
            ops.append(_ho_op(len(ops), n, j % 4 == 3, rng))
    return ops


def oscillator_exact(seed: int) -> Workload:
    ops = _ho_ops(seed, HO_DRAWS)
    return Workload(
        "oscillator_exact", ops, _ho_ops(WARMUP_SEED, 1), trace_ops=16 * len(HO_SIZES)
    )


# ---------------------------------------------------------------------------
# cli_cold: one `python -m auxfield.cli` process per op


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    maxrss_kb: int = field(compare=False)  # differs between runs of one command


def child_env(src: Path) -> dict:
    """Environment for a child interpreter that imports auxfield from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p
    )
    return env


def _expected_output(command: str, spec_doc: dict | None) -> str:
    """Exact TSV the CLI must print, built from in-process library results."""
    if command == "baryon_table":
        rows = ["B\tL\tM0\tM1\tM2"] + [
            "\t".join([str(b), str(l)] + [f"{v:.3f}" for v in masses])
            for b, l, *masses in systems.baryon_table(0.2, 0.4)
        ]
        return "\n".join(rows) + "\n"
    spec, q = cli.parse_system(spec_doc)
    if command == "solve":
        fields = cli.solution_to_dict(engine.afm_mass(spec, q))
    else:
        closed = engine.afm_mass(spec, q).mass
        oracle = oracles.numeric_afm_minimize(spec, q)
        fields = cli.report_to_dict(oracles.compare(closed, oracle, ORACLE_TOL))
    return "".join(
        f"{key}\t{value!r}\n" if isinstance(value, float) else f"{key}\t{value}\n"
        for key, value in fields.items()
    )


def _cli_op(index, command, argv, spec_doc, runner) -> Op:
    label = f"cli_cold op {index} (auxfield {' '.join(argv)})"
    key = json.dumps([command, spec_doc]).encode()  # spec paths differ between setups
    expected = _expected_output(command, spec_doc)

    def check(result: CliResult):
        if result.code != 0:
            raise _fail(label, f"exit code {result.code}")
        if result.stdout != expected:
            raise _fail(label, f"output {result.stdout!r} != library {expected!r}")
        return {}

    return Op(command, label, key, lambda: runner(argv), check)


def _cli_ops(seed: int, specs: int, runner, workdir: Path, stem: str) -> list[Op]:
    """Rotate solve / verify / baryon-table over seeded linear spec files."""
    rng = np.random.default_rng([seed, 4])
    ops = []
    for i, row in enumerate(_lhs(rng, specs, COLUMNS)):
        _, _, (n, m, a, b) = _linear(row)
        doc = {
            "N": n,
            "mass": m,
            "kinematics": "semirelativistic",
            "one_body": [{"type": "power", "coefficient": a, "exponent": 1.0}] if a > 0 else [],
            "pairwise": [{"type": "power", "coefficient": b, "exponent": 1.0}],
            "modes": [[_pick(row[6], 0, 2), 0]] + [[0, 0]] * (n - 2),
        }
        path = workdir / f"{stem}_{i}.json"
        path.write_text(json.dumps(doc))
        for command, argv, spec_doc in (
            ("solve", ["solve", "--spec", str(path)], doc),
            ("verify", ["verify", "--spec", str(path)], doc),
            ("baryon_table", ["baryon-table", "--lambda", "0.2", "--alphas", "0.4"], None),
        ):
            ops.append(_cli_op(len(ops), command, argv, spec_doc, runner))
    return ops


def cli_cold(seed: int, runner, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    ops = _cli_ops(seed, CLI_SPECS, runner, workdir, "linear")
    warmup = _cli_ops(WARMUP_SEED, 1, runner, workdir, "warmup")

    def cleanup():
        for path in workdir.glob("*.json"):
            path.unlink()
        workdir.rmdir()

    return Workload(
        "cli_cold", ops, warmup, trace_ops=9, cleanup=cleanup, op_clock=time.monotonic
    )


WORKLOADS = ("verify_sweep", "spectrum_scan", "oscillator_exact", "cli_cold")


def build(name: str, seed: int, runner=None, workdir: Path | None = None) -> Workload:
    """Generate a workload's inputs; cli_cold also needs a runner and a directory."""
    if name == "verify_sweep":
        return verify_sweep(seed)
    if name == "spectrum_scan":
        return spectrum_scan(seed)
    if name == "oscillator_exact":
        return oscillator_exact(seed)
    if name == "cli_cold":
        return cli_cold(seed, runner, workdir)
    raise ValueError(f"unknown workload {name!r}")
