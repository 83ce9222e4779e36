"""Layered benchmark for auxfield: seeded, closed-loop, single-process workloads.

Run from the repository root:

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 25 --trace 0

Workloads: verify_sweep, spectrum_scan, oscillator_exact, cli_cold (see
bench/README.md for what each measures and why). One op runs at a time on one
thread; the next starts when the previous one has returned.

--trace 0 runs ops for --seconds and reports the end-to-end metrics.
--trace 1 replays the workload's fixed seeded prefix, alternating untraced
chunks with chunks run under span wrappers on every layer, and reports the
per-layer metrics; the spans go to bench/out/ when the run ends.

Every output is checked after the timed region. A wrong answer exits with
code 1 and names the op; a typed AuxFieldError only counts as a failed op.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import time

CLOCK = time.monotonic  # CLOCK_MONOTONIC: comparable across processes
PROCESS_START = CLOCK()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 3  # setups per run; setup_s is their median
SPAWN_REPEATS = 5  # interpreter / import probes in the traced run


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 values beyond it.

    That is the 11th-largest value, at percentile 100 (n - 10) / n. With ten
    values or fewer no percentile qualifies and the maximum is returned as p100.
    """
    xs = sorted(values)
    if not xs:
        return 0.0, 0.0
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# child processes


class CliRunner:
    """Runs one CLI command per call; with a tracer set, merges the child's spans."""

    def __init__(self, env: dict, workdir: Path):
        self.env = env
        self.workdir = workdir
        self.tracer = None
        self._calls = 0

    def __call__(self, argv: list[str]):
        from workloads import CliResult

        spans_path = None
        if self.tracer is None:
            cmd = [sys.executable, "-m", "auxfield.cli", *argv]
        else:
            self._calls += 1
            spans_path = self.workdir / f"spans_{self._calls}.json"
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(spans_path), *argv]
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=ROOT
        )
        with proc.stdout, proc.stderr:
            stdout = proc.stdout.read().decode()
            proc.stderr.read()  # outputs are a few lines, far below the pipe buffer
        # wait4 rather than wait: it reports this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if spans_path is not None:
            self._merge(spans_path)
        return CliResult(proc.returncode, stdout, usage.ru_maxrss)

    def _merge(self, path: Path) -> None:
        import spans

        with open(path, encoding="utf-8") as fh:
            recorded = [spans.Span(**raw) for raw in json.load(fh)]
        path.unlink()
        parent = self.tracer._stack[-1] if self.tracer._stack else -1
        index = {}
        for j, span in enumerate(recorded):
            span.parent = index[span.parent] if span.parent >= 0 else parent
            span.op = self.tracer.op
            index[j] = self.tracer.add(span)


def spawn_ms(env: dict, code: str) -> float:
    """Median wall time of SPAWN_REPEATS `python -c code` processes, in ms."""
    times = []
    for _ in range(SPAWN_REPEATS):
        start = CLOCK()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append(CLOCK() - start)
    return 1e3 * median(times)


def probe_setups(args, env: dict) -> list[tuple[float, str]]:
    """Set the workload up again in fresh processes: (seconds to ready, digest)."""
    out = []
    for _ in range(SETUP_REPEATS):
        start = CLOCK()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        )
        ready = json.loads(proc.stdout.splitlines()[-1])
        out.append((ready["ready"] - start, ready["digest"]))
    return out


# ---------------------------------------------------------------------------
# running ops


def setup(name: str, seed: int, env: dict):
    """Generate the inputs and warm every op group up; returns (workload, runner)."""
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    runner = CliRunner(env, workdir)
    workload = workloads.build(name, seed, runner, workdir)
    run_ops(workload.warmup, workload.op_clock)
    # Keep the op pool out of the collector's scans: a full collection over
    # tens of thousands of closures would show up as latency of library calls.
    gc.collect()
    gc.freeze()
    return workload, runner


def run_ops(ops, op_clock, seconds=None, tracer=None, first=0):
    """Closed loop over ops: until `seconds` pass, or once through when None.

    Returns (records, wall) with one (op index, latency, output, error) per
    op; latency is measured with op_clock, and op indices start at `first`.
    """
    from auxfield import AuxFieldError

    records = []
    i = 0
    start = end = CLOCK()
    deadline = start + seconds if seconds is not None else None
    while (end < deadline) if deadline is not None else (i < len(ops)):
        index = first + i % len(ops)
        op = ops[i % len(ops)]
        root = None
        if tracer is not None:
            tracer.op = index
            root = tracer.begin(f"op.{op.group}", "bench")
        t0 = op_clock()
        out = err = None
        try:
            out = op.run()
        except AuxFieldError as exc:
            err = exc
        latency = op_clock() - t0
        end = CLOCK()
        if root is not None:
            tracer.end(root)
        records.append((index, latency, out, err))
        i += 1
    return records, end - start


def check_records(ops, records) -> dict[str, float]:
    """Check every completed op; returns the largest gap per check kind."""
    gaps: dict[str, float] = {}
    for index, _, out, err in records:
        if err is not None:
            continue
        for kind, gap in ops[index].check(out).items():
            gaps[kind] = max(gaps.get(kind, 0.0), gap)
    return gaps


# ---------------------------------------------------------------------------
# the two modes


def end_to_end(args, env) -> tuple[dict, list[str], int, int]:
    workload, runner = setup(args.workload, args.seed, env)
    own_setup = CLOCK() - PROCESS_START
    try:
        records, wall = run_ops(workload.ops, workload.op_clock, seconds=args.seconds)
        check_records(workload.ops, records)
    finally:
        workload.cleanup()
    probes = probe_setups(args, env)
    digests = {digest for _, digest in probes} | {workload.digest()}
    if len(digests) != 1:
        raise RuntimeError(f"the same seed gave different inputs: {sorted(digests)}")

    done = [lat for _, lat, _, err in records if err is None]
    attempted, failed = len(records), len(records) - len(done)
    if workload.name == "cli_cold":
        peak_kb = max(out.maxrss_kb for _, _, out, err in records if err is None)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_s, tail_pct = tail(done)
    setup_s = median([s for s, _ in probes])
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(done) / wall, "1/s"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    notes = [
        f"setup_s: median of {len(probes)} fresh-process setups "
        f"{[round(s, 4) for s, _ in probes]}; this process {own_setup:.4f} s after start",
        f"latency_tail_ms: p{tail_pct:.2f} of {len(done)} completed ops",
        # Printed only: the host switches between two speed modes every few
        # milliseconds, and the median of few-millisecond ops jumps between them.
        f"latency_p50_ms: {1e3 * median(done):.6g} ms (median time per completed op)",
        f"fail_ratio: {failed / attempted:.6f} ({failed} of {attempted} ops raised AuxFieldError)",
        f"timed region: {wall:.3f} s",
    ]
    return metrics, notes, attempted, failed


def _p50_us(durations: list[float]) -> float:
    return 1e6 * median(durations)


def per_layer(args, env) -> tuple[dict, list[str], int, int]:
    import spans

    workload, runner = setup(args.workload, args.seed, env)
    ops = workload.ops[: workload.trace_ops]
    modules = spans.layer_modules()
    tracer = spans.Tracer()
    plain, traced = [], []
    wall_plain = wall_traced = 0.0
    # Untraced and traced passes alternate chunk by chunk (one op per group),
    # so a drift in the host's speed reaches both sides of the overhead ratio.
    chunk = len(workload.warmup)
    try:
        for first in range(0, len(ops), chunk):
            part = ops[first : first + chunk]
            left = spans.traced_names(modules)
            if left:
                raise RuntimeError(f"span wrappers seen by the untraced pass: {left}")
            records, wall = run_ops(part, workload.op_clock, first=first)
            plain += records
            wall_plain += wall
            tracer.install(modules)
            runner.tracer = tracer
            try:
                records, wall = run_ops(part, workload.op_clock, tracer=tracer, first=first)
            finally:
                runner.tracer = None
                tracer.uninstall()
            traced += records
            wall_traced += wall
        left = spans.traced_names(modules)
        if left:
            raise RuntimeError(f"span wrappers left installed: {left}")
        gaps = check_records(ops, plain)
        check_records(ops, traced)
    finally:
        workload.cleanup()
    for (i, _, a, ea), (_, _, b, eb) in zip(plain, traced):
        if a != b or type(ea) is not type(eb):
            raise RuntimeError(f"{ops[i].label}: traced output differs from untraced")

    interp_ms = spawn_ms(env, "pass")
    import_ms = spawn_ms(env, "import auxfield") - interp_ms

    by_name: dict[str, list[float]] = {}
    by_group: dict[tuple[str, str], list[float]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span.duration)
        group = ops[span.op].group
        by_group.setdefault((span.name, group), []).append(span.duration)

    def names(*wanted):
        return [d for name in wanted for d in by_name.get(name, [])]

    metrics = {}
    for layer, row in spans.layer_summary(tracer.spans).items():
        metrics[f"{layer}.calls"] = (row["calls"], "count")
        metrics[f"{layer}.busy_s"] = (row["busy_s"], "s")
        metrics[f"{layer}.self_s"] = (row["self_s"], "s")
        metrics[f"{layer}.fail"] = (row["fail"], "count")
    afm = names("engine.afm_mass")
    metrics["engine.afm_mass.p50_us"] = (_p50_us(afm), "us")
    metrics["engine.afm_mass.tail_us"] = (1e6 * tail(afm)[0], "us")
    metrics["engine.closed_form.p50_us"] = (
        _p50_us(names("engine.equal_power_mass", "engine.linear_mass")), "us")
    metrics["systems.closed_form.p50_us"] = (
        _p50_us(names("systems.baryonic_ur", "systems.atomic_mass",
                      "systems.gaussian_spectrum")), "us")
    metrics["ho.srho_mass.p50_us"] = (_p50_us(names("ho.srho_mass")), "us")
    from workloads import CLI_COMMANDS, HO_SIZES, VERIFY_FAMILIES

    for family in VERIFY_FAMILIES:
        durations = by_group.get(("oracles.numeric_afm_minimize", family), [])
        metrics[f"oracles.numeric_afm_minimize.{family}.p50_ms"] = (1e3 * median(durations), "ms")
    oracle = names("oracles.numeric_afm_minimize")
    metrics["oracles.numeric_afm_minimize.tail_ms"] = (1e3 * tail(oracle)[0], "ms")
    metrics["oracles.gaussian_trial_bound.p50_us"] = (
        _p50_us(names("oracles.gaussian_trial_bound")), "us")
    metrics["engine.max_rel_gap"] = (gaps.get("engine", 0.0), "ratio")
    metrics["oracles.max_rel_gap"] = (gaps.get("oracles", 0.0), "ratio")
    for n in HO_SIZES:
        general = by_group.get(("ho.ho_energies_general", f"n{n}"), [])
        eigen = by_group.get(("special.symmetric_eigen", f"n{n}"), [])
        metrics[f"ho.ho_energies_general.n{n}.p50_us"] = (_p50_us(general), "us")
        metrics[f"special.symmetric_eigen.d{n - 1}.p50_us"] = (_p50_us(eigen), "us")
    metrics["special.roots.p50_us"] = (
        _p50_us(names("special.cubic_root", "special.quartic_root", "special.lambert_w0")),
        "us")
    metrics["cli.interp_ms"] = (interp_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    for command in CLI_COMMANDS:
        lat = [lat for i, lat, _, err in plain if ops[i].group == command and err is None]
        metrics[f"cli.{command}.p50_ms"] = (1e3 * median(lat), "ms")
    metrics["trace.overhead_ratio"] = (wall_traced / wall_plain, "ratio")

    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "ops": [{"label": op.label, "group": op.group} for op in ops],
                "spans": [asdict(span) for span in tracer.spans],
            },
            fh,
        )
    failed = sum(err is not None for _, _, _, err in plain)
    notes = [
        f"fixed prefix of {len(ops)} ops, {len(tracer.spans)} spans written to "
        f"{dump.relative_to(ROOT)}",
        f"untraced {wall_plain:.4f} s, traced {wall_traced:.4f} s",
    ]
    return metrics, notes, len(plain), failed


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "auxfield" / "__init__.py").is_file():
        print(f"error: no auxfield package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import auxfield
    import workloads

    if Path(auxfield.__file__).resolve().parent != SRC / "auxfield":
        print(f"error: imported auxfield from {auxfield.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = workloads.child_env(SRC)

    if args.setup_probe:
        workload, _ = setup(args.workload, args.seed, env)
        ready = CLOCK()
        workload.cleanup()
        print(json.dumps({"ready": ready, "digest": workload.digest()}))
        return 0

    print(f"# auxfield benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        if args.trace:
            metrics, notes, attempted, failed = per_layer(args, env)
        else:
            metrics, notes, attempted, failed = end_to_end(args, env)
    except workloads.CheckFailed as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        return 1
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
