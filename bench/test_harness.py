"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest bench -q``.
"""
import dataclasses
import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from auxfield import engine  # noqa: E402


def test_self_time_of_nested_spans():
    ms = 1e-3
    trace = [
        spans.Span("engine.afm_mass", "engine", 0.0, 10 * ms, -1, 0),
        spans.Span("model.validate", "model", 1 * ms, 4 * ms, 0, 0),
        spans.Span("special.cubic_root", "special", 5 * ms, 7 * ms, 0, 0),
    ]
    assert spans.self_times(trace) == pytest.approx([5 * ms, 3 * ms, 2 * ms])
    summary = spans.layer_summary(trace)
    assert summary["engine"]["self_s"] == pytest.approx(5 * ms)
    assert summary["engine"]["busy_s"] == pytest.approx(10 * ms)
    assert summary["model"]["calls"] == 1


def test_busy_time_counts_nested_spans_of_one_layer_once():
    trace = [
        spans.Span("engine.equal_power_mass", "engine", 0.0, 4.0, -1, 0),
        spans.Span("engine.afm_mass", "engine", 1.0, 3.0, 0, 0),
    ]
    summary = spans.layer_summary(trace)["engine"]
    assert summary["busy_s"] == pytest.approx(4.0)
    assert summary["self_s"] == pytest.approx(4.0)
    assert summary["calls"] == 2


def test_install_wraps_cross_layer_names_and_uninstall_restores_them():
    modules = spans.layer_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        names = set(spans.traced_names(modules))
        for name in ("auxfield.engine.cubic_root", "auxfield.ho.symmetric_eigen",
                     "auxfield.systems.lambert_w0", "auxfield.engine.validate",
                     "auxfield.oracles.validate", "auxfield.cli.main"):
            assert name in names
        engine.linear_mass(3, 1.0, 0.2, 0.1, 3.0)
    finally:
        tracer.uninstall()
    assert spans.traced_names(modules) == []
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    recorded = [(s.name, s.layer, s.parent) for s in tracer.spans]
    assert recorded[:2] == [("engine.linear_mass", "engine", -1), ("special.cubic_root", "special", 0)]
    # Newton polishing inside cubic_root calls the public cubic_residual
    assert set(recorded[2:]) == {("special.cubic_residual", "special", 1)}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    def digest(seed, sub):
        workload = workloads.build(name, seed, runner=None, workdir=tmp_path / sub)
        try:
            return workload.digest()
        finally:
            workload.cleanup()

    assert digest(7, "a") == digest(7, "b")
    assert digest(7, "c") != digest(8, "d")


def traced_run(workload: str, trace_ops: int) -> dict:
    """Result line of one traced run of seed 3, cut to its first trace_ops ops."""
    lines = []
    real_build = workloads.build
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "build", lambda *a, **k: dataclasses.replace(
            real_build(*a, **k), trace_ops=trace_ops))
        mp.setattr(run, "print", lambda *a, **k: lines.append(" ".join(map(str, a))),
                   raising=False)
        assert run.main(["--workload", workload, "--seed", "3", "--trace", "1"]) == 0
    return json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs of oscillator_exact (two rounds of sizes) with the same seed."""
    return [traced_run("oscillator_exact", 2 * len(workloads.HO_SIZES)) for _ in range(2)]


def test_traced_run_leaves_no_wrappers(traced_runs):
    assert spans.traced_names(spans.layer_modules()) == []
    assert traced_runs[0]["correct"] is True
    metrics = traced_runs[0]["metrics"]
    assert metrics["special.self_s"]["value"] == max(
        metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)


def test_traced_cli_run_merges_child_spans():
    result = traced_run("cli_cold", len(workloads.CLI_COMMANDS))
    assert spans.traced_names(spans.layer_modules()) == []
    metrics = result["metrics"]
    assert metrics["cli.calls"]["value"] > 0
    assert metrics["oracles.calls"]["value"] > 0  # the verify child's oracle
    assert not (run.OUT / f"work-{os.getpid()}").exists()


def test_same_seed_gives_identical_layer_call_counts(traced_runs):
    first, second = ({k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
                     for r in traced_runs)
    assert len(first) == len(spans.LAYERS)
    assert first == second
    assert first["ho.calls"] > 0 and first["special.calls"] > 0


def test_tail_is_the_eleventh_largest_value():
    values = list(range(1, 101))
    assert run.tail(values) == (90, 90.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)
