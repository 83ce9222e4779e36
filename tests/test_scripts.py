"""The scripts under scripts/ run clean and exit 1 on a failed check."""
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_oracle_sweep_runs_clean():
    result = run_script("oracle_sweep.py", "3")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    families = [line for line in lines if "worst relative gap" in line]
    assert len(families) == 6
    for line in families + [line for line in lines if line.startswith("worst duality gap")]:
        assert line.endswith("ok"), line


def test_baryon_table_runs_clean():
    result = run_script("baryon_table.py", "0.2", "0.4")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "WARNING" not in result.stdout
    assert len(result.stdout.splitlines()) == 19  # header lines, 16 rows, worst error


def test_baryon_table_exits_1_on_a_warning():
    # a weaker string tension puts M0 below the benchmark masses of 0.2 GeV^2
    result = run_script("baryon_table.py", "0.1", "0.4")
    assert "WARNING" in result.stdout
    assert result.returncode == 1


def test_oracle_sweep_exits_1_on_a_violation(monkeypatch, capsys):
    # an oracle that answers 1.0 disagrees with every closed form
    import auxfield.oracles

    monkeypatch.setattr(auxfield.oracles, "numeric_afm_minimize", lambda spec, q: 1.0)
    monkeypatch.setattr(sys, "argv", ["oracle_sweep.py", "1"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "oracle_sweep.py"), run_name="__main__")
    assert exit_info.value.code == 1
    assert "VIOLATION" in capsys.readouterr().out


def test_golden_script_rewrites_the_file_and_flags_a_moved_output(tmp_path):
    path = tmp_path / "closed_forms.json"
    result = run_script("golden.py", "--write", str(path))
    assert result.returncode == 0, result.stdout + result.stderr
    assert path.read_bytes() == (ROOT / "tests" / "golden" / "closed_forms.json").read_bytes()
    doc = json.loads(path.read_text())
    doc["cubic_root"]["outputs"][0] = [(1.5).hex()]
    path.write_text(json.dumps(doc))
    result = run_script("golden.py", str(path))
    assert result.returncode == 1
    assert "cubic_root draw 0" in result.stdout
