"""``scripts/trace_peak.py``: one JSON line with a workload's tracemalloc and
resident peaks."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import trace_peak  # noqa: E402


def test_sweep_workload_prints_its_peak():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "trace_peak.py"),
                           "--workload", "sweep_oracle", "--seed", "11"],
                          capture_output=True, text=True, check=True)
    (line,) = done.stdout.splitlines()
    result = json.loads(line)
    assert result["workload"] == "sweep_oracle" and result["seed"] == 11
    # The value's context, its statistics and one draw set: about 1.4 MB.
    assert 0.2 < result["peak_mb"] < 20.0
    # The fresh pass's resident peak holds the interpreter and numpy too.
    assert result["peak_mb"] <= result["vmhwm_mb"] < 500.0


def test_a_failing_pass_raises(tmp_path):
    with pytest.raises(RuntimeError, match="exited 1"):
        trace_peak.pass_vmhwm(["plan", "--preset", "nope", "--out", str(tmp_path / "x")])


def test_a_failing_command_raises(tmp_path):
    with pytest.raises(RuntimeError, match="exited 1"):
        trace_peak.traced_peak(["plan", "--preset", "nope", "--out", str(tmp_path / "x")])
