"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root: ``python3 -m pytest bench/test_smoke.py``.
Every workload runs one untraced and one traced cycle; each must pass its
output checks and emit every metric BENCHMARK.json names, with its unit.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

TINY = {
    "ensemble_heat": {"n_paths": 4},
    "newton_stability": {"allen_cahn_paths": 2, "burgers1d_paths": 2},
    "audit_zoo": {"samples": 16},
    "residual_replay": {"n_paths": 4},
}
DECLARED = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(bench.WORKLOADS) == {w["name"] for w in DECLARED["workloads"]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_emits_every_metric_with_its_unit(name, trace):
    result = bench.run_workload(name, seed=3, seconds=0, trace=trace, sizes=TINY[name])
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert result["correct"], result["detail"]["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_exits_nonzero_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "audit_zoo", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""
