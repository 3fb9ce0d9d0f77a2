"""The CI bench gate (``benchmarks/check_bench_regression.py``) on synthetic payloads.

Each case writes a small current/baseline pair into ``tmp_path`` and runs the
gate's ``main`` on it: identical payloads pass, and every gate (cycle
identity in both directions, the per-point identity flags, the calibrated
throughput floor and the supervision counters) fails on its own defect.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

GATE_PATH = (Path(__file__).resolve().parents[1]
             / "benchmarks" / "check_bench_regression.py")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression",
                                                  GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _point(workload, system, engines, cycles):
    point = {
        "workload": workload,
        "system": system,
        "memory": "sram",
        "memory_latency": 1,
        "engines": engines,
        "cycles": cycles,
        "identical_to_full": True,
        "identical_to_naive": True,
    }
    if engines == 1:
        point["identical_to_scalar"] = True
    return point


BASELINE = {
    "calibration_score": 1000.0,
    "grid": [
        _point("gemv", "base", 1, 5000),
        _point("gemv", "pack", 1, 1200),
        _point("gemv", "base", 2, 3100),
    ],
    "totals": {"cycles_per_sec": 100000.0, "elide_cycles_per_sec": 120000.0,
               "elide_speedup": 1.2},
    "supervision": {"retries": 0, "timeouts": 0, "worker_losses": 0},
}


def _run(gate, tmp_path, current, baseline=BASELINE):
    paths = []
    for name, payload in (("current.json", current),
                          ("baseline.json", baseline)):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    return gate.main(paths)


def test_identical_payload_passes(gate, tmp_path, capsys):
    assert _run(gate, tmp_path, BASELINE) == 0
    out = capsys.readouterr().out
    assert "cycle identity: 3 grid points matched against baseline" in out
    assert "bench gate passed" in out


def test_changed_cycle_count_fails(gate, tmp_path, capsys):
    current = copy.deepcopy(BASELINE)
    current["grid"][1]["cycles"] += 1
    assert _run(gate, tmp_path, current) == 1
    err = capsys.readouterr().err
    assert "cycle counts changed" in err
    assert "gemv/pack/sram" in err and "1200 -> 1201" in err


def test_missing_baseline_point_fails(gate, tmp_path, capsys):
    current = copy.deepcopy(BASELINE)
    del current["grid"][2]
    assert _run(gate, tmp_path, current) == 1
    err = capsys.readouterr().err
    assert "missing from the current run" in err
    assert "gemv/base/sram" in err


def test_divergence_report_names_the_engine_count(gate, tmp_path, capsys):
    current = copy.deepcopy(BASELINE)
    current["grid"][2]["identical_to_naive"] = False
    assert _run(gate, tmp_path, current) == 1
    err = capsys.readouterr().err
    assert "diverged from the seed-behaviour engine" in err
    assert "gemv/base/sram/engines=2" in err
    assert "engines=1" not in err


@pytest.mark.parametrize("key", ["cycles_per_sec", "elide_cycles_per_sec"])
@pytest.mark.parametrize("fraction, status", [(0.79, 1), (0.81, 0)])
def test_throughput_floor_is_calibrated(gate, tmp_path, capsys, key,
                                        fraction, status):
    # This machine is twice as fast as the baseline's, so the gate expects
    # twice the baseline throughput and allows 20% below that.
    current = copy.deepcopy(BASELINE)
    current["calibration_score"] = 2 * BASELINE["calibration_score"]
    for total in ("cycles_per_sec", "elide_cycles_per_sec"):
        current["totals"][total] *= 2
    current["totals"][key] *= fraction
    assert _run(gate, tmp_path, current) == status
    assert ("regressed" in capsys.readouterr().err) == bool(status)


def test_nonzero_supervision_counter_fails(gate, tmp_path, capsys):
    current = copy.deepcopy(BASELINE)
    current["supervision"]["retries"] = 1
    assert _run(gate, tmp_path, current) == 1
    assert "supervision activity: {'retries': 1}" in capsys.readouterr().err
