"""Tiny-scale smoke check of the benchmark itself.

Run from the repository root (not part of the tier-1 suite, which is
scoped to ``tests/``)::

    python -m pytest perfbench -q

Every workload must print every metric ``BENCHMARK.json`` names, with its
unit, in both the untraced and the traced run; a traced stretch must leave
no span wrapper installed; and without the sources the benchmark must fail
without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CATALOG = json.load(_handle)

WORKLOADS = [entry["name"] for entry in CATALOG["workloads"]]


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "11", "--seconds", "1",
                  "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = CATALOG["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in wanted
    }
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        if not trace:
            assert metric["value"] > 0


def test_traced_pass_leaves_no_wrapper_installed():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import simulate
        from spans import Tracer, installed_spans

        from repro.sim.engine import Engine

        original = Engine.__dict__["run_until"]
        assert installed_spans() == []
        tracer = Tracer()
        with tracer:
            assert "Engine.run_until" in installed_spans()
            traced = simulate.run_pass(simulate.POINT_SETS["crossbar-sram"], 11, "tiny")
        assert installed_spans() == []
        assert Engine.__dict__["run_until"] is original
        assert traced.failed == 0
        assert tracer.calls["axi.mux"] > 0 and tracer.calls["axi.demux"] > 0
        assert tracer.busy_cycles <= tracer.cycles
        untraced = simulate.run_pass(simulate.POINT_SETS["crossbar-sram"], 11, "tiny")
        assert simulate.compare_passes(untraced, traced) == 0
    finally:
        del sys.path[:2]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(str(tmp_path), "--workload", WORKLOADS[0], "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
