"""Hardware models driven by *measured* simulator results.

The calibration tests in ``test_hw_models.py`` pin the analytic models
against the paper's published numbers in isolation.  These tests close the
other half of the contract: feed real :class:`SystemRunResult`\\ s from the
cycle-level simulator into the power/area models and check

* the paper's power envelope (100-300 mW per benchmark, PACK at most ~31 %
  above BASE — Fig. 4c),
* that the topology power model degenerates exactly to the single-system
  model at 1 engine x 1 channel,
* the Fig. 5c prime-vs-power-of-two bank crossover, and
* that the committed ``results/pareto.csv`` stays reproducible: cycles,
  power and energy efficiency of its 1x1 anchor rows match a fresh run.
"""

import csv
from pathlib import Path

import pytest

from repro.analysis.headline import workload_spec_kwargs
from repro.analysis.pareto import channel_beat_rates, topology_area_kge
from repro.axi.transaction import reset_txn_ids
from repro.errors import ConfigurationError
from repro.hw.crossbar_area import BankCrossbarAreaModel
from repro.hw.energy import EnergyModel
from repro.system.config import SystemConfig, SystemKind
from repro.system.runner import run_workload
from repro.workloads import make_workload

from conftest import prime_overhead_fraction

PARETO_CSV = Path(__file__).resolve().parents[1] / "results" / "pareto.csv"

MEASURED_WORKLOADS = ("gemv", "spmv", "csrspmv")


def _measure(name, kind, engines=1, channels=1):
    config = SystemConfig().with_kind(kind)
    if engines != 1:
        config = config.with_engines(engines)
    if channels != 1:
        config = config.with_channels(channels)
    reset_txn_ids()
    workload = make_workload(name, **workload_spec_kwargs(name, "small"))
    return run_workload(workload, config)


@pytest.fixture(scope="module")
def measured():
    """BASE and PACK 1x1 runs of the pareto workloads at --scale small."""
    return {
        (name, kind): _measure(name, kind)
        for name in MEASURED_WORKLOADS
        for kind in (SystemKind.BASE, SystemKind.PACK)
    }


@pytest.fixture(scope="module")
def pareto_rows():
    with PARETO_CSV.open(newline="") as handle:
        return {(row["workload"], row["system"], int(row["engines"]),
                 int(row["channels"])): row
                for row in csv.DictReader(handle)}


class TestMeasuredPower:
    def test_benchmark_powers_in_paper_envelope(self, measured):
        energy = EnergyModel()
        for result in measured.values():
            power = energy.system_power_mw(result)
            assert 100.0 <= power <= 300.0

    def test_pack_power_ceiling(self, measured):
        # Fig. 4c: PACK draws at most ~31 % more power than BASE.  On the
        # indirect kernels it can even draw marginally less (fewer wasted
        # beats on the R channel), hence the small negative floor.
        energy = EnergyModel()
        for name in MEASURED_WORKLOADS:
            comparison = energy.compare(measured[(name, SystemKind.BASE)],
                                        measured[(name, SystemKind.PACK)])
            assert -0.05 < comparison.power_increase <= 0.31

    def test_topology_power_degenerates_at_1x1(self, measured):
        energy = EnergyModel()
        for result in measured.values():
            assert energy.topology_power_mw(result) == pytest.approx(
                energy.system_power_mw(result), rel=1e-12
            )

    def test_topology_power_validation(self, measured):
        energy = EnergyModel()
        result = measured[("gemv", SystemKind.PACK)]
        with pytest.raises(ConfigurationError):
            energy.topology_power_mw(result, num_engines=0)
        with pytest.raises(ConfigurationError):
            energy.topology_power_mw(result, num_channels=0)
        with pytest.raises(ConfigurationError):
            energy.topology_power_mw(result, num_channels=2,
                                     channel_beats_per_cycle=[0.5])

    def test_measured_channel_rates_feed_power(self):
        result = _measure("spmv", SystemKind.PACK, engines=2, channels=2)
        rates = channel_beat_rates(result, 2)
        assert rates is not None and len(rates) == 2
        assert all(rate >= 0.0 for rate in rates)
        energy = EnergyModel()
        measured_power = energy.topology_power_mw(
            result, num_engines=2, num_channels=2,
            channel_beats_per_cycle=rates,
        )
        saturated_power = energy.topology_power_mw(
            result, num_engines=2, num_channels=2,
            channel_beats_per_cycle=[1.0, 1.0],
        )
        # Measured (possibly imbalanced) traffic can never burn more than
        # M fully-loaded channels.
        assert measured_power <= saturated_power

    def test_single_channel_rates_are_none(self, measured):
        assert channel_beat_rates(measured[("gemv", SystemKind.BASE)], 1) is None


class TestFig5cCrossover:
    """Prime vs power-of-two bank counts, paper Fig. 5c."""

    def test_prime_cheaper_than_next_pow2_at_high_counts(self):
        model = BankCrossbarAreaModel(num_ports=8)
        # Low counts: the prime's modulo/divider overhead dominates and the
        # next power of two is cheaper...
        assert model.total_kge(11) > model.total_kge(16)
        # ...but past the crossover the crossbar's O(banks) wiring wins and
        # the prime (17 < 32) undercuts the next power of two.
        assert model.total_kge(17) < model.total_kge(32)
        assert model.total_kge(31) > model.total_kge(17)

    def test_prime_overhead_fraction_shrinks_with_banks(self):
        model = BankCrossbarAreaModel(num_ports=8)
        fractions = [prime_overhead_fraction(model.breakdown(n))
                     for n in (11, 17, 31)]
        assert fractions[0] > fractions[1] > fractions[2] > 0.0
        assert prime_overhead_fraction(model.breakdown(16)) == 0.0


class TestCommittedParetoCsv:
    def test_anchor_rows_reproduce(self, measured, pareto_rows):
        """Fresh 1x1 runs match the committed cycles/power/energy_eff."""
        energy = EnergyModel()
        for name in MEASURED_WORKLOADS:
            base = measured[(name, SystemKind.BASE)]
            pack = measured[(name, SystemKind.PACK)]
            base_row = pareto_rows[(name, "base", 1, 1)]
            pack_row = pareto_rows[(name, "pack", 1, 1)]
            assert base.cycles == int(base_row["cycles"])
            assert pack.cycles == int(pack_row["cycles"])
            assert energy.system_power_mw(pack) == pytest.approx(
                float(pack_row["power_mw"])
            )
            base_energy = energy.system_power_mw(base) * base.cycles
            pack_energy = energy.system_power_mw(pack) * pack.cycles
            assert base_energy / pack_energy == pytest.approx(
                float(pack_row["energy_eff"])
            )
            assert base_row["verified"] == pack_row["verified"] == "True"

    def test_fig4c_energy_efficiency_peaks(self, pareto_rows):
        # gemv (packed strided) carries the headline efficiency gain;
        # the indirect kernels gain less but still gain.
        gemv = float(pareto_rows[("gemv", "pack", 1, 1)]["energy_eff"])
        spmv = float(pareto_rows[("spmv", "pack", 1, 1)]["energy_eff"])
        csr = float(pareto_rows[("csrspmv", "pack", 1, 1)]["energy_eff"])
        assert gemv == pytest.approx(4.83, abs=0.3)
        assert gemv > spmv > 1.0
        assert gemv > csr > 1.0

    def test_area_column_matches_model(self, pareto_rows):
        config = SystemConfig()
        for (name, system, engines, channels), row in pareto_rows.items():
            expected = topology_area_kge(config, SystemKind(system),
                                         engines, channels)
            assert float(row["area_kge"]) == pytest.approx(expected)

    def test_ideal_rows_bound_the_frontier(self, pareto_rows):
        # IDEAL bounds what a perfect *memory* buys — it beats BASE on
        # every workload and carries engine area only.  It does NOT always
        # beat PACK: on the indirect kernels PACK compresses the traffic
        # itself, which an ideal memory cannot (the paper's core claim).
        for name in MEASURED_WORKLOADS:
            ideal = pareto_rows[(name, "ideal", 1, 1)]
            base = pareto_rows[(name, "base", 1, 1)]
            pack = pareto_rows[(name, "pack", 1, 1)]
            assert int(ideal["cycles"]) < int(base["cycles"])
            assert float(ideal["area_kge"]) < float(base["area_kge"])
            assert float(ideal["area_kge"]) < float(pack["area_kge"])
