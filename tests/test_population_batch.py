"""Golden parity for population-tier batching (PR: one tensor program
per (chip, core) population).

Every batched tier must be bit-identical to its serial counterpart:

* ``measure_suite_batched`` vs per-request measurement,
* ``retune_batched`` vs per-core ``retune``,
* ``run_timelines_batched`` vs per-core ``run_timeline`` (RNG streams
  included),
* ``ExperimentRunner.run_units_batched`` vs per-unit ``run_unit`` rows
  across (environment x mode x workload) combinations,

plus the strategy knob (``--serial-units`` / ``EVAL_REPRO_SERIAL_UNITS``),
the backend shim, the measurement LRU, and the content-hash cache key.
"""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from repro import obs
from repro.backend import available_backends, get_backend, set_backend
from repro.obs import MetricsRegistry
from repro.chip.chip import CoreLanes, build_core, build_novar_core
from repro.config import Settings
from repro.core import TS, TS_ASV, TS_ASV_Q_FU, AdaptationMode
from repro.core.retuning import retune, retune_batched
from repro.core.state import Configuration
from repro.core.timeline import run_timeline, run_timelines_batched
from repro.exps.runner import ExperimentRunner, RunnerConfig
from repro.microarch.phases import generate_phase_stream
from repro.microarch.pipeline import DEFAULT_CORE_CONFIG
from repro.microarch.simulator import (
    clear_measurement_cache,
    measure_suite_batched,
    measure_workload,
    measurement_cache_len,
    set_measurement_cache_capacity,
)
from repro.microarch.workloads import WorkloadProfile
from repro.mitigation.base import TechniqueState

UNIT_CONFIG = RunnerConfig(
    n_chips=3,
    cores_per_chip=1,
    n_instructions=5000,
    fuzzy_examples=300,
    fuzzy_epochs=1,
)


def _runner(batch_units, workloads):
    return ExperimentRunner(
        UNIT_CONFIG, workloads=list(workloads), batch_units=batch_units
    )


# ----------------------------------------------------------------------
# Tentpole: batched unit execution == serial unit execution, bit for bit.
# ----------------------------------------------------------------------
class TestRunUnitsBatchedParity:
    @pytest.mark.parametrize(
        "env, mode, first, last",
        [
            (TS, AdaptationMode.EXH_DYN, 0, 2),
            (TS_ASV_Q_FU, AdaptationMode.EXH_DYN, 2, 4),
            (TS_ASV, AdaptationMode.FUZZY_DYN, 4, 6),
        ],
        ids=["TS-exh", "TS+ASV+Q+FU-exh", "TS+ASV-fuzzy"],
    )
    def test_rows_bit_identical(self, suite, env, mode, first, last):
        """Batched == serial rows across env x mode x workload combos."""
        workloads = suite[first:last]
        units = [(chip, 0) for chip in range(UNIT_CONFIG.n_chips)]
        batched = _runner(True, workloads).run_units_batched(env, mode, units)
        serial_runner = _runner(False, workloads)
        serial = [
            serial_runner.run_unit(env, mode, chip, core)
            for chip, core in units
        ]
        assert batched == serial

    def test_static_mode_falls_back_to_serial(self, suite):
        """Static has a per-chip aggregation step: always per-unit."""
        workloads = suite[:2]
        units = [(chip, 0) for chip in range(UNIT_CONFIG.n_chips)]
        batched = _runner(True, workloads).run_units_batched(
            TS, AdaptationMode.STATIC, units
        )
        serial_runner = _runner(False, workloads)
        serial = [
            serial_runner.run_unit(TS, AdaptationMode.STATIC, chip, core)
            for chip, core in units
        ]
        assert batched == serial

    def test_opt_out_knob_routes_serially(self, suite, monkeypatch):
        """``batch_units=False`` must not enter the batched kernels."""
        import repro.exps.runner as runner_mod

        def forbidden(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("batched kernel entered with knob off")

        monkeypatch.setattr(runner_mod, "optimize_units_batched", forbidden)
        runner = _runner(False, suite[:1])
        units = [(chip, 0) for chip in range(UNIT_CONFIG.n_chips)]
        rows = runner.run_units_batched(TS, AdaptationMode.EXH_DYN, units)
        assert len(rows) == len(units)

    def test_single_unit_block_matches_run_unit(self, suite):
        """A 1-unit block stays on the batched path (uniform metric
        structure regardless of chunking) and still matches run_unit."""
        runner = _runner(True, suite[:1])
        [rows] = runner.run_units_batched(
            TS, AdaptationMode.EXH_DYN, [(0, 0)]
        )
        assert rows == runner.run_unit(TS, AdaptationMode.EXH_DYN, 0, 0)


class TestBatchUnitsKnobPlumbing:
    def test_env_opt_out(self):
        assert Settings.from_env({}).batch_units is True
        assert (
            Settings.from_env({"EVAL_REPRO_SERIAL_UNITS": "1"}).batch_units
            is False
        )

    def test_cli_opt_out(self):
        parser = argparse.ArgumentParser()
        Settings.add_cli_arguments(parser, Settings.from_env({}))
        args = parser.parse_args(["--serial-units"])
        assert Settings.from_args(args, Settings.from_env({})).batch_units \
            is False
        args = parser.parse_args([])
        assert Settings.from_args(args, Settings.from_env({})).batch_units \
            is True

    def test_from_settings_reaches_the_runner(self):
        runner = ExperimentRunner.from_settings(
            Settings(chips=2, batch_units=False),
            config=RunnerConfig(n_chips=2),
        )
        assert runner.batch_units is False
        assert ExperimentRunner.from_settings(
            Settings(chips=2), config=RunnerConfig(n_chips=2)
        ).batch_units is True

    def test_not_in_hashed_runner_config(self):
        """Strategy, not physics: must stay out of the cache-key config."""
        assert "batch_units" not in {
            f.name for f in RunnerConfig.__dataclass_fields__.values()
        }


# ----------------------------------------------------------------------
# Lane-masked adaptation tiers.
# ----------------------------------------------------------------------
class TestRetuneBatchedParity:
    @staticmethod
    def _assert_same(one, many):
        """RetuningResults hold arrays, so compare field by field."""
        assert one.outcome == many.outcome
        assert one.initial_violation == many.initial_violation
        assert one.f_initial == many.f_initial
        assert one.steps == many.steps
        assert one.config.f_core == many.config.f_core
        assert np.array_equal(one.config.vdd, many.config.vdd)
        assert np.array_equal(one.config.vbb, many.config.vbb)
        assert one.state.total_power == many.state.total_power
        assert np.array_equal(
            one.state.pe_per_subsystem, many.state.pe_per_subsystem
        )
        assert np.array_equal(one.state.temperature, many.state.temperature)

    def _entry(self, core, meas):
        spec = TS.optimization_spec(core.n_subsystems, core.calib)
        n = core.n_subsystems
        technique = TechniqueState(domain=meas.domain)
        return Configuration(
            f_core=core.calib.f_nominal * 0.9,
            vdd=np.full(n, core.calib.vdd_nominal),
            vbb=np.zeros(n),
            technique=technique,
        ), spec

    def test_many_cores_one_call(self, population, int_measurement,
                                 fp_measurement):
        cores = [build_core(chip, 0) for chip in population[:4]]
        measurements = [int_measurement, fp_measurement] * 2
        configs, specs = [], []
        for core, meas in zip(cores, measurements):
            config, spec = self._entry(core, meas)
            configs.append(config)
            specs.append(spec)
        pe_max = cores[0].calib.pe_max
        serial = [
            retune(
                core, config, meas.activity, meas.rho,
                pe_max=pe_max, checker=True,
            )
            for core, config, meas in zip(cores, configs, measurements)
        ]
        batched = retune_batched(
            cores, configs,
            [m.activity for m in measurements],
            [m.rho for m in measurements],
            pe_max=pe_max, checker=True,
        )
        for one, many in zip(serial, batched):
            self._assert_same(one, many)

    def test_shared_core_fast_path(self, core, int_measurement):
        config, spec = self._entry(core, int_measurement)
        pe_max = core.calib.pe_max
        serial = retune(
            core, config, int_measurement.activity, int_measurement.rho,
            pe_max=pe_max, checker=True,
        )
        batched = retune_batched(
            [core] * 3, [config] * 3,
            [int_measurement.activity] * 3, [int_measurement.rho] * 3,
            pe_max=pe_max, checker=True,
        )
        for many in batched:
            self._assert_same(serial, many)


class TestTimelineBatchedParity:
    def test_lockstep_rng_streams(self, population, suite):
        cores = [build_core(chip, 0) for chip in population[:3]]
        stream = generate_phase_stream(suite[0], total_ms=700.0, seed=11)
        serial = [
            run_timeline(core, TS_ASV_Q_FU, stream,
                         mode=AdaptationMode.EXH_DYN, seed=5)
            for core in cores
        ]
        batched = run_timelines_batched(
            cores, TS_ASV_Q_FU, stream,
            mode=AdaptationMode.EXH_DYN, seed=5,
        )
        for one, many in zip(serial, batched):
            assert one.events == many.events

    def test_per_lane_seeds(self, population, suite):
        cores = [build_core(chip, 0) for chip in population[:2]]
        stream = generate_phase_stream(suite[1], total_ms=500.0, seed=3)
        serial = [
            run_timeline(core, TS, stream, mode=AdaptationMode.EXH_DYN,
                         seed=seed)
            for core, seed in zip(cores, (5, 9))
        ]
        batched = run_timelines_batched(
            cores, TS, stream, mode=AdaptationMode.EXH_DYN, seed=[5, 9],
        )
        for one, many in zip(serial, batched):
            assert one.events == many.events


# ----------------------------------------------------------------------
# Microarch tier: batched trace walks.
# ----------------------------------------------------------------------
class TestSimulateBatchParity:
    def test_measure_suite_batched_matches_serial(self, suite):
        clear_measurement_cache()
        resized = DEFAULT_CORE_CONFIG.with_resized_queue("fp")
        requests = [
            (suite[0], DEFAULT_CORE_CONFIG),
            (suite[0], resized),
            (suite[3], DEFAULT_CORE_CONFIG),
        ]
        batched = measure_suite_batched(requests, 4000, seed=2)
        clear_measurement_cache()
        serial = [
            measure_workload(profile, config, 4000, seed=2)
            for profile, config in requests
        ]
        clear_measurement_cache()
        for one, many in zip(serial, batched):
            assert one.cpi_comp == many.cpi_comp
            assert one.cpi_total == many.cpi_total
            assert one.overlap_factor == many.overlap_factor
            assert np.array_equal(one.activity, many.activity)
            assert np.array_equal(one.rho, many.rho)


# ----------------------------------------------------------------------
# Satellite: bounded LRU + content-hash keys.
# ----------------------------------------------------------------------
class TestMeasurementCacheLRU:
    def test_eviction_keeps_capacity_and_counts(self, suite):
        clear_measurement_cache()
        previous = set_measurement_cache_capacity(2)
        try:
            with obs.scoped(MetricsRegistry()) as registry:
                for profile in suite[:3]:
                    measure_workload(
                        profile, DEFAULT_CORE_CONFIG, 3000, seed=4
                    )
                assert measurement_cache_len() == 2
                counters = registry.to_dict()["counters"]
                assert counters["microarch.cache.misses"] == 3.0
                assert counters["microarch.cache.evictions"] == 1.0
                # The most recent entry still hits.
                measure_workload(suite[2], DEFAULT_CORE_CONFIG, 3000, seed=4)
                counters = registry.to_dict()["counters"]
                assert counters["microarch.cache.hits"] == 1.0
        finally:
            set_measurement_cache_capacity(previous)
            clear_measurement_cache()

    def test_content_hash_aliases_equal_profiles(self, suite):
        """A structurally identical rebuild shares the cache entry."""
        clear_measurement_cache()
        original = suite[0]
        rebuilt = WorkloadProfile(**{
            name: getattr(original, name)
            for name in original.__dataclass_fields__
        })
        assert rebuilt is not original
        assert rebuilt.content_hash() == original.content_hash()
        first = measure_workload(original, DEFAULT_CORE_CONFIG, 3000, seed=6)
        before = measurement_cache_len()
        second = measure_workload(rebuilt, DEFAULT_CORE_CONFIG, 3000, seed=6)
        assert measurement_cache_len() == before
        assert second is first
        clear_measurement_cache()


# ----------------------------------------------------------------------
# Satellite: the array-backend shim.
# ----------------------------------------------------------------------
class TestBackendShim:
    def test_numpy_is_the_default_and_selectable(self):
        backend = get_backend()
        assert backend.name == "numpy"
        assert set_backend("numpy").xp is np
        assert "numpy" in available_backends()

    def test_unknown_backend_is_an_error(self):
        with pytest.raises(ValueError):
            set_backend("tpu9000")

    def test_explicit_numpy_backend_passes_the_parity_suite(self, suite):
        """The acceptance check: same rows with the backend pinned."""
        set_backend("numpy")
        units = [(chip, 0) for chip in range(UNIT_CONFIG.n_chips)]
        batched = _runner(True, suite[:1]).run_units_batched(
            TS_ASV, AdaptationMode.EXH_DYN, units
        )
        serial_runner = _runner(False, suite[:1])
        serial = [
            serial_runner.run_unit(TS_ASV, AdaptationMode.EXH_DYN, chip, core)
            for chip, core in units
        ]
        assert batched == serial


# ----------------------------------------------------------------------
# Vectorised lane assembly == per-lane assembly, bit for bit.
# ----------------------------------------------------------------------
class TestStackedPhaseArrays:
    def test_matches_per_lane_stack(self, population, int_measurement,
                                    fp_measurement):
        from repro.core.adaptation import _phase_arrays, _stacked_phase_arrays
        from repro.core.optimizer import _ARRAY_FIELDS, SubsystemArrays

        cores = [build_core(chip, 0) for chip in population[:3]]
        lane_cores = [core for core in cores for _ in range(2)]
        measurements = [int_measurement, fp_measurement] * 3
        techniques = [
            TechniqueState(queue_full=bool(lane % 2), lowslope=lane % 3 == 0,
                           domain=meas.domain)
            for lane, meas in enumerate(measurements)
        ]
        reference = SubsystemArrays.stack([
            _phase_arrays(core, technique, meas)
            for core, technique, meas in zip(
                lane_cores, techniques, measurements
            )
        ])
        fast = _stacked_phase_arrays(lane_cores, techniques, measurements)
        for name in _ARRAY_FIELDS:
            assert np.array_equal(
                getattr(fast, name), getattr(reference, name)
            ), name

    def test_refuses_mixed_calibrations(self, core, novar_core,
                                        int_measurement):
        from repro.core.adaptation import _stacked_phase_arrays

        technique = TechniqueState(domain=int_measurement.domain)
        with pytest.raises(ValueError):
            _stacked_phase_arrays(
                [core, novar_core],
                [technique, technique],
                [int_measurement, int_measurement],
            )


# ----------------------------------------------------------------------
# CoreLanes: the stacked population view itself.
# ----------------------------------------------------------------------
class TestCoreLanes:
    def test_stack_matches_per_core_physics(self, population):
        cores = [build_core(chip, 0) for chip in population[:3]]
        lanes = CoreLanes.stack(cores)
        assert lanes.batch_size == 3
        vdd = np.full((3, lanes.n_subsystems), 1.0)
        temp = np.full((3, lanes.n_subsystems), 345.0)
        vbb = np.zeros((3, lanes.n_subsystems))
        stacked_vt = lanes.effective_vt(vdd, vbb, temp)
        stacked_sta = lanes.subsystem_static_power(vdd, vbb, temp)
        for lane, core in enumerate(cores):
            assert np.array_equal(
                stacked_vt[lane],
                core.effective_vt(vdd[lane], vbb[lane], temp[lane]),
            )
            assert np.array_equal(
                stacked_sta[lane],
                core.subsystem_static_power(vdd[lane], vbb[lane], temp[lane]),
            )
            assert lanes.l2_power(3.2e9)[lane] == core.l2_power(3.2e9)

    def test_lane_subset_preserves_lanes(self, population):
        cores = [build_core(chip, 0) for chip in population[:4]]
        lanes = CoreLanes.stack(cores)
        subset = lanes.lane_subset(np.array([2, 0]))
        assert subset.batch_size == 2
        assert np.array_equal(subset.vt0_timing[0], lanes.vt0_timing[2])
        assert np.array_equal(subset.vt0_timing[1], lanes.vt0_timing[0])

    def test_novar_core_refuses_to_stack_with_variation(self, population):
        cores = [build_core(population[0], 0), build_novar_core()]
        with pytest.raises(ValueError):
            CoreLanes.stack(cores)
