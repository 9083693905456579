"""Lane independence of the population-tier batched programs.

Each batched tier runs a whole (chip, core) population as one tensor
program, and a lane's result must not depend on its batch-mates:

* ``measure_suite_batched`` vs per-request measurement,
* ``retune_batched`` over many lanes vs each lane alone (``retune``),
* ``run_timelines_batched`` vs per-core ``run_timeline`` (RNG streams
  included),
* ``ExperimentRunner.run_units_batched`` blocks vs per-unit ``run_unit``
  rows across (environment x mode x workload) combinations,
* ``optimize_units_batched`` and ``retune_batched`` lanes alone, in the
  full block and in shuffled sub-blocks (hypothesis),

plus the backend shim, the measurement LRU, and the content-hash cache
key.
"""

from __future__ import annotations

import argparse
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.backend import available_backends, get_backend, set_backend
from repro.obs import MetricsRegistry
from repro.chip.chip import Core, build_core, build_novar_core
from repro.config import Settings
from repro.core import TS, TS_ASV, TS_ASV_Q_FU, AdaptationMode
from repro.core.adaptation import optimize_units_batched
from repro.core.optimizer import core_subsystem_arrays
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
from repro.thermal import solve_temperatures_lanes

UNIT_CONFIG = RunnerConfig(
    n_chips=3,
    cores_per_chip=1,
    n_instructions=5000,
    fuzzy_examples=300,
    fuzzy_epochs=1,
)


def _runner(workloads):
    return ExperimentRunner(UNIT_CONFIG, workloads=list(workloads))


# ----------------------------------------------------------------------
# A unit's rows do not depend on the block it runs in.
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
        """Block rows == per-unit rows across env x mode x workload combos."""
        workloads = suite[first:last]
        units = [(chip, 0) for chip in range(UNIT_CONFIG.n_chips)]
        batched = _runner(workloads).run_units_batched(env, mode, units)
        alone_runner = _runner(workloads)
        alone = [
            alone_runner.run_unit(env, mode, chip, core)
            for chip, core in units
        ]
        assert batched == alone

    def test_static_mode_matches_each_unit_alone(self, suite):
        """Static adapts each unit once to its aggregate measurement and
        settles every (unit, phase) lane in one pass."""
        workloads = suite[:2]
        units = [(chip, 0) for chip in range(UNIT_CONFIG.n_chips)]
        batched = _runner(workloads).run_units_batched(
            TS, AdaptationMode.STATIC, units
        )
        alone_runner = _runner(workloads)
        alone = [
            alone_runner.run_unit(TS, AdaptationMode.STATIC, chip, core)
            for chip, core in units
        ]
        assert batched == alone

    def test_single_unit_block_matches_run_unit(self, suite):
        """A 1-unit block (what ``run_unit`` runs) matches run_unit."""
        runner = _runner(suite[:1])
        [rows] = runner.run_units_batched(
            TS, AdaptationMode.EXH_DYN, [(0, 0)]
        )
        assert rows == runner.run_unit(TS, AdaptationMode.EXH_DYN, 0, 0)


class TestBatchUnitsKnobPlumbing:
    def test_env_opt_out(self):
        """The per-unit opt-out is gone: its variable changes nothing."""
        assert Settings.from_env({"EVAL_REPRO_SERIAL_UNITS": "1"}) == (
            Settings.from_env({})
        )

    def test_cli_opt_out(self):
        """The per-unit opt-out is gone: its flag is a usage error."""
        parser = argparse.ArgumentParser()
        Settings.add_cli_arguments(parser, Settings.from_env({}))
        with pytest.raises(SystemExit):
            parser.parse_args(["--serial-units"])

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


@pytest.fixture(scope="module")
def lane_cores(population):
    return [build_core(chip, 0) for chip in population]


@pytest.fixture(scope="module")
def lane_pairs(suite):
    """(full, resized) measurements of integer and FP phases, on the
    pipeline with the FU-replication stage built."""
    config = DEFAULT_CORE_CONFIG.with_fu_replication()
    pairs = []
    for workload in (suite[0], suite[3], suite[5], suite[8]):
        profile = workload.phase_profile(workload.phases[0])
        resized = config.with_resized_queue(profile.domain)
        pairs.append((
            measure_workload(profile, config, 4000, seed=0),
            measure_workload(profile, resized, 4000, seed=0),
        ))
    return pairs


def _state_bits(state):
    return (
        state.temperature.tobytes(),
        state.p_dynamic.tobytes(),
        state.p_static.tobytes(),
        state.pe_per_subsystem.tobytes(),
        np.float64(state.l2_power).tobytes(),
        np.float64(state.checker_power).tobytes(),
        state.delays.mean.tobytes(),
        state.delays.sigma.tobytes(),
    )


def _config_bits(config):
    return (
        np.float64(config.f_core).tobytes(),
        config.vdd.tobytes(),
        config.vbb.tobytes(),
        config.technique,
    )


def _adaptation_bits(result):
    """Every field of an AdaptationResult, floats as raw bytes."""
    return (
        result.mode,
        result.outcome,
        np.float64(result.f_controller).tobytes(),
        np.float64(result.performance_ips).tobytes(),
        id(result.measurement),
        _config_bits(result.config),
        _state_bits(result.state),
    )


def _retuning_bits(result):
    return (
        result.outcome,
        result.initial_violation,
        np.float64(result.f_initial).tobytes(),
        result.steps,
        _config_bits(result.config),
        _state_bits(result.state),
    )


#: (environment, mode) cases; Fuzzy-Dyn uses ``tiny_bank`` (TS+ASV FCs).
LANE_CASES = [
    (TS, AdaptationMode.EXH_DYN),
    (TS_ASV_Q_FU, AdaptationMode.EXH_DYN),
    (TS_ASV_Q_FU, AdaptationMode.STATIC),
    (TS_ASV, AdaptationMode.FUZZY_DYN),
]


class TestLaneIndependence:
    """A lane's result is the same alone, in the full block, and in any
    shuffled sub-block: batch-mates never leak into it."""

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_optimize_units_batched(self, lane_cores, lane_pairs, tiny_bank,
                                    data):
        env, mode = data.draw(st.sampled_from(LANE_CASES))
        chips = data.draw(st.lists(
            st.integers(0, len(lane_cores) - 1),
            min_size=2, max_size=4, unique=True,
        ))
        units = [
            (
                lane_cores[chip],
                data.draw(st.lists(
                    st.sampled_from(lane_pairs), min_size=1, max_size=3
                )),
            )
            for chip in chips
        ]
        order = data.draw(st.permutations(range(len(units))))
        cut = data.draw(st.integers(1, len(units)))

        def run(block):
            return [
                [_adaptation_bits(result) for result in unit]
                for unit in optimize_units_batched(
                    block, env, mode, tiny_bank
                )
            ]

        alone = [run([unit])[0] for unit in units]
        assert run(units) == alone
        sub = run([units[i] for i in order[:cut]])
        assert sub == [alone[i] for i in order[:cut]]

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_retune_batched(self, lane_cores, lane_pairs, data):
        lanes = data.draw(st.lists(
            st.tuples(
                st.integers(0, len(lane_cores) - 1),
                st.integers(0, len(lane_pairs) - 1),
                st.integers(20, 55),  # frequency in 100 MHz steps
                st.sampled_from((0.9, 1.0, 1.1)),
            ),
            min_size=2, max_size=6,
        ))
        order = data.draw(st.permutations(range(len(lanes))))
        cut = data.draw(st.integers(1, len(lanes)))
        cores, configs, measurements = [], [], []
        for chip, pair, steps, vdd in lanes:
            core = lane_cores[chip]
            meas = lane_pairs[pair][0]
            n = core.n_subsystems
            cores.append(core)
            measurements.append(meas)
            configs.append(Configuration(
                f_core=steps * 1e8,
                vdd=np.full(n, vdd),
                vbb=np.zeros(n),
                technique=TechniqueState(domain=meas.domain),
            ))

        def run(index):
            return [
                _retuning_bits(result)
                for result in retune_batched(
                    [cores[i] for i in index],
                    [configs[i] for i in index],
                    [measurements[i].activity for i in index],
                    [measurements[i].rho for i in index],
                    pe_max=cores[0].calib.pe_max,
                    checker=True,
                )
            ]

        alone = [run([i])[0] for i in range(len(lanes))]
        assert run(range(len(lanes))) == alone
        assert run(order[:cut]) == [alone[i] for i in order[:cut]]


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
        batched = _runner(suite[:1]).run_units_batched(
            TS_ASV, AdaptationMode.EXH_DYN, units
        )
        alone_runner = _runner(suite[:1])
        alone = [
            alone_runner.run_unit(TS_ASV, AdaptationMode.EXH_DYN, chip, core)
            for chip, core in units
        ]
        assert batched == alone


# ----------------------------------------------------------------------
# Vectorised lane assembly == per-lane assembly, bit for bit.
# ----------------------------------------------------------------------
class TestStackedPhaseArrays:
    def test_matches_per_lane_stack(self, population, int_measurement,
                                    fp_measurement):
        from repro.core.adaptation import _phase_arrays, _stacked_phase_arrays
        from repro.core.optimizer import SubsystemArrays

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
        for name in SubsystemArrays.lane_fields:
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
# A stacked Core: the population view itself.
# ----------------------------------------------------------------------
class TestStackedCore:
    def test_stack_matches_per_core_physics(self, population):
        cores = [build_core(chip, 0) for chip in population[:3]]
        lanes = Core.stack(cores)
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
        lanes = Core.stack(cores)
        subset = lanes.lane_subset(np.array([2, 0]))
        assert subset.batch_size == 2
        assert np.array_equal(subset.vt0_timing[0], lanes.vt0_timing[2])
        assert np.array_equal(subset.vt0_timing[1], lanes.vt0_timing[0])

    def test_novar_core_refuses_to_stack_with_variation(self, population):
        cores = [build_core(population[0], 0), build_novar_core()]
        with pytest.raises(ValueError):
            Core.stack(cores)


# ----------------------------------------------------------------------
# Lane fields: stack/lane_subset cover every array field, and a lane's
# fields reach only that lane's physics.
# ----------------------------------------------------------------------
def _carriers(population):
    """(cores, their optimiser views): three distinct lanes of each."""
    cores = [build_core(chip, index) for chip, index in zip(population, (0, 1, 3))]
    views = [
        core_subsystem_arrays(
            core, core.alpha_ref * (1.0 + lane), core.rho_ref,
            power_factor=np.full(core.n_subsystems, 1.0 + 0.1 * lane),
        )
        for lane, core in enumerate(cores)
    ]
    return {"core": cores, "subsystems": views}


class TestLaneFieldCoverage:
    @pytest.mark.parametrize("carrier", ["core", "subsystems"])
    def test_stack_and_subset_handle_every_array_field(self, population, carrier):
        members = _carriers(population)[carrier]
        stacked = type(members[0]).stack(members)
        pick = np.array([2, 0])
        subset = stacked.lane_subset(pick)
        names = [f.name for f in dataclasses.fields(stacked)]
        array_fields = {
            name for name in names
            if isinstance(getattr(stacked, name), np.ndarray)
        }
        stacked_fields = {
            name for name in names
            if np.shape(getattr(stacked, name))[:1] == (len(members),)
            and np.array_equal(
                getattr(stacked, name),
                np.stack([getattr(member, name) for member in members]),
            )
        }
        subset_fields = {
            name for name in names
            if isinstance(getattr(subset, name), np.ndarray)
            and np.array_equal(
                getattr(subset, name), getattr(stacked, name)[pick]
            )
        }
        assert set(array_fields) == set(stacked_fields)
        assert set(array_fields) == set(subset_fields)
        assert set(array_fields) == set(type(stacked).lane_fields)

    @pytest.mark.parametrize("carrier", ["core", "subsystems"])
    def test_lane_fields_split_into_subsystem_and_scalar(self, population,
                                                         carrier):
        cls = type(_carriers(population)[carrier][0])
        assert set(cls.lane_fields) == (
            set(cls.subsystem_fields) | set(cls.scalar_fields)
        )
        assert not set(cls.lane_fields) & set(cls.context_fields)
        assert {f.name for f in dataclasses.fields(cls)} == (
            set(cls.lane_fields) | set(cls.context_fields)
        )

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_perturbing_one_lane_changes_only_that_lane(self, population,
                                                        data):
        carrier = data.draw(st.sampled_from(["core", "subsystems"]))
        stacked = type(_carriers(population)[carrier][0]).stack(
            _carriers(population)[carrier]
        )
        name = data.draw(st.sampled_from(stacked.subsystem_fields))
        lane = data.draw(st.integers(0, stacked.batch_size - 1))
        column = data.draw(st.integers(0, stacked.n_subsystems - 1))
        scale = data.draw(st.floats(0.5, 1.5))
        values = getattr(stacked, name).copy()
        values[lane, column] *= scale
        perturbed = dataclasses.replace(stacked, **{name: values})

        shape = (stacked.batch_size, stacked.n_subsystems)
        vdd = np.full(shape, 1.05)
        vbb = np.full(shape, -0.1)
        temp = np.full(shape, 352.0)
        others = np.arange(stacked.batch_size) != lane

        def physics(node):
            if carrier == "core":
                static = node.subsystem_static_power(vdd, vbb, temp)
                solved = solve_temperatures_lanes(
                    node, vdd, vbb, 4.0e9, node.alpha_ref, 343.15
                )
                solution = [
                    solved.temperature, solved.p_dynamic, solved.p_static,
                    solved.converged,
                ]
            else:
                static = node.p_static(vdd, vbb, temp)
                solution = []
            return [node.delay_factor(vdd, vbb, temp), static] + solution

        for before, after in zip(physics(stacked), physics(perturbed)):
            assert np.array_equal(before[others], after[others]), name

