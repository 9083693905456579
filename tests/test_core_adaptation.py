"""Environments (Table 1), adaptation, state evaluation, retuning."""

import numpy as np
import pytest

from repro.core import (
    ADAPTIVE_ENVIRONMENTS,
    BASELINE,
    NOVAR,
    TS,
    TS_ASV,
    TS_ASV_Q,
    TS_ASV_Q_FU,
    AdaptationMode,
    Configuration,
    Environment,
    Outcome,
    Violation,
    aggregate_static_measurement,
    by_name,
    evaluate_configuration,
    evaluate_configurations,
    optimize_phase,
    optimize_units_batched,
    retune,
)
from repro.microarch import DEFAULT_CORE_CONFIG, measure_workload
from repro.mitigation import TechniqueState


@pytest.fixture(scope="module")
def q_measurements(int_workload):
    base = DEFAULT_CORE_CONFIG
    return (
        measure_workload(int_workload, base, 8000, seed=0),
        measure_workload(
            int_workload, base.with_resized_queue("int"), 8000, seed=0
        ),
    )


@pytest.fixture(scope="module")
def fu_measurements(int_workload):
    base = DEFAULT_CORE_CONFIG.with_fu_replication()
    return (
        measure_workload(int_workload, base, 8000, seed=0),
        measure_workload(
            int_workload, base.with_resized_queue("int"), 8000, seed=0
        ),
    )


class TestEnvironments:
    def test_table1_is_complete(self):
        names = {env.name for env in ADAPTIVE_ENVIRONMENTS}
        assert names == {
            "TS", "TS+ASV", "TS+ASV+ABB", "TS+ASV+Q", "TS+ASV+Q+FU", "ALL",
        }

    def test_lookup_by_name(self):
        assert by_name("TS+ASV").asv
        assert not by_name("TS").asv
        with pytest.raises(KeyError):
            by_name("TS+magic")

    def test_techniques_require_checker(self):
        with pytest.raises(ValueError, match="checker"):
            Environment("bad", checker=False, asv=True)

    def test_spec_reflects_knobs(self, calib):
        ts = TS.optimization_spec(15, calib)
        assert len(ts.vdd_levels) == 1 and len(ts.vbb_levels) == 1
        assert ts.pe_budget == pytest.approx(calib.pe_max / 15)
        base = BASELINE.optimization_spec(15, calib)
        assert base.pe_budget == 0.0
        asv = TS_ASV.optimization_spec(15, calib)
        assert len(asv.vdd_levels) == 9


class TestEvaluateConfiguration:
    def make_config(self, core, f=3.2e9, vdd=1.0):
        n = core.n_subsystems
        return Configuration(
            f_core=f,
            vdd=np.full(n, vdd),
            vbb=np.zeros(n),
            technique=TechniqueState(),
        )

    def test_state_consistency(self, core, int_measurement):
        config = self.make_config(core)
        state = evaluate_configuration(
            core, config, int_measurement.activity, int_measurement.rho
        )
        assert state.total_power == pytest.approx(
            state.subsystem_power + state.l2_power + state.checker_power
        )
        assert state.pe_total == pytest.approx(state.pe_per_subsystem.sum())

    def test_checker_power_flag(self, core, int_measurement):
        config = self.make_config(core)
        with_checker = evaluate_configuration(
            core, config, int_measurement.activity, int_measurement.rho,
            checker=True,
        )
        without = evaluate_configuration(
            core, config, int_measurement.activity, int_measurement.rho,
            checker=False,
        )
        assert with_checker.checker_power > 0.0
        assert without.checker_power == 0.0

    def test_violation_priority_error_first(self, core, int_measurement):
        config = self.make_config(core, f=5.5e9)  # absurdly fast
        state = evaluate_configuration(
            core, config, int_measurement.activity, int_measurement.rho
        )
        assert state.violation(core) is Violation.ERROR

    def test_no_violation_at_conservative_point(self, core, int_measurement):
        config = self.make_config(core, f=2.4e9)
        state = evaluate_configuration(
            core, config, int_measurement.activity, int_measurement.rho
        )
        assert state.violation(core) is Violation.NONE

    def test_batched_matches_serial(self, core, int_measurement, fp_measurement):
        configs = [
            self.make_config(core, f=2.4e9),
            self.make_config(core, f=3.2e9, vdd=1.1),
            self.make_config(core, f=2.8e9, vdd=0.9),
        ]
        workloads = [int_measurement, fp_measurement, int_measurement]
        batched = evaluate_configurations(
            core,
            configs,
            [m.activity for m in workloads],
            [m.rho for m in workloads],
        )
        for config, meas, got in zip(configs, workloads, batched):
            want = evaluate_configuration(
                core, config, meas.activity, meas.rho
            )
            assert np.array_equal(got.temperature, want.temperature)
            assert np.array_equal(got.p_dynamic, want.p_dynamic)
            assert np.array_equal(got.p_static, want.p_static)
            assert np.array_equal(
                got.pe_per_subsystem, want.pe_per_subsystem
            )
            assert got.l2_power == want.l2_power
            assert got.checker_power == want.checker_power
            assert np.array_equal(got.delays.mean, want.delays.mean)
            assert np.array_equal(got.delays.sigma, want.delays.sigma)

    def test_batched_checker_flag(self, core, int_measurement):
        configs = [self.make_config(core), self.make_config(core, f=2.4e9)]
        states = evaluate_configurations(
            core,
            configs,
            [int_measurement.activity] * 2,
            [int_measurement.rho] * 2,
            checker=False,
        )
        assert all(s.checker_power == 0.0 for s in states)

    def test_lowslope_burns_more_power(self, core, int_measurement):
        base = self.make_config(core)
        ls = Configuration(
            f_core=base.f_core,
            vdd=base.vdd,
            vbb=base.vbb,
            technique=TechniqueState(lowslope=True, domain="int"),
        )
        p_base = evaluate_configuration(
            core, base, int_measurement.activity, int_measurement.rho
        ).total_power
        p_ls = evaluate_configuration(
            core, ls, int_measurement.activity, int_measurement.rho
        ).total_power
        assert p_ls > p_base


class TestRetuning:
    def test_overshoot_backs_off_to_safety(self, core, int_measurement):
        n = core.n_subsystems
        config = Configuration(
            f_core=5.2e9,
            vdd=np.full(n, 1.0),
            vbb=np.zeros(n),
            technique=TechniqueState(),
        )
        result = retune(
            core, config, int_measurement.activity, int_measurement.rho,
            pe_max=core.calib.pe_max,
        )
        assert result.outcome in (Outcome.ERROR, Outcome.TEMP, Outcome.POWER)
        assert result.f_final < 5.2e9
        assert result.state.violation(core) is Violation.NONE

    def test_undershoot_ramps_up(self, core, int_measurement):
        n = core.n_subsystems
        config = Configuration(
            f_core=2.4e9,
            vdd=np.full(n, 1.0),
            vbb=np.zeros(n),
            technique=TechniqueState(),
        )
        result = retune(
            core, config, int_measurement.activity, int_measurement.rho,
            pe_max=core.calib.pe_max,
        )
        assert result.outcome is Outcome.LOW_FREQ
        assert result.f_final > 2.4e9

    def test_near_optimal_is_no_change(self, core, int_measurement):
        # First find the converged frequency, then re-run from it.
        n = core.n_subsystems
        probe = retune(
            core,
            Configuration(3.0e9, np.full(n, 1.0), np.zeros(n), TechniqueState()),
            int_measurement.activity,
            int_measurement.rho,
            pe_max=core.calib.pe_max,
        )
        again = retune(
            core,
            probe.config,
            int_measurement.activity,
            int_measurement.rho,
            pe_max=core.calib.pe_max,
        )
        assert again.outcome is Outcome.NO_CHANGE
        assert again.f_final == pytest.approx(probe.f_final)


class TestNonFiniteFrequency:
    """A core frequency must be finite and positive wherever it enters."""

    BAD = (float("nan"), float("inf"), -float("inf"), 0.0)

    def _config(self, core, f):
        n = core.n_subsystems
        return Configuration(
            f_core=f, vdd=np.full(n, 1.0), vbb=np.zeros(n),
            technique=TechniqueState(),
        )

    @pytest.mark.parametrize("f", BAD)
    def test_configuration_rejects(self, core, f):
        with pytest.raises(ValueError, match="positive and finite"):
            self._config(core, f)
        with pytest.raises(ValueError, match="positive and finite"):
            self._config(core, 3.0e9).with_frequency(f)

    @pytest.mark.parametrize("f", BAD)
    def test_evaluate_configuration_rejects(self, core, int_measurement, f):
        with pytest.raises(ValueError, match="positive and finite"):
            evaluate_configuration(
                core, self._config(core, f),
                int_measurement.activity, int_measurement.rho,
            )

    @pytest.mark.parametrize("f", BAD)
    def test_retune_rejects(self, core, int_measurement, f):
        with pytest.raises(ValueError, match="positive and finite"):
            retune(
                core, self._config(core, f),
                int_measurement.activity, int_measurement.rho,
                pe_max=core.calib.pe_max,
            )


class TestOptimizePhase:
    def test_environment_ladder_is_monotone(self, core, int_measurement, q_measurements, fu_measurements):
        meas = int_measurement
        f_base = optimize_phase(core, BASELINE, meas).f_core
        f_ts = optimize_phase(core, TS, meas).f_core
        f_asv = optimize_phase(core, TS_ASV, meas).f_core
        f_q = optimize_phase(core, TS_ASV_Q, *q_measurements).f_core
        f_fu = optimize_phase(core, TS_ASV_Q_FU, *fu_measurements).f_core
        assert f_base <= f_ts <= f_asv
        assert f_asv <= f_q + 1e8  # queue may tie but not regress a step
        assert f_q <= f_fu + 1e8

    def test_final_state_respects_constraints(self, core, q_measurements):
        result = optimize_phase(core, TS_ASV_Q, *q_measurements)
        calib = core.calib
        assert result.state.pe_total <= calib.pe_max * 1.01
        assert result.state.max_temperature <= calib.t_max + 0.1
        assert result.state.total_power <= calib.p_max + 1e-6

    def test_baseline_is_error_free(self, core, int_measurement):
        result = optimize_phase(core, BASELINE, int_measurement)
        assert result.state.pe_total < 1e-10

    def test_queue_env_requires_resized_measurement(self, core, int_measurement):
        with pytest.raises(ValueError, match="resized"):
            optimize_phase(core, TS_ASV_Q, int_measurement)

    def test_fuzzy_requires_bank(self, core, int_measurement):
        with pytest.raises(ValueError, match="bank"):
            optimize_phase(
                core, TS_ASV, int_measurement, mode=AdaptationMode.FUZZY_DYN
            )

    def test_fuzzy_close_to_exhaustive(self, core, int_measurement, tiny_bank):
        fuzzy = optimize_phase(
            core, TS_ASV, int_measurement,
            mode=AdaptationMode.FUZZY_DYN, bank=tiny_bank,
        )
        exact = optimize_phase(core, TS_ASV, int_measurement)
        # Tiny bank: accept a loose envelope; the production bank is ~2%.
        assert fuzzy.f_core >= 0.75 * exact.f_core
        assert fuzzy.state.violation(core) is Violation.NONE

    def test_retune_disabled_keeps_controller_choice(self, core, int_measurement):
        result = optimize_phase(
            core, TS_ASV, int_measurement, retune_enabled=False
        )
        assert result.f_core == result.f_controller

    def test_different_chips_get_different_operating_points(
        self, core, other_core, int_measurement
    ):
        a = optimize_phase(core, TS_ASV, int_measurement)
        b = optimize_phase(other_core, TS_ASV, int_measurement)
        # The 100 MHz grid can make frequencies collide, but the chosen
        # per-subsystem supplies reflect each chip's variation map.
        assert a.f_core != b.f_core or not np.allclose(
            a.config.vdd, b.config.vdd
        )

    def test_static_aggregate_is_elementwise_bound(self, int_measurement, fp_measurement):
        agg = aggregate_static_measurement([int_measurement, fp_measurement])
        stacked = np.maximum(int_measurement.activity, fp_measurement.activity)
        assert np.all(agg.activity <= stacked + 1e-12)
        assert agg.domain == "int"


def _assert_results_identical(batched, serial):
    """Every field of an AdaptationResult must match bit-for-bit."""
    assert len(batched) == len(serial)
    for got, want in zip(batched, serial):
        assert got.f_core == want.f_core
        assert got.f_controller == want.f_controller
        assert got.outcome is want.outcome
        assert np.array_equal(got.config.vdd, want.config.vdd)
        assert np.array_equal(got.config.vbb, want.config.vbb)
        assert got.performance_ips == want.performance_ips
        assert got.state.total_power == want.state.total_power
        assert got.state.pe_total == want.state.pe_total
        assert np.array_equal(got.state.temperature, want.state.temperature)
        assert np.array_equal(got.state.p_static, want.state.p_static)
        assert np.array_equal(
            got.state.delays.mean, want.state.delays.mean
        )
        assert got.measurement is want.measurement


def _phase_block(core, env, phases, **kwargs):
    """One unit's phases adapted as one lane block."""
    return optimize_units_batched([(core, phases)], env, **kwargs)[0]


class TestOptimizePhasesBatched:
    """A unit's phases adapted as one lane block match each phase
    adapted alone (``optimize_phase``, a block of one)."""

    def test_matches_serial_ts_asv(self, core, int_measurement, fp_measurement):
        phases = [(int_measurement, None), (fp_measurement, None)]
        serial = [
            optimize_phase(core, TS_ASV, meas) for meas, _ in phases
        ]
        batched = _phase_block(core, TS_ASV, phases)
        _assert_results_identical(batched, serial)

    def test_matches_serial_with_queue_resize(self, core, q_measurements):
        full, resized = q_measurements
        phases = [(full, resized), (full, resized)]
        serial = [
            optimize_phase(core, TS_ASV_Q, meas, rs) for meas, rs in phases
        ]
        batched = _phase_block(core, TS_ASV_Q, phases)
        _assert_results_identical(batched, serial)

    def test_matches_serial_with_low_slope_fu(self, core, fu_measurements):
        full, resized = fu_measurements
        phases = [(full, resized), (full, resized), (full, resized)]
        serial = [
            optimize_phase(core, TS_ASV_Q_FU, meas, rs)
            for meas, rs in phases
        ]
        batched = _phase_block(core, TS_ASV_Q_FU, phases)
        _assert_results_identical(batched, serial)

    def test_matches_serial_mixed_phases(
        self, core, other_core, int_measurement, fp_measurement
    ):
        phases = [
            (int_measurement, None),
            (fp_measurement, None),
            (int_measurement, None),
        ]
        for which in (core, other_core):
            serial = [
                optimize_phase(which, TS, meas) for meas, _ in phases
            ]
            batched = _phase_block(which, TS, phases)
            _assert_results_identical(batched, serial)

    def test_retune_disabled_matches_serial(self, core, int_measurement, fp_measurement):
        phases = [(int_measurement, None), (fp_measurement, None)]
        serial = [
            optimize_phase(core, TS_ASV, meas, retune_enabled=False)
            for meas, _ in phases
        ]
        batched = _phase_block(
            core, TS_ASV, phases, retune_enabled=False
        )
        _assert_results_identical(batched, serial)

    def test_queue_env_requires_resized_measurements(self, core, int_measurement):
        with pytest.raises(ValueError, match="resize"):
            _phase_block(
                core,
                TS_ASV_Q,
                [(int_measurement, None), (int_measurement, None)],
            )

    def test_fuzzy_mode_matches_each_phase_alone(self, core, int_measurement, tiny_bank):
        phases = [(int_measurement, None), (int_measurement, None)]
        serial = [
            optimize_phase(
                core, TS_ASV, meas,
                mode=AdaptationMode.FUZZY_DYN, bank=tiny_bank,
            )
            for meas, _ in phases
        ]
        batched = _phase_block(
            core, TS_ASV, phases,
            mode=AdaptationMode.FUZZY_DYN, bank=tiny_bank,
        )
        _assert_results_identical(batched, serial)
