"""Thermal solver (Eqs 6-9) and sensor models."""

import numpy as np
import pytest

from repro import obs
from repro.obs import MetricsRegistry
from repro.thermal import (
    SensorSpec,
    SensorSuite,
    solve_temperatures,
    solve_temperatures_lanes,
)


class TestSolver:
    def solve(self, core, vdd=1.0, freq=4e9, th=343.15, activity=None):
        n = core.n_subsystems
        return solve_temperatures(
            core,
            np.full(n, vdd),
            np.zeros(n),
            freq,
            core.alpha_ref if activity is None else activity,
            th,
        )

    def test_temperatures_above_heatsink(self, core):
        sol = self.solve(core)
        assert np.all(sol.temperature > 343.15)
        assert sol.converged.all()

    def test_higher_frequency_is_hotter(self, core):
        cold = self.solve(core, freq=2.4e9)
        hot = self.solve(core, freq=4.8e9)
        assert np.all(hot.temperature >= cold.temperature)
        assert hot.core_power() > cold.core_power()

    def test_higher_vdd_is_hotter(self, core):
        low = self.solve(core, vdd=0.9)
        high = self.solve(core, vdd=1.2)
        assert high.max_temperature() > low.max_temperature()

    def test_zero_activity_leaves_only_leakage(self, core):
        sol = self.solve(core, activity=np.zeros(core.n_subsystems))
        assert np.all(sol.p_dynamic == 0.0)
        assert np.all(sol.p_static > 0.0)

    def test_heatsink_temperature_shifts_solution(self, core):
        cool = self.solve(core, th=330.0)
        warm = self.solve(core, th=345.0)
        # Warmer sink -> hotter silicon -> strictly more leakage.
        assert warm.max_temperature() > cool.max_temperature()
        assert warm.p_static.sum() > cool.p_static.sum()

    def test_fixed_point_consistency(self, core):
        # At convergence, T == TH + Rth * P must hold.
        sol = self.solve(core)
        reconstructed = 343.15 + core.rth * sol.p_total
        assert np.allclose(sol.temperature, reconstructed, atol=0.01)

    def test_total_power_is_sum(self, core):
        sol = self.solve(core)
        assert sol.core_power() == pytest.approx(
            float(sol.p_dynamic.sum() + sol.p_static.sum())
        )

    def test_broadcast_over_knob_grid(self, core):
        n = core.n_subsystems
        vdd = np.array([0.9, 1.0, 1.1])[:, None]
        sol = solve_temperatures_lanes(
            core, np.broadcast_to(vdd, (3, n)), np.zeros((3, n)), 4e9,
            np.stack([core.alpha_ref] * 3), 343.15,
        )
        assert sol.temperature.shape == (3, n)
        assert np.all(np.diff(sol.temperature, axis=0) > 0)


class TestLaneSolver:
    def lane_inputs(self, core):
        """Three lanes with distinct voltages, frequencies and activity."""
        n = core.n_subsystems
        vdd = np.stack([np.full(n, 0.9), np.full(n, 1.0), np.full(n, 1.15)])
        vbb = np.stack([np.zeros(n), np.full(n, 0.2), np.full(n, -0.3)])
        freq = np.array([2.4e9, 4.0e9, 4.8e9])[:, None]
        activity = np.stack(
            [core.alpha_ref * 0.05, core.alpha_ref, core.alpha_ref * 2.0]
        )
        return vdd, vbb, freq, activity

    def test_matches_serial_per_lane(self, core):
        vdd, vbb, freq, activity = self.lane_inputs(core)
        batched = solve_temperatures_lanes(
            core, vdd, vbb, freq, activity, 343.15
        )
        for lane in range(3):
            serial = solve_temperatures(
                core,
                vdd[lane],
                vbb[lane],
                float(freq[lane, 0]),
                activity[lane],
                343.15,
            )
            assert np.array_equal(
                batched.temperature[lane], serial.temperature
            )
            assert np.array_equal(batched.p_dynamic[lane], serial.p_dynamic)
            assert np.array_equal(batched.p_static[lane], serial.p_static)
            assert np.array_equal(batched.converged[lane], serial.converged)

    def test_metrics_match_serial_per_lane(self, core):
        vdd, vbb, freq, activity = self.lane_inputs(core)

        def iteration_values(run):
            with obs.scoped(MetricsRegistry()) as registry:
                run()
                doc = registry.to_dict()
            return (
                doc["counters"]["thermal.solves"],
                doc["histograms"]["thermal.iterations"]["values"],
            )

        serial_values = []
        for lane in range(3):
            solves, values = iteration_values(
                lambda lane=lane: solve_temperatures(
                    core,
                    vdd[lane],
                    vbb[lane],
                    float(freq[lane, 0]),
                    activity[lane],
                    343.15,
                )
            )
            assert solves == 1
            serial_values.extend(values)
        solves, batched_values = iteration_values(
            lambda: solve_temperatures_lanes(
                core, vdd, vbb, freq, activity, 343.15
            )
        )
        assert solves == 3
        assert batched_values == serial_values


    def test_rejects_a_single_operating_point(self, core):
        """An (n,) state is one point, not n lanes."""
        n = core.n_subsystems
        with pytest.raises(ValueError, match="lane state"):
            solve_temperatures_lanes(
                core, np.full(n, 1.0), np.zeros(n), 4.0e9, core.alpha_ref,
                343.15,
            )


class TestSensors:
    def test_ideal_sensors_pass_through(self):
        suite = SensorSuite.ideal()
        assert suite.read_heatsink(343.15) == pytest.approx(343.15)
        assert suite.read_power(25.0) == pytest.approx(25.0)

    def test_quantisation(self):
        spec = SensorSpec(quantum=0.5)
        assert spec.read(343.26) == pytest.approx(343.5)

    def test_noise_requires_rng(self):
        spec = SensorSpec(noise_sigma=1.0)
        with pytest.raises(ValueError):
            spec.read(300.0)

    def test_noisy_sensor_is_reproducible_per_seed(self):
        a = SensorSuite.realistic(seed=5)
        b = SensorSuite.realistic(seed=5)
        assert a.read_thermal(np.full(4, 350.0)) == pytest.approx(
            b.read_thermal(np.full(4, 350.0))
        )

    def test_realistic_noise_is_bounded(self, rng):
        suite = SensorSuite.realistic(seed=1)
        readings = np.array([suite.read_heatsink(343.15) for _ in range(200)])
        assert abs(readings.mean() - 343.15) < 0.5
        assert readings.std() < 2.0

    def test_activity_reading_never_negative(self):
        suite = SensorSuite.realistic(seed=2)
        values = suite.read_activity(np.full(100, 0.005))
        assert np.all(values >= 0.0)
