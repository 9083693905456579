"""Fuzzy controllers: inference (Eqs 10-12), training (Eq 13), banks."""

import tracemalloc

import numpy as np
import pytest

from repro.core import TS_ASV_ABB
from repro.kernels import workspace_pool
from repro.ml import (
    FuzzyController,
    generate_training_data,
    sample_inputs,
    train_fuzzy_controller,
)
from repro.ml.dataset import (
    TrainingRequest,
    demand_feature,
    generate_training_datasets,
    _batch_arrays,
)


def _simple_fc():
    return FuzzyController(
        mu=np.array([[0.0, 0.0], [1.0, 1.0]]),
        sigma=np.full((2, 2), 0.5),
        y=np.array([0.0, 10.0]),
        input_mean=np.zeros(2),
        input_std=np.ones(2),
    )


class TestFuzzyInference:
    def test_output_at_rule_centre(self):
        fc = _simple_fc()
        assert fc.predict(np.array([0.0, 0.0])) == pytest.approx(0.0, abs=0.01)
        assert fc.predict(np.array([1.0, 1.0])) == pytest.approx(10.0, abs=0.01)

    def test_interpolates_between_rules(self):
        fc = _simple_fc()
        mid = fc.predict(np.array([0.5, 0.5]))
        assert 4.0 < mid < 6.0

    def test_far_input_falls_back_to_nearest_rule(self):
        fc = _simple_fc()
        assert fc.predict(np.array([100.0, 100.0])) == pytest.approx(10.0)

    def test_batch_matches_scalar(self, rng):
        fc = _simple_fc()
        xs = rng.normal(0.5, 0.4, size=(20, 2))
        batch = fc.predict_batch(xs)
        scalar = np.array([fc.predict(x) for x in xs])
        assert np.allclose(batch, scalar)

    def test_output_bounded_by_rule_outputs(self, rng):
        # Eq 12 is a convex combination: the output cannot exceed the
        # rule outputs' range.
        fc = _simple_fc()
        xs = rng.normal(0.5, 1.0, size=(100, 2))
        out = fc.predict_batch(xs)
        assert out.min() >= -1e-9 and out.max() <= 10.0 + 1e-9

    def test_shape_validation(self):
        fc = _simple_fc()
        with pytest.raises(ValueError):
            fc.predict(np.zeros(3))
        with pytest.raises(ValueError):
            fc.predict_batch(np.zeros((4, 3)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FuzzyController(
                mu=np.zeros((2, 2)),
                sigma=np.zeros((2, 2)),  # non-positive widths
                y=np.zeros(2),
                input_mean=np.zeros(2),
                input_std=np.ones(2),
            )


class TestTraining:
    def test_learns_linear_function(self, rng):
        X = rng.uniform(-1, 1, size=(2000, 3))
        y = 2.0 * X[:, 0] - X[:, 1]
        fc, report = train_fuzzy_controller(X, y, epochs=2, seed=0)
        assert report.final_rmse < 0.3 * y.std()

    def test_learns_nonlinear_function(self, rng):
        X = rng.uniform(-1, 1, size=(4000, 2))
        y = np.sin(2 * X[:, 0]) + X[:, 1] ** 2
        fc, report = train_fuzzy_controller(X, y, epochs=3, seed=0)
        assert report.final_rmse < 0.35 * y.std()

    def test_more_epochs_do_not_hurt(self, rng):
        X = rng.uniform(-1, 1, size=(3000, 2))
        y = X[:, 0] * X[:, 1]
        _, r1 = train_fuzzy_controller(X, y, epochs=1, seed=0)
        _, r3 = train_fuzzy_controller(X, y, epochs=4, seed=0)
        assert r3.final_rmse <= r1.final_rmse * 1.05

    def test_rule_count_respected(self, rng):
        X = rng.uniform(-1, 1, size=(500, 2))
        fc, _ = train_fuzzy_controller(X, X[:, 0], n_rules=10, seed=0)
        assert fc.n_rules == 10

    def test_requires_enough_examples(self, rng):
        X = rng.uniform(-1, 1, size=(10, 2))
        with pytest.raises(ValueError):
            train_fuzzy_controller(X, X[:, 0], n_rules=25)

    def test_rejects_mismatched_lengths(self, rng):
        with pytest.raises(ValueError):
            train_fuzzy_controller(np.zeros((50, 2)), np.zeros(40))

    def test_training_is_deterministic(self, rng):
        X = rng.uniform(-1, 1, size=(600, 2))
        y = X[:, 0]
        a, _ = train_fuzzy_controller(X, y, seed=7)
        b, _ = train_fuzzy_controller(X, y, seed=7)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.y, b.y)


class TestDataset:
    def test_sampled_inputs_in_physical_ranges(self, core, rng):
        samples = sample_inputs(core, 0, 500, rng)
        assert np.all(samples.vt0_timing > 0.0)
        assert np.all(samples.alpha > 0.0)
        assert np.all(samples.tail >= 0.0)
        assert np.all(samples.th <= core.calib.t_heatsink_max)

    def test_generated_targets_within_knob_range(self, core, asv_spec):
        fx, fy, px, vdd, vbb = generate_training_data(
            core, 0, asv_spec, n_examples=300, seed=1
        )
        kr = asv_spec.knob_ranges
        assert np.all(fy * 1e9 >= kr.f_min - 1e-6)
        assert np.all(fy * 1e9 <= kr.f_max + 1e-6)
        assert set(np.round(vdd, 4)) <= set(np.round(asv_spec.vdd_levels, 4))
        assert np.all(vbb == 0.0)  # no ABB in this spec

    def test_longer_channels_get_lower_fmax(self, core, asv_spec, rng):
        # Leff affects only delay (not leakage), so unlike Vt — where low
        # thresholds are fast but leaky-hot — its effect on fmax is
        # unambiguous: longer channels are slower.
        samples = sample_inputs(core, 0, 400, rng)
        batch = _batch_arrays(core, 0, samples)
        from repro.core.optimizer import freq_algorithm

        result = freq_algorithm(batch, asv_spec)
        order = np.argsort(samples.leff)
        short_mean = result.f_max[order[:100]].mean()
        long_mean = result.f_max[order[-100:]].mean()
        assert short_mean > long_mean

    def test_demand_feature_increases_with_f_core(self, core, asv_spec, rng):
        samples = sample_inputs(core, 0, 50, rng)
        batch = _batch_arrays(core, 0, samples)
        low = demand_feature(batch, 3e9, samples.th, asv_spec.pe_budget)
        high = demand_feature(batch, 4.5e9, samples.th, asv_spec.pe_budget)
        assert np.all(high > low)

    def test_multi_request_labeling_matches_single(self, core, asv_spec):
        requests = [
            TrainingRequest(index=0, seed=7, n_examples=300),
            TrainingRequest(index=2, seed=8, n_examples=450, delay_scale=0.9),
            TrainingRequest(index=0, seed=9, n_examples=300, power_factor=1.3),
        ]
        joint = generate_training_datasets(
            core, asv_spec, requests, chunk=200
        )
        assert len(joint) == len(requests)
        for request, got in zip(requests, joint):
            want = generate_training_data(
                core,
                request.index,
                asv_spec,
                n_examples=request.n_examples,
                seed=request.seed,
                delay_scale=request.delay_scale,
                sigma_scale=request.sigma_scale,
                power_factor=request.power_factor,
                chunk=200,
            )
            assert len(got) == len(want) == 5
            for got_part, want_part in zip(got, want):
                assert np.array_equal(got_part, want_part)

    def test_labeling_invariant_to_request_grouping(self, core, asv_spec):
        # Batching lanes across *requests* must not perturb any request's
        # RNG stream or labels: a request labelled alongside others is
        # bit-identical to the same request labelled alone.
        requests = [
            TrainingRequest(index=1, seed=3, n_examples=240),
            TrainingRequest(index=4, seed=5, n_examples=240),
        ]
        joint = generate_training_datasets(core, asv_spec, requests, chunk=120)
        for request, got in zip(requests, joint):
            alone = generate_training_datasets(
                core, asv_spec, [request], chunk=120
            )[0]
            for got_part, want_part in zip(got, alone):
                assert np.array_equal(got_part, want_part)

    def test_labeling_memory_is_bounded(self, core):
        # The oracle sweeps the stacked grid in cache-sized blocks, so
        # labelling a bank-sized request list (19 x 1000 examples over
        # the 9 x 21 TS+ASV+ABB knob grid, 3.6M cells) must never hold
        # the whole grid, nor leave grid-sized scratch in the pool.
        spec = TS_ASV_ABB.optimization_spec(core.n_subsystems, core.calib)
        requests = [
            TrainingRequest(
                index=k % core.n_subsystems, seed=k, n_examples=1000
            )
            for k in range(19)
        ]
        workspace_pool().clear()
        tracemalloc.start()
        try:
            generate_training_datasets(core, spec, requests)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20
        assert workspace_pool().cached_bytes() <= 16 * 2**20


class TestBank:
    def test_bank_contains_variant_fcs(self, tiny_bank, core):
        fp = core.floorplan
        assert (fp.index_of("IntQ"), "full") in tiny_bank.freq_fcs
        assert (fp.index_of("IntQ"), "resized") in tiny_bank.freq_fcs
        assert (fp.index_of("IntALU"), "lowslope") in tiny_bank.freq_fcs
        assert (fp.index_of("Dcache"), "base") in tiny_bank.freq_fcs

    def test_predictions_within_ranges(self, tiny_bank, core):
        spec = tiny_bank.spec
        f = tiny_bank.predict_fmax(core, 0, "base", spec.t_heatsink, 0.5, 0.5)
        assert spec.knob_ranges.f_min <= f <= spec.knob_ranges.f_max
        vdd, vbb = tiny_bank.predict_voltages(
            core, 0, "base", spec.t_heatsink, 0.5, 0.5, 3.6e9
        )
        assert np.min(np.abs(spec.vdd_levels - vdd)) < 1e-9
        assert vbb == 0.0

    def test_freq_prediction_tracks_exhaustive(self, tiny_bank, core, other_core):
        """Even a tiny bank should rank a slow chip below a fast one."""
        from repro.core.optimizer import core_subsystem_arrays, freq_algorithm

        spec = tiny_bank.spec
        diffs = []
        for c in (core, other_core):
            subs = core_subsystem_arrays(c, c.alpha_ref, c.rho_ref)
            exact = freq_algorithm(subs, spec)
            for i in range(c.n_subsystems):
                variant = tiny_bank.variants_for(c, i)[0]
                predicted = tiny_bank.predict_fmax(
                    c, i, variant, spec.t_heatsink,
                    float(c.alpha_ref[i]), float(c.rho_ref[i]),
                )
                diffs.append(abs(predicted - exact.f_max[i]))
        # Tiny training set: generous bound (the real bank is ~4x better).
        assert np.mean(diffs) < 0.5e9

    def test_higher_demand_needs_higher_vdd(self, tiny_bank, core):
        spec = tiny_bank.spec
        low_vdd, _ = tiny_bank.predict_voltages(
            core, 0, "base", spec.t_heatsink, 0.5, 0.5, 2.6e9
        )
        high_vdd, _ = tiny_bank.predict_voltages(
            core, 0, "base", spec.t_heatsink, 0.5, 0.5, 4.8e9
        )
        assert high_vdd >= low_vdd
