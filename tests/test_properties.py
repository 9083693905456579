"""Property-based tests (hypothesis) on the core invariants."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import obs
from repro.chip import build_novar_core
from repro.circuits import gate_delay, static_power, threshold_voltage
from repro.core import TS_ASV_ABB, freq_algorithm, optimizer, power_algorithm
from repro.core.optimizer import SubsystemArrays
from repro.microarch import CoreConfig, generate_trace, spec2000_like_suite
from repro.microarch.phases import N_BUCKETS, PhaseDetector
from repro.microarch.pipeline import simulate_batch
from repro.obs import MetricsRegistry
from repro.ml import training
from repro.ml.dataset import _batch_arrays, sample_inputs
from repro.ml.fuzzy import FuzzyController
from repro.timing.paths import StageDelays
from repro.timing.errors import processor_error_rate, stage_error_rates
from repro.timing.speculation import PerfParams, effective_cpi
from repro.variation import spherical_correlation

voltages = st.floats(min_value=0.8, max_value=1.3)
thresholds = st.floats(min_value=0.05, max_value=0.4)
temps = st.floats(min_value=300.0, max_value=400.0)
frequencies = st.floats(min_value=1e9, max_value=6e9)


@given(vdd=voltages, vt=thresholds, temp=temps)
def test_gate_delay_always_positive(vdd, vt, temp):
    assert gate_delay(vdd, vt, 1.0, temp) > 0.0


@given(vdd=voltages, vt=thresholds, temp=temps)
def test_delay_decreases_with_overdrive(vdd, vt, temp):
    faster = gate_delay(vdd + 0.05, vt, 1.0, temp)
    slower = gate_delay(vdd, vt, 1.0, temp)
    assert faster < slower


@given(vdd=voltages, vt=thresholds, temp=temps)
def test_leakage_positive_and_monotone_in_vt(vdd, vt, temp):
    high_vt = static_power(1.0, vdd, temp, vt + 0.02)
    low_vt = static_power(1.0, vdd, temp, vt)
    assert 0.0 < high_vt < low_vt


@given(
    vt0=thresholds,
    temp=temps,
    vdd=voltages,
    vbb=st.floats(min_value=-0.5, max_value=0.5),
)
def test_vt_law_is_affine_in_vbb(vt0, temp, vdd, vbb):
    base = threshold_voltage(vt0, temp, vdd, 0.0)
    shifted = threshold_voltage(vt0, temp, vdd, vbb)
    again = threshold_voltage(vt0, temp, vdd, 2 * vbb)
    assert np.isclose(again - shifted, shifted - base, atol=1e-12)


@given(r=st.floats(min_value=0.0, max_value=5.0), phi=st.floats(min_value=0.05, max_value=2.0))
def test_spherical_correlation_in_unit_interval(r, phi):
    rho = float(spherical_correlation(r, phi))
    assert 0.0 <= rho <= 1.0


@given(
    mean=st.floats(min_value=1e-10, max_value=5e-10),
    sigma=st.floats(min_value=1e-12, max_value=5e-11),
    rho=st.floats(min_value=0.01, max_value=2.0),
    f1=frequencies,
    f2=frequencies,
)
def test_error_rate_monotone_in_frequency(mean, sigma, rho, f1, f2):
    delays = StageDelays(
        mean=np.array([mean]), sigma=np.array([sigma]), z_free=6.5
    )
    lo, hi = min(f1, f2), max(f1, f2)
    pe_lo = processor_error_rate(lo, delays, np.array([rho]))
    pe_hi = processor_error_rate(hi, delays, np.array([rho]))
    assert pe_lo <= pe_hi + 1e-30


@given(
    mean=st.floats(min_value=1e-10, max_value=5e-10),
    sigma=st.floats(min_value=1e-12, max_value=5e-11),
    freq=frequencies,
)
def test_stage_error_rate_bounded_by_rho(mean, sigma, freq):
    delays = StageDelays(
        mean=np.array([mean]), sigma=np.array([sigma]), z_free=6.5
    )
    rho = np.array([0.7])
    pe = stage_error_rates(freq, delays, rho)
    assert 0.0 <= pe[0] <= rho[0]


@given(
    cpi=st.floats(min_value=0.3, max_value=8.0),
    mr=st.floats(min_value=0.0, max_value=0.05),
    pe=st.floats(min_value=0.0, max_value=0.1),
    freq=frequencies,
)
def test_effective_cpi_at_least_compute_cpi(cpi, mr, pe, freq):
    params = PerfParams.from_calibration(cpi, mr)
    assert effective_cpi(freq, pe, params) >= cpi


@settings(max_examples=25)
@given(
    data=arrays(
        np.float64,
        (8, 3),
        elements=st.floats(min_value=-2.0, max_value=2.0),
    ),
    x=arrays(
        np.float64, (3,), elements=st.floats(min_value=-3.0, max_value=3.0)
    ),
)
def test_fuzzy_output_within_rule_output_range(data, x):
    fc = FuzzyController(
        mu=data,
        sigma=np.full((8, 3), 0.5),
        y=np.linspace(-1.0, 1.0, 8),
        input_mean=np.zeros(3),
        input_std=np.ones(3),
    )
    out = fc.predict(x)
    assert -1.0 - 1e-9 <= out <= 1.0 + 1e-9


@settings(max_examples=25)
@given(
    bbv=arrays(
        np.int64,
        (N_BUCKETS,),
        elements=st.integers(min_value=0, max_value=63),
    )
)
def test_phase_detector_distance_is_symmetric(bbv):
    other = np.roll(bbv, 3)
    assert PhaseDetector.distance(bbv, other) == PhaseDetector.distance(
        other, bbv
    )


@settings(max_examples=25)
@given(
    bbv=arrays(
        np.int64,
        (N_BUCKETS,),
        elements=st.integers(min_value=0, max_value=63),
    )
)
def test_phase_detector_self_distance_zero(bbv):
    assert PhaseDetector.distance(bbv, bbv) == 0.0


# ----------------------------------------------------------------------
# The simulator runs each variant on its own: a batch is K batches of one.
# ----------------------------------------------------------------------
_SUITE = spec2000_like_suite()
#: Short traces of an int, a memory-bound and an FP phase.
_TRACES = [
    generate_trace(_SUITE[w].phase_profile(_SUITE[w].phases[0]), 300, seed=5)
    for w in (0, 2, 5)
]

core_configs = st.builds(
    CoreConfig,
    fetch_width=st.integers(1, 4),
    issue_width=st.integers(1, 4),
    retire_width=st.integers(1, 4),
    int_queue_size=st.integers(1, 8),
    fp_queue_size=st.integers(1, 8),
    mem_queue_size=st.integers(1, 8),
    rob_size=st.integers(1, 16),
    n_int_alu=st.integers(1, 3),
    n_fp_add=st.integers(1, 2),
    n_mem_ports=st.integers(1, 2),
    extra_exec_stage=st.integers(0, 1),
    prefetch_accuracy=st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=30, deadline=None)
@given(
    trace=st.sampled_from(_TRACES),
    variants=st.lists(st.tuples(core_configs, st.booleans()), min_size=1, max_size=4),
    data=st.data(),
)
def test_simulate_batch_variant_equals_batch_of_one(trace, variants, data):
    order = data.draw(st.permutations(range(len(variants))))
    batched = simulate_batch(trace, variants)
    reordered = simulate_batch(trace, [variants[k] for k in order])
    for k, variant in enumerate(variants):
        assert batched[k] == simulate_batch(trace, [variant])[0]
    for position, k in enumerate(order):
        assert reordered[position] == batched[k]


# ----------------------------------------------------------------------
# Lockstep training: controller k of a stacked call is controller k alone.
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    seeds=st.lists(st.integers(0, 2**16), min_size=3, max_size=3),
    planted=st.integers(6, 39),
    epochs=st.integers(1, 2),
)
def test_lockstep_training_matches_training_alone(data_seed, seeds, planted, epochs):
    rng = np.random.default_rng(data_seed)
    inputs = rng.uniform(-1.0, 1.0, (40, 3, 3))
    targets = rng.uniform(-1.0, 1.0, (40, 3))
    # Far outside every rule of controller 1: its rule strengths
    # underflow at this example while controllers 0 and 2 keep stepping.
    inputs[planted, 1, :] = 1e6
    with mock.patch.object(
        training, "_gradients", wraps=training._gradients
    ) as gradients:
        stacked = training.train_fuzzy_controller(
            inputs, targets, n_rules=6, epochs=epochs, seed=seeds
        )
    assert any(len(call.args[4]) < 3 for call in gradients.call_args_list)
    for k, (fc, report) in enumerate(stacked):
        alone, alone_report = training.train_fuzzy_controller(
            inputs[:, k, :], targets[:, k], n_rules=6, epochs=epochs,
            seed=seeds[k],
        )
        assert np.array_equal(fc.mu, alone.mu)
        assert np.array_equal(fc.sigma, alone.sigma)
        assert np.array_equal(fc.y, alone.y)
        assert report == alone_report


# ----------------------------------------------------------------------
# Exhaustive sweeps are blocked by a cell budget; the budget never shows.
# ----------------------------------------------------------------------
_NOVAR = build_novar_core()
_SPEC = TS_ASV_ABB.optimization_spec(_NOVAR.n_subsystems, _NOVAR.calib)
_COUNTERS = (
    "optimizer.freq_calls",
    "optimizer.freq_lanes",
    "optimizer.freq_exhausted",
    "optimizer.power_calls",
    "optimizer.power_lanes",
    "optimizer.candidates",
    "optimizer.constraint_rejections",
)


def _random_lanes(seed, n_lanes, n):
    """``n_lanes`` lanes of ``n`` sampled pseudo-subsystems each."""
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(n_lanes):
        index = int(rng.integers(_NOVAR.n_subsystems))
        samples = sample_inputs(_NOVAR, index, n, rng)
        members.append(
            _batch_arrays(
                _NOVAR, index, samples, delay_scale=rng.uniform(0.9, 1.0)
            )
        )
    return members


def _under_budget(cells, fn):
    """``fn()`` with the sweep budget at ``cells``, plus its counters."""
    with mock.patch.object(optimizer, "_BLOCK_CELLS", cells):
        with obs.scoped(MetricsRegistry()) as registry:
            result = fn()
            doc = registry.to_dict()
    counters = {name: doc["counters"].get(name) for name in _COUNTERS}
    iterations = doc["histograms"].get("optimizer.freq_iterations", {})
    return result, counters, iterations.get("values")


def _assert_blocking_invariant(fn):
    tiny = _under_budget(1, fn)
    whole = _under_budget(1 << 30, fn)
    for got, want in zip(tiny[0], whole[0]):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert tiny[1:] == whole[1:]


def _fields(result):
    return [getattr(result, name) for name in result.__dataclass_fields__]


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_lanes=st.integers(1, 4),
    n=st.integers(1, 6),
    f_shape=st.sampled_from(["scalar", "lane", "full"]),
)
def test_sweeps_invariant_to_block_budget(seed, n_lanes, n, f_shape):
    # A budget of one cell puts each lane in its own block and splits the
    # thermal fixed point into single vdd rows; 2**30 is one block.
    stack = SubsystemArrays.stack(_random_lanes(seed, n_lanes, n))
    f_core = {
        "scalar": 3.0e9,
        "lane": np.linspace(2.5e9, 3.5e9, n_lanes),
        "full": np.random.default_rng(seed).uniform(2.5e9, 3.5e9, (n_lanes, n)),
    }[f_shape]
    _assert_blocking_invariant(lambda: _fields(freq_algorithm(stack, _SPEC)))
    _assert_blocking_invariant(
        lambda: _fields(power_algorithm(stack, f_core, _SPEC))
    )


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scalar=st.booleans())
def test_unbatched_sweeps_invariant_to_block_budget(seed, scalar):
    (subs,) = _random_lanes(seed, 1, 5)
    f_core = 3.0e9 if scalar else np.linspace(2.5e9, 3.5e9, len(subs))
    _assert_blocking_invariant(lambda: _fields(freq_algorithm(subs, _SPEC)))
    _assert_blocking_invariant(
        lambda: _fields(power_algorithm(subs, f_core, _SPEC))
    )


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), f_rel=st.floats(0.75, 1.25))
def test_fig9_thermal_fixed_point_invariant_to_block_budget(seed, f_rel):
    # Fig 9 settles an unbatched core over a 3-D (vdd, vbb, n) grid.
    (subs,) = _random_lanes(seed, 1, 4)
    vdd = _SPEC.vdd_levels[:, None, None]
    vbb = _SPEC.vbb_levels[None, :, None]
    f = f_rel * _NOVAR.calib.f_nominal
    _assert_blocking_invariant(
        lambda: optimizer._thermal_fixed_point(
            subs, vdd, vbb, f, _SPEC.t_heatsink
        )
    )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(2, 6),
    lanes=st.integers(1, 4),
    scaled=st.booleans(),
)
def test_thermal_step_steps_equal_repeated_single_steps(
    seed, steps, lanes, scaled
):
    # ``steps=k`` is k single steps fed back, bit for bit, under every
    # implementation; the delta is the last single step's.
    from repro import kernels
    from repro.backend import get_backend
    from repro.circuits.knobs import DEFAULT_VT_SENSITIVITIES

    rng = np.random.default_rng(seed)
    n = 6
    vt0 = rng.uniform(0.10, 0.20, (lanes, n))
    ksta = rng.uniform(1e-5, 5e-5, (lanes, n))
    rth = rng.uniform(0.5, 40.0, (lanes, n))
    factor = rng.uniform(1.0, 1.4, (lanes, n)) if scaled else None
    vdd = np.linspace(0.8, 1.2, 3)[:, None, None, None]
    vbb = np.linspace(-0.5, 0.5, 2)[None, :, None, None]
    p_dyn = rng.uniform(0.1, 10.0, (3, 1, lanes, n))
    start = np.full((3, 2, lanes, n), 323.0)
    impls = ["reference", "numpy"] + (["c"] if kernels.c_available() else [])
    for impl in impls:
        with kernels.use_impl(impl):
            step = get_backend().kernel("thermal_step")

        def run(temp, k):
            return step(
                vt0, vdd, vbb, temp, ksta, rth, p_dyn, 318.0,
                DEFAULT_VT_SENSITIVITIES, power_factor=factor,
                compute_delta=True, steps=k,
            )

        temp, delta = start, None
        for _ in range(steps):
            temp, delta = run(temp, 1)
        fused, fused_delta = run(start, steps)
        assert np.array_equal(fused, temp), impl
        assert np.array_equal(fused_delta, delta), impl
