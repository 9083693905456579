"""Fused physics kernels (DESIGN.md §15): golden parity and plumbing.

The contract under test is *bit*-identity: every registered
implementation of every kernel — the hand-fused numpy one, and the
compiled C one where this machine can build it — must produce results
bitwise equal to the ``reference`` composition of the seed leaf
functions, at the kernel level, the solver level, and the full
``run_unit`` row level.  Plus the satellite coverage: the workspace
pool, the per-kernel counters, the backend error paths, the C build
cache and its fallback, thermal-runaway lane isolation, and the
all-scalar fast paths in the leaf functions themselves.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import cbuild, kernels, obs
from repro.backend import (
    available_backends,
    get_backend,
    reset_backend,
    set_backend,
)
from repro.chip.chip import Core
from repro.circuits.knobs import DEFAULT_VT_SENSITIVITIES, threshold_voltage
from repro.circuits.leakage import IDEALITY_FACTOR, static_power
from repro.core import (
    TS_ASV,
    AdaptationMode,
    core_subsystem_arrays,
    freq_algorithm,
    power_algorithm,
)
from repro.exps.runner import ExperimentRunner, RunnerConfig
from repro.kernels import T_RUNAWAY, WorkspacePool, workspace_pool
from repro.obs import MetricsRegistry
from repro.thermal import solve_temperatures, solve_temperatures_lanes
from repro.units import Q_OVER_K

SENS = DEFAULT_VT_SENSITIVITIES

#: Whether this machine builds the C tier (it needs a C compiler).
C_AVAILABLE = kernels.c_available()

#: Implementations that must match ``reference`` bit for bit.
FUSED_IMPLS = ["numpy"] + (["c"] if C_AVAILABLE else [])

needs_c = pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler here")


@pytest.fixture(autouse=True)
def _clean_kernel_state():
    """Each test starts and ends with env-driven kernel selection."""
    kernels.reset()
    yield
    kernels.reset()
    reset_backend()


def _grid_operands(seed=0, n_lanes=6, n=15, n_vdd=9, n_vbb=5):
    """Random operands shaped like the optimiser's (V, Vb, B, n) sweep."""
    rng = np.random.default_rng(seed)
    return {
        "vt0": rng.uniform(0.10, 0.20, (n_lanes, n)),
        "ksta": rng.uniform(0.5, 2.0, (n_lanes, n)),
        "rth": rng.uniform(0.5, 2.5, (n_lanes, n)),
        "power_factor": rng.uniform(1.0, 1.4, (n_lanes, n)),
        "vdd": np.linspace(0.8, 1.2, n_vdd)[:, None, None, None],
        "vbb": np.linspace(-0.5, 0.5, n_vbb)[None, :, None, None],
        "temp": rng.uniform(330.0, 420.0, (n_vdd, n_vbb, n_lanes, n)),
        "p_dyn": rng.uniform(0.1, 3.0, (n_vdd, n_vbb, n_lanes, n)),
    }


def _run_impl(impl, name, *args, **kwargs):
    with kernels.use_impl(impl):
        return get_backend().kernel(name)(*args, **kwargs)


def _assert_bitwise(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    assert (a == b).all()


# ----------------------------------------------------------------------
# Workspace pool.
# ----------------------------------------------------------------------
class TestWorkspacePool:
    def test_borrow_yields_distinct_buffers(self):
        pool = WorkspacePool()
        with pool.borrow((4, 3), 3) as buffers:
            assert len(buffers) == 3
            assert len({id(b) for b in buffers}) == 3
            for buffer in buffers:
                assert buffer.shape == (4, 3)
                assert buffer.dtype == np.float64

    def test_buffers_are_reused_across_borrows(self):
        pool = WorkspacePool()
        with pool.borrow((8,)) as (first,):
            first_id = id(first)
        with pool.borrow((8,)) as (again,):
            assert id(again) == first_id

    def test_keyed_on_shape_and_dtype(self):
        pool = WorkspacePool()
        with pool.borrow((8,)) as (a,):
            pass
        with pool.borrow((9,)) as (b,):
            assert id(b) != id(a)
        with pool.borrow((8,), dtype=np.float32) as (c,):
            assert id(c) != id(a)
            assert c.dtype == np.float32

    def test_free_list_is_bounded(self):
        pool = WorkspacePool(max_per_key=2)
        with pool.borrow((16,), 5):
            pass
        assert pool.cached_bytes() == 2 * 16 * 8

    def test_nested_borrows_do_not_alias(self):
        pool = WorkspacePool()
        with pool.borrow((8,)) as (outer,):
            with pool.borrow((8,)) as (inner,):
                assert id(inner) != id(outer)

    def test_pool_is_thread_local(self):
        pool = WorkspacePool()
        with pool.borrow((8,)) as (mine,):
            pass
        seen = {}

        def worker():
            with pool.borrow((8,)) as (theirs,):
                seen["id"] = id(theirs)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["id"] != id(mine)

    def test_clear_drops_cached_buffers(self):
        pool = WorkspacePool()
        with pool.borrow((8,)):
            pass
        assert pool.cached_bytes() > 0
        pool.clear()
        assert pool.cached_bytes() == 0

    def test_module_pool_is_shared(self):
        assert workspace_pool() is workspace_pool()


# ----------------------------------------------------------------------
# Registry, selection and error paths.
# ----------------------------------------------------------------------
class TestKernelRegistry:
    def test_all_kernels_registered(self):
        assert set(kernels.available_kernels()) >= {
            "vt_and_static_power",
            "thermal_step",
            "timing_error_cdf",
        }
        for name in kernels.available_kernels():
            impls = set(kernels.available_impls(name))
            assert {"reference", "numpy"} <= impls
        assert "c" in kernels.available_impls("thermal_step")

    def test_auto_prefers_c_then_numpy(self, monkeypatch):
        monkeypatch.delenv("EVAL_REPRO_KERNELS", raising=False)
        expected = "c" if C_AVAILABLE else "numpy"
        assert kernels.active_impl("thermal_step") == expected
        assert kernels.active_impl("timing_error_cdf") == "numpy"

    def test_non_numpy_backends_fall_back_to_reference(self, monkeypatch):
        monkeypatch.delenv("EVAL_REPRO_KERNELS", raising=False)
        assert kernels.active_impl("thermal_step", backend="cupy") == "reference"

    def test_use_impl_forces_and_restores(self):
        with kernels.use_impl("reference"):
            assert kernels.active_impl("thermal_step") == "reference"
            fn = get_backend().kernel("thermal_step")
            assert fn.impl_name == "reference"
        assert kernels.active_impl("thermal_step") != "reference"

    def test_env_var_selects_impl(self, monkeypatch):
        monkeypatch.setenv("EVAL_REPRO_KERNELS", "reference")
        kernels.reset()
        assert get_backend().kernel("timing_error_cdf").impl_name == "reference"

    def test_reset_backend_rereads_kernel_env(self, monkeypatch):
        monkeypatch.setenv("EVAL_REPRO_KERNELS", "reference")
        reset_backend()
        assert kernels.active_impl("thermal_step") == "reference"
        monkeypatch.delenv("EVAL_REPRO_KERNELS")
        reset_backend()
        assert kernels.active_impl("thermal_step") != "reference"

    def test_resolution_is_cached(self):
        assert get_backend().kernel("thermal_step") is get_backend().kernel(
            "thermal_step"
        )

    def test_unknown_kernel_is_an_error(self):
        with pytest.raises(ValueError, match="thermal_step"):
            get_backend().kernel("warp_drive")

    def test_unknown_impl_is_an_error(self, monkeypatch):
        monkeypatch.setenv("EVAL_REPRO_KERNELS", "fortran")
        kernels.reset()
        with pytest.raises(ValueError, match="reference"):
            get_backend().kernel("thermal_step")

    def test_c_without_a_compiler_is_a_runtime_error(self, monkeypatch):
        monkeypatch.setattr(cbuild, "COMPILER", "no-such-cc-for-eval-repro")
        monkeypatch.setenv("EVAL_REPRO_KERNELS", "c")
        kernels.reset()
        with pytest.raises(RuntimeError, match="C library cannot be built"):
            get_backend().kernel("thermal_step")


class TestBackendErrorPaths:
    """Satellite: the documented backend failure modes."""

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError) as excinfo:
            set_backend("tpu9000")
        message = str(excinfo.value)
        for name in available_backends():
            assert name in message

    def test_reset_backend_rereads_the_env(self, monkeypatch):
        monkeypatch.setenv("EVAL_REPRO_BACKEND", "numpy")
        reset_backend()
        assert get_backend().name == "numpy"
        monkeypatch.setenv("EVAL_REPRO_BACKEND", "tpu9000")
        reset_backend()
        with pytest.raises(ValueError):
            get_backend()
        monkeypatch.delenv("EVAL_REPRO_BACKEND")
        reset_backend()
        assert get_backend().name == "numpy"


class TestCTier:
    """The compiled tier's build cache, selection and fallback."""

    def test_no_compiler_auto_resolves_to_numpy(self, monkeypatch):
        monkeypatch.setattr(cbuild, "COMPILER", "no-such-cc-for-eval-repro")
        monkeypatch.delenv("EVAL_REPRO_KERNELS", raising=False)
        kernels.reset()
        assert kernels.active_impl("thermal_step") == "numpy"
        assert get_backend().kernel("thermal_step").impl_name == "numpy"
        with pytest.raises(cbuild.BuildError, match="not found"):
            kernels.c_library()

    @needs_c
    def test_forced_c_runs_numpy_for_kernels_without_c(self):
        with kernels.use_impl("c"):
            assert kernels.active_impl("thermal_step") == "c"
            assert kernels.active_impl("timing_error_cdf") == "numpy"
            assert kernels.active_impl("vt_and_static_power") == "numpy"

    @needs_c
    def test_library_name_keys_source_flags_and_compiler(self, monkeypatch):
        name = cbuild.library_name("k", "int f(void) { return 1; }")
        assert name != cbuild.library_name("k", "int f(void) { return 2; }")
        monkeypatch.setattr(cbuild, "FLAGS", cbuild.FLAGS + ("-g",))
        assert name != cbuild.library_name("k", "int f(void) { return 1; }")

    @needs_c
    def test_unwritable_cache_falls_back_to_the_temp_dir(
        self, tmp_path, monkeypatch
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        source = "int answer(void) { return 42; }"
        file_name = cbuild.library_name("answer", source)
        lib = cbuild._load_or_build("answer", source, file_name)
        assert lib.answer() == 42
        (built,) = (tmp_path / "tmp").glob("eval-repro-*/answer-*.so")
        assert built.name == file_name
        assert not list(built.parent.glob("*.tmp"))

    @needs_c
    def test_fresh_process_loads_the_cached_library_without_compiling(
        self, tmp_path
    ):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(cbuild.__file__))]
            + [p for p in [env.get("PYTHONPATH")] if p]
        )
        env.pop("EVAL_REPRO_KERNELS", None)
        build = "from repro import kernels; kernels.c_library()"
        subprocess.run([sys.executable, "-c", build], env=env, check=True)
        (built,) = (tmp_path / "eval-repro").glob("thermal_step-*.so")
        load = (
            "import subprocess\n"
            "from repro import cbuild, kernels\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('compiler called')\n"
            "cbuild._compile = refuse\n"
            "subprocess.run = refuse\n"
            "assert kernels.active_impl('thermal_step') == 'c'\n"
        )
        subprocess.run([sys.executable, "-c", load], env=env, check=True)
        assert list((tmp_path / "eval-repro").iterdir()) == [built]


# ----------------------------------------------------------------------
# Kernel-level golden parity: fused == reference, bit for bit.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("impl", FUSED_IMPLS)
class TestKernelParity:
    def test_vt_and_static_power(self, impl):
        ops = _grid_operands()
        args = (ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"], SENS)
        ref_vt, ref_p = _run_impl("reference", "vt_and_static_power", *args)
        vt, p_sta = _run_impl(impl, "vt_and_static_power", *args)
        _assert_bitwise(ref_vt, vt)
        _assert_bitwise(ref_p, p_sta)

    def test_vt_and_static_power_with_power_factor(self, impl):
        ops = _grid_operands(seed=1)
        args = (ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"], SENS)
        kwargs = {"power_factor": ops["power_factor"]}
        ref = _run_impl("reference", "vt_and_static_power", *args, **kwargs)
        out = _run_impl(impl, "vt_and_static_power", *args, **kwargs)
        _assert_bitwise(ref[1], out[1])

    def test_vt_and_static_power_scalar_temperature(self, impl):
        # The optimiser's loop-invariant p_static(vdd, vbb, t_max) shape.
        ops = _grid_operands(seed=2)
        args = (ops["vt0"], ops["vdd"], ops["vbb"], 373.15, ops["ksta"], SENS)
        ref = _run_impl("reference", "vt_and_static_power", *args)
        out = _run_impl(impl, "vt_and_static_power", *args)
        _assert_bitwise(ref[0], out[0])
        _assert_bitwise(ref[1], out[1])

    def test_thermal_step(self, impl):
        ops = _grid_operands(seed=3)
        args = (
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"],
            ops["rth"], ops["p_dyn"], 318.0, SENS,
        )
        ref_t, ref_d = _run_impl(
            "reference", "thermal_step", *args, compute_delta=True
        )
        new_t, delta = _run_impl(impl, "thermal_step", *args, compute_delta=True)
        _assert_bitwise(ref_t, new_t)
        _assert_bitwise(ref_d, delta)

    def test_thermal_step_with_power_factor_and_out(self, impl):
        ops = _grid_operands(seed=4)
        args = (
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"],
            ops["rth"], ops["p_dyn"], 318.0, SENS,
        )
        kwargs = {"power_factor": ops["power_factor"], "t_runaway": 500.0}
        ref_t, _ = _run_impl("reference", "thermal_step", *args, **kwargs)
        out = np.empty(ops["temp"].shape)
        new_t, _ = _run_impl(impl, "thermal_step", *args, out=out, **kwargs)
        assert new_t is out  # the ping-pong contract
        _assert_bitwise(ref_t, new_t)

    def test_thermal_step_clamps_at_runaway(self, impl):
        ops = _grid_operands(seed=5)
        args = (
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"],
            ops["rth"], ops["p_dyn"] * 1e4, 318.0, SENS,
        )
        ref_t, _ = _run_impl("reference", "thermal_step", *args)
        new_t, _ = _run_impl(impl, "thermal_step", *args)
        assert new_t.max() == T_RUNAWAY
        _assert_bitwise(ref_t, new_t)

    def test_thermal_step_rejects_misshapen_out(self, impl):
        ops = _grid_operands(seed=6)
        with pytest.raises(ValueError, match="out buffer"):
            _run_impl(
                impl, "thermal_step",
                ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"],
                ops["rth"], ops["p_dyn"], 318.0, SENS,
                out=np.empty((2, 2)),
            )

    def test_timing_error_cdf(self, impl):
        rng = np.random.default_rng(7)
        freq = rng.uniform(2.0e9, 5.0e9, (6, 1))
        mean = rng.uniform(1.8e-10, 2.4e-10, (6, 15))
        sigma = rng.uniform(1e-12, 8e-12, (6, 15))
        rho = rng.uniform(0.0, 1.0, (6, 15))
        ref = _run_impl("reference", "timing_error_cdf", freq, mean, sigma, rho)
        out = _run_impl(impl, "timing_error_cdf", freq, mean, sigma, rho)
        _assert_bitwise(ref, out)

    def test_timing_error_cdf_deep_tail(self, impl):
        # Far below the error-free frequency Q(z) underflows to 0.0;
        # both paths must agree there too.
        freq = np.array([1.0e9])
        mean = np.full((1, 15), 2.0e-10)
        sigma = np.full((1, 15), 5.0e-12)
        rho = np.full((1, 15), 0.5)
        ref = _run_impl("reference", "timing_error_cdf", freq, mean, sigma, rho)
        out = _run_impl(impl, "timing_error_cdf", freq, mean, sigma, rho)
        assert (ref == 0.0).all()
        _assert_bitwise(ref, out)


def _assert_bits(a, b):
    """Bitwise equal, except that a NaN matches any NaN: which payload
    an operation on two NaNs propagates is left open by IEEE 754, and
    numpy's SIMD loops do not pin it either."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert (nan == np.isnan(b)).all()
    assert (a.view(np.int64)[~nan] == b.view(np.int64)[~nan]).all()


def _step_case(name, seed=11):
    """``thermal_step`` operands in each shape a caller passes."""
    rng = np.random.default_rng(seed)
    n_vdd, n_vbb, lanes, n = 4, 3, 5, 15
    per_lane = {
        key: rng.uniform(lo, hi, (lanes, n))
        for key, (lo, hi) in {
            "vt0": (0.10, 0.20), "ksta": (1e-5, 5e-5), "rth": (0.5, 2.5),
            "power_factor": (1.0, 1.4),
        }.items()
    }
    vdd = np.linspace(0.8, 1.2, n_vdd)[:, None, None, None]
    vbb = np.linspace(-0.5, 0.5, n_vbb)[None, :, None, None]
    grid = (n_vdd, n_vbb, lanes, n)
    if name == "freq_grid":  # full-grid p_dyn (per-cell frequencies)
        return dict(per_lane, vdd=vdd, vbb=vbb,
                    temp=rng.uniform(330.0, 420.0, grid),
                    p_dyn=rng.uniform(0.1, 3.0, grid))
    if name == "power_grid":  # p_dyn independent of vbb
        return dict(per_lane, vdd=vdd, vbb=vbb,
                    temp=rng.uniform(330.0, 420.0, grid),
                    p_dyn=rng.uniform(0.1, 3.0, (n_vdd, 1, lanes, n)))
    if name == "solver_lanes":  # (B, n) lanes over one core's (n,) arrays
        return {
            "vt0": per_lane["vt0"][0], "ksta": per_lane["ksta"][0],
            "rth": per_lane["rth"][0], "power_factor": None,
            "vdd": rng.uniform(0.8, 1.2, (lanes, n)),
            "vbb": rng.uniform(-0.5, 0.5, (lanes, n)),
            "temp": rng.uniform(330.0, 420.0, (lanes, n)),
            "p_dyn": rng.uniform(0.1, 3.0, (lanes, n)),
        }
    if name == "solver_single":  # one core, (n,) everywhere
        return {
            "vt0": per_lane["vt0"][0], "ksta": per_lane["ksta"][0],
            "rth": per_lane["rth"][0], "power_factor": None,
            "vdd": np.full(n, 1.1), "vbb": np.full(n, 0.1),
            "temp": rng.uniform(330.0, 420.0, n),
            "p_dyn": rng.uniform(0.1, 3.0, n),
        }
    assert name == "scalars"
    return {"vt0": 0.15, "ksta": 2e-5, "rth": 1.5, "power_factor": 1.1,
            "vdd": 1.0, "vbb": 0.0, "temp": 350.0, "p_dyn": 1.3}


STEP_SHAPES = ["freq_grid", "power_grid", "solver_lanes", "solver_single",
               "scalars"]


def _step(impl, ops, **kwargs):
    kwargs.setdefault("power_factor", ops["power_factor"])
    return _run_impl(
        impl, "thermal_step", ops["vt0"], ops["vdd"], ops["vbb"],
        ops["temp"], ops["ksta"], ops["rth"], ops["p_dyn"], 318.0, SENS,
        **kwargs,
    )


@pytest.mark.parametrize("impl", FUSED_IMPLS)
class TestThermalStepParity:
    """``thermal_step`` against ``reference`` at every caller's operand
    shapes and at the edges of its arithmetic."""

    @pytest.mark.parametrize("shape", STEP_SHAPES)
    @pytest.mark.parametrize("steps", [1, 4])
    def test_caller_shapes(self, impl, shape, steps):
        ops = _step_case(shape)
        ref_t, ref_d = _step("reference", ops, compute_delta=True, steps=steps)
        new_t, delta = _step(impl, ops, compute_delta=True, steps=steps)
        _assert_bits(ref_t, new_t)
        _assert_bits(ref_d, delta)

    @pytest.mark.parametrize("shape", ["freq_grid", "solver_lanes"])
    def test_without_power_factor(self, impl, shape):
        ops = _step_case(shape, seed=12)
        ref_t, _ = _step("reference", ops, power_factor=None, steps=3)
        new_t, _ = _step(impl, ops, power_factor=None, steps=3)
        _assert_bits(ref_t, new_t)

    def test_nan_and_inf_inputs(self, impl):
        ops = _step_case("freq_grid", seed=13)
        ops["temp"][0, 0, 0, :4] = [np.nan, np.inf, -np.inf, 0.0]
        ops["p_dyn"][1, 1, 1, :3] = [np.nan, np.inf, -np.inf]
        ops["vt0"][2, :3] = [np.nan, np.inf, -np.inf]
        ops["ksta"][3, :2] = [np.inf, -np.inf]
        ops["power_factor"][4, :2] = [np.nan, np.inf]
        with np.errstate(all="ignore"):
            ref_t, ref_d = _step("reference", ops, compute_delta=True)
            new_t, delta = _step(impl, ops, compute_delta=True)
            ref_t2, _ = _step("reference", ops, steps=3)
            new_t2, _ = _step(impl, ops, steps=3)
        assert np.isnan(ref_t).any() and np.isnan(ref_d).any()
        _assert_bits(ref_t, new_t)
        _assert_bits(ref_d, delta)
        _assert_bits(ref_t2, new_t2)

    def test_cells_at_and_above_the_cap(self, impl):
        ops = _step_case("power_grid", seed=14)
        ops["temp"][0] = T_RUNAWAY
        ops["temp"][1] = T_RUNAWAY + 250.0
        ops["p_dyn"] = ops["p_dyn"] * np.array([1.0, 1.0, 1e4, 1.0])[
            :, None, None, None
        ]
        ref_t, _ = _step("reference", ops)
        new_t, _ = _step(impl, ops)
        assert (ref_t == T_RUNAWAY).any() and (ref_t < T_RUNAWAY).any()
        _assert_bits(ref_t, new_t)
        # A cap the result equals exactly comes back unchanged.
        cap = float(ref_t[3, 0, 0, 0])
        ref_c, _ = _step("reference", ops, t_runaway=cap)
        new_c, _ = _step(impl, ops, t_runaway=cap)
        _assert_bits(ref_c, new_c)

    def test_non_contiguous_out_and_operands(self, impl):
        ops = _step_case("freq_grid", seed=15)
        ops["temp"] = np.asfortranarray(ops["temp"])
        ops["vt0"] = ops["vt0"][:, ::-1]
        ref_t, _ = _step("reference", ops, steps=2)
        out = np.empty(ref_t.shape[::-1]).T
        new_t, _ = _step(impl, ops, steps=2, out=out)
        assert new_t is out
        _assert_bits(ref_t, new_t)

    def test_rejects_zero_steps(self, impl):
        with pytest.raises(ValueError, match="steps"):
            _step(impl, _step_case("scalars"), steps=0)


@pytest.mark.parametrize("impl", ["reference"] + FUSED_IMPLS)
class TestThermalStepAliasing:
    """``out`` may be ``temp`` itself: the delta is still the true one."""

    def test_small_case_delta(self, impl):
        temp = np.full((2, 3), 330.0)
        ops = {"vt0": 0.15, "ksta": 1.2, "rth": 50.0, "power_factor": None,
               "vdd": 1.0, "vbb": 0.0, "temp": temp, "p_dyn": 3.0}
        expected_t, expected_d = _step(impl, dict(ops, temp=temp.copy()),
                                       compute_delta=True)
        new_t, delta = _step(impl, ops, compute_delta=True, out=temp)
        assert new_t is temp
        assert (expected_d > 100.0).all()
        _assert_bits(expected_d, delta)
        _assert_bits(expected_t, new_t)

    @pytest.mark.parametrize("steps", [1, 5])
    def test_grid_in_place(self, impl, steps):
        ops = _step_case("freq_grid", seed=16)
        ref_t, ref_d = _step("reference", ops, compute_delta=True, steps=steps)
        temp = ops["temp"].copy()
        new_t, delta = _step(impl, dict(ops, temp=temp), compute_delta=True,
                             steps=steps, out=temp)
        assert new_t is temp
        _assert_bits(ref_t, new_t)
        _assert_bits(ref_d, delta)


# ----------------------------------------------------------------------
# Per-kernel observability.
# ----------------------------------------------------------------------
class TestKernelInstrumentation:
    def test_calls_and_ns_counters(self):
        ops = _grid_operands(seed=8)
        registry = MetricsRegistry()
        with obs.scoped(registry):
            get_backend().kernel("vt_and_static_power")(
                ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"], SENS
            )
        counters = registry.to_dict()["counters"]
        assert counters["kernel.vt_and_static_power.calls"] == 1
        assert counters["kernel.vt_and_static_power.ns"] > 0

    def test_disabled_metrics_record_nothing(self):
        ops = _grid_operands(seed=9)
        registry = MetricsRegistry()
        with obs.scoped(registry):
            obs.disable()
            try:
                get_backend().kernel("vt_and_static_power")(
                    ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"],
                    ops["ksta"], SENS,
                )
            finally:
                obs.enable()
        assert registry.to_dict()["counters"] == {}

    def test_solver_records_the_fixed_point_span(self, core):
        registry = MetricsRegistry()
        n = core.n_subsystems
        with obs.scoped(registry):
            solve_temperatures(
                core, np.full(n, 1.0), np.zeros(n), 4.0e9, core.alpha_ref,
                343.15,
            )
        document = registry.to_dict()
        assert "span.kernel.thermal_fixed_point_seconds" in document["histograms"]
        assert document["counters"]["kernel.thermal_step.calls"] >= 1


# ----------------------------------------------------------------------
# Solver- and optimiser-level golden parity.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("impl", FUSED_IMPLS)
class TestSolverParity:
    def _solve(self, core, impl):
        n = core.n_subsystems
        with kernels.use_impl(impl):
            return solve_temperatures(
                core, np.full(n, 1.1), np.full(n, 0.1), 4.4e9,
                core.alpha_ref, 343.15,
            )

    def test_solve_temperatures(self, core, impl):
        ref = self._solve(core, "reference")
        out = self._solve(core, impl)
        _assert_bitwise(ref.temperature, out.temperature)
        _assert_bitwise(ref.p_static, out.p_static)
        _assert_bitwise(ref.p_dynamic, out.p_dynamic)
        _assert_bitwise(ref.converged, out.converged)

    def test_solve_temperatures_lanes(self, core, other_core, impl):
        lanes = Core.stack([core, other_core])
        n = core.n_subsystems
        vdd = np.stack([np.full(n, 1.0), np.full(n, 1.2)])
        vbb = np.stack([np.zeros(n), np.full(n, -0.2)])
        activity = np.stack([core.alpha_ref, other_core.alpha_ref * 0.1])

        def solve(with_impl):
            with kernels.use_impl(with_impl):
                return solve_temperatures_lanes(
                    lanes, vdd, vbb, 4.0e9, activity, 343.15
                )

        ref = solve("reference")
        out = solve(impl)
        _assert_bitwise(ref.temperature, out.temperature)
        _assert_bitwise(ref.p_static, out.p_static)
        _assert_bitwise(ref.converged, out.converged)

    def test_freq_and_power_algorithms(self, core, int_measurement, impl):
        subs = core_subsystem_arrays(
            core, int_measurement.activity, int_measurement.rho
        )
        spec = TS_ASV.optimization_spec(core.n_subsystems, core.calib)

        def run(with_impl):
            with kernels.use_impl(with_impl):
                freq = freq_algorithm(subs, spec)
                power = power_algorithm(subs, freq.core_frequency(), spec)
            return freq, power

        ref_freq, ref_power = run("reference")
        freq, power = run(impl)
        _assert_bitwise(ref_freq.f_max, freq.f_max)
        _assert_bitwise(ref_freq.vdd, freq.vdd)
        _assert_bitwise(ref_freq.vbb, freq.vbb)
        _assert_bitwise(ref_power.vdd, power.vdd)
        _assert_bitwise(ref_power.vbb, power.vbb)
        _assert_bitwise(ref_power.temperature, power.temperature)
        _assert_bitwise(ref_power.p_dynamic, power.p_dynamic)
        _assert_bitwise(ref_power.p_static, power.p_static)


# ----------------------------------------------------------------------
# run_unit-level golden parity: whole pipeline rows, bit for bit.
# ----------------------------------------------------------------------
class TestRunUnitParity:
    CONFIG = RunnerConfig(
        n_chips=2,
        cores_per_chip=1,
        n_instructions=4000,
        fuzzy_examples=200,
        fuzzy_epochs=1,
    )

    @pytest.mark.parametrize("impl", FUSED_IMPLS)
    def test_rows_bit_identical_to_reference(self, suite, impl):
        def rows(with_impl):
            runner = ExperimentRunner(self.CONFIG, workloads=list(suite[:2]))
            with kernels.use_impl(with_impl):
                return [
                    runner.run_unit(TS_ASV, AdaptationMode.EXH_DYN, chip, 0)
                    for chip in range(self.CONFIG.n_chips)
                ]

        assert rows(impl) == rows("reference")


# ----------------------------------------------------------------------
# Satellite: thermal runaway stays lane-local.
# ----------------------------------------------------------------------
class TestThermalRunaway:
    #: Activity large enough to push every subsystem past the cap.
    BLOWUP = 1e4

    def test_scalar_runaway_reports_not_converged(self, core):
        n = core.n_subsystems
        solution = solve_temperatures(
            core, np.full(n, 1.2), np.zeros(n), 5.0e9,
            core.alpha_ref * self.BLOWUP, 343.15,
        )
        assert not solution.converged.any()
        assert (solution.temperature == T_RUNAWAY).all()

    def test_runaway_subsystem_does_not_poison_neighbors(self, core):
        n = core.n_subsystems
        activity = core.alpha_ref.copy()
        activity[0] *= self.BLOWUP
        mixed = solve_temperatures(
            core, np.full(n, 1.0), np.zeros(n), 4.0e9, activity, 343.15
        )
        assert not mixed.converged[0]
        assert mixed.temperature[0] == T_RUNAWAY
        assert mixed.converged[1:].all()
        # The healthy subsystems' fixed points are untouched: each node
        # couples to the heat sink only (diagonal Rth), so their
        # temperatures match a solve without the runaway neighbour.
        healthy = solve_temperatures(
            core, np.full(n, 1.0), np.zeros(n), 4.0e9, core.alpha_ref, 343.15
        )
        assert (mixed.temperature[1:] == healthy.temperature[1:]).all()

    @pytest.mark.parametrize("batched_core", ["single", "lanes"])
    def test_lane_runaway_stays_lane_local(self, core, other_core, batched_core):
        n = core.n_subsystems
        if batched_core == "lanes":
            node = Core.stack([core, other_core])
            alpha = [core.alpha_ref, other_core.alpha_ref]
        else:
            node = core
            alpha = [core.alpha_ref, core.alpha_ref]
        vdd = np.stack([np.full(n, 1.0)] * 2)
        vbb = np.zeros((2, n))
        activity = np.stack([alpha[0], alpha[1] * self.BLOWUP])

        batched = solve_temperatures_lanes(
            node, vdd, vbb, 4.0e9, activity, 343.15
        )
        assert batched.converged[0].all()
        assert not batched.converged[1].any()
        assert (batched.temperature[1] == T_RUNAWAY).all()

        # Lane 0 is bit-identical to solving it alone — the runaway
        # neighbour never leaks into its iterate sequence.
        lane_core = core
        alone = solve_temperatures(
            lane_core, vdd[0], vbb[0], 4.0e9, alpha[0], 343.15
        )
        _assert_bitwise(alone.temperature, batched.temperature[0])
        _assert_bitwise(alone.p_static, batched.p_static[0])


# ----------------------------------------------------------------------
# Satellite: all-scalar fast paths in the leaf functions.
# ----------------------------------------------------------------------
class TestScalarFastPaths:
    KSTA, VDD, TEMP, VT = 1.7, 1.05, 381.5, 0.143
    VT0, VBB = 0.158, -0.25

    def test_static_power_scalar_matches_array_path(self):
        fast = static_power(self.KSTA, self.VDD, self.TEMP, self.VT)
        # 0-d ndarray operands force the asarray path (they are not
        # instances of float); numpy reduces them back to a np.float64.
        slow = static_power(
            self.KSTA, np.asarray(self.VDD)[...], np.asarray(self.TEMP)[...],
            np.full((1,), self.VT),
        )
        assert isinstance(fast, float)
        assert float(fast) == float(slow[0])

    def test_static_power_scalar_matches_manual_composition(self):
        fast = static_power(self.KSTA, self.VDD, self.TEMP, self.VT)
        exponent = -Q_OVER_K * np.asarray(self.VT) / (
            IDEALITY_FACTOR * np.asarray(self.TEMP)
        )
        expected = (
            self.KSTA * np.asarray(self.VDD) * np.asarray(self.TEMP) ** 2
            * np.exp(exponent)
        )
        assert float(fast) == float(expected)

    def test_static_power_numpy_scalars_take_the_fast_path(self):
        fast = static_power(
            np.float64(self.KSTA), np.float64(self.VDD),
            np.float64(self.TEMP), np.float64(self.VT),
        )
        assert isinstance(fast, float)
        assert float(fast) == float(
            static_power(self.KSTA, self.VDD, self.TEMP, self.VT)
        )

    def test_static_power_arrays_still_return_arrays(self):
        result = static_power(
            np.full(3, self.KSTA), np.full(3, self.VDD),
            np.full(3, self.TEMP), np.full(3, self.VT),
        )
        assert isinstance(result, np.ndarray)
        assert result.shape == (3,)
        assert (result == static_power(self.KSTA, self.VDD, self.TEMP, self.VT)).all()

    def test_threshold_voltage_scalar_matches_array_path(self):
        fast = threshold_voltage(self.VT0, self.TEMP, self.VDD, self.VBB)
        slow = threshold_voltage(
            np.full((1,), self.VT0), np.asarray(self.TEMP),
            np.asarray(self.VDD), np.asarray(self.VBB),
        )
        assert isinstance(fast, float)
        assert float(fast) == float(slow[0])

    def test_threshold_voltage_arrays_still_return_arrays(self):
        result = threshold_voltage(
            np.full(3, self.VT0), np.full(3, self.TEMP),
            np.full(3, self.VDD), np.full(3, self.VBB),
        )
        assert isinstance(result, np.ndarray)
        assert (
            result == threshold_voltage(self.VT0, self.TEMP, self.VDD, self.VBB)
        ).all()

    def test_int_arguments_use_the_array_path(self):
        # Ints are not floats: they fall through to the asarray path —
        # the fast path never changes behaviour for the seed's int calls.
        result = threshold_voltage(self.VT0, 373, 1, 0)
        expected = threshold_voltage(self.VT0, 373.0, 1.0, 0.0)
        assert float(result) == float(expected)
