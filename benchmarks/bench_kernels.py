"""Perf smoke: fused physics kernels vs the unfused seed compositions.

Times each registered kernel (``vt_and_static_power``, ``thermal_step``,
``timing_error_cdf``) against its ``reference`` implementation — the
exact seed chain of leaf ufuncs — on an optimiser-shaped grid, plus the
full thermal fixed point (the hottest loop in the phase optimiser) and
the all-scalar fast path of :func:`repro.circuits.leakage.static_power`.
Every timed pair is asserted bitwise identical first, then timed in
interleaved reference/fused sample pairs, so a slow stretch of the host
lands on both sides.  Where the C tier builds, its ``thermal_step`` is
timed the same way against the fused numpy one (the ``c`` rows), as a
whole fixed point run in place in one call, the way the optimiser runs
it, and as a single step.  Each side's min and interquartile range, the
``kernel.*`` observability counters and the speedups (ratio of the mins)
are written to ``BENCH_kernels.json`` (and into the shared baseline's
``kernels`` section).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from _shared import record_bench_section

from repro import kernels, obs
from repro.backend import get_backend
from repro.circuits.knobs import DEFAULT_VT_SENSITIVITIES
from repro.circuits.leakage import static_power
from repro.obs import MetricsRegistry

SENS = DEFAULT_VT_SENSITIVITIES

#: Population-scale operand grid: (n_vdd, n_vbb, lanes, subsystems) —
#: the optimiser's voltage sweep stacked over a 200-lane population.
#: Each full-rank temporary is ~45 MB, past glibc's 32 MB mmap-threshold
#: cap, so every temporary the unfused path allocates costs an mmap plus
#: first-touch page faults; the fused path reuses pooled workspaces and
#: pays neither.
GRID = (9, 21, 200, 15)

#: Fixed-point iterations to time (the solver typically needs 6-12).
FP_ITERS = 8

#: Interleaved (reference, fused) sample pairs per timed section, after
#: one warm-up call of each (which fills the pool and caches).
SAMPLES = 7


def _operands(seed=0):
    n_vdd, n_vbb, lanes, n = GRID
    rng = np.random.default_rng(seed)
    return {
        "vt0": rng.uniform(0.10, 0.20, (lanes, n)),
        "ksta": rng.uniform(0.5, 2.0, (lanes, n)),
        "rth": rng.uniform(0.5, 2.5, (lanes, n)),
        "vdd": np.linspace(0.8, 1.2, n_vdd)[:, None, None, None],
        "vbb": np.linspace(-0.5, 0.5, n_vbb)[None, :, None, None],
        "temp": rng.uniform(330.0, 420.0, GRID),
        "p_dyn": rng.uniform(0.1, 3.0, GRID),
        "freq": rng.uniform(2.0e9, 5.0e9, (n_vdd * n_vbb * lanes, 1)),
        "mean": rng.uniform(1.8e-10, 2.4e-10, (n_vdd * n_vbb * lanes, n)),
        "sigma": rng.uniform(1e-12, 8e-12, (n_vdd * n_vbb * lanes, n)),
        "rho": rng.uniform(0.0, 1.0, (n_vdd * n_vbb * lanes, n)),
    }


def _paired(reference, fused, samples=SAMPLES, names=("reference", "fused")):
    """Time ``reference`` and ``fused`` in alternating sample pairs.

    The side that runs first alternates between pairs.  Returns each
    side's min and interquartile range, in seconds, keyed by ``names``.
    """
    sides = dict(zip(names, (reference, fused)))
    times = {side: [] for side in sides}
    for fn in sides.values():
        fn()
    for pair in range(samples):
        order = names if pair % 2 == 0 else names[::-1]
        for side in order:
            start = time.perf_counter()
            sides[side]()
            times[side].append(time.perf_counter() - start)
    section = {"samples": samples}
    for side, values in times.items():
        q1, q3 = np.percentile(values, [25, 75])
        section[f"{side}_seconds"] = min(values)
        section[f"{side}_iqr_seconds"] = float(q3 - q1)
    return section


def _with_impl(impl, name):
    with kernels.use_impl(impl):
        return get_backend().kernel(name)


def _assert_bitwise(a, b):
    assert np.asarray(a).shape == np.asarray(b).shape
    assert (np.asarray(a) == np.asarray(b)).all()


def _fixed_point(thermal_step, ops, *, ping_pong):
    """Run FP_ITERS thermal iterations; returns the final temperatures.

    ``ping_pong=True`` is the fused solver pattern (two buffers, zero
    steady-state allocation); ``False`` re-allocates every iteration the
    way the seed loop did.
    """
    temp = ops["temp"].copy()
    scratch = np.empty(temp.shape) if ping_pong else None
    for _ in range(FP_ITERS):
        temp, scratch = (
            thermal_step(
                ops["vt0"], ops["vdd"], ops["vbb"], temp, ops["ksta"],
                ops["rth"], ops["p_dyn"], 318.0, SENS, out=scratch,
            )[0],
            temp,
        )
    return temp


def _in_place_fixed_point(thermal_step, ops):
    """FP_ITERS iterations in one call, in place: the optimiser's way."""
    temp = ops["temp"].copy()
    thermal_step(
        ops["vt0"], ops["vdd"], ops["vbb"], temp, ops["ksta"], ops["rth"],
        ops["p_dyn"], 318.0, SENS, out=temp, steps=FP_ITERS,
    )
    return temp


def _c_rows(ops):
    """The C tier against the fused numpy tier, or {} without a compiler."""
    if not kernels.c_available():
        return {}
    numpy_step = _with_impl("numpy", "thermal_step")
    c_step = _with_impl("c", "thermal_step")
    calls = {
        "thermal_fixed_point": lambda step: _in_place_fixed_point(step, ops),
        "thermal_step": lambda step: step(
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"],
            ops["rth"], ops["p_dyn"], 318.0, SENS, compute_delta=True,
        )[0],
    }
    rows = {}
    for name, call in calls.items():
        _assert_bitwise(call(numpy_step), call(c_step))
        row = _paired(
            lambda: call(numpy_step), lambda: call(c_step),
            names=("numpy", "c"),
        )
        row["speedup"] = row["numpy_seconds"] / row["c_seconds"]
        rows[name] = row
    rows["thermal_fixed_point"]["iterations"] = FP_ITERS
    return rows


def _time_kernel_pair(name, call):
    """Time ``call(fn)`` under the reference and fused impls."""
    reference = _with_impl("reference", name)
    fused = _with_impl("numpy", name)
    _assert_bitwise(call(reference), call(fused))
    return _paired(lambda: call(reference), lambda: call(fused))


def _speedup(section):
    fused = section["fused_seconds"]
    return section["reference_seconds"] / fused if fused > 0 else float("inf")


def test_kernel_breakdown(benchmark):
    ops = _operands()

    sections = {}

    # --- the tentpole number: the thermal fixed point ----------------
    reference_step = _with_impl("reference", "thermal_step")
    fused_step = _with_impl("numpy", "thermal_step")
    _assert_bitwise(
        _fixed_point(reference_step, ops, ping_pong=False),
        _fixed_point(fused_step, ops, ping_pong=True),
    )
    sections["thermal_fixed_point"] = benchmark.pedantic(
        lambda: _paired(
            lambda: _fixed_point(reference_step, ops, ping_pong=False),
            lambda: _fixed_point(fused_step, ops, ping_pong=True),
        ),
        rounds=1,
        iterations=1,
    )
    sections["thermal_fixed_point"]["iterations"] = FP_ITERS

    # --- single-shot kernels -----------------------------------------
    sections["vt_and_static_power"] = _time_kernel_pair(
        "vt_and_static_power",
        lambda fn: fn(
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"], SENS
        )[1],
    )
    sections["thermal_step"] = _time_kernel_pair(
        "thermal_step",
        lambda fn: fn(
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"],
            ops["rth"], ops["p_dyn"], 318.0, SENS, compute_delta=True,
        )[0],
    )
    sections["timing_error_cdf"] = _time_kernel_pair(
        "timing_error_cdf",
        lambda fn: fn(ops["freq"], ops["mean"], ops["sigma"], ops["rho"]),
    )

    # --- the compiled tier against the fused numpy one --------------
    c_rows = _c_rows(ops)

    # --- the all-scalar fast path in the leaf function ---------------
    # 0-d ndarray operands are not Python floats, so they force the
    # seed's asarray path; plain floats take the new scalar path.
    scalars = (1.7, 1.05, 381.5, 0.143)
    boxed = tuple(np.asarray(value)[...] for value in scalars)
    assert float(static_power(*scalars)) == float(static_power(*boxed))
    calls = 200
    sections["scalar_static_power"] = _paired(
        lambda: [static_power(*boxed) for _ in range(calls)],
        lambda: [static_power(*scalars) for _ in range(calls)],
    )
    sections["scalar_static_power"]["calls"] = calls

    # --- per-kernel observability counters ---------------------------
    registry = MetricsRegistry()
    with obs.scoped(registry):
        fused_step(
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"],
            ops["rth"], ops["p_dyn"], 318.0, SENS,
        )
        _with_impl("numpy", "vt_and_static_power")(
            ops["vt0"], ops["vdd"], ops["vbb"], ops["temp"], ops["ksta"], SENS
        )
        _with_impl("numpy", "timing_error_cdf")(
            ops["freq"], ops["mean"], ops["sigma"], ops["rho"]
        )
    counters = {
        name: value
        for name, value in registry.to_dict()["counters"].items()
        if name.startswith("kernel.")
    }
    assert counters["kernel.thermal_step.calls"] == 1

    for section in sections.values():
        section["speedup"] = _speedup(section)

    payload = {
        "grid": list(GRID),
        "impl": kernels.active_impl("thermal_step"),
        "c_available": bool(c_rows),
        "workspace_cached_bytes": kernels.workspace_pool().cached_bytes(),
        "kernels": sections,
        "c_vs_numpy": c_rows,
        "counters": counters,
    }
    record_bench_section("kernels", payload)
    out = os.environ.get("EVAL_REPRO_BENCH_KERNELS_OUT", "BENCH_kernels.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    lines = [
        f"  {name:24s} reference {section['reference_seconds'] * 1e3:8.2f}ms"
        f" (IQR {section['reference_iqr_seconds'] * 1e3:6.2f})"
        f"  fused {section['fused_seconds'] * 1e3:8.2f}ms"
        f" (IQR {section['fused_iqr_seconds'] * 1e3:6.2f})"
        f"  -> {section['speedup']:.2f}x"
        for name, section in sections.items()
    ]
    print(
        "\nfused kernels (grid {}x{}x{}x{}, min of {} interleaved pairs):".format(
            *GRID, SAMPLES
        )
    )
    print("\n".join(lines))
    if c_rows:
        print("C tier vs fused numpy:")
        for name, row in c_rows.items():
            print(
                f"  {name:24s} numpy {row['numpy_seconds'] * 1e3:8.2f}ms"
                f" (IQR {row['numpy_iqr_seconds'] * 1e3:6.2f})"
                f"  c {row['c_seconds'] * 1e3:8.2f}ms"
                f" (IQR {row['c_iqr_seconds'] * 1e3:6.2f})"
                f"  -> {row['speedup']:.2f}x"
            )

    # Floors: fused paths must never lose to the seed compositions.
    # The fixed point is the headline (ISSUE target: >= 1.5x).
    assert sections["thermal_fixed_point"]["speedup"] >= 1.0
    for name in ("vt_and_static_power", "thermal_step", "timing_error_cdf",
                 "scalar_static_power"):
        assert sections[name]["speedup"] >= 1.0, name
    # The compiled tier must not lose to the fused numpy one on the
    # population-scale fixed point it exists for.
    if c_rows:
        assert c_rows["thermal_fixed_point"]["speedup"] >= 1.0
