"""The Freq and Power algorithms (paper Sections 4.2 and 4.3.1).

Both algorithms operate per subsystem, independently, which is what makes
the optimisation tractable (and trainable):

* **Freq**: for each subsystem, find the maximum frequency it can cycle
  at using any available (Vdd, Vbb), without violating ``TMAX`` or its
  error-rate budget ``PEMAX / n``.  The core frequency is the minimum
  over subsystems.
* **Power**: given the chosen core frequency, each subsystem re-picks the
  (Vdd, Vbb) that minimises its power under the same constraints.

The *Exhaustive* implementation here sweeps the full knob grid of
Figure 7(a); it is the oracle the fuzzy controllers are trained against
(Section 4.3.1) and the ``Exh-Dyn`` environment of the evaluation.

Everything is vectorised over a :class:`SubsystemArrays` batch, which is
either a view of a real :class:`~repro.chip.chip.Core` or a synthetic
batch of training samples.  A batch may additionally carry a leading
*lane* axis — shape ``(B, n_subsystems)``, built with
:meth:`SubsystemArrays.stack` — in which case one call solves B
independent phases over ``(vdd, vbb, b, n)`` grids, swept in blocks of
at most :data:`_BLOCK_CELLS` cells so every temporary stays in cache.
Because every physical relation is elementwise per grid cell, batched
results are bit-identical to B separate calls however the lanes are
blocked; converged lanes drop out of the joint fixed point early
(convergence masking) instead of iterating at the slowest lane's pace.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .. import obs
from ..backend import get_backend
from ..calibration import DEFAULT_CALIBRATION, Calibration
from ..circuits.delay import DEFAULT_DELAY_PARAMS, DelayParams
from ..circuits.knobs import (
    DEFAULT_KNOB_RANGES,
    DEFAULT_VT_SENSITIVITIES,
    KnobRanges,
    VtSensitivities,
)
from ..chip.chip import Core, LaneArrays, lane_dataclass, lane_field
from ..kernels import T_RUNAWAY
from ..numerics import ndtri
from ..timing.paths import StageModifiers, tilt_then_shift

#: Iteration caps of the joint (f, T) fixed point and the inner thermal
#: solve; the convergence tolerances mirror ``np.allclose`` defaults.
_FREQ_MAX_ITERATIONS = 30
_CONVERGENCE_RTOL = 1e-6
_CONVERGENCE_ATOL = 1e-8

#: Grid cells one block of an exhaustive sweep may span.  Freq and Power
#: walk the lane axis in blocks of whole lanes, and the thermal fixed
#: point cuts a block's leading (vdd) axis when one lane alone exceeds
#: the budget, so every temporary of a sweep stays cache-sized.
_BLOCK_CELLS = 1 << 16

@lane_dataclass
class SubsystemArrays(LaneArrays):
    """Struct-of-arrays inputs for a batch of (pseudo-)subsystems.

    ``stage_mean_rel`` already *includes* the random-variation tail and
    any technique delay scaling; ``stage_sigma_rel`` likewise includes
    tilt scaling.  Both are in units of the nominal cycle time.

    All lane fields share one shape: ``(n,)`` for a single phase, or
    ``(B, n)`` for a stack of B independent phases (lanes) solved by one
    kernel call — see :meth:`~repro.chip.chip.LaneArrays.stack`.
    """

    vt0_timing: np.ndarray = lane_field()
    leff_timing: np.ndarray = lane_field()
    vt0_leak: np.ndarray = lane_field()
    rth: np.ndarray = lane_field()
    kdyn: np.ndarray = lane_field()
    ksta: np.ndarray = lane_field()
    alpha: np.ndarray = lane_field()  # activity factor, accesses/cycle
    rho: np.ndarray = lane_field()  # exercises/instruction (Eq 4)
    stage_mean_rel: np.ndarray = lane_field()
    stage_sigma_rel: np.ndarray = lane_field()
    power_factor: np.ndarray = lane_field()  # e.g. 1.3 on a low-slope FU
    calib: Calibration = DEFAULT_CALIBRATION
    delay_params: DelayParams = DEFAULT_DELAY_PARAMS
    vt_sens: VtSensitivities = DEFAULT_VT_SENSITIVITIES
    vt_mean: float = 0.150

    def __len__(self) -> int:
        return self.vt0_timing.shape[-1]

    # -- physics, broadcasting over leading knob axes -------------------
    def p_static(self, vdd, vbb, temp):
        """Leakage power in watts (fused Eq 9 + Eq 8 kernel)."""
        _, p_sta = get_backend().kernel("vt_and_static_power")(
            self.vt0_leak, vdd, vbb, temp, self.ksta, self.vt_sens,
            power_factor=self.power_factor,
        )
        return p_sta

    def p_dynamic(self, vdd, freq):
        """Dynamic power in watts."""
        return (
            self.kdyn
            * self.alpha
            * np.asarray(vdd, dtype=float) ** 2
            * freq
            * self.power_factor
        )

    def budget_period_rel(self, vdd, vbb, temp, z_budget):
        """Cycle-relative period satisfying the stage PE budget.

        ``z_budget`` is the allowed z-score (``z_free`` for error-free
        operation, ``Qinv(budget/rho)`` under timing speculation).
        """
        d = self.delay_factor(vdd, vbb, temp)
        return d * (self.stage_mean_rel + z_budget * self.stage_sigma_rel)


def core_subsystem_arrays(
    core: Core,
    activity: np.ndarray,
    rho: np.ndarray,
    modifiers: Optional[StageModifiers] = None,
    power_factor: Optional[np.ndarray] = None,
) -> SubsystemArrays:
    """Build the optimiser view of a real core for one workload phase.

    ``core`` may be one core with ``(n,)`` phase inputs or a stacked
    ``(B, n)`` core with ``(B, n)`` inputs.  The phase fields (activity,
    error weights, technique-folded stage shape and power factor) are
    built here; every other lane field is the core's own.
    """
    mean = core.stage_mean_rel + core.tail_rel
    sigma = core.stage_sigma_rel.copy()
    if modifiers is not None:
        mean, sigma = tilt_then_shift(
            mean, sigma, core.calib.z_free,
            modifiers.sigma_scale, modifiers.delay_scale,
        )
    phase = {
        "alpha": np.asarray(activity, dtype=float),
        "rho": np.asarray(rho, dtype=float),
        "stage_mean_rel": mean,
        "stage_sigma_rel": sigma,
        "power_factor": (
            power_factor if power_factor is not None
            else np.ones(core.vt0_timing.shape)
        ),
    }
    return SubsystemArrays(
        **{name: getattr(core, name) for name in SubsystemArrays.context_fields},
        **{
            name: getattr(core, name)
            for name in SubsystemArrays.lane_fields if name not in phase
        },
        **phase,
    )


@dataclass(frozen=True)
class OptimizationSpec:
    """Knob availability and constraints for one environment."""

    vdd_levels: np.ndarray  # e.g. the full ASV grid, or just [1.0]
    vbb_levels: np.ndarray  # e.g. the full ABB grid, or just [0.0]
    pe_budget: float  # per-subsystem errors/instruction; 0 = error-free
    t_max: float
    t_heatsink: float
    knob_ranges: KnobRanges = DEFAULT_KNOB_RANGES

    def __post_init__(self) -> None:
        if self.pe_budget < 0.0:
            raise ValueError("pe_budget cannot be negative")
        if len(self.vdd_levels) == 0 or len(self.vbb_levels) == 0:
            raise ValueError("knob level arrays cannot be empty")


def budget_z(subsystems: SubsystemArrays, pe_budget: float) -> np.ndarray:
    """Allowed z-score per subsystem for an error budget (Eq 4 inverted).

    ``pe_budget <= 0`` (no checker) demands error-free operation: the
    z-score is the design's ``z_free``.  Otherwise ``z = Qinv(budget /
    rho)``, clamped into ``[0, z_free]`` — never slower than error-free,
    never past the distribution median.  The result matches the shape of
    ``subsystems.rho`` (``(n,)`` or ``(B, n)``).
    """
    z_free = subsystems.calib.z_free
    if pe_budget <= 0.0:
        return np.full(subsystems.rho.shape, z_free)
    rho = np.maximum(subsystems.rho, 1e-12)
    quantile = np.minimum(pe_budget / rho, 0.5)
    z = ndtri(1.0 - quantile)
    return np.clip(z, 0.0, z_free)


@dataclass(frozen=True)
class FreqResult:
    """Per-subsystem outcome of the Freq algorithm.

    For a batched call every array has a leading lane axis (``(B, n)``).
    """

    f_max: np.ndarray  # hertz; max frequency each subsystem supports
    vdd: np.ndarray  # the (Vdd, Vbb) achieving it
    vbb: np.ndarray
    feasible: np.ndarray  # False where no knob setting met TMAX

    def core_frequency(self, knob_ranges: KnobRanges = DEFAULT_KNOB_RANGES) -> float:
        """MIN over subsystems, snapped down to the 100 MHz step grid."""
        if self.f_max.ndim != 1:
            raise ValueError("batched result: use core_frequencies()")
        return knob_ranges.clamp_frequency(float(self.f_max.min()))

    def core_frequencies(
        self, knob_ranges: KnobRanges = DEFAULT_KNOB_RANGES
    ) -> np.ndarray:
        """Per-lane MIN over subsystems, snapped to the step grid."""
        return knob_ranges.clamp_frequencies(self.f_max.min(axis=-1))

    def min_rest(self, index: int) -> float:
        """``Min(f)_rest``: bottleneck excluding subsystem ``index``."""
        if self.f_max.ndim != 1:
            raise ValueError("min_rest applies to single-phase results")
        mask = np.ones(len(self.f_max), dtype=bool)
        mask[index] = False
        return float(self.f_max[mask].min())


def _leading_rows(array, lo: int, hi: int, ndim: int):
    """Rows ``lo:hi`` of ``array``'s part of an ``ndim``-rank grid.

    Only an operand that spans the grid's leading axis is sliced; one
    that broadcasts along it (size 1, or fewer dimensions) is passed
    whole.
    """
    array = np.asarray(array)
    if array.ndim == ndim and array.shape[0] != 1:
        return array[lo:hi]
    return array


def _thermal_fixed_point(
    subsystems: SubsystemArrays, vdd, vbb, freq, t_heatsink, iterations: int = 25
):
    """Iterate Eq 6-9 to steady state (vectorised, no damping needed).

    The grid is cut along its leading axis into blocks of at most
    :data:`_BLOCK_CELLS` cells (one row at least), and each block runs
    all its iterations before the next starts, so its buffers stay in
    cache.  Each block is one fused ``thermal_step`` kernel call of
    ``iterations`` steps, updating the block's temperatures in place.
    The map is elementwise per cell, so each cell sees the same
    sequence of operations however the grid is cut.
    """
    p_dyn = subsystems.p_dynamic(vdd, freq)
    temp = np.empty(np.broadcast_shapes(p_dyn.shape, np.shape(vbb)))
    rows = max(1, _BLOCK_CELLS // max(1, temp[0].size))
    operands = (
        subsystems.vt0_leak, vdd, vbb, subsystems.ksta, subsystems.rth, p_dyn,
        subsystems.power_factor,
    )
    thermal_step = get_backend().kernel("thermal_step")
    with obs.span("kernel.thermal_fixed_point"):
        for lo in range(0, len(temp), rows):
            block = temp[lo:lo + rows]
            block.fill(t_heatsink + 5.0)
            vt0, v_dd, v_bb, ksta, rth, p_dyn_rows, power_factor = (
                _leading_rows(a, lo, lo + rows, temp.ndim) for a in operands
            )
            thermal_step(
                vt0, v_dd, v_bb, block, ksta, rth, p_dyn_rows, t_heatsink,
                subsystems.vt_sens, power_factor=power_factor,
                t_runaway=T_RUNAWAY, out=block, steps=iterations,
            )
    return temp, p_dyn


def _lane_blocks(n_lanes: int, lane_cells: int) -> list:
    """Slices of whole lanes, each spanning at most :data:`_BLOCK_CELLS`
    grid cells (one lane at least)."""
    per_block = max(1, _BLOCK_CELLS // max(1, lane_cells))
    return [
        slice(lo, min(lo + per_block, n_lanes))
        for lo in range(0, max(n_lanes, 1), per_block)
    ]


def _joined(parts: list, batched: bool):
    """One result from per-block results: every field concatenated along
    the lane axis, and the lane axis dropped for an unbatched call."""
    joined = [
        np.concatenate([getattr(part, field.name) for part in parts])
        for field in fields(parts[0])
    ]
    if not batched:
        joined = [value[0] for value in joined]
    return type(parts[0])(*joined)


def freq_algorithm(
    subsystems: SubsystemArrays, spec: OptimizationSpec
) -> FreqResult:
    """Exhaustive Freq (Section 4.3.1): sweep (Vdd, Vbb), maximise f.

    For every knob combination the error-budget frequency and the
    thermal-limit frequency are solved jointly (the budget period depends
    on temperature, which depends on frequency); the subsystem's
    ``f_max`` is the best feasible combination.

    A batched ``(B, n)`` input sweeps its lanes over ``(vdd, vbb, b, n)``
    grids, in blocks of whole lanes bounded by :data:`_BLOCK_CELLS`;
    lanes whose frequencies have converged drop out of further
    fixed-point iterations (the per-lane stopping criterion is exactly
    the serial one, so results stay bit-identical to B separate calls).
    """
    lanes = subsystems.lanes()
    lane_cells = len(spec.vdd_levels) * len(spec.vbb_levels) * len(lanes)
    obs.inc("optimizer.freq_calls")
    parts = [
        _freq_block(lanes.lane_subset(block), spec)
        for block in _lane_blocks(lanes.batch_size, lane_cells)
    ]
    return _joined(parts, subsystems.is_batched)


def _freq_block(lanes: SubsystemArrays, spec: OptimizationSpec) -> FreqResult:
    """Freq over one block of ``(b, n)`` lanes (batched result)."""
    calib = lanes.calib
    n = lanes.n_subsystems
    n_lanes = lanes.batch_size
    vdd = spec.vdd_levels[:, None, None, None]
    vbb = spec.vbb_levels[None, :, None, None]
    z = budget_z(lanes, spec.pe_budget)[None, None, :, :]
    t_cycle = 1.0 / calib.f_nominal
    grid_shape = (len(spec.vdd_levels), len(spec.vbb_levels), n_lanes, n)

    f = np.full(grid_shape, spec.knob_ranges.f_min)
    temp = np.full_like(f, spec.t_heatsink + 5.0)
    obs.inc("optimizer.freq_lanes", float(n_lanes))
    obs.inc("optimizer.candidates", float(f.size))

    # Loop invariants: the static leakage at TMAX, the thermal headroom
    # and the resulting thermal frequency cap depend only on the knob
    # grid, never on the iterated (f, T) state.
    p_sta_hot = lanes.p_static(vdd, vbb, spec.t_max)
    headroom = spec.t_max - spec.t_heatsink - lanes.rth * p_sta_hot
    denom = lanes.kdyn * lanes.alpha * vdd**2 * lanes.power_factor
    with np.errstate(divide="ignore"):
        f_thermal = np.broadcast_to(
            np.where(headroom > 0.0, headroom / (lanes.rth * denom), 0.0),
            grid_shape,
        )

    # Joint fixed point over (f, T) with active-lane masking: alternate
    # the PE-budget frequency, the thermal cap and the temperature
    # solution, retiring lanes as they converge.
    active = np.arange(n_lanes)
    iterations = np.full(n_lanes, _FREQ_MAX_ITERATIONS, dtype=int)
    sub_active = lanes
    f_active, temp_active = f, temp
    z_active, f_thermal_active = z, f_thermal
    for iteration in range(_FREQ_MAX_ITERATIONS):
        period = (
            sub_active.budget_period_rel(vdd, vbb, temp_active, z_active)
            * t_cycle
        )
        f_pe = 1.0 / period
        f_new = np.clip(
            np.minimum(f_pe, f_thermal_active),
            spec.knob_ranges.f_min,
            spec.knob_ranges.f_max,
        )
        temp_new, _ = _thermal_fixed_point(
            sub_active, vdd, vbb, f_new, spec.t_heatsink, iterations=8
        )
        # Convergence must be judged against the *previous* iterate, so
        # compute it before f (which f_active may alias) is updated.
        converged = np.all(
            np.abs(f_new - f_active)
            <= _CONVERGENCE_ATOL + _CONVERGENCE_RTOL * np.abs(f_active),
            axis=(0, 1, 3),
        )
        f[:, :, active] = f_new
        temp[:, :, active] = temp_new
        if converged.any():
            iterations[active[converged]] = iteration + 1
            active = active[~converged]
            if active.size == 0:
                break
            sub_active = lanes.lane_subset(active)
            z_active = z[:, :, active, :]
            f_thermal_active = f_thermal[:, :, active]
            f_active = f[:, :, active]
            temp_active = temp[:, :, active]
        else:
            f_active = f_new
            temp_active = temp_new
    for count in iterations:
        obs.observe("optimizer.freq_iterations", float(count))
    obs.inc("optimizer.freq_exhausted", float(active.size))

    feasible_grid = temp <= spec.t_max + 0.05
    obs.inc("optimizer.constraint_rejections", float((~feasible_grid).sum()))
    f_grid = np.where(feasible_grid, f, -np.inf)
    flat = f_grid.reshape(-1, n_lanes, n)
    best = np.argmax(flat, axis=0)  # per-lane argmax over the knob grid
    iv, ib = np.unravel_index(best, f_grid.shape[:2])
    f_max = np.take_along_axis(flat, best[None, :, :], axis=0)[0]
    feasible = np.isfinite(f_max)
    f_max = np.where(feasible, f_max, spec.knob_ranges.f_min)
    return FreqResult(
        f_max=f_max,
        vdd=spec.vdd_levels[iv],
        vbb=spec.vbb_levels[ib],
        feasible=feasible,
    )


@dataclass(frozen=True)
class PowerResult:
    """Per-subsystem outcome of the Power algorithm at a core frequency.

    For a batched call every array has a leading lane axis (``(B, n)``).
    """

    vdd: np.ndarray
    vbb: np.ndarray
    temperature: np.ndarray  # kelvin at the chosen settings
    p_dynamic: np.ndarray
    p_static: np.ndarray
    feasible: np.ndarray  # False where no setting met both constraints

    @property
    def p_total(self) -> np.ndarray:
        """Per-subsystem total power in watts."""
        return self.p_dynamic + self.p_static

    def core_power(self) -> float:
        """Sum of subsystem powers in watts (excl. L2/checker)."""
        if self.vdd.ndim != 1:
            raise ValueError("batched result: reduce p_total per lane")
        return float(self.p_total.sum())

    def max_temperature(self) -> float:
        """Hottest subsystem temperature in kelvin."""
        if self.vdd.ndim != 1:
            raise ValueError("batched result: reduce temperature per lane")
        return float(self.temperature.max())


def power_algorithm(
    subsystems: SubsystemArrays, f_core, spec: OptimizationSpec
) -> PowerResult:
    """Exhaustive Power (Section 4.3.1): minimise power at ``f_core``.

    Each subsystem independently picks the (Vdd, Vbb) with the lowest
    total power among those that keep it within ``TMAX`` and its error
    budget at the given core frequency.

    ``f_core`` may be a scalar or per-subsystem ``(n,)`` array for an
    unbatched call; a batched ``(B, n)`` input additionally accepts a
    per-lane ``(B,)`` vector or a full ``(B, n)`` matrix.  Lanes are
    swept in blocks bounded by :data:`_BLOCK_CELLS`, as in
    :func:`freq_algorithm`.
    """
    f_core = np.asarray(f_core, dtype=float)
    if not np.all(np.isfinite(f_core)) or np.any(f_core <= 0.0):
        raise ValueError("core frequency must be positive and finite")
    lanes = subsystems.lanes()
    n = lanes.n_subsystems
    n_lanes = lanes.batch_size
    if subsystems.is_batched:
        if f_core.ndim == 1:
            if f_core.shape != (n_lanes,):
                raise ValueError(
                    f"per-lane f_core must have shape ({n_lanes},), got "
                    f"{f_core.shape}"
                )
            freq = f_core[:, None]
        elif f_core.ndim == 2:
            if f_core.shape != (n_lanes, n):
                raise ValueError(
                    f"f_core must have shape ({n_lanes}, {n}), got "
                    f"{f_core.shape}"
                )
            freq = f_core
        else:
            freq = f_core
    else:
        freq = f_core[None, :] if f_core.ndim == 1 else f_core
    lane_cells = len(spec.vdd_levels) * len(spec.vbb_levels) * n
    obs.inc("optimizer.power_calls")
    parts = [
        _power_block(
            lanes.lane_subset(block), freq[block] if freq.ndim == 2 else freq,
            spec,
        )
        for block in _lane_blocks(n_lanes, lane_cells)
    ]
    return _joined(parts, subsystems.is_batched)


def _power_block(
    lanes: SubsystemArrays, freq, spec: OptimizationSpec
) -> PowerResult:
    """Power over one block of ``(b, n)`` lanes at ``freq`` (batched
    result)."""
    calib = lanes.calib
    n = lanes.n_subsystems
    n_lanes = lanes.batch_size
    vdd = spec.vdd_levels[:, None, None, None]
    vbb = spec.vbb_levels[None, :, None, None]
    z = budget_z(lanes, spec.pe_budget)[None, None, :, :]
    t_cycle = 1.0 / calib.f_nominal
    grid_shape = (len(spec.vdd_levels), len(spec.vbb_levels), n_lanes, n)

    temp, p_dyn = _thermal_fixed_point(lanes, vdd, vbb, freq, spec.t_heatsink)
    p_sta = lanes.p_static(vdd, vbb, temp)
    period_needed = 1.0 / freq
    period_have = lanes.budget_period_rel(vdd, vbb, temp, z) * t_cycle
    ok = (temp <= spec.t_max + 0.05) & (period_have <= period_needed * (1 + 1e-9))
    obs.inc("optimizer.power_lanes", float(n_lanes))
    obs.inc("optimizer.candidates", float(ok.size))
    obs.inc("optimizer.constraint_rejections", float((~ok).sum()))

    total = p_dyn + p_sta
    cost = np.where(ok, total, np.inf)
    # p_dyn does not depend on Vbb, so broadcast it to the full knob grid
    # before flattening alongside the cost array.
    cost = np.broadcast_to(cost, grid_shape)
    p_dyn = np.broadcast_to(p_dyn, grid_shape)
    temp = np.broadcast_to(temp, grid_shape)
    p_sta = np.broadcast_to(p_sta, grid_shape)
    flat = cost.reshape(-1, n_lanes, n)
    best = np.argmin(flat, axis=0)  # (b, n)
    iv, ib = np.unravel_index(best, grid_shape[:2])
    pick = best[None, :, :]

    def select(grid):
        return np.take_along_axis(
            grid.reshape(-1, n_lanes, n), pick, axis=0
        )[0]

    return PowerResult(
        vdd=spec.vdd_levels[iv],
        vbb=spec.vbb_levels[ib],
        temperature=select(temp),
        p_dynamic=select(p_dyn),
        p_static=select(p_sta),
        feasible=np.isfinite(np.take_along_axis(flat, pick, axis=0)[0]),
    )
