"""Steady-state thermal solver (paper Eqs 6-9).

Each subsystem is a thermal node above the common heat sink::

    T = TH + Rth * (Pdyn + Psta)                       (Eq 6)

Static power rises with temperature (Eq 8) and the threshold voltage falls
(Eq 9), so the system is a feedback loop that the paper solves "by
iterating until convergence" — exactly what
:func:`solve_temperatures_lanes` does, vectorised over subsystems and
independent lanes; :func:`solve_temperatures` is a lane of one.

Each iteration is one ``thermal_step`` fused-kernel call (see
:mod:`repro.kernels`): both power terms, the clamped temperature update
and the per-lane convergence delta in one pass.  The whole fixed point
is timed under the ``kernel.thermal_fixed_point`` span.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .. import obs
from ..backend import get_backend
from ..chip.chip import Core
from ..kernels import T_RUNAWAY


@dataclass(frozen=True)
class ThermalSolution:
    """Converged per-subsystem thermal/power state.

    The trailing axis indexes subsystems; a lane-batched solve adds a
    leading lane axis.
    """

    temperature: np.ndarray  # kelvin
    p_dynamic: np.ndarray  # watts
    p_static: np.ndarray  # watts
    converged: np.ndarray  # bool; False marks thermal runaway

    @property
    def p_total(self) -> np.ndarray:
        """Per-subsystem total power in watts."""
        return self.p_dynamic + self.p_static

    def core_power(self) -> np.ndarray:
        """Total power of the 15 subsystems (excl. L2/checker) in watts."""
        return self.p_total.sum(axis=-1)

    def max_temperature(self) -> np.ndarray:
        """Hottest subsystem temperature in kelvin."""
        return self.temperature.max(axis=-1)

    def lane(self, index: int) -> "ThermalSolution":
        """The solution of one lane of a lane-batched solve."""
        return ThermalSolution(
            *(getattr(self, f.name)[index] for f in fields(self))
        )


#: Iteration cap and convergence tolerance (kelvin) of the Eq 6-9 loop.
MAX_ITERATIONS = 60
TOLERANCE = 1e-3


def solve_temperatures(
    core: Core, vdd, vbb, freq, activity, t_heatsink: float
) -> ThermalSolution:
    """Solve the Eq 6-9 feedback loop for one operating point.

    A lane of one over :func:`solve_temperatures_lanes`.

    Args:
        core: Core model providing ``Rth``, ``Kdyn``, ``Ksta`` and the
            leakage law.
        vdd: Per-subsystem supply voltages, shape ``(n,)``.
        vbb: Per-subsystem body biases, shape ``(n,)``.
        freq: Core frequency in hertz (scalar, or per subsystem).
        activity: Per-subsystem activity factors (accesses/cycle).
        t_heatsink: Heat-sink temperature ``TH`` in kelvin.

    Returns:
        A :class:`ThermalSolution` over the ``(n,)`` subsystems;
        ``converged`` is False where the leakage-temperature loop ran
        away (temperature hit the cap).
    """
    return solve_temperatures_lanes(
        core,
        *(np.asarray(x, dtype=float)[None] for x in (vdd, vbb, freq, activity)),
        t_heatsink,
    ).lane(0)


def solve_temperatures_lanes(
    core: Core, vdd, vbb, freq, activity, t_heatsink: float
) -> ThermalSolution:
    """Solve the Eq 6-9 loop for independent lanes, with convergence masking.

    Axis 0 of the ``(B, n)`` state indexes independent lanes (e.g. one
    workload phase each), the trailing axis subsystems.  Each lane
    retires from the iteration the moment its own update falls below
    :data:`TOLERANCE`, so every lane's iterate sequence, and therefore
    the returned solution, is bit-identical to solving that lane alone.
    One ``thermal.solves`` count and one ``thermal.iterations``
    observation is recorded per lane.

    ``core`` is one core that every lane shares, or a stacked ``(B, n)``
    core whose lane axis matches axis 0: each lane then evaluates against
    its own core's parameters (the masked iterations subset the stack
    alongside the state arrays).

    Raises:
        ValueError: when the state is not ``(B, n)``.
    """
    vdd = np.asarray(vdd, dtype=float)
    vbb = np.asarray(vbb, dtype=float)
    freq = np.asarray(freq, dtype=float)
    activity = np.asarray(activity, dtype=float)

    p_dyn = core.subsystem_dynamic_power(vdd, freq, activity)
    shape = np.broadcast_shapes(p_dyn.shape, vbb.shape)
    lanes = core.batch_size if core.is_batched else shape[0]
    if shape != (lanes, core.n_subsystems):
        raise ValueError(
            f"lane state must have shape ({lanes}, {core.n_subsystems}), "
            f"got {shape}"
        )
    p_dyn = np.broadcast_to(p_dyn, shape).copy()
    vdd_b = np.broadcast_to(vdd, shape)
    vbb_b = np.broadcast_to(vbb, shape)

    thermal_step = get_backend().kernel("thermal_step")
    temp = np.full(shape, t_heatsink + 5.0)
    iterations = np.full(lanes, MAX_ITERATIONS, dtype=int)
    active = np.arange(lanes)
    node = core  # the parameters of the active lanes
    with obs.span("kernel.thermal_fixed_point"):
        for iteration in range(MAX_ITERATIONS):
            new_temp, delta = thermal_step(
                node.vt0_leak, vdd_b[active], vbb_b[active], temp[active],
                node.ksta, node.rth, p_dyn[active], t_heatsink,
                node.vt_sens, t_runaway=T_RUNAWAY, compute_delta=True,
            )
            temp[active] = new_temp
            converged = delta < TOLERANCE
            if np.any(converged):
                iterations[active[converged]] = iteration + 1
                active = active[~converged]
                if core.is_batched:
                    node = core.lane_subset(active)
            if active.size == 0:
                break
    obs.inc("thermal.solves", float(lanes))
    for count in iterations:
        obs.observe("thermal.iterations", float(count))
    p_sta = core.subsystem_static_power(vdd_b, vbb_b, temp)
    converged = temp < T_RUNAWAY - TOLERANCE
    return ThermalSolution(
        temperature=temp, p_dynamic=p_dyn, p_static=p_sta, converged=converged
    )
