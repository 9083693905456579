"""Dynamic path-delay distributions per pipeline stage (paper Fig 1).

VATS [26] characterises each pipeline stage by the *dynamic* distribution
of exercised-path delays: every access to the stage exercises some path,
whose delay is a random variable.  We model that distribution as a normal
``N(m_i, s_i)`` per subsystem ``i``:

* ``m_i`` — mean exercised-path delay in seconds.  It scales with the
  subsystem's variation-afflicted gate-delay factor and carries the
  extreme-value tail of the random component (the worst of millions of
  near-critical paths).
* ``s_i`` — the input-dependent spread.  Memory stages have homogeneous
  paths (small ``s``, sharp error onset); logic stages exercise a wide
  variety of paths (large ``s``, gradual onset); mixed sit between.

The design is balanced so that, without variation, every stage satisfies
``m + z_free * s = 1 / f_nominal`` — the "critical-path wall".

Mitigation techniques act on these parameters:

* *Tilt* (low-slope FU): multiplies ``s`` while holding the error-free
  point ``m + z_free * s`` fixed.
* *Shift* (queue resize): multiplies both ``m`` and ``s`` by < 1.
* *Reshape* (ABB/ASV): moves the delay factor itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..calibration import Calibration
from ..chip.chip import Core


@dataclass(frozen=True)
class StageModifiers:
    """Per-subsystem multipliers applied by micro-architectural techniques.

    Attributes:
        delay_scale: Multiplies both ``m`` and ``s`` (a *Shift*: e.g. 0.95
            when an issue queue runs at 3/4 capacity).
        sigma_scale: Multiplies ``s`` while preserving the error-free point
            ``m + z_free*s`` (a *Tilt*: e.g. sqrt(2) for the low-slope FU).
    """

    delay_scale: np.ndarray
    sigma_scale: np.ndarray

    @classmethod
    def identity(cls, n: int) -> "StageModifiers":
        """Return modifiers that change nothing (all-ones)."""
        return cls(delay_scale=np.ones(n), sigma_scale=np.ones(n))

    def __post_init__(self) -> None:
        if self.delay_scale.shape != self.sigma_scale.shape:
            raise ValueError("modifier arrays must have matching shapes")
        if np.any(self.delay_scale <= 0.0) or np.any(self.sigma_scale <= 0.0):
            raise ValueError("modifier scales must be positive")


@dataclass(frozen=True)
class StageDelays:
    """The per-subsystem dynamic delay distribution at an operating point.

    ``mean`` and ``sigma`` are in seconds; trailing axis indexes the
    subsystem, leading axes broadcast over operating-point grids.
    """

    mean: np.ndarray
    sigma: np.ndarray
    z_free: float

    def error_free_period(self) -> np.ndarray:
        """Period below which a stage starts to err (``T_var`` of Fig 1)."""
        return self.mean + self.z_free * self.sigma

    def error_free_frequency(self) -> np.ndarray:
        """Per-stage safe frequency ``f_var`` (1 / error-free period)."""
        return 1.0 / self.error_free_period()


def tilt_then_shift(mean, sigma, z_free, sigma_scale, delay_scale):
    """Apply a technique's Figure 5 update to a stage-delay distribution.

    *Tilt* first: ``sigma`` is multiplied by ``sigma_scale`` while the
    error-free point ``mean + z_free * sigma`` is held fixed.  Then
    *shift*: both ``mean`` and ``sigma`` are multiplied by ``delay_scale``.
    Operands broadcast; returns the new ``(mean, sigma)``.
    """
    free = mean + z_free * sigma
    sigma = sigma * sigma_scale
    mean = (free - z_free * sigma) * delay_scale
    return mean, sigma * delay_scale


def stage_delays(
    core: Core,
    vdd,
    vbb,
    temp,
    modifiers: Optional[StageModifiers] = None,
) -> StageDelays:
    """Compute each subsystem's dynamic delay distribution in seconds.

    Args:
        core: The core model (holds variation factors and stage shapes).
        vdd: Per-subsystem supply voltage(s); broadcasts on the last axis.
        vbb: Per-subsystem body bias(es).
        temp: Per-subsystem temperature(s) in kelvin.
        modifiers: Optional technique modifiers (identity if omitted).
    """
    calib: Calibration = core.calib
    t_cycle = 1.0 / calib.f_nominal
    d = core.delay_factor(vdd, vbb, temp)
    mean = t_cycle * d * (core.stage_mean_rel + core.tail_rel)
    sigma = t_cycle * d * core.stage_sigma_rel
    if modifiers is not None:
        mean, sigma = tilt_then_shift(
            mean, sigma, calib.z_free,
            modifiers.sigma_scale, modifiers.delay_scale,
        )
    return StageDelays(mean=mean, sigma=sigma, z_free=calib.z_free)
