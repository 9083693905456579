"""Per-subsystem fuzzy-controller banks (paper Figure 3 / Section 4.3.1).

One *bank* holds, for a given environment's knob set, the trained fuzzy
controllers of every subsystem: one Freq FC (output ``f_max`` in GHz) and,
when the environment exposes the knobs, one Power FC for ``Vdd`` and one
for ``Vbb`` (Figure 3(b) shows two FCs per subsystem in the Power stage).

Subsystems with a second hardware configuration (the resizable queues and
replicated FUs) get separately trained FCs per configuration *variant*,
since the variant changes the stage's delay distribution.

Training is the manufacturer-site procedure: Exhaustive-labelled samples
(:mod:`repro.ml.dataset`) fed to the Appendix A gradient trainer.  Banks
depend only on design-level constants, so one bank serves an entire chip
population; :func:`get_bank` memoises them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .. import obs
from ..chip.chip import Core
from ..numerics import ndtri
from ..core.optimizer import OptimizationSpec
from ..mitigation.base import (
    BASE,
    FU_LOWSLOPE,
    FU_NORMAL,
    QUEUE_FULL,
    QUEUE_RESIZED,
)
from .dataset import TrainingRequest, generate_training_datasets
from .fuzzy import FuzzyController
from .training import DEFAULT_N_RULES, train_fuzzy_controller

FCKey = Tuple[int, str]  # (subsystem index, variant)


@dataclass
class ControllerBank:
    """Trained fuzzy controllers for one environment's knob set."""

    spec: OptimizationSpec
    freq_fcs: Dict[FCKey, FuzzyController] = field(default_factory=dict)
    vdd_fcs: Dict[FCKey, FuzzyController] = field(default_factory=dict)
    vbb_fcs: Dict[FCKey, FuzzyController] = field(default_factory=dict)
    freq_rmse: Dict[FCKey, float] = field(default_factory=dict)
    #: The core frequency is the MIN of 15 noisy per-subsystem estimates,
    #: which biases it low; biasing each estimate up by its training RMSE
    #: re-centres the min.  Overshoot is cheap — the retuning cycles back
    #: off exponentially (the "Error" outcome of Fig 13) — while
    #: undershoot is sticky, so optimism is the right direction.
    optimism: float = 1.0
    #: Upward bias (volts) applied to Vdd predictions before snapping.
    #: Undervolting the binding subsystem by one 50 mV step costs ~8%
    #: frequency through the retuning back-off, while overvolting costs a
    #: few percent power, so predictions are rounded cautiously upward.
    vdd_caution: float = 0.025

    @property
    def has_vdd(self) -> bool:
        """True when the environment exposes more than one Vdd level."""
        return len(self.spec.vdd_levels) > 1

    @property
    def has_vbb(self) -> bool:
        """True when the environment exposes more than one Vbb level."""
        return len(self.spec.vbb_levels) > 1

    def predict_fmax(
        self, core: Core, index: int, variant: str, th: float, alpha: float,
        rho: float,
    ) -> float:
        """FC estimate of a subsystem's max frequency, in hertz."""
        start = time.perf_counter()
        fc = self.freq_fcs[(index, variant)]
        slowness = self.demand(
            core, index, variant, th, rho, core.calib.f_nominal
        )
        inputs = np.array([slowness, alpha, rho, th, core.vt0_leak[index]])
        ghz = fc.predict(inputs)
        ghz += self.optimism * self.freq_rmse.get((index, variant), 0.0)
        obs.inc("ml.inference_calls")
        obs.inc("ml.inference_seconds", time.perf_counter() - start)
        return float(
            np.clip(ghz * 1e9, self.spec.knob_ranges.f_min, self.spec.knob_ranges.f_max)
        )

    def demand(
        self,
        core: Core,
        index: int,
        variant: str,
        th: float,
        rho: float,
        f_core: float,
    ) -> float:
        """The Power-FC *demand* feature, computed like the training set.

        Mirrors :func:`repro.ml.dataset.demand_feature` for a real core:
        required speed-up ratio at nominal knobs and a typical local
        temperature rise above the heat sink.
        """
        from .dataset import DEMAND_TEMP_RISE  # local to avoid a cycle

        calib = core.calib
        mean = float(core.stage_mean_rel[index] + core.tail_rel[index])
        sigma = float(core.stage_sigma_rel[index])
        if variant == QUEUE_RESIZED:
            factor = calib.queue_resize_delay_factor
            mean, sigma = mean * factor, sigma * factor
        elif variant == FU_LOWSLOPE:
            free = mean + calib.z_free * sigma
            sigma = sigma * calib.lowslope_sigma_factor
            mean = free - calib.z_free * sigma
        if self.spec.pe_budget <= 0.0:
            z = calib.z_free
        else:
            quantile = min(self.spec.pe_budget / max(rho, 1e-12), 0.5)
            z = float(np.clip(ndtri(1.0 - quantile), 0.0, calib.z_free))
        d = float(
            core.delay_factor(
                calib.vdd_nominal, 0.0, th + DEMAND_TEMP_RISE
            )[index]
        )
        return f_core / calib.f_nominal * d * (mean + z * sigma)

    def predict_voltages(
        self,
        core: Core,
        index: int,
        variant: str,
        th: float,
        alpha: float,
        rho: float,
        f_core: float,
    ) -> Tuple[float, float]:
        """FC estimates of (Vdd, Vbb), snapped to the legal level grids."""
        start = time.perf_counter()
        demand = self.demand(core, index, variant, th, rho, f_core)
        inputs = np.array([demand, alpha])
        if self.has_vdd:
            raw_vdd = self.vdd_fcs[(index, variant)].predict(inputs)
            vdd = _snap(raw_vdd + self.vdd_caution, self.spec.vdd_levels)
        else:
            vdd = float(self.spec.vdd_levels[0])
        if self.has_vbb:
            raw_vbb = self.vbb_fcs[(index, variant)].predict(inputs)
            vbb = _snap(raw_vbb, self.spec.vbb_levels)
        else:
            vbb = float(self.spec.vbb_levels[0])
        obs.inc("ml.inference_calls")
        obs.inc("ml.inference_seconds", time.perf_counter() - start)
        return vdd, vbb

    def variants_for(self, core: Core, index: int) -> Tuple[str, ...]:
        """The variants this bank has FCs for, at a given subsystem."""
        spec = core.floorplan.subsystems[index]
        if spec.resizable:
            return (QUEUE_FULL, QUEUE_RESIZED)
        if spec.replicable:
            return (FU_NORMAL, FU_LOWSLOPE)
        return (BASE,)


def _snap(value: float, levels: np.ndarray) -> float:
    """Snap a raw FC output to the nearest legal actuation level."""
    return float(levels[np.argmin(np.abs(levels - value))])


def _variant_kwargs(core: Core, variant: str) -> Dict[str, float]:
    calib = core.calib
    if variant == QUEUE_RESIZED:
        return {"delay_scale": calib.queue_resize_delay_factor}
    if variant == FU_LOWSLOPE:
        return {
            "sigma_scale": calib.lowslope_sigma_factor,
            "power_factor": calib.lowslope_power_factor,
        }
    return {}


def train_controller_bank(
    core: Core,
    spec: OptimizationSpec,
    n_examples: int = 10000,
    n_rules: int = DEFAULT_N_RULES,
    epochs: int = 2,
    seed: int = 0,
    *,
    include_variants: bool = True,
) -> ControllerBank:
    """Train the full FC bank for one environment (manufacturer-site).

    Args:
        core: A template core — only its design-level constants (``Rth``,
            ``Kdyn``, ``Ksta``, stage shapes) matter, not its particular
            variation sample, because the variation-dependent quantities
            are FC *inputs*.
        spec: The environment's knob availability and constraints.
        n_examples: Training-set size per FC (paper: 10,000).
        n_rules: Fuzzy rules per FC (paper: 25).
        epochs: Gradient passes over the data.
        seed: Base RNG seed.
        include_variants: Train the queue/FU variant FCs too (needed by
            environments with those techniques; skipping them speeds up
            banks for environments without).
    """
    bank = ControllerBank(spec=spec)
    jobs: "list[Tuple[int, str]]" = []
    for index, sub in enumerate(core.floorplan.subsystems):
        variants = [BASE]
        if include_variants and sub.resizable:
            variants = [QUEUE_FULL, QUEUE_RESIZED]
        elif include_variants and sub.replicable:
            variants = [FU_NORMAL, FU_LOWSLOPE]
        jobs.extend((index, variant) for variant in variants)
    # Label every (subsystem, variant) job through the batched oracle:
    # chunks from all jobs stack along the optimizer's lane axis, so the
    # whole bank is labelled by a handful of wide kernel calls instead of
    # one Freq + one Power sweep per chunk per job.
    requests = [
        TrainingRequest(
            index=index,
            seed=seed + 1000 * index + hashish(variant),
            n_examples=n_examples,
            **_variant_kwargs(core, variant),
        )
        for index, variant in jobs
    ]
    with obs.span("ml.label_generation", jobs=len(requests)):
        datasets = generate_training_datasets(core, spec, requests)
    # Train every controller of the bank in lockstep, one stacked call
    # per dataset shape: the Freq FCs share (n_examples, 5); the Power
    # FCs' sets keep only feasible examples, so their lengths can differ.
    slots = []  # (bank dict, key, seed, inputs, targets), in bank order
    for (index, variant), data in zip(jobs, datasets):
        freq_x, f_ghz, power_x, vdd_t, vbb_t = data
        key, fc_seed = (index, variant), seed + index
        slots.append((bank.freq_fcs, key, fc_seed, freq_x, f_ghz))
        if len(spec.vdd_levels) > 1:
            slots.append((bank.vdd_fcs, key, fc_seed, power_x, vdd_t))
        if len(spec.vbb_levels) > 1:
            slots.append((bank.vbb_fcs, key, fc_seed, power_x, vbb_t))
    by_shape: Dict[Tuple[int, ...], List[int]] = {}
    for position, slot in enumerate(slots):
        by_shape.setdefault(slot[3].shape, []).append(position)
    trained = [None] * len(slots)
    for positions in by_shape.values():
        _, _, seeds, inputs, targets = zip(*(slots[p] for p in positions))
        results = train_fuzzy_controller(
            np.stack(inputs, axis=1),
            np.stack(targets, axis=1),
            n_rules=n_rules,
            epochs=epochs,
            seed=list(seeds),
        )
        for position, result in zip(positions, results):
            trained[position] = result
    for (fcs, key, _, _, _), (fc, report) in zip(slots, trained):
        fcs[key] = fc
        if fcs is bank.freq_fcs:
            bank.freq_rmse[key] = report.final_rmse
    return bank


def hashish(text: str) -> int:
    """Small deterministic hash for seed derivation."""
    return sum(ord(c) * (i + 1) for i, c in enumerate(text))


_BANK_CACHE: Dict[Tuple, ControllerBank] = {}


def get_bank(
    core: Core,
    spec: OptimizationSpec,
    n_examples: int = 10000,
    epochs: int = 2,
    seed: int = 0,
) -> ControllerBank:
    """Memoised :func:`train_controller_bank` keyed on the knob set."""
    key = (
        tuple(np.round(spec.vdd_levels, 4)),
        tuple(np.round(spec.vbb_levels, 4)),
        round(spec.pe_budget, 12),
        round(spec.t_max, 3),
        round(spec.t_heatsink, 3),
        n_examples,
        epochs,
        seed,
    )
    bank = _BANK_CACHE.get(key)
    if bank is None:
        bank = train_controller_bank(
            core, spec, n_examples=n_examples, epochs=epochs, seed=seed
        )
        _BANK_CACHE[key] = bank
    return bank


def clear_bank_cache() -> None:
    """Drop all memoised banks (used by tests)."""
    _BANK_CACHE.clear()
