"""The adaptation timeline of Section 4.3.3 / Figure 6.

Simulates EVAL's runtime behaviour over a stream of program phases:

* the hardware phase detector watches basic-block vectors and fires at
  phase boundaries (~120 ms apart on average);
* on a *recurring* phase, the saved configuration is reused (no
  controller run);
* on a *new* phase, the system measures activity and the two queue-size
  ``CPIcomp`` values (~20 us), runs the fuzzy-controller routines
  (~6 us), and transitions to the chosen operating point (<= 10 us);
* retuning cycles then nudge the frequency (each step bounded by the
  sensor latencies of Figure 6).

The simulation accounts for all of those overheads and reports the
effective performance, which lets tests verify the paper's claim that
adapting at phase boundaries has negligible overhead (stable phases are
~120 ms; the controller costs tens of microseconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..chip.chip import Core
from ..microarch.phases import PhaseDetector, PhaseInstance
from ..microarch.pipeline import DEFAULT_CORE_CONFIG, CoreConfig
from ..microarch.simulator import measure_workload
from ..mitigation.base import TechniqueState
from .adaptation import AdaptationResult, optimize_units_batched
from .environments import AdaptationMode, Environment


@dataclass(frozen=True)
class TimelineCosts:
    """The Figure 6 latencies (seconds)."""

    activity_measurement: float = 20e-6  # CPI/alpha counters per phase
    controller_run: float = 6e-6  # fuzzy routines on the core
    transition: float = 10e-6  # XScale-style f/V change
    retuning_step: float = 50e-6  # sensor check + one f step


@dataclass(frozen=True)
class TimelineEvent:
    """One phase occurrence as executed by the adaptive system."""

    phase_name: str
    detector_phase_id: int
    duration_ms: float
    reused_saved_config: bool
    f_rel: float
    perf_rel: float
    overhead_fraction: float  # controller+measurement time / phase time


@dataclass
class TimelineResult:
    """The whole execution: events plus aggregate statistics."""

    events: List[TimelineEvent] = field(default_factory=list)

    @property
    def controller_runs(self) -> int:
        """How many times the controller actually executed."""
        return sum(1 for e in self.events if not e.reused_saved_config)

    @property
    def reuse_fraction(self) -> float:
        """Fraction of phase occurrences served from the saved-config table."""
        if not self.events:
            return 0.0
        return 1.0 - self.controller_runs / len(self.events)

    @property
    def mean_overhead_fraction(self) -> float:
        """Time-weighted adaptation overhead (should be ~1e-4)."""
        total = sum(e.duration_ms for e in self.events)
        spent = sum(e.overhead_fraction * e.duration_ms for e in self.events)
        return spent / total if total else 0.0

    def mean_perf_rel(self) -> float:
        """Duration-weighted mean relative performance (incl. overhead)."""
        total = sum(e.duration_ms for e in self.events)
        value = sum(
            e.perf_rel * (1.0 - e.overhead_fraction) * e.duration_ms
            for e in self.events
        )
        return value / total if total else 0.0


def run_timeline(
    core: Core,
    env: Environment,
    phase_stream: List[PhaseInstance],
    mode: AdaptationMode = AdaptationMode.EXH_DYN,
    bank=None,
    costs: TimelineCosts = TimelineCosts(),
    novar_perf: Optional[Dict[str, float]] = None,
    detector: Optional[PhaseDetector] = None,
    seed: int = 0,
    core_config: CoreConfig = DEFAULT_CORE_CONFIG,
) -> TimelineResult:
    """Execute a phase stream under EVAL's runtime (Figure 6).

    A batch of one over :func:`run_timelines_batched`.

    Args:
        core: The physical core.
        env: Capability environment.
        phase_stream: Phase occurrences (from
            :func:`repro.microarch.phases.generate_phase_stream`).
        mode: Adaptation mode for controller runs.
        bank: Fuzzy-controller bank (Fuzzy-Dyn only).
        costs: Figure 6 latencies.
        novar_perf: Optional per-phase-name NoVar performance (IPS) to
            normalise against; otherwise perf_rel is vs the 4 GHz clock
            with the same CPI.
        detector: Phase detector (a fresh Figure 7(a) detector if None).
        seed: RNG seed for the BBV sampling noise.
        core_config: Pipeline configuration of the core.
    """
    return run_timelines_batched(
        [core], env, phase_stream, mode, bank, costs, novar_perf, [detector],
        seed, core_config,
    )[0]


def run_timelines_batched(
    cores: Sequence[Core],
    env: Environment,
    phase_stream: List[PhaseInstance],
    mode: AdaptationMode = AdaptationMode.EXH_DYN,
    bank=None,
    costs: TimelineCosts = TimelineCosts(),
    novar_perf: Optional[Dict[str, float]] = None,
    detectors: Optional[Sequence[Optional[PhaseDetector]]] = None,
    seed: Union[int, Sequence[int]] = 0,
    core_config: CoreConfig = DEFAULT_CORE_CONFIG,
) -> List[TimelineResult]:
    """Advance the adaptation timeline of many cores in lockstep.

    Each lane (core) executes the phase stream with its own BBV-noise
    RNG stream (``seed`` may be one shared seed or one per lane), its
    own phase detector and its own saved-configuration table.  On a
    recurring phase a lane reuses its saved configuration; the
    controller runs of all lanes that hit a *new* phase at a step are
    batched into a single
    :func:`~repro.core.adaptation.optimize_units_batched` program.  Lane
    state never crosses lanes — only the adaptation math is grouped — so
    a lane's events do not depend on its batch-mates.
    """
    n_lanes = len(cores)
    seeds = (
        list(seed) if isinstance(seed, (list, tuple)) else [seed] * n_lanes
    )
    if len(seeds) != n_lanes:
        raise ValueError("need one seed per core lane")
    lane_detectors = [
        (detectors[i] if detectors is not None else None) or PhaseDetector()
        for i in range(n_lanes)
    ]
    rngs = [np.random.default_rng(s) for s in seeds]
    saved: List[Dict[int, AdaptationResult]] = [{} for _ in range(n_lanes)]
    results = [TimelineResult() for _ in range(n_lanes)]

    for phase in phase_stream:
        technique = TechniqueState(domain=phase.profile.domain)
        base_cfg = technique.core_config(core_config, replication_built=env.fu)

        detected_of = []
        reuse_of = []
        for lane in range(n_lanes):
            event_bbv = phase.sample_bbv(rngs[lane])
            detected = lane_detectors[lane].observe(event_bbv)
            detected_of.append(detected)
            reuse_of.append(
                detected.phase_id in saved[lane] and not detected.is_new
            )

        adapting = [lane for lane in range(n_lanes) if not reuse_of[lane]]
        if adapting:
            # The measurement is per (profile, config), not per core, so
            # the first lane computes and the rest hit the cache.
            meas_full = measure_workload(phase.profile, base_cfg)
            meas_resized = None
            if env.queue:
                meas_resized = measure_workload(
                    phase.profile,
                    base_cfg.with_resized_queue(phase.profile.domain),
                )
            decisions = optimize_units_batched(
                [(cores[lane], [(meas_full, meas_resized)]) for lane in adapting],
                env,
                mode=mode,
                bank=bank,
            )
            for lane, unit_results in zip(adapting, decisions):
                saved[lane][detected_of[lane].phase_id] = unit_results[0]

        duration_s = phase.duration_ms * 1e-3
        for lane in range(n_lanes):
            core = cores[lane]
            decision = saved[lane][detected_of[lane].phase_id]
            if reuse_of[lane]:
                overhead_s = costs.transition
            else:
                overhead_s = (
                    costs.activity_measurement
                    + costs.controller_run
                    + costs.transition
                )
            f_nominal = core.calib.f_nominal
            if novar_perf and phase.spec.name in novar_perf:
                perf_rel = (
                    decision.performance_ips / novar_perf[phase.spec.name]
                )
            else:
                nominal = f_nominal / (
                    decision.measurement.cpi_comp
                    + decision.measurement.l2_miss_rate
                    * f_nominal
                    * core.calib.memory_latency_seconds
                    * decision.measurement.overlap_factor
                )
                perf_rel = decision.performance_ips / nominal
            results[lane].events.append(
                TimelineEvent(
                    phase_name=phase.spec.name,
                    detector_phase_id=detected_of[lane].phase_id,
                    duration_ms=phase.duration_ms,
                    reused_saved_config=reuse_of[lane],
                    f_rel=decision.f_core / f_nominal,
                    perf_rel=float(perf_rel),
                    overhead_fraction=min(1.0, overhead_s / duration_s),
                )
            )
    return results
