"""High-dimensional dynamic adaptation (paper Section 4).

This is the paper's key technique: at every phase boundary, jointly pick
the core frequency, per-subsystem (Vdd, Vbb), the issue-queue size, and
which FU replica to enable — within the temperature, power and error-rate
constraints.  The search is decomposed per Section 4.2:

1. **Freq**: each subsystem independently finds its maximum frequency
   (Exhaustive grid sweep, or the trained fuzzy controllers); the core
   frequency is the minimum.
2. **FU replication**: the Figure 4 rule — enable the low-slope replica
   only when the normal FU is the processor bottleneck.
3. **Queue resizing**: estimate Eq 5 performance with both queue sizes
   (using their separately measured ``CPIcomp``) and keep the winner.
4. **Power**: each subsystem re-minimises its power at the chosen core
   frequency.
5. **Retuning cycles** absorb controller inaccuracy and the global
   power-budget check (Section 4.3.3).

The procedure has one implementation, :func:`optimize_units_batched`,
which runs every (unit, phase) lane of a population through each stage
at once; :func:`optimize_phase` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..chip.chip import Core, cores_stackable, distinct_lanes, lane_physics
from ..microarch.simulator import WorkloadMeasurement
from ..mitigation.base import (
    BASE,
    FU_LOWSLOPE,
    FU_NORMAL,
    QUEUE_FULL,
    QUEUE_RESIZED,
    TechniqueState,
)
from ..mitigation.fu_replication import choose_fu_implementation
from ..mitigation.queue_resize import choose_queue_size
from ..timing.paths import StageModifiers
from ..timing.speculation import CheckerConfig, PerfParams, performance
from .environments import AdaptationMode, Environment
from .optimizer import (
    OptimizationSpec,
    SubsystemArrays,
    core_subsystem_arrays,
    freq_algorithm,
    power_algorithm,
)
from .retuning import Outcome, retune_batched
from .state import Configuration, EvaluatedState, evaluate_configurations

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from ..ml.bank import ControllerBank


@dataclass(frozen=True)
class AdaptationResult:
    """Everything the runner needs about one adaptation decision."""

    environment: Environment
    mode: AdaptationMode
    config: Configuration  # final (post-retuning) configuration
    state: EvaluatedState  # settled physics at that configuration
    outcome: Outcome
    f_controller: float  # frequency the controller initially chose
    measurement: WorkloadMeasurement  # the phase measurement actually used
    performance_ips: float  # Eq 5 instructions/second at the final point

    @property
    def f_core(self) -> float:
        """Final core frequency in hertz."""
        return self.config.f_core


def perf_params_from_measurement(
    meas: WorkloadMeasurement, core: Core
) -> PerfParams:
    """Assemble the Eq 5 parameters for one measured phase."""
    calib = core.calib
    return PerfParams(
        cpi_comp=meas.cpi_comp,
        l2_miss_rate=meas.l2_miss_rate,
        recovery_penalty=calib.recovery_penalty_cycles,
        memory_latency_s=calib.memory_latency_seconds,
        overlap_factor=meas.overlap_factor,
    )


def _fuzzy_variant(
    core: Core, index: int, env: Environment, technique: TechniqueState
) -> str:
    """Which FC variant applies at a subsystem for a technique state."""
    sub = core.floorplan.subsystems[index]
    if sub.resizable:
        if env.queue and sub.domain == technique.domain and not technique.queue_full:
            return QUEUE_RESIZED
        return QUEUE_FULL
    if sub.replicable:
        if env.fu and sub.domain == technique.domain and technique.lowslope:
            return FU_LOWSLOPE
        return FU_NORMAL
    return BASE


def optimize_phase(
    core: Core,
    env: Environment,
    meas_full: WorkloadMeasurement,
    meas_resized: Optional[WorkloadMeasurement] = None,
    mode: AdaptationMode = AdaptationMode.EXH_DYN,
    bank: "Optional[ControllerBank]" = None,
    *,
    spec: Optional[OptimizationSpec] = None,
    retune_enabled: bool = True,
) -> AdaptationResult:
    """Run one full adaptation for a phase (Section 4.2 procedure).

    A batch of one over :func:`optimize_units_batched`.

    Args:
        core: The physical core.
        env: The capability environment (Table 1).
        meas_full: Phase measurement with the full-size issue queue (and
            the replication pipeline stage if ``env.fu``).
        meas_resized: Phase measurement with the 3/4 queue; required when
            ``env.queue``.
        mode: Static / Fuzzy-Dyn / Exh-Dyn.  (For Static, pass the
            aggregated worst-case measurement as ``meas_full``.)
        bank: Trained fuzzy controllers (Fuzzy-Dyn only).
        spec: Optional pre-built optimisation spec (else derived from the
            environment).
        retune_enabled: Disable to study the raw controller output (the
            retuning ablation).
    """
    return optimize_units_batched(
        [(core, [(meas_full, meas_resized)])], env, mode, bank,
        spec=spec, retune_enabled=retune_enabled,
    )[0][0]


def _phase_arrays(
    core: Core, technique: TechniqueState, meas: WorkloadMeasurement
) -> SubsystemArrays:
    """The optimiser view of one phase under one technique state."""
    return core_subsystem_arrays(
        core,
        meas.activity,
        meas.rho,
        technique.stage_modifiers(core),
        technique.power_factors(core),
    )


def _stacked_phase_arrays(
    cores: Sequence[Core],
    techniques: Sequence[TechniqueState],
    measurements: Sequence[WorkloadMeasurement],
) -> SubsystemArrays:
    """One ``(B, n)`` optimiser stack built without per-lane assembly.

    Bit-identical to ``SubsystemArrays.stack([_phase_arrays(c, t, m)
    ...])``: gathering rows through distinct-object tables copies
    exactly the values ``np.stack`` would have copied, and
    :func:`~repro.core.optimizer.core_subsystem_arrays` runs the same
    elementwise operations on the gathered ``(B, n)`` operands.  What it
    skips is the per-lane Python: a unit block repeats each core across
    its phases and each (technique, measurement) across its units, so
    the distinct tables stay tiny while lanes number in the hundreds —
    this construction is what lets the population-tier batch amortise
    instead of paying O(lanes) object assembly.
    """
    first = cores[0]
    core_rows, core_index = distinct_lanes(cores)
    meas_rows, meas_index = distinct_lanes(measurements)
    # Technique modifiers depend only on the floorplan and calibration,
    # which stacking pins as shared — one build per distinct state covers
    # every lane using it.
    tech_rows, tech_index = distinct_lanes(techniques, lambda tech: tech)
    activity = np.stack([np.asarray(m.activity, dtype=float) for m in meas_rows])
    rho = np.stack([np.asarray(m.rho, dtype=float) for m in meas_rows])
    modifiers = [technique.stage_modifiers(first) for technique in tech_rows]
    return core_subsystem_arrays(
        Core.stack(core_rows).lane_subset(core_index),
        activity[meas_index],
        rho[meas_index],
        StageModifiers(
            delay_scale=np.stack([m.delay_scale for m in modifiers])[tech_index],
            sigma_scale=np.stack([m.sigma_scale for m in modifiers])[tech_index],
        ),
        np.stack([t.power_factors(first) for t in tech_rows])[tech_index],
    )


def _lane_fmax(
    cores: Sequence[Core],
    env: Environment,
    spec: OptimizationSpec,
    techniques: Sequence[TechniqueState],
    measurements: Sequence[WorkloadMeasurement],
    bank: "Optional[ControllerBank]",
) -> np.ndarray:
    """``(B, n)`` per-subsystem max frequency of each lane.

    One stacked ``freq_algorithm`` sweep (Exhaustive), or each
    subsystem's trained Freq FC when a fuzzy ``bank`` is given.
    """
    if bank is None:
        stack = _stacked_phase_arrays(cores, techniques, measurements)
        return freq_algorithm(stack, spec).f_max
    return np.array([
        [
            bank.predict_fmax(
                core,
                i,
                _fuzzy_variant(core, i, env, technique),
                spec.t_heatsink,
                float(meas.activity[i]),
                float(meas.rho[i]),
            )
            for i in range(core.n_subsystems)
        ]
        for core, technique, meas in zip(cores, techniques, measurements)
    ])


def _freq_stage_batched(
    cores: Sequence[Core],
    env: Environment,
    spec: OptimizationSpec,
    measurements: Sequence[WorkloadMeasurement],
    queue_full: bool,
    bank: "Optional[ControllerBank]",
) -> "Tuple[List[TechniqueState], List[float]]":
    """The Freq stage plus the Figure 4 FU-replication rule, per lane.

    ``cores`` carries one core per lane.  The per-subsystem maxima come
    from :func:`_lane_fmax` (two calls when the environment replicates
    FUs — normal and low-slope); the FU decision is then applied per
    lane and the core frequency is the clamped minimum over subsystems.
    """
    techniques = [
        TechniqueState(queue_full=queue_full, lowslope=False, domain=m.domain)
        for m in measurements
    ]
    fmax = _lane_fmax(cores, env, spec, techniques, measurements, bank)
    if env.fu:
        lowslope = [replace(t, lowslope=True) for t in techniques]
        fmax_ls = _lane_fmax(cores, env, spec, lowslope, measurements, bank)
        # Per-lane inputs to the Figure 4 rule, gathered in one shot:
        # masking the FU column to +inf leaves min() over exactly the
        # other subsystems.
        index_of = cores[0].floorplan.index_of
        lanes_ix = np.arange(len(techniques))
        fu_idx = np.array(
            [index_of(t.fu_name) for t in techniques], dtype=np.intp
        )
        f_fu = fmax[lanes_ix, fu_idx]
        f_fu_ls = fmax_ls[lanes_ix, fu_idx]
        rest = fmax.copy()
        rest[lanes_ix, fu_idx] = np.inf
        f_rest = rest.min(axis=1)
        for lane in range(len(techniques)):
            decision = choose_fu_implementation(
                f_normal=float(f_fu[lane]),
                f_lowslope=float(f_fu_ls[lane]),
                f_rest=float(f_rest[lane]),
            )
            if decision.use_lowslope:
                techniques[lane] = lowslope[lane]
                fmax[lane] = fmax_ls[lane]
    f_core = [
        spec.knob_ranges.clamp_frequency(float(f))
        for f in fmax.min(axis=1)
    ]
    return techniques, f_core


def _power_stage_batched(
    cores: Sequence[Core],
    env: Environment,
    spec: OptimizationSpec,
    chosen: "Sequence[Tuple[TechniqueState, WorkloadMeasurement, float]]",
    bank: "Optional[ControllerBank]",
) -> "List[Tuple[np.ndarray, np.ndarray]]":
    """Per-lane (Vdd, Vbb) minimising power at each lane's ``f_core``.

    Nominal voltages without ASV/ABB; otherwise one stacked
    ``power_algorithm`` sweep (Exhaustive), or each subsystem's trained
    Vdd/Vbb FCs when a fuzzy ``bank`` is given.
    """
    if not env.asv and not env.abb:
        return [
            (np.full(c.n_subsystems, c.calib.vdd_nominal), np.zeros(c.n_subsystems))
            for c in cores
        ]
    if bank is None:
        stack = _stacked_phase_arrays(
            cores, [t for t, _, _ in chosen], [m for _, m, _ in chosen]
        )
        power = power_algorithm(stack, np.array([f for _, _, f in chosen]), spec)
        return [(power.vdd[lane], power.vbb[lane]) for lane in range(len(chosen))]
    voltages = []
    for core, (technique, meas, f_core) in zip(cores, chosen):
        vdd = np.empty(core.n_subsystems)
        vbb = np.empty(core.n_subsystems)
        for i in range(core.n_subsystems):
            vdd[i], vbb[i] = bank.predict_voltages(
                core,
                i,
                _fuzzy_variant(core, i, env, technique),
                spec.t_heatsink,
                float(meas.activity[i]),
                float(meas.rho[i]),
                f_core,
            )
        voltages.append((vdd, vbb))
    return voltages


def _finish_phases_batched(
    cores: Sequence[Core],
    env: Environment,
    spec: OptimizationSpec,
    chosen: "Sequence[Tuple[TechniqueState, WorkloadMeasurement, float]]",
    voltages: "Sequence[Tuple[np.ndarray, np.ndarray]]",
    mode: AdaptationMode,
    bank: "Optional[ControllerBank]",
    retune_enabled: bool,
) -> List[AdaptationResult]:
    """Power-budget enforcement + retuning + result assembly, per lane.

    Lane-masked: each round of PMAX checks across the still-active
    lanes is a single :func:`~repro.core.state.evaluate_configurations`
    call, and each Power-stage re-run a single :func:`_power_stage_batched`
    over the lanes still over budget.  The Section 4.3.3 retuning tail
    delegates to :func:`~repro.core.retuning.retune_batched`; with
    retuning off, one settle pass evaluates every lane where the
    controller left it (outcome NoChange).
    """
    knobs = spec.knob_ranges
    step = knobs.f_step
    n_lanes = len(chosen)
    cores = list(cores)
    techniques = [technique for technique, _, _ in chosen]
    meas = [measurement for _, measurement, _ in chosen]
    f = [float(f_core) for _, _, f_core in chosen]
    vdd = [v for v, _ in voltages]
    vbb = [b for _, b in voltages]

    node = lane_physics(cores)

    def settle(lanes, configs) -> List[EvaluatedState]:
        return evaluate_configurations(
            node.lane_subset(np.asarray(lanes, dtype=int))
            if node.is_batched else node,
            configs,
            [meas[i].activity for i in lanes],
            [meas[i].rho for i in lanes],
            spec.t_heatsink,
            checker=env.checker,
        )

    def config_of(i: int) -> Configuration:
        return Configuration(
            f_core=f[i], vdd=vdd[i], vbb=vbb[i], technique=techniques[i]
        )

    # Section 4.2's final check: overall processor power below PMAX.  The
    # controller models power with the same Eq 6-9 constants it senses, so
    # on a violation it lowers the core frequency and re-runs the Power
    # stage (which relaxes per-subsystem voltages) until the budget fits.
    # Lanes stay active while over budget and above the frequency floor.
    active = [i for i in range(n_lanes) if f[i] - 2 * step >= knobs.f_min]
    while active:
        states = settle(active, [config_of(i) for i in active])
        over = [
            i for i, state in zip(active, states)
            if state.total_power > cores[i].calib.p_max
        ]
        if not over:
            break
        for i in over:
            f[i] -= 2 * step
        relaxed = _power_stage_batched(
            [cores[i] for i in over],
            env,
            spec,
            [(techniques[i], meas[i], f[i]) for i in over],
            bank,
        )
        for i, (lane_vdd, lane_vbb) in zip(over, relaxed):
            vdd[i], vbb[i] = lane_vdd, lane_vbb
        active = [i for i in over if f[i] - 2 * step >= knobs.f_min]

    configs = [config_of(i) for i in range(n_lanes)]
    if retune_enabled:
        # Section 4.3.3 retuning cycles, lane-masked (see retune_batched()).
        retuned = retune_batched(
            cores,
            configs,
            [m.activity for m in meas],
            [m.rho for m in meas],
            pe_max=cores[0].calib.pe_max if env.checker else 1e-12,
            checker=env.checker,
            knob_ranges=knobs,
            t_heatsink=spec.t_heatsink,
        )
        finals = [(r.config, r.state, r.outcome) for r in retuned]
    else:
        states = settle(range(n_lanes), configs)
        finals = [
            (config, state, Outcome.NO_CHANGE)
            for config, state in zip(configs, states)
        ]

    results = []
    for i, (config, state, outcome) in enumerate(finals):
        params = perf_params_from_measurement(meas[i], cores[i])
        pe_effective = state.pe_total if env.checker else 0.0
        perf = float(performance(config.f_core, pe_effective, params))
        if env.checker:
            perf = float(CheckerConfig().cap_performance(perf))
        results.append(
            AdaptationResult(
                environment=env,
                mode=mode,
                config=config,
                state=state,
                outcome=outcome,
                f_controller=f[i],
                measurement=meas[i],
                performance_ips=perf,
            )
        )
    return results


def optimize_units_batched(
    units: Sequence[
        "Tuple[Core, Sequence[Tuple[WorkloadMeasurement, Optional[WorkloadMeasurement]]]]"
    ],
    env: Environment,
    mode: AdaptationMode = AdaptationMode.EXH_DYN,
    bank: "Optional[ControllerBank]" = None,
    *,
    spec: Optional[OptimizationSpec] = None,
    retune_enabled: bool = True,
) -> List[List[AdaptationResult]]:
    """Adapt the phases of a whole (chip, core) population in one program.

    ``units`` is a sequence of ``(core, phases)`` pairs where ``phases``
    is a list of ``(meas_full, meas_resized)`` measurements
    (``meas_resized`` may be ``None`` when the environment does not
    resize queues).  All units' phase lanes are flattened onto one lane
    axis, so the Freq sweeps, the queue decision, the Power sweep, the
    PMAX loop and the retuning cycles (Section 4.2, 4.3.3) each run once
    for the entire population; lane state never crosses lanes.

    Every mode takes this path.  Exh-Dyn and Static sweep the stacked
    lanes exhaustively (the mode only labels the result); Fuzzy-Dyn asks
    ``bank``'s controllers per lane.  ``retune_enabled=False`` skips the
    retuning cycles to expose the raw controller output.  A population
    whose cores cannot stack (e.g. a NoVar core next to variation cores)
    runs one block per unit.
    """
    units = [(core, list(phases)) for core, phases in units]
    if not units:
        return []
    if not cores_stackable([core for core, _ in units]):
        return [
            optimize_units_batched(
                [unit], env, mode, bank, spec=spec,
                retune_enabled=retune_enabled,
            )[0]
            for unit in units
        ]
    lane_cores = [core for core, phases in units for _ in phases]
    lane_pairs = [pair for _, phases in units for pair in phases]
    if not lane_pairs:
        return [[] for _ in units]
    if env.queue and any(resized is None for _, resized in lane_pairs):
        raise ValueError(f"{env.name} resizes queues: meas_resized required")
    if mode is AdaptationMode.FUZZY_DYN:
        if bank is None:
            raise ValueError("Fuzzy-Dyn requires a trained controller bank")
    else:
        bank = None
    first_core = units[0][0]
    spec = spec or env.optimization_spec(
        first_core.n_subsystems, first_core.calib
    )

    full_meas = [meas for meas, _ in lane_pairs]
    techniques_full, f_full = _freq_stage_batched(
        lane_cores, env, spec, full_meas, True, bank
    )
    chosen: List[Tuple[TechniqueState, WorkloadMeasurement, float]] = list(
        zip(techniques_full, full_meas, f_full)
    )
    if env.queue:
        resized_meas = [resized for _, resized in lane_pairs]
        techniques_rs, f_rs = _freq_stage_batched(
            lane_cores, env, spec, resized_meas, False, bank
        )
        pe_target = first_core.calib.pe_max if env.checker else 0.0
        for lane, (meas_full, meas_resized) in enumerate(lane_pairs):
            decision = choose_queue_size(
                f_full[lane],
                perf_params_from_measurement(meas_full, lane_cores[lane]),
                f_rs[lane],
                perf_params_from_measurement(meas_resized, lane_cores[lane]),
                pe_target,
            )
            if not decision.use_full:
                chosen[lane] = (techniques_rs[lane], meas_resized, f_rs[lane])

    voltages = _power_stage_batched(lane_cores, env, spec, chosen, bank)
    flat = _finish_phases_batched(
        lane_cores, env, spec, chosen, voltages, mode, bank, retune_enabled
    )
    results: List[List[AdaptationResult]] = []
    position = 0
    for _, phases in units:
        results.append(flat[position:position + len(phases)])
        position += len(phases)
    return results


def aggregate_static_measurement(
    measurements: List[WorkloadMeasurement],
) -> WorkloadMeasurement:
    """Worst-case aggregate for the Static mode.

    Static configurations must cover the workload mix without collapsing
    to the single most extreme phase, so thermal and error inputs take a
    high percentile across phases; performance inputs take means (they
    only rank queue sizes).
    """
    if not measurements:
        raise ValueError("need at least one measurement")
    activity = np.percentile([m.activity for m in measurements], 90, axis=0)
    rho = np.percentile([m.rho for m in measurements], 95, axis=0)
    domains = {m.domain for m in measurements}
    return WorkloadMeasurement(
        name="static-worst-case",
        phase="all",
        domain=measurements[0].domain if len(domains) == 1 else "int",
        cpi_comp=float(np.mean([m.cpi_comp for m in measurements])),
        cpi_total=float(np.mean([m.cpi_total for m in measurements])),
        l2_miss_rate=float(np.mean([m.l2_miss_rate for m in measurements])),
        overlap_factor=float(np.mean([m.overlap_factor for m in measurements])),
        activity=activity,
        rho=rho,
        ipc=float(np.mean([m.ipc for m in measurements])),
    )


def evaluate_at_fixed_configs(
    cores: Sequence[Core],
    env: Environment,
    configs: Sequence[Configuration],
    measurements: Sequence[WorkloadMeasurement],
) -> List[AdaptationResult]:
    """Evaluate (static) configurations on workloads without adapting.

    Lane ``i`` runs ``measurements[i]`` on ``cores[i]`` at
    ``configs[i]``; every lane settles in one
    :func:`~repro.core.state.evaluate_configurations` pass at the
    worst-case heat-sink temperature.
    """
    states = evaluate_configurations(
        lane_physics(cores),
        configs,
        [m.activity for m in measurements],
        [m.rho for m in measurements],
        cores[0].calib.t_heatsink_max,
        checker=env.checker,
    )
    results = []
    for core, config, meas, state in zip(cores, configs, measurements, states):
        params = perf_params_from_measurement(meas, core)
        pe_effective = state.pe_total if env.checker else 0.0
        perf = float(performance(config.f_core, pe_effective, params))
        results.append(
            AdaptationResult(
                environment=env,
                mode=AdaptationMode.STATIC,
                config=config,
                state=state,
                outcome=Outcome.NO_CHANGE,
                f_controller=config.f_core,
                measurement=meas,
                performance_ips=perf,
            )
        )
    return results
