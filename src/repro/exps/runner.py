"""Monte-Carlo experiment driver (paper Section 5 methodology).

Each experiment runs a suite of SPEC-2000-like workloads on every core of
a population of chips with independently drawn variation maps, for every
(environment, adaptation-mode) pair.  Results are phase-weighted per
workload, then averaged — mirroring the paper's "each application is run
on each of the 4 cores of each of 100 chips" and Figure 10-12 reporting.

The single entry point is :meth:`ExperimentRunner.run`, which takes a
:class:`~repro.exps.engine.RunSpec` describing the (environment, mode)
grid, the parallelism, and the on-disk artifact cache, and returns a
:class:`~repro.exps.engine.RunResult` of :class:`SuiteSummary` cells.
(The pre-engine ``run_environment`` / ``baseline_summary`` shims, long
deprecated, were removed in 1.6.0.)

Scale knobs: the paper uses 100 chips x 4 cores.  That is available
(``RunnerConfig(n_chips=100, cores_per_chip=4)``), but the default is a
smaller population that reproduces the same means within the Monte-Carlo
noise (the paper itself notes more than 100 samples changes nothing).
Paper-scale runs are sharded across worker processes with
``RunSpec(parallelism=N)``; see :mod:`repro.exps.engine`.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..calibration import DEFAULT_CALIBRATION, Calibration
from ..chip.chip import Core, build_core, build_novar_core
from ..core.adaptation import (
    AdaptationResult,
    aggregate_static_measurement,
    evaluate_at_fixed_configs,
    optimize_units_batched,
)
from ..core.environments import (
    NOVAR,
    AdaptationMode,
    Environment,
)
from ..core.state import Configuration, evaluate_configuration
from ..core.adaptation import perf_params_from_measurement
from ..microarch.pipeline import DEFAULT_CORE_CONFIG, CoreConfig
from ..microarch.simulator import (
    WorkloadMeasurement,
    _profile_key,
    measure_suite_batched,
)
from ..microarch.workloads import WorkloadProfile, spec2000_like_suite
from ..mitigation.base import TechniqueState
from ..ml.bank import ControllerBank, get_bank
from ..timing.speculation import performance
from .. import variation
from ..variation.maps import ChipSample
from ..variation.population import VariationModel
from .cache import ExperimentCache, FactorStore, bank_key, measurement_key

log = logging.getLogger("repro.exps.runner")


@dataclass(frozen=True)
class RunnerConfig:
    """Scale and reproducibility knobs for an experiment run.

    Every field here is *physics-relevant* and therefore hashed into the
    content-addressed cache keys (:func:`repro.exps.cache.summary_key`):
    changing any of them can change results, so it must change the key.
    Pure execution strategy (parallelism, transport) lives on
    :class:`~repro.exps.engine.RunSpec` instead.
    """

    n_chips: int = 20
    cores_per_chip: int = 1
    n_instructions: int = 12000
    seed: int = 7
    fuzzy_examples: int = 4000  # per-FC training examples (paper: 10,000)
    fuzzy_epochs: int = 2
    #: Correlation range of the systematic variation surfaces, in
    #: die-width units (``None``: the paper's phi = 0.5 via
    #: :data:`~repro.variation.maps.DEFAULT_VARIATION_PARAMS`).  A DSE
    #: sweep axis — part of the hashed config so summaries drawn at
    #: different phi never collide in the cache.
    phi: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_chips < 1 or not 1 <= self.cores_per_chip <= 4:
            raise ValueError("need >=1 chip and 1..4 cores per chip")
        if self.phi is not None and self.phi <= 0.0:
            raise ValueError("phi must be positive")

    @classmethod
    def from_settings(cls, settings, **overrides) -> "RunnerConfig":
        """Scale knobs from a :class:`repro.config.Settings` bundle.

        Maps ``chips``/``cores``/``fc_examples``/``seed`` onto the
        dataclass fields; anything else (``n_instructions``, ``phi``,
        ``fuzzy_epochs``) rides in through ``overrides``.
        """
        fields = dict(
            n_chips=settings.chips,
            cores_per_chip=settings.cores,
            fuzzy_examples=settings.fc_examples,
            seed=settings.seed,
        )
        fields.update(overrides)
        return cls(**fields)


@dataclass(frozen=True)
class PhaseResult:
    """One (chip, core, workload, phase) observation.

    This is the wire format shared by the engine workers, the on-disk
    summary cache, and :mod:`repro.exps.reporting`: :meth:`to_dict`
    produces a flat JSON-safe record and :meth:`from_dict` reverses it
    exactly (all floats round-trip bit-identically through ``repr``).
    """

    chip_id: int
    core_index: int
    workload: str
    phase: str
    weight: float
    environment: str
    mode: str
    f_rel: float  # relative to the 4 GHz no-variation frequency
    perf_rel: float  # relative to NoVar running the same phase
    power: float  # watts (core + L1 + L2 + checker)
    outcome: str
    queue_full: bool
    lowslope: bool

    def to_dict(self) -> Dict:
        """Flat JSON-safe record of this observation."""
        return {
            "chip_id": self.chip_id,
            "core_index": self.core_index,
            "workload": self.workload,
            "phase": self.phase,
            "weight": self.weight,
            "environment": self.environment,
            "mode": self.mode,
            "f_rel": self.f_rel,
            "perf_rel": self.perf_rel,
            "power": self.power,
            "outcome": self.outcome,
            "queue_full": self.queue_full,
            "lowslope": self.lowslope,
        }

    @classmethod
    def from_dict(cls, record: Dict) -> "PhaseResult":
        """Rebuild an observation from :meth:`to_dict` output."""
        return cls(**record)


@dataclass
class SuiteSummary:
    """Phase-weighted means over a whole run.

    ``metrics`` is the observability block: the fleet-wide campaign
    metrics snapshot (see :mod:`repro.obs`) attached by the engine to
    every summary it computes.  It is excluded from equality so
    serial/parallel determinism checks keep comparing physics, not
    wall-clock timings.
    """

    f_rel: float
    perf_rel: float
    power: float
    results: List[PhaseResult] = field(repr=False, default_factory=list)
    metrics: Optional[Dict[str, Any]] = field(
        repr=False, compare=False, default=None
    )

    def to_json(self) -> str:
        """Serialise to the shared wire format (see :class:`PhaseResult`)."""
        document = {
            "f_rel": self.f_rel,
            "perf_rel": self.perf_rel,
            "power": self.power,
            "results": [r.to_dict() for r in self.results],
        }
        if self.metrics is not None:
            document["metrics"] = self.metrics
        return json.dumps(document)

    @classmethod
    def from_json(cls, text: str) -> "SuiteSummary":
        """Rebuild a summary from :meth:`to_json` output."""
        document = json.loads(text)
        return cls(
            f_rel=document["f_rel"],
            perf_rel=document["perf_rel"],
            power=document["power"],
            results=[
                PhaseResult.from_dict(record) for record in document["results"]
            ],
            metrics=document.get("metrics"),
        )


class ExperimentRunner:
    """Caches chips, cores, measurements and FC banks across experiments."""

    def __init__(
        self,
        config: RunnerConfig = RunnerConfig(),
        calib: Calibration = DEFAULT_CALIBRATION,
        workloads: Optional[Sequence[WorkloadProfile]] = None,
        core_config: CoreConfig = DEFAULT_CORE_CONFIG,
        *,
        cache: Optional[ExperimentCache] = None,
        population: Optional[Sequence[ChipSample]] = None,
    ):
        self.config = config
        self.calib = calib
        self.workloads = list(workloads) if workloads is not None else spec2000_like_suite()
        self.core_config = core_config
        self.cache = cache
        if cache is not None:
            # Give the process-wide factor memo durable storage, so a
            # cold process (or pool worker) loads the Cholesky factor
            # from disk instead of re-factorising.
            variation.set_store(FactorStore(cache))
        if population is not None:
            # Pre-sampled chips, e.g. attached from a shared-memory
            # segment published by the engine's parent process.  The
            # transport is an optimisation, not physics: the arrays are
            # exactly what the deterministic rebuild below would draw.
            population = list(population)
            if len(population) != config.n_chips:
                raise ValueError(
                    f"injected population has {len(population)} chips, "
                    f"config expects {config.n_chips}"
                )
            self._population = population
        else:
            model = VariationModel()
            if config.phi is not None:
                model = VariationModel(
                    params=dataclasses.replace(model.params, phi=config.phi)
                )
            self._population = model.population(
                config.n_chips, seed=config.seed
            )
        self._cores: Dict[Tuple[int, int], Core] = {}
        self._novar = build_novar_core(calib=calib)
        self._banks: Dict[str, ControllerBank] = {}
        self._measurements: Dict[
            Tuple, Tuple[WorkloadMeasurement, Optional[WorkloadMeasurement]]
        ] = {}

    @classmethod
    def from_settings(cls, settings, **overrides) -> "ExperimentRunner":
        """Build a runner whose knobs come from a ``Settings`` bundle.

        The one sanctioned ``Settings`` → runner mapping (scale knobs via
        :meth:`RunnerConfig.from_settings`, ``cache`` via
        :meth:`~repro.config.Settings.build_cache`),
        shared by the exps CLI, the service daemon, the DSE sweep driver
        and the benchmark harness.  ``overrides`` are passed through to
        the constructor (``config=``, ``calib=``, ``workloads=``, ...).
        """
        fields = dict(
            config=RunnerConfig.from_settings(settings),
            cache=settings.build_cache(),
        )
        fields.update(overrides)
        return cls(**fields)

    # ------------------------------------------------------------------
    # Cached building blocks.
    # ------------------------------------------------------------------
    @property
    def population(self) -> List[ChipSample]:
        """The sampled chip population (shared read-only with the engine)."""
        return self._population

    def core(self, chip_index: int, core_index: int) -> Core:
        """Return (and cache) one core model."""
        key = (chip_index, core_index)
        if key not in self._cores:
            self._cores[key] = build_core(
                self._population[chip_index], core_index, calib=self.calib
            )
        return self._cores[key]

    def cores(self):
        """Iterate over all (chip, core) pairs in the run."""
        for chip_index in range(self.config.n_chips):
            for core_index in range(self.config.cores_per_chip):
                yield self.core(chip_index, core_index)

    def phase_profiles(self, workload: WorkloadProfile):
        """Yield (phase-specialised profile, weight) pairs."""
        for phase in workload.phases:
            yield workload.phase_profile(phase), phase.weight

    def measurements(
        self, profile: WorkloadProfile, env: Environment
    ) -> Tuple[WorkloadMeasurement, Optional[WorkloadMeasurement]]:
        """Measure a phase profile under an environment's pipeline configs.

        Memoised on the (profile fingerprint, environment knobs, seed,
        trace length) tuple, so repeated callers — the main loop and the
        Static-mode aggregation — share one measurement instead of
        re-entering the simulator path.  The seed and instruction count
        are part of the key even though they are fixed per config: a
        runner whose config is swapped out (tests, reuse across sweeps)
        must never serve one seed's measurement to another.
        """
        memo_key = (
            _profile_key(profile),
            env.fu,
            env.queue,
            self.config.seed,
            self.config.n_instructions,
        )
        cached = self._measurements.get(memo_key)
        # Touch both counters so they exist in every metrics document —
        # serial and parallel runs must stay structurally identical even
        # when one of them never hits (or never misses) the memo.
        obs.inc("runner.measure_memo_hits", 1.0 if cached is not None else 0.0)
        obs.inc("runner.measure_memo_misses", 0.0 if cached is not None else 1.0)
        if cached is not None:
            return cached
        technique = TechniqueState(domain=profile.domain)
        base = technique.core_config(self.core_config, replication_built=env.fu)
        requests = [(profile, base)]
        if env.queue:
            requests.append((profile, base.with_resized_queue(profile.domain)))
        measured = self._measure_batch(requests)
        full = measured[0]
        resized = measured[1] if env.queue else None
        self._measurements[memo_key] = (full, resized)
        return full, resized

    def _measure_batch(
        self, requests: Sequence[Tuple[WorkloadProfile, CoreConfig]]
    ) -> List[WorkloadMeasurement]:
        """Measure many (profile, config) pairs, through the disk cache.

        Disk hits are served per request; the misses go through one
        :func:`~repro.microarch.simulator.measure_suite_batched` call —
        one trace walk per distinct profile, all of its configuration
        variants advancing together — and are written back.  Results are
        bit-identical to measuring each request on its own.
        """
        out: List[Optional[WorkloadMeasurement]] = [None] * len(requests)
        missing: List[int] = []
        keys: Dict[int, str] = {}
        for index, (profile, config) in enumerate(requests):
            if self.cache is not None:
                key = measurement_key(
                    self.calib,
                    profile,
                    config,
                    self.config.n_instructions,
                    self.config.seed,
                )
                keys[index] = key
                hit = self.cache.load_measurement(key)
                if hit is not None:
                    out[index] = hit
                    continue
            missing.append(index)
        if missing:
            measured = measure_suite_batched(
                [requests[index] for index in missing],
                self.config.n_instructions,
                self.config.seed,
            )
            for index, meas in zip(missing, measured):
                out[index] = meas
                if self.cache is not None:
                    self.cache.save_measurement(keys[index], meas)
        return out

    def _measure(
        self, profile: WorkloadProfile, config: CoreConfig
    ) -> WorkloadMeasurement:
        """One measurement, through the disk cache when configured."""
        return self._measure_batch([(profile, config)])[0]

    def bank_for(
        self, env: Environment, cache: Optional[ExperimentCache] = None
    ) -> ControllerBank:
        """Return (training once) the fuzzy-controller bank for an env.

        Banks are memoised in-process and, when a cache is configured (or
        passed explicitly by the engine), persisted through the
        :mod:`repro.ml.persistence` ``.npz`` round trip so the expensive
        manufacturer-site training is reused across sessions and workers.
        """
        cache = cache if cache is not None else self.cache
        spec = env.optimization_spec(self._novar.n_subsystems, self.calib)
        key = bank_key(
            self.calib,
            spec,
            self.config.fuzzy_examples,
            self.config.fuzzy_epochs,
            self.config.seed,
        )
        bank = self._banks.get(key)
        if bank is not None:
            return bank
        if cache is not None:
            bank = cache.load_bank(key)
        if bank is None:
            log.info("training fuzzy bank for %s", env.name)
            with obs.span("ml.bank_training", env=env.name):
                bank = get_bank(
                    self.core(0, 0),
                    spec,
                    n_examples=self.config.fuzzy_examples,
                    epochs=self.config.fuzzy_epochs,
                    seed=self.config.seed,
                )
            if cache is not None:
                cache.save_bank(key, bank)
        self._banks[key] = bank
        return bank

    # ------------------------------------------------------------------
    # Reference points.
    # ------------------------------------------------------------------
    def novar_performance(self, meas: WorkloadMeasurement) -> float:
        """NoVar instructions/second for a phase (4 GHz, error-free)."""
        params = perf_params_from_measurement(meas, self._novar)
        return float(performance(self.calib.f_nominal, 0.0, params))

    def novar_power(self, meas: WorkloadMeasurement) -> float:
        """NoVar power for a phase, in watts."""
        n = self._novar.n_subsystems
        config = Configuration(
            f_core=self.calib.f_nominal,
            vdd=np.full(n, self.calib.vdd_nominal),
            vbb=np.zeros(n),
            technique=TechniqueState(domain=meas.domain),
        )
        state = evaluate_configuration(
            self._novar, config, meas.activity, meas.rho, checker=False
        )
        return state.total_power

    # ------------------------------------------------------------------
    # Main entry point.
    # ------------------------------------------------------------------
    def run(self, spec: "RunSpec") -> "RunResult":
        """Run a whole campaign (see :class:`repro.exps.engine.RunSpec`).

        Subsumes the old per-environment entry points: the grid of
        (environment, mode) cells is optionally sharded over worker
        processes (``spec.parallelism``) and served from / stored into the
        content-addressed disk cache (``spec.cache_dir`` or the runner's
        own).  A parallel run returns results bit-identical to the serial
        run at the same seed.
        """
        from .engine import execute

        return execute(self, spec)

    def run_unit(
        self,
        env: Environment,
        mode: AdaptationMode,
        chip_index: int,
        core_index: int,
        workloads: Optional[Sequence[WorkloadProfile]] = None,
        bank: Optional[ControllerBank] = None,
    ) -> List[PhaseResult]:
        """Run one (environment, mode, chip, core) unit of work.

        A block of one over :meth:`run_units_batched`.
        """
        return self.run_units_batched(
            env, mode, [(chip_index, core_index)], workloads, bank=bank
        )[0]

    def run_units_batched(
        self,
        env: Environment,
        mode: AdaptationMode,
        units: Sequence[Tuple[int, int]],
        workloads: Optional[Sequence[WorkloadProfile]] = None,
        bank: Optional[ControllerBank] = None,
    ) -> List[List[PhaseResult]]:
        """Run a block of same-cell ``(chip, core)`` units as one program.

        This is the engine's shard: the serial loop, the pool workers,
        the service and the fleet workers all run blocks (or blocks of
        one) through here.  Every unit of the block contributes its
        phase lanes to a single stack, and one
        :func:`~repro.core.adaptation.optimize_units_batched` call adapts
        all of them — the retuning rounds, thermal solves and error-rate
        evaluations of the whole population amortise into a handful of
        array ops.  Static mode adapts each unit once, to the worst-case
        aggregate of the phase measurements, then settles every (unit,
        phase) lane at its unit's configuration in one pass.  Per-unit
        rows come back in unit order; a unit's rows do not depend on
        the block it ran in.
        """
        units = [(int(chip), int(core)) for chip, core in units]
        workloads = list(workloads) if workloads is not None else self.workloads
        if not units:
            return []
        with obs.span("engine.units_batched", env=env.name, mode=mode.value,
                      units=len(units)):
            obs.inc("engine.batched_units", float(len(units)))
            cores = [self.core(chip, core) for chip, core in units]
            if mode is AdaptationMode.FUZZY_DYN and bank is None:
                bank = self.bank_for(env)
            entries = []
            for workload in workloads:
                for profile, weight in self.phase_profiles(workload):
                    meas_full, meas_resized = self.measurements(profile, env)
                    entries.append(
                        (workload, profile, weight, meas_full, meas_resized)
                    )
            if mode is AdaptationMode.STATIC:
                adapted = self._run_static(
                    cores, env, [full for _, _, _, full, _ in entries]
                )
            else:
                pairs = [(full, resized) for _, _, _, full, resized in entries]
                adapted = optimize_units_batched(
                    [(core, pairs) for core in cores], env, mode=mode, bank=bank
                )
        return [
            [
                self._to_phase_result(
                    core, env, mode, workload, profile, weight, result
                )
                for (workload, profile, weight, _, _), result in zip(
                    entries, unit_results
                )
            ]
            for core, unit_results in zip(cores, adapted)
        ]

    def novar_summary(
        self, workloads: Optional[Sequence[WorkloadProfile]] = None
    ) -> SuiteSummary:
        """The NoVar reference environment (per-phase perf_rel is 1)."""
        workloads = list(workloads) if workloads is not None else self.workloads
        results = []
        with obs.span("runner.novar"):
            for workload in workloads:
                for profile, weight in self.phase_profiles(workload):
                    meas, _ = self.measurements(profile, NOVAR)
                    results.append(
                        PhaseResult(
                            chip_id=-1,
                            core_index=0,
                            workload=workload.name,
                            phase=profile.phases[0].name,
                            weight=weight,
                            environment=NOVAR.name,
                            mode=AdaptationMode.STATIC.value,
                            f_rel=1.0,
                            perf_rel=1.0,
                            power=self.novar_power(meas),
                            outcome="NoChange",
                            queue_full=True,
                            lowslope=False,
                        )
                    )
        return summarise(results)

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _run_static(
        self,
        cores: Sequence[Core],
        env: Environment,
        measurements: Sequence[WorkloadMeasurement],
    ) -> List[List[AdaptationResult]]:
        """The Static bars: one conservative configuration per core.

        Each core adapts once to the worst-case aggregate of the phase
        measurements; every (core, phase) lane is then evaluated at its
        core's configuration without adapting.
        """
        with obs.span("runner.static_config", env=env.name):
            worst = aggregate_static_measurement(list(measurements))
            pair = (worst, worst if env.queue else None)
            configs = [
                results[0].config
                for results in optimize_units_batched(
                    [(core, [pair]) for core in cores],
                    env,
                    mode=AdaptationMode.STATIC,
                )
            ]
        flat = evaluate_at_fixed_configs(
            [core for core in cores for _ in measurements],
            env,
            [config for config in configs for _ in measurements],
            list(measurements) * len(cores),
        )
        n = len(measurements)
        return [flat[i * n:(i + 1) * n] for i in range(len(cores))]

    def _to_phase_result(
        self,
        core: Core,
        env: Environment,
        mode: AdaptationMode,
        workload: WorkloadProfile,
        profile: WorkloadProfile,
        weight: float,
        result: AdaptationResult,
    ) -> PhaseResult:
        novar_perf = self.novar_performance(result.measurement)
        return PhaseResult(
            chip_id=core.chip_id,
            core_index=core.core_index,
            workload=workload.name,
            phase=profile.phases[0].name,
            weight=weight,
            environment=env.name,
            mode=mode.value,
            f_rel=result.f_core / self.calib.f_nominal,
            perf_rel=result.performance_ips / novar_perf,
            power=result.state.total_power,
            outcome=result.outcome.value,
            queue_full=result.config.technique.queue_full,
            lowslope=result.config.technique.lowslope,
        )


def summarise(results: List[PhaseResult]) -> SuiteSummary:
    """Phase-weighted means over a list of observations."""
    weights = np.array([r.weight for r in results])
    weights = weights / weights.sum()
    return SuiteSummary(
        f_rel=float(np.dot(weights, [r.f_rel for r in results])),
        perf_rel=float(np.dot(weights, [r.perf_rel for r in results])),
        power=float(np.dot(weights, [r.power for r in results])),
        results=results,
    )
