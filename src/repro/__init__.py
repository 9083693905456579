"""eval-repro: a reproduction of *EVAL: Utilizing Processors with
Variation-Induced Timing Errors* (Sarangi, Greskamp, Tiwari, Torrellas —
MICRO 2008).

Layer map (see DESIGN.md for the full inventory):

* :mod:`repro.variation` — VARIUS-style within-die variation maps.
* :mod:`repro.circuits` — alpha-power delay, leakage, dynamic power,
  ABB/ASV knobs.
* :mod:`repro.chip` — the Figure 7(b) floorplan and per-core constants.
* :mod:`repro.timing` — VATS error model and timing speculation (Eq 4-5).
* :mod:`repro.thermal` — the Eq 6-9 steady-state solver and sensors.
* :mod:`repro.microarch` — trace-driven OoO core, workloads, phases.
* :mod:`repro.mitigation` — tilt / shift / reshape techniques + area.
* :mod:`repro.ml` — the Appendix A fuzzy controllers.
* :mod:`repro.core` — environments, Freq/Power optimisation,
  high-dimensional dynamic adaptation, retuning, the runtime timeline.
* :mod:`repro.exps` — one experiment module per paper table/figure.
* :mod:`repro.exps.dse` — declarative design-space sweeps: SweepSpec →
  campaign service → Pareto/sensitivity analytics.
* :mod:`repro.workloads` — workload sources: trace ingestion,
  parameterized generation, adversarial evolution
  (``python -m repro.workloads``).
* :mod:`repro.obs` — metrics registry, span timers, JSONL event sink.
* :mod:`repro.serve` — the async campaign service (coalescing, retries,
  JSON-lines daemon; ``python -m repro.serve``).
* :mod:`repro.config` — the :class:`Settings` runtime-knob bundle.

Quickstart::

    from repro import quick_adapt

    result = quick_adapt()          # one chip, one workload, full EVAL
    print(result.f_core / 4e9)      # relative frequency, ~1.1-1.2

Observability::

    from repro import Settings, metrics_registry, span

    Settings.from_env().configure()        # logging per $EVAL_REPRO_*
    with span("my.block"):
        ...
    print(metrics_registry().to_dict())
"""

from . import obs
from .calibration import DEFAULT_CALIBRATION, Calibration
from .config import Settings
from .chip import build_chip_cores, build_core, build_novar_core, default_floorplan
from .core import (
    ADAPTIVE_ENVIRONMENTS,
    BASELINE,
    NOVAR,
    TS,
    TS_ASV,
    TS_ASV_Q_FU,
    AdaptationMode,
    AdaptationResult,
    Environment,
    optimize_phase,
    optimize_units_batched,
)
from .exps.dse import SweepSpec, pareto_front, run_sweep
from .exps.engine import RunResult, RunSpec
from .exps.runner import ExperimentRunner, RunnerConfig
from .microarch import measure_workload, spec2000_like_suite
from .mitigation import TechniqueState, area_budget
from .workloads import (
    EvolveConfig,
    WorkloadFamily,
    evolve,
    family_by_name,
    family_names,
    ingest_trace,
)
from .obs import (
    EventSink,
    MetricsRegistry,
    configure_logging,
    metrics_registry,
    span,
)
from . import variation
from .variation import VariationModel

__version__ = "1.10.0"

__all__ = [
    "ADAPTIVE_ENVIRONMENTS",
    "AdaptationMode",
    "AdaptationResult",
    "BASELINE",
    "Calibration",
    "DEFAULT_CALIBRATION",
    "Environment",
    "EventSink",
    "EvolveConfig",
    "ExperimentRunner",
    "MetricsRegistry",
    "NOVAR",
    "RunResult",
    "RunSpec",
    "RunnerConfig",
    "Settings",
    "SweepSpec",
    "TS",
    "TS_ASV",
    "TS_ASV_Q_FU",
    "TechniqueState",
    "VariationModel",
    "WorkloadFamily",
    "area_budget",
    "build_chip_cores",
    "build_core",
    "build_novar_core",
    "configure_logging",
    "default_floorplan",
    "evolve",
    "family_by_name",
    "family_names",
    "ingest_trace",
    "measure_workload",
    "metrics_registry",
    "obs",
    "optimize_phase",
    "optimize_units_batched",
    "pareto_front",
    "quick_adapt",
    "run_sweep",
    "span",
    "spec2000_like_suite",
    "variation",
]


def quick_adapt(
    workload_index: int = 0, chip_seed: int = 42
) -> AdaptationResult:
    """One-call demo: adapt one chip for one workload under TS+ASV+Q+FU."""
    from .microarch.pipeline import DEFAULT_CORE_CONFIG

    chip = VariationModel().population(1, seed=chip_seed)[0]
    core = build_core(chip, 0)
    workload = spec2000_like_suite()[workload_index]
    env = TS_ASV_Q_FU
    base_cfg = TechniqueState(domain=workload.domain).core_config(
        DEFAULT_CORE_CONFIG, replication_built=env.fu
    )
    meas_full = measure_workload(workload, base_cfg)
    meas_resized = measure_workload(
        workload, base_cfg.with_resized_queue(workload.domain)
    )
    return optimize_phase(core, env, meas_full, meas_resized)
