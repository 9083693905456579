"""Workload measurement harness: what the controller senses per phase.

For every (workload-phase, core-configuration) pair the EVAL optimiser
needs the Eq 5 ingredients: ``CPIcomp``, the L2 miss rate ``mr``, the
observed overlap between misses and computation, and the per-subsystem
activity factors.  This module runs the pipeline model (twice: once as-is
and once with L2 misses suppressed, to split computation from memory
stalls) and caches results, since the same measurements are reused across
the 100-chip Monte Carlo population.

The in-process cache is a bounded LRU keyed on the profile's canonical
:meth:`~repro.microarch.workloads.WorkloadProfile.content_hash`, so
structurally identical profiles — suite members, inline specs, evolved
workloads — share entries regardless of how they were constructed, and a
long campaign over generated workloads cannot grow the cache without
bound.  ``microarch.cache.{hits,misses,evictions}`` counters expose its
behaviour.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..chip.floorplan import Floorplan, default_floorplan
from .activity import activity_factors, rho_vector
from .pipeline import DEFAULT_CORE_CONFIG, CoreConfig, simulate_batch
from .trace import generate_trace
from .workloads import WorkloadProfile


@dataclass(frozen=True)
class WorkloadMeasurement:
    """Eq 5 inputs plus sensed activity for one workload-phase."""

    name: str
    phase: str
    domain: str
    cpi_comp: float
    cpi_total: float  # at nominal frequency, for reference
    l2_miss_rate: float  # misses per instruction (``mr``)
    overlap_factor: float  # fraction of miss latency NOT hidden
    activity: np.ndarray  # alpha_f per subsystem, canonical order
    rho: np.ndarray  # accesses per instruction per subsystem
    ipc: float

    def __post_init__(self) -> None:
        if self.cpi_comp <= 0.0:
            raise ValueError("cpi_comp must be positive")


def _profile_key(profile: WorkloadProfile) -> str:
    """Cache identity of a profile: its canonical content hash.

    Hashing the wire document (rather than an ad-hoc field tuple) means
    equal-content profiles alias the same entry wherever they came from,
    and a future profile field can never be silently dropped from the
    key — ``to_wire`` is the single canonical serialisation.
    """
    return profile.content_hash()


#: LRU capacity of the measurement cache (entries, not bytes).  Large
#: enough for every (workload-phase, config) pair of a figure-10 style
#: campaign; small enough that generated-workload sweeps stay bounded.
MEASUREMENT_CACHE_CAPACITY = 4096

_CACHE: "OrderedDict[Tuple, WorkloadMeasurement]" = OrderedDict()
_CACHE_CAPACITY: int = MEASUREMENT_CACHE_CAPACITY
_DEFAULT_FLOORPLAN: "list" = []


def _default_floorplan_singleton() -> Floorplan:
    if not _DEFAULT_FLOORPLAN:
        _DEFAULT_FLOORPLAN.append(default_floorplan())
    return _DEFAULT_FLOORPLAN[0]


def clear_measurement_cache() -> None:
    """Drop all cached measurements (used by tests)."""
    _CACHE.clear()


def set_measurement_cache_capacity(capacity: int) -> int:
    """Set the LRU cap (returns the previous value; tests shrink it)."""
    global _CACHE_CAPACITY
    if capacity < 1:
        raise ValueError("cache capacity must be >= 1")
    previous = _CACHE_CAPACITY
    _CACHE_CAPACITY = int(capacity)
    _evict()
    return previous


def measurement_cache_len() -> int:
    """Current number of cached measurements."""
    return len(_CACHE)


def _evict() -> None:
    evicted = 0
    while len(_CACHE) > _CACHE_CAPACITY:
        _CACHE.popitem(last=False)
        evicted += 1
    if evicted:
        obs.inc("microarch.cache.evictions", float(evicted))


def _cache_get(key: Tuple) -> Optional[WorkloadMeasurement]:
    """LRU lookup; every access touches all three cache counters so the
    serial and parallel engine paths stay structurally comparable."""
    measurement = _CACHE.get(key)
    if measurement is not None:
        _CACHE.move_to_end(key)
    obs.inc("microarch.cache.hits", 1.0 if measurement is not None else 0.0)
    obs.inc("microarch.cache.misses", 0.0 if measurement is not None else 1.0)
    obs.inc("microarch.cache.evictions", 0.0)
    return measurement


def _cache_put(key: Tuple, measurement: WorkloadMeasurement) -> None:
    _CACHE[key] = measurement
    _CACHE.move_to_end(key)
    _evict()


def measure_workload(
    profile: WorkloadProfile,
    config: CoreConfig = DEFAULT_CORE_CONFIG,
    n_instructions: int = 12000,
    seed: int = 0,
    floorplan: Optional[Floorplan] = None,
    mem_latency_cycles: Optional[int] = None,
) -> WorkloadMeasurement:
    """Measure one workload-phase on one core configuration (cached).

    Args:
        profile: Workload (or phase-specialised workload) profile.
        config: Core configuration (queue sizes, extra stage, ...).
        n_instructions: Trace length; 12k instructions is enough for CPI
            to stabilise within ~1%.
        seed: Trace RNG seed.
        floorplan: Floorplan for activity extraction (default Fig 7(b)).
        mem_latency_cycles: Override of the L2-miss round trip used to
            derive the overlap factor (defaults to the config's).
    """
    return measure_suite_batched(
        [(profile, config)], n_instructions, seed, floorplan, mem_latency_cycles
    )[0]


def measure_suite_batched(
    requests: Sequence[Tuple[WorkloadProfile, CoreConfig]],
    n_instructions: int = 12000,
    seed: int = 0,
    floorplan: Optional[Floorplan] = None,
    mem_latency_cycles: Optional[int] = None,
) -> List[WorkloadMeasurement]:
    """Measure many (profile, config) pairs, one trace per profile.

    Each distinct profile generates its trace once, and all of its
    configuration variants (full and L2-suppressed) go through one
    :func:`~repro.microarch.pipeline.simulate_batch` call, with the
    CPI/overlap extraction applied per variant afterwards.  Returns the
    measurements in request order; each is the one
    :func:`measure_workload` returns for its request alone.
    """
    floorplan = floorplan or _default_floorplan_singleton()
    floorplan_names = tuple(floorplan.names)
    requests = list(requests)
    out: List[Optional[WorkloadMeasurement]] = [None] * len(requests)
    missing: "OrderedDict[Tuple, List[int]]" = OrderedDict()
    for index, (profile, config) in enumerate(requests):
        key = (
            _profile_key(profile),
            config,
            n_instructions,
            seed,
            floorplan_names,
        )
        cached = _cache_get(key)
        if cached is not None:
            out[index] = cached
        else:
            missing.setdefault(key, []).append(index)

    # One trace per distinct profile; all of its config variants share
    # the walk.
    by_trace: "OrderedDict[str, List[Tuple]]" = OrderedDict()
    for key, indices in missing.items():
        profile, config = requests[indices[0]]
        by_trace.setdefault(key[0], []).append((key, profile, config))

    for group in by_trace.values():
        profile = group[0][1]
        trace = generate_trace(profile, n_instructions, seed)
        variants: List[Tuple[CoreConfig, bool]] = []
        for _, _, config in group:
            variants.append((config, False))
            variants.append((config, True))
        sims = simulate_batch(trace, variants)

        mr = trace.l2_misses_per_instruction
        rho = rho_vector(trace, floorplan)
        for slot, (key, prof, config) in enumerate(group):
            full = sims[2 * slot]
            comp = sims[2 * slot + 1]
            latency = mem_latency_cycles or config.mem_latency
            if mr > 0.0:
                overlap = (full.cpi - comp.cpi) / (mr * latency)
                overlap = float(np.clip(overlap, 0.05, 1.0))
            else:
                overlap = 1.0  # irrelevant: no misses
            measurement = WorkloadMeasurement(
                name=prof.name,
                phase=prof.phases[0].name if prof.phases else "",
                domain=prof.domain,
                cpi_comp=comp.cpi,
                cpi_total=full.cpi,
                l2_miss_rate=mr,
                overlap_factor=overlap,
                activity=activity_factors(trace, full, floorplan),
                rho=rho,
                ipc=full.ipc,
            )
            _cache_put(key, measurement)
            for index in missing[key]:
                out[index] = measurement
    return out


def measure_suite(
    profiles,
    config: CoreConfig = DEFAULT_CORE_CONFIG,
    n_instructions: int = 12000,
    seed: int = 0,
):
    """Measure a list of profiles; returns them in input order.

    Routed through :func:`measure_suite_batched` so a cold suite costs
    one trace walk per profile instead of two simulations each; results
    are bit-identical to the per-profile path.
    """
    return measure_suite_batched(
        [(profile, config) for profile in profiles], n_instructions, seed
    )
