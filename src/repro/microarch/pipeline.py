"""Trace-driven out-of-order core timing model.

A one-pass timing simulation of a 3-issue out-of-order core in the style
of the paper's AMD-Athlon-64-like cores (Section 5): separate integer /
FP / memory issue queues (the int and FP queues are the resizable
structures of Section 3.3.2), a small set of functional units (the
replicable structures of Section 3.3.1), a ROB, and a non-blocking memory
hierarchy with the paper's 2/8/208-cycle round trips.

The model walks the trace once, computing for every instruction its
dispatch, issue, completion and retirement cycles under:

* fetch/issue/retire bandwidth,
* register dependences (from the trace's dependence distances),
* issue-queue / ROB occupancy (an instruction cannot dispatch while its
  queue is full — this is what makes CPI sensitive to queue downsizing),
* functional-unit structural hazards,
* branch-misprediction flushes (resolve-to-refetch loop), and
* cache misses (loads hold their dependents, not the pipeline).

This is the standard "interval" style of approximation: not
cycle-faithful to any RTL, but it reproduces the relative CPI effects the
paper's adaptation decisions depend on (queue size, extra execute stage,
memory-boundedness).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .isa import Uop
from .trace import SyntheticTrace


@dataclass(frozen=True)
class CoreConfig:
    """Micro-architectural parameters of the simulated core."""

    fetch_width: int = 3
    issue_width: int = 3
    retire_width: int = 3
    int_queue_size: int = 68  # Figure 7(a): full-sized integer issue queue
    fp_queue_size: int = 32  # Figure 7(a): full-sized FP issue queue
    mem_queue_size: int = 48
    rob_size: int = 160
    n_int_alu: int = 3  # Figure 7(a): 3 add/shift
    n_int_mul: int = 1  # ... + 1 mult
    n_fp_add: int = 1
    n_fp_mul: int = 1
    n_mem_ports: int = 2
    frontend_depth: int = 8
    branch_penalty: int = 6  # redirect cycles after resolve
    extra_exec_stage: int = 0  # FU-replication pipeline stage (Sec 3.3.1)
    l1_latency: int = 3
    l2_latency: int = 12
    mem_latency: int = 208
    #: Fraction of L2 misses a (stride) prefetcher converts into L2 hits.
    #: 0 disables prefetching (the paper's configuration); the ablation
    #: benches use it to study memory-boundedness sensitivity.
    prefetch_accuracy: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "fetch_width",
            "issue_width",
            "retire_width",
            "int_queue_size",
            "fp_queue_size",
            "mem_queue_size",
            "rob_size",
            "n_int_alu",
            "n_int_mul",
            "n_fp_add",
            "n_fp_mul",
            "n_mem_ports",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in (
            "frontend_depth",
            "branch_penalty",
            "extra_exec_stage",
            "l1_latency",
            "l2_latency",
            "mem_latency",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if not 0.0 <= self.prefetch_accuracy <= 1.0:
            raise ValueError("prefetch_accuracy must be in [0, 1]")

    def with_resized_queue(self, domain: str, fraction: float = 0.75) -> "CoreConfig":
        """Return a config with the int or FP issue queue downsized.

        This is the Shift technique's CPI side: e.g. ``fraction=0.75``
        models the paper's 3/4-capacity configuration.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if domain == "int":
            return replace(
                self, int_queue_size=max(1, int(self.int_queue_size * fraction))
            )
        if domain == "fp":
            return replace(
                self, fp_queue_size=max(1, int(self.fp_queue_size * fraction))
            )
        raise ValueError("domain must be 'int' or 'fp'")

    def with_fu_replication(self) -> "CoreConfig":
        """Return a config with the extra execute stage of Section 3.3.1."""
        return replace(self, extra_exec_stage=1)


DEFAULT_CORE_CONFIG = CoreConfig()


@dataclass(frozen=True)
class SimResult:
    """Aggregate outcome of one pipeline simulation."""

    instructions: int
    cycles: int
    kind_counts: Dict[int, int]
    l1_misses: int
    l2_misses: int
    branch_flushes: int
    int_queue_waits: int  # dispatches delayed by a full int queue
    fp_queue_waits: int

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        return self.cycles / self.instructions

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles


# Per-kind decode tables, indexed by ``Uop`` code (INT_ALU, INT_MUL,
# FP_ADD, FP_MUL, LOAD, STORE, BRANCH): the issue queue (0 int, 1 fp,
# 2 mem), the functional-unit group (0 int_alu, 1 int_mul, 2 fp_add,
# 3 fp_mul, 4 mem) and the execute latency (``None``: the config's L1
# latency, for loads; misses add more).
_QUEUE_ID = (0, 0, 1, 1, 2, 2, 0)
_FU_GROUP_ID = (0, 1, 2, 3, 4, 4, 0)
_EXEC_LATENCY = (1, 3, 4, 4, None, 1, 1)
_QUEUE_INT, _QUEUE_FP = 0, 1


@dataclass(frozen=True)
class _DecodedTrace:
    """A trace as plain int lists, decoded once and shared by variants.

    ``mem_event`` is 0 (no miss or not a memory op), 1 (L1 miss that hits
    in L2) or 2 (L2 miss); ``flush`` marks mispredicted branches.
    """

    kinds: List[int]
    dep1: List[int]
    dep2: List[int]
    mem_event: List[int]
    icache_miss: List[bool]
    flush: List[bool]
    kind_counts: Dict[int, int]

    @classmethod
    def of(cls, trace: SyntheticTrace) -> "_DecodedTrace":
        kinds = np.asarray(trace.kinds)
        is_mem = (kinds == int(Uop.LOAD)) | (kinds == int(Uop.STORE))
        misses_l1 = is_mem & trace.l1_miss.astype(bool)
        misses_l2 = misses_l1 & trace.l2_miss.astype(bool)
        flush = (kinds == int(Uop.BRANCH)) & trace.branch_mispredict.astype(bool)
        kind_list = kinds.tolist()
        return cls(
            kinds=kind_list,
            dep1=trace.dep1.tolist(),
            dep2=trace.dep2.tolist(),
            mem_event=(misses_l1.astype(np.int64) + misses_l2).tolist(),
            icache_miss=trace.icache_miss.astype(bool).tolist(),
            flush=flush.tolist(),
            kind_counts=dict(Counter(kind_list)),
        )


def simulate(
    trace: SyntheticTrace,
    config: CoreConfig = DEFAULT_CORE_CONFIG,
    *,
    suppress_l2_misses: bool = False,
) -> SimResult:
    """Run the timing model over a trace and return aggregate results.

    Args:
        trace: The synthetic instruction trace.
        config: Core configuration.
        suppress_l2_misses: Treat L2 misses as L2 hits.  Running the model
            twice (with and without) separates ``CPIcomp`` from the memory
            stall term of Eq 5.
    """
    return simulate_batch(trace, [(config, suppress_l2_misses)])[0]


def simulate_batch(
    trace: SyntheticTrace,
    variants: Sequence[Tuple[CoreConfig, bool]],
) -> List[SimResult]:
    """Run K independent ``(config, suppress_l2_misses)`` variants of one
    trace.

    The trace is decoded once into plain int lists; each variant then
    runs the whole trace through :func:`_run_variant`, so result ``k``
    depends only on ``variants[k]`` and
    ``simulate_batch(trace, vs)[k] == simulate_batch(trace, [vs[k]])[0]``.
    """
    if not variants:
        return []
    decoded = _DecodedTrace.of(trace)
    return [
        _run_variant(decoded, config, suppress) for config, suppress in variants
    ]


def _run_variant(
    decoded: _DecodedTrace, config: CoreConfig, suppress: bool
) -> SimResult:
    """The timing model: one in-order walk of the trace for one config.

    Loop-carried state lives in locals only.  The walk relies on these
    invariants of the model:

    * fetch cycles never decrease (``fetch_ready`` only rises), so the
      per-cycle fetch count is one ``(cycle, count)`` pair;
    * exactly ``i`` instructions have retired before instruction ``i``,
      so the ROB and retire-width blockers are ``retire[-rob_size]`` and
      ``retire[-retire_width]`` of an appended list, pre-padded with
      ``-1`` (every cycle is >= 0, so padding never blocks); the issue
      queue logs are padded the same way;
    * a unit's free cycle does not change while an instruction looks for
      an issue slot, so the issue cycle is the first cycle at or after
      ``max(ready, min(units))`` with a free issue slot, taken on the
      first least-busy unit;
    * no reachable issue cycle exceeds ``max(ready, last_issue + 1)``, so
      per-cycle issue counts fit a list grown on demand past both.
    """
    n = len(decoded.kinds)
    fetch_width = config.fetch_width
    issue_width = config.issue_width
    l2_latency = config.l2_latency
    mem_latency = config.mem_latency
    frontend = config.frontend_depth + config.extra_exec_stage
    redirect_delay = config.branch_penalty + config.extra_exec_stage
    prefetching = config.prefetch_accuracy > 0.0
    prefetch_cut = config.prefetch_accuracy * 1000
    units_of_group = (
        [0] * config.n_int_alu,
        [0] * config.n_int_mul,
        [0] * config.n_fp_add,
        [0] * config.n_fp_mul,
        [0] * config.n_mem_ports,
    )
    queue_sizes = (config.int_queue_size, config.fp_queue_size, config.mem_queue_size)
    # Issue times of previously dispatched, same-queue instructions, in
    # dispatch order (FIFO occupancy approximation).
    queue_logs = tuple([-1] * size for size in queue_sizes)
    # Per-kind record: (queue id, queue log, queue size, FU units,
    # single-unit group, execute latency).
    records = []
    for queue, group, latency in zip(_QUEUE_ID, _FU_GROUP_ID, _EXEC_LATENCY):
        units = units_of_group[group]
        records.append((
            queue,
            queue_logs[queue],
            queue_sizes[queue],
            units,
            len(units) == 1,
            config.l1_latency if latency is None else latency,
        ))
    rob_size = config.rob_size
    retire_width = config.retire_width
    retire = [-1] * max(rob_size, retire_width)

    completion = [0] * n
    issued = [0] * (4 * n + 64)  # issue count per cycle, grown on demand
    capacity = len(issued)
    fetch_ready = 0  # earliest cycle the next instruction may fetch
    fetch_cycle = -1  # the latest cycle anything was fetched in ...
    fetch_count = 0  # ... and how many instructions it fetched
    last = 0  # retire cycle of the previous instruction
    l1_misses = l2_misses = branch_flushes = 0
    int_queue_waits = fp_queue_waits = 0

    for i, kind, d1, d2, event, icache, flush in zip(
        range(n), decoded.kinds, decoded.dep1, decoded.dep2,
        decoded.mem_event, decoded.icache_miss, decoded.flush,
    ):
        queue, log, qsize, units, single, latency = records[kind]

        # ---------------- fetch ----------------
        t = fetch_ready
        if icache:
            # Instruction fetch stalls for an L2 refill of the I-line.
            t += l2_latency
        if t != fetch_cycle:
            fetch_cycle = t
            fetch_count = 1
        elif fetch_count < fetch_width:
            fetch_count += 1
        else:
            t += 1
            fetch_cycle = t
            fetch_count = 1
        fetch_ready = t

        # ---------------- dispatch (rename + queue entry) --------------
        ready = t + frontend
        # ROB occupancy: the (i - rob_size)-th instruction must retire.
        blocker = retire[-rob_size]
        if blocker > ready:
            ready = blocker
        # Issue-queue occupancy: the (qsize)-th previous entry must issue.
        blocker = log[-qsize]
        if blocker > ready:
            ready = blocker
            if queue == _QUEUE_INT:
                int_queue_waits += 1
            elif queue == _QUEUE_FP:
                fp_queue_waits += 1

        # ---------------- issue ----------------
        if d1:
            done = completion[i - d1]
            if done > ready:
                ready = done
        if d2:
            done = completion[i - d2]
            if done > ready:
                ready = done
        free = units[0] if single else min(units)
        t = free if free > ready else ready
        if t >= capacity:
            issued.extend([0] * (t - capacity + 1 + capacity // 2))
            capacity = len(issued)
        while issued[t] >= issue_width:
            t += 1
        issued[t] += 1
        if t + 1 >= capacity:
            issued.extend([0] * (capacity // 2 + 1))
            capacity = len(issued)
        # Fully pipelined units (initiation interval 1).
        if single:
            units[0] = t + 1
        else:
            units[units.index(free)] = t + 1
        log.append(t)

        # ---------------- execute / memory ----------------
        if event:
            l1_misses += 1
            covered = prefetching and (i * 2654435761) % 1000 < prefetch_cut
            if event == 2 and not suppress and not covered:
                l2_misses += 1
                latency += mem_latency
            else:
                latency += l2_latency
        done = t + latency
        completion[i] = done

        # ---------------- branch misprediction ----------------
        if flush:
            branch_flushes += 1
            redirect = done + redirect_delay
            if redirect > fetch_ready:
                fetch_ready = redirect

        # ---------------- retire (in order) ----------------
        if last > done:
            done = last
        # Retire-width: the retire slot frees when the instruction
        # retire_width places earlier has retired.
        slot = retire[-retire_width] + 1
        if slot > done:
            done = slot
        retire.append(done)
        last = done

    return SimResult(
        instructions=n,
        cycles=last + 1,
        kind_counts=dict(decoded.kind_counts),
        l1_misses=l1_misses,
        l2_misses=l2_misses,
        branch_flushes=branch_flushes,
        int_queue_waits=int_queue_waits,
        fp_queue_waits=fp_queue_waits,
    )
