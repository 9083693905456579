"""Per-layer span ledger, installed from outside the program.

The benchmark traces the program without touching it: :func:`install`
replaces each layer's public function *in the module that calls it*
(``repro.exps.runner.measure_suite_batched``, ``repro.ml.bank.
train_fuzzy_controller``, ...) with a wrapper that opens a span.  A span
records its layer, its duration and the time covered by its child spans,
so a layer's *self time* is its spans' duration minus their children.
Nested work is therefore attributed to the innermost layer: optimizer
sweeps run while labelling a fuzzy-bank dataset count as optimizer time,
thermal solves run inside ``core.state`` count as thermal time.

Spans are grouped under a *root* (``setup`` or ``campaign``) opened by
the campaign program; the root's own self time is the engine's share
(``engine.self_s`` for the campaign root).  Counts that the program
already keeps (cache hits, optimizer candidates, kernel calls) are read
from its ``repro.obs`` registry instead of being re-counted here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Every layer the ledger knows, in report order.
LAYERS = (
    "variation",
    "microarch",
    "ml.dataset",
    "ml.training",
    "ml.inference",
    "optimizer",
    "thermal",
    "state",
    "adaptation",
    "retuning",
    "timeline",
    "cache.load",
    "cache.save",
)

#: (layer, module, attribute) — the name is patched in the module that
#: *calls* it, because ``from x import f`` copies the binding.  A dotted
#: attribute is a method patched on its class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("variation", "repro.variation.population", "VariationModel.population"),
    ("microarch", "repro.exps.runner", "measure_suite_batched"),
    ("microarch", "repro.microarch.simulator", "simulate_batch"),
    ("ml.dataset", "repro.ml.bank", "generate_training_datasets"),
    ("ml.training", "repro.ml.bank", "train_fuzzy_controller"),
    ("ml.inference", "repro.ml.bank", "ControllerBank.predict_fmax"),
    ("ml.inference", "repro.ml.bank", "ControllerBank.predict_voltages"),
    ("optimizer", "repro.core.adaptation", "freq_algorithm"),
    ("optimizer", "repro.core.adaptation", "power_algorithm"),
    ("optimizer", "repro.ml.dataset", "freq_algorithm"),
    ("optimizer", "repro.ml.dataset", "power_algorithm"),
    ("thermal", "repro.core.optimizer", "_thermal_fixed_point"),
    ("thermal", "repro.core.state", "solve_temperatures"),
    ("thermal", "repro.core.state", "solve_temperatures_lanes"),
    ("state", "repro.core.adaptation", "evaluate_configuration"),
    ("state", "repro.core.adaptation", "evaluate_configurations"),
    ("state", "repro.core.retuning", "evaluate_configuration"),
    ("state", "repro.core.retuning", "evaluate_configurations"),
    ("state", "repro.exps.runner", "evaluate_configuration"),
    ("adaptation", "repro.exps.runner", "optimize_units_batched"),
    ("adaptation", "repro.exps.runner", "optimize_phases_batched"),
    ("adaptation", "repro.exps.runner", "optimize_phase"),
    ("adaptation", "repro.exps.runner", "evaluate_at_fixed_config"),
    ("retuning", "repro.core.adaptation", "retune"),
    ("retuning", "repro.core.adaptation", "retune_batched"),
    ("timeline", "repro.core.timeline", "run_timeline"),
    ("timeline", "repro.core.timeline", "run_timelines_batched"),
    ("timeline", "repro.core", "run_timeline"),
    ("cache.load", "repro.exps.cache", "ExperimentCache.load_measurement"),
    ("cache.load", "repro.exps.cache", "ExperimentCache.load_bank"),
    ("cache.load", "repro.exps.cache", "ExperimentCache.load_factor"),
    ("cache.load", "repro.exps.cache", "ExperimentCache.load_summary"),
    ("cache.save", "repro.exps.cache", "ExperimentCache.save_measurement"),
    ("cache.save", "repro.exps.cache", "ExperimentCache.save_bank"),
    ("cache.save", "repro.exps.cache", "ExperimentCache.save_factor"),
    ("cache.save", "repro.exps.cache", "ExperimentCache.save_summary"),
)

#: The largest share of ``campaign_s`` that the campaign root's layer
#: self times plus ``engine.self_s`` may miss or over-count.
RESIDUAL_BOUND = 0.01

KERNELS = ("vt_and_static_power", "thermal_step", "timing_error_cdf")


class Tracer:
    """Span stack and per-(root, layer) totals for one process."""

    def __init__(self) -> None:
        self._stack: List[List[Any]] = []  # [layer, start, child_seconds]
        self._root = "other"
        self.self_s: Dict[Tuple[str, str], float] = {}
        self.calls: Dict[str, int] = {}
        self.work: Dict[str, float] = {}
        self.missing: List[str] = []

    def add_work(self, name: str, amount: float) -> None:
        self.work[name] = self.work.get(name, 0.0) + amount

    def _close(self, layer: str, start: float, child: float) -> None:
        elapsed = time.perf_counter() - start
        key = (self._root, layer)
        self.self_s[key] = self.self_s.get(key, 0.0) + elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        account: Optional[Callable[[inspect.BoundArguments], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span of ``layer``; ``account`` sees its args."""
        stack = self._stack
        signature = inspect.signature(fn) if account is not None else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.calls[layer] = self.calls.get(layer, 0) + 1
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                account(bound)
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self._close(layer, frame[1], frame[2])

        return wrapper

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Group the spans opened in this block under root ``name``.

        The root's own self time is recorded under the layer ``"root"``.
        """
        if self._stack:
            raise RuntimeError("a root span must not be nested")
        self._root = name
        frame = ["root", time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            self._close("root", frame[1], frame[2])
            self._root = "other"

    def layer_self(self, layer: str, root: Optional[str] = None) -> float:
        """Self seconds of ``layer`` under ``root`` (all roots if None)."""
        return sum(
            (
                value
                for (r, name), value in self.self_s.items()
                if name == layer and (root is None or r == root)
            ),
            0.0,
        )


def _accounting(tracer: Tracer) -> Dict[Tuple[str, str], Callable]:
    """Work counters that the program does not keep itself."""

    def simulated(bound: inspect.BoundArguments) -> None:
        variants = len(bound.arguments["variants"])
        tracer.add_work("microarch.variants", variants)
        tracer.add_work(
            "microarch.instructions", variants * len(bound.arguments["trace"])
        )

    def labelled(bound: inspect.BoundArguments) -> None:
        tracer.add_work(
            "ml.label_examples",
            sum(request.n_examples for request in bound.arguments["requests"]),
        )

    def trained(bound: inspect.BoundArguments) -> None:
        tracer.add_work(
            "ml.train_examples",
            len(bound.arguments["inputs"]) * max(1, bound.arguments["epochs"]),
        )

    return {
        ("repro.microarch.simulator", "simulate_batch"): simulated,
        ("repro.ml.bank", "generate_training_datasets"): labelled,
        ("repro.ml.bank", "train_fuzzy_controller"): trained,
    }


def install(tracer: Tracer) -> None:
    """Wrap every :data:`TARGETS` entry that exists in this program.

    A target the program no longer has is listed in ``tracer.missing``
    rather than failing the run; the coverage check then decides whether
    its layer still records the calls it must.
    """
    accounting = _accounting(tracer)
    for layer, module_name, attribute in TARGETS:
        module = importlib.import_module(module_name)
        owner: Any = module
        name = attribute
        if "." in attribute:
            class_name, name = attribute.split(".", 1)
            owner = getattr(module, class_name, None)
        fn = getattr(owner, name, None) if owner is not None else None
        if fn is None:
            tracer.missing.append(f"{module_name}.{attribute}")
            continue
        setattr(
            owner,
            name,
            tracer.wrap(layer, fn, accounting.get((module_name, attribute))),
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0.0 else 0.0


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, float],
    import_s: float,
    campaign_s: float,
) -> Dict[str, float]:
    """The per-layer metric values of one traced campaign process.

    ``counters`` is the ``counters`` block of the program's metrics
    registry; times are self seconds summed over setup and campaign.
    """

    def count(name: str) -> float:
        return float(counters.get(name, 0.0))

    self_s = tracer.layer_self
    engine_s = tracer.layer_self("root", "campaign")
    campaign_layers = sum(tracer.layer_self(layer, "campaign") for layer in LAYERS)
    metrics = {
        "setup.import_s": import_s,
        "variation.population_s": self_s("variation"),
        "variation.factor.hits": count("variation.factor.hits"),
        "variation.factor.misses": count("variation.factor.misses"),
        "microarch.self_s": self_s("microarch"),
        "microarch.calls": float(tracer.calls.get("microarch", 0)),
        "microarch.variants": tracer.work.get("microarch.variants", 0.0),
        "microarch.inst_per_s": _ratio(
            tracer.work.get("microarch.instructions", 0.0), self_s("microarch")
        ),
        "microarch.cache.hits": count("microarch.cache.hits"),
        "microarch.cache.misses": count("microarch.cache.misses"),
        "runner.measure_memo_hits": count("runner.measure_memo_hits"),
        "runner.measure_memo_misses": count("runner.measure_memo_misses"),
        "ml.label_s": self_s("ml.dataset"),
        "ml.label_examples": tracer.work.get("ml.label_examples", 0.0),
        "ml.train_s": self_s("ml.training"),
        "ml.fcs_trained": count("ml.fcs_trained"),
        "ml.train_examples_per_s": _ratio(
            tracer.work.get("ml.train_examples", 0.0), self_s("ml.training")
        ),
        "ml.infer_s": self_s("ml.inference"),
        "ml.inference_calls": count("ml.inference_calls"),
        "optimizer.self_s": self_s("optimizer"),
        "optimizer.freq_calls": count("optimizer.freq_calls"),
        "optimizer.power_calls": count("optimizer.power_calls"),
        "optimizer.candidates": count("optimizer.candidates"),
        "optimizer.candidates_per_s": _ratio(
            count("optimizer.candidates"), self_s("optimizer")
        ),
        "optimizer.reject_ratio": _ratio(
            count("optimizer.constraint_rejections"), count("optimizer.candidates")
        ),
    }
    for kernel in KERNELS:
        metrics[f"kernel.{kernel}.calls"] = count(f"kernel.{kernel}.calls")
        metrics[f"kernel.{kernel}.ns"] = count(f"kernel.{kernel}.ns")
    metrics.update({
        "thermal.self_s": self_s("thermal"),
        "thermal.solves": count("thermal.solves"),
        "state.self_s": self_s("state"),
        "adaptation.self_s": self_s("adaptation"),
        "retuning.self_s": self_s("retuning"),
        "retuning.calls": float(tracer.calls.get("retuning", 0)),
        "timeline.calls": float(tracer.calls.get("timeline", 0)),
        "cache.load_s": self_s("cache.load"),
        "cache.save_s": self_s("cache.save"),
        "cache.bytes_written": count("cache.bytes_written"),
    })
    for kind in ("measurement", "bank", "summary", "factor"):
        metrics[f"cache.{kind}.hits"] = count(f"cache.{kind}.hits")
        metrics[f"cache.{kind}.misses"] = count(f"cache.{kind}.misses")
    metrics["engine.self_s"] = engine_s
    metrics["trace.residual_frac"] = _ratio(
        abs(campaign_s - campaign_layers - engine_s), campaign_s
    )
    return metrics


def layer_calls(tracer: Tracer, counters: Dict[str, float]) -> Dict[str, int]:
    """Calls per layer; ``kernels`` comes from the registry's counters."""
    calls = {layer: tracer.calls.get(layer, 0) for layer in LAYERS}
    calls["kernels"] = int(
        sum(counters.get(f"kernel.{kernel}.calls", 0.0) for kernel in KERNELS)
    )
    return calls


def check_coverage(
    calls: Dict[str, int], required: Tuple[str, ...], forbidden: Tuple[str, ...]
) -> List[str]:
    """Disagreements between the recorded calls and a workload's plan."""
    problems = []
    for layer in required:
        if calls.get(layer, 0) == 0:
            problems.append(f"layer {layer} recorded no calls but must")
    for layer in forbidden:
        if calls.get(layer, 0) != 0:
            problems.append(
                f"layer {layer} recorded {calls[layer]} calls but must record none"
            )
    return problems
