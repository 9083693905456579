"""One benchmark campaign in a fresh process.

``python3 perfbench/campaign.py --workload NAME --runner-seed S
--cache-dir DIR --out FILE [--mode campaign|setup] [--trace]``

Imports the program, builds an :class:`repro.ExperimentRunner` (the
set-up), runs the workload's campaign through the public API and writes
its timings, its per-cell row digests and the resolved configuration to
``FILE`` as JSON.  ``--mode setup`` stops after the set-up; on an empty
cache directory that is also how a measurement-only cache is prepared.
``--trace`` installs the :mod:`ledger` span wrappers before the set-up
and adds the per-layer ledger to the output.

``perfbench/run.py`` starts this program with a scrubbed environment; it
is not meant to be run by hand except when debugging one campaign.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

#: name -> campaign shape.  ``ladder`` is the full Fig 10-12 grid
#: (``run_ladder``); ``exh`` is Exh-Dyn alone over the six adaptive
#: environments with every phase measurement loaded during set-up.
#: ``cache`` says what the cache directory holds when the measured
#: process starts: nothing, a full cold pass, or only measurements.
WORKLOADS = {
    "fig10_cold": {"kind": "ladder", "chips": 4, "fc_examples": 1000,
                   "cache": "empty"},
    "fig10_warm": {"kind": "ladder", "chips": 4, "fc_examples": 1000,
                   "cache": "full"},
    "exh_population": {"kind": "exh", "chips": 16, "fc_examples": 1000,
                       "cache": "measurements"},
}


def _digest(summary) -> str:
    rows = [row.to_dict() for row in summary.results]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _cell(summary) -> dict:
    return {
        "digest": _digest(summary),
        "f_rel": summary.f_rel,
        "perf_rel": summary.perf_rel,
        "power": summary.power,
    }


def _configuration(settings) -> dict:
    import dataclasses

    import numpy
    import scipy

    from repro import kernels
    from repro.backend import get_backend

    backend = get_backend().name
    resolved = dataclasses.asdict(settings)
    resolved["cache_dir"] = os.path.relpath(settings.cache_dir)
    return {
        "settings": resolved,
        "backend": backend,
        "kernels": {
            name: kernels.active_impl(name, backend)
            for name in kernels.available_kernels()
        },
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": bool(kernels.NUMBA_AVAILABLE),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "threads": {
            name: os.environ.get(name)
            for name in sorted(os.environ)
            if name.endswith("_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--runner-seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("campaign", "setup"), default="campaign")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    shape = WORKLOADS[args.workload]

    import repro
    import repro.exps.__main__  # noqa: F401  - what ``python -m repro.exps`` loads
    from repro import ExperimentRunner, RunSpec, Settings, obs
    from repro.core import ADAPTIVE_ENVIRONMENTS, AdaptationMode
    from repro.exps.ladder import run_ladder

    import_s = time.perf_counter() - _T0
    tracer = None
    if args.trace:
        import ledger

        tracer = ledger.Tracer()
        ledger.install(tracer)
    root = tracer.root if tracer is not None else (lambda name: nullcontext())

    settings = Settings(
        jobs=1,
        cache_dir=args.cache_dir,
        chips=shape["chips"],
        cores=1,
        fc_examples=shape["fc_examples"],
        seed=args.runner_seed,
    ).configure()
    result = {
        "import_s": import_s,
        "config": _configuration(settings),
        "version": repro.__version__,
        "cells": {},
        "error": None,
    }

    def run_setup():
        runner = ExperimentRunner.from_settings(settings)
        if shape["kind"] == "exh":
            for env in ADAPTIVE_ENVIRONMENTS:
                for workload in runner.workloads:
                    for profile, _ in runner.phase_profiles(workload):
                        runner.measurements(profile, env)
        return runner

    def run_campaign(runner):
        if shape["kind"] == "ladder":
            ladder = run_ladder(runner, settings=settings)
            cells = {
                f"{env}|{mode}": summary
                for (env, mode), summary in ladder.entries.items()
            }
            cells["Baseline|Exh-Dyn"] = ladder.baseline
            cells["NoVar|Exh-Dyn"] = ladder.novar
            return cells
        # Measurements are already in the runner's memo; the summaries
        # must be computed, never served from (or written to) the cache.
        spec = RunSpec.from_settings(
            settings,
            environments=tuple(ADAPTIVE_ENVIRONMENTS),
            modes=(AdaptationMode.EXH_DYN,),
            use_cache=False,
        )
        return {
            f"{env}|{mode}": summary
            for (env, mode), summary in runner.run(spec).summaries.items()
        }

    start = time.perf_counter()
    with root("setup"):
        runner = run_setup()
    result["setup_s"] = time.perf_counter() - _T0
    result["runner_s"] = time.perf_counter() - start

    if args.mode == "campaign":
        start = time.perf_counter()
        try:
            with root("campaign"):
                cells = run_campaign(runner)
        except Exception as exc:  # counted as failed cells by run.py
            result["error"] = repr(exc)
            cells = {}
        result["campaign_s"] = time.perf_counter() - start
        result["cells"] = {name: _cell(summary) for name, summary in cells.items()}

    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if tracer is not None:
        counters = obs.metrics_registry().to_dict()["counters"]
        result["layers"] = ledger.layer_metrics(
            tracer, counters, import_s, result.get("campaign_s", 0.0)
        )
        result["calls"] = ledger.layer_calls(tracer, counters)
        result["missing"] = tracer.missing
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
