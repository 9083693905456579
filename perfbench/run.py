"""The repository benchmark: Fig 10 campaigns, cold and warm, and an
Exh-Dyn population, timed from outside the program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig10_cold --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

Each measured campaign runs in a fresh process (``perfbench/campaign.py``)
with every inherited ``EVAL_REPRO_*`` variable removed, ``jobs=1`` and
one BLAS/OpenMP thread.  The workload seed picks one of
:data:`RUNNER_SEEDS` as the runner's population seed; every cell's rows
are compared, exactly, with the golden rows recorded for that seed in
``perfbench/golden/``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` adds one traced campaign and prints the per-layer ledger
(see ``perfbench/README.md``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH))

from campaign import WORKLOADS  # noqa: E402
from ledger import RESIDUAL_BOUND, check_coverage  # noqa: E402

#: Runner (population) seeds with recorded golden rows; ``--seed n``
#: selects ``RUNNER_SEEDS[n % len(RUNNER_SEEDS)]``.
RUNNER_SEEDS = (7, 8, 9, 10)

#: Workloads sharing one set of golden rows: a warm pass must reproduce
#: the cold pass exactly.
GOLDEN = {
    "fig10_cold": "fig10",
    "fig10_warm": "fig10",
    "exh_population": "exh_population",
}

#: Per workload: layers that must record calls in the traced campaign,
#: and layers that must record none.  ``timeline`` is in neither: no
#: campaign path calls it, and the report lists it as never called.
COVERAGE = {
    "fig10_cold": (
        ("variation", "microarch", "ml.dataset", "ml.training", "ml.inference",
         "optimizer", "kernels", "thermal", "state", "adaptation", "retuning",
         "cache.load", "cache.save"),
        (),
    ),
    "fig10_warm": (
        ("variation", "cache.load"),
        ("microarch", "ml.dataset", "ml.training", "ml.inference", "optimizer",
         "kernels", "thermal", "state", "adaptation", "retuning", "cache.save"),
    ),
    "exh_population": (
        ("variation", "optimizer", "kernels", "thermal", "state", "adaptation",
         "retuning", "cache.load"),
        ("microarch", "ml.dataset", "ml.training", "ml.inference", "cache.save"),
    ),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "campaign_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run, with units (see ledger.py).
PER_LAYER = {
    "setup.import_s": "s",
    "variation.population_s": "s",
    "variation.factor.hits": "count",
    "variation.factor.misses": "count",
    "microarch.self_s": "s",
    "microarch.calls": "count",
    "microarch.variants": "count",
    "microarch.inst_per_s": "1/s",
    "microarch.cache.hits": "count",
    "microarch.cache.misses": "count",
    "runner.measure_memo_hits": "count",
    "runner.measure_memo_misses": "count",
    "ml.label_s": "s",
    "ml.label_examples": "count",
    "ml.train_s": "s",
    "ml.fcs_trained": "count",
    "ml.train_examples_per_s": "1/s",
    "ml.infer_s": "s",
    "ml.inference_calls": "count",
    "optimizer.self_s": "s",
    "optimizer.freq_calls": "count",
    "optimizer.power_calls": "count",
    "optimizer.candidates": "count",
    "optimizer.candidates_per_s": "1/s",
    "optimizer.reject_ratio": "ratio",
    "kernel.vt_and_static_power.calls": "count",
    "kernel.vt_and_static_power.ns": "ns",
    "kernel.thermal_step.calls": "count",
    "kernel.thermal_step.ns": "ns",
    "kernel.timing_error_cdf.calls": "count",
    "kernel.timing_error_cdf.ns": "ns",
    "thermal.self_s": "s",
    "thermal.solves": "count",
    "state.self_s": "s",
    "adaptation.self_s": "s",
    "retuning.self_s": "s",
    "retuning.calls": "count",
    "timeline.calls": "count",
    "cache.load_s": "s",
    "cache.save_s": "s",
    "cache.bytes_written": "B",
    "cache.measurement.hits": "count",
    "cache.measurement.misses": "count",
    "cache.bank.hits": "count",
    "cache.bank.misses": "count",
    "cache.summary.hits": "count",
    "cache.summary.misses": "count",
    "cache.factor.hits": "count",
    "cache.factor.misses": "count",
    "engine.self_s": "s",
    "trace.residual_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Paper Fig 11: the preferred environment's Fuzzy-Dyn performance is
#: 1.40x the Baseline's (EXPERIMENTS.md).
FIG11_PAPER_GAIN = 1.40
FIG11_PREFERRED = "TS+ASV+Q+FU|Fuzzy-Dyn"

#: Campaign processes and set-ups per run, at least: ``campaign_s`` and
#: ``setup_s`` are medians over them.
MIN_CAMPAIGNS = 2
MIN_SETUPS = 3
#: A campaign process taking longer than this is killed and failed.
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_environment() -> Dict[str, str]:
    """The parent's environment without any program knob, threads pinned."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("EVAL_REPRO_")
        and key not in ("PYTHONPATH", "PYTHONHASHSEED", "PYTHONOPTIMIZE")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({name: "1" for name in THREAD_VARS})
    return env


def source_fingerprint() -> str:
    """Hash of the program's sources, keying the prepared caches."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Campaigns:
    """Starts campaign processes and owns their scratch directories."""

    def __init__(self) -> None:
        self.env = child_environment()
        self.tmp = WORK / "tmp" / f"run-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.count = 0
        self.errors: List[str] = []

    def scratch(self) -> Path:
        self.count += 1
        path = self.tmp / f"c{self.count}"
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def start(
        self,
        workload: str,
        runner_seed: int,
        cache_dir: Path,
        mode: str = "campaign",
        trace: bool = False,
    ) -> Optional[dict]:
        """Run one campaign process; its result, or None if it failed."""
        out = self.tmp / f"result-{self.count}-{time.monotonic_ns()}.json"
        command = [
            sys.executable, str(BENCH / "campaign.py"),
            "--workload", workload,
            "--runner-seed", str(runner_seed),
            "--cache-dir", str(cache_dir),
            "--out", str(out),
            "--mode", mode,
        ] + (["--trace"] if trace else [])
        start = time.perf_counter()
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=self.env, capture_output=True,
                text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"{workload} {mode}: timed out")
            return None
        wall_s = time.perf_counter() - start
        if done.returncode != 0 or not out.is_file():
            self.errors.append(
                f"{workload} {mode}: exit {done.returncode}: "
                + done.stderr.strip()[-2000:]
            )
            return None
        result = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        result["wall_s"] = wall_s
        if result.get("error"):
            self.errors.append(f"{workload} {mode}: {result['error']}")
        return result


def prepared_cache(
    campaigns: Campaigns, workload: str, runner_seed: int
) -> "tuple[Path, List[dict]]":
    """The cache directory a measured process of ``workload`` starts from.

    ``empty``: a fresh directory.  ``full`` and ``measurements``: a
    directory filled once per (workload, seed, program source) by a
    cold campaign or a set-up on an empty cache, kept under
    ``.perfbench_work/prep`` for later runs.  Also returns the campaign
    results of any preparation made now, so their rows are checked too.
    """
    kind = WORKLOADS[workload]["cache"]
    if kind == "empty":
        return campaigns.scratch(), []
    final = WORK / "prep" / f"{workload}-{runner_seed}-{source_fingerprint()}"
    if final.is_dir():
        return final, []
    staging = campaigns.scratch()
    mode = "campaign" if kind == "full" else "setup"
    result = campaigns.start(workload, runner_seed, staging, mode=mode)
    if result is None or result.get("error"):
        return staging, [result] if mode == "campaign" else []
    final.parent.mkdir(parents=True, exist_ok=True)
    os.replace(staging, final)
    return final, [result] if mode == "campaign" else []


def load_golden(workload: str, runner_seed: int) -> Optional[Dict[str, dict]]:
    path = BENCH / "golden" / f"{GOLDEN[workload]}.json"
    seeds = json.loads(path.read_text(encoding="utf-8"))["seeds"]
    entry = seeds.get(str(runner_seed))
    return entry["cells"] if entry is not None else None


def check_cells(
    results: List[Optional[dict]], golden: Dict[str, dict]
) -> "tuple[int, int, List[str]]":
    """(attempted, failed, problems) over every campaign's cells.

    A cell fails when its campaign raised or died, or when its rows'
    digest differs from the golden one; a cell the golden set lacks
    fails too.
    """
    attempted = failed = 0
    problems = []
    for result in results:
        cells = (result or {}).get("cells") or {}
        names = set(golden) | set(cells)
        attempted += len(names)
        for name in sorted(names):
            if name not in golden:
                failed += 1
                problems.append(f"cell {name} has no golden rows")
            elif cells.get(name, {}).get("digest") != golden[name]["digest"]:
                failed += 1
                if name in cells:
                    problems.append(f"cell {name} rows differ from golden")
    return attempted, failed, problems


def fig11_gain_err(cells: Dict[str, dict]) -> Optional[float]:
    """|preferred Fuzzy-Dyn perf / Baseline perf - 1.40|, or None."""
    if FIG11_PREFERRED not in cells or "Baseline|Exh-Dyn" not in cells:
        return None
    gain = cells[FIG11_PREFERRED]["perf_rel"] / cells["Baseline|Exh-Dyn"]["perf_rel"]
    return abs(gain - FIG11_PAPER_GAIN)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark measurement of ``workload``; its report."""
    runner_seed = RUNNER_SEEDS[seed % len(RUNNER_SEEDS)]
    report: dict = {
        "workload": workload,
        "seed": seed,
        "runner_seed": runner_seed,
        "shape": WORKLOADS[workload],
        "problems": [],
    }
    golden = load_golden(workload, runner_seed)
    campaigns = Campaigns()
    try:
        cache_dir, checked = prepared_cache(campaigns, workload, runner_seed)
        fresh = WORKLOADS[workload]["cache"] == "empty"
        samples: List[Optional[dict]] = []
        deadline = time.perf_counter() + seconds
        while len(samples) < MIN_CAMPAIGNS or time.perf_counter() < deadline:
            directory = campaigns.scratch() if fresh and samples else cache_dir
            samples.append(campaigns.start(workload, runner_seed, directory))
        good = [s for s in samples if s is not None and not s.get("error")]
        setups = [s["setup_s"] for s in good]
        while len(setups) < MIN_SETUPS:
            directory = campaigns.scratch() if fresh else cache_dir
            setup = campaigns.start(workload, runner_seed, directory, mode="setup")
            if setup is None:
                break
            setups.append(setup["setup_s"])
        traced = None
        if trace:
            directory = campaigns.scratch() if fresh else cache_dir
            traced = campaigns.start(workload, runner_seed, directory, trace=True)
        checked = checked + samples + ([traced] if trace else [])
    finally:
        campaigns.close()

    report["problems"].extend(campaigns.errors)
    if golden is None:
        report["problems"].append(f"no golden rows for runner seed {runner_seed}")
        golden = {}
    attempted, failed, problems = check_cells(checked, golden)
    report["problems"].extend(problems)
    report.update(attempted=max(attempted, 1), failed=failed)
    report["failed_frac"] = failed / max(attempted, 1)
    report["samples"] = len(samples)
    report["setups"] = len(setups)
    if good:
        report["config"] = good[0]["config"]
        report["version"] = good[0]["version"]
        report["sampled"] = {
            name: [s[name] for s in good]
            for name in ("wall_s", "campaign_s", "peak_rss_mb")
        }
        report["sampled"]["setup_s"] = setups
        report["end_to_end"] = {
            name: statistics.median(report["sampled"][name]) for name in END_TO_END
        }
        if WORKLOADS[workload]["kind"] == "ladder":
            report["fig11_gain_err"] = fig11_gain_err(good[0]["cells"])
    else:
        report["problems"].append("no campaign completed")
    if trace:
        attach_ledger(report, workload, traced)
    report["correct"] = not report["problems"] and failed == 0 and bool(good)
    return report


def attach_ledger(report: dict, workload: str, traced: Optional[dict]) -> None:
    """Per-layer metrics, coverage and self-consistency of a traced run."""
    if traced is None or traced.get("error"):
        report["problems"].append("traced campaign failed")
        return
    layers = dict(traced["layers"])
    untraced = report.get("end_to_end", {}).get("campaign_s")
    layers["trace.overhead_frac"] = (
        traced["campaign_s"] / untraced - 1.0 if untraced else 0.0
    )
    report["per_layer"] = layers
    report["calls"] = traced["calls"]
    report["missing_targets"] = traced["missing"]
    report["zero_call_layers"] = sorted(
        layer for layer, calls in traced["calls"].items() if calls == 0
    )
    report["problems"].extend(
        check_coverage(traced["calls"], *COVERAGE[workload])
    )
    if layers["trace.residual_frac"] > RESIDUAL_BOUND:
        report["problems"].append(
            f"layer self times miss campaign_s by "
            f"{layers['trace.residual_frac']:.2%} (bound {RESIDUAL_BOUND:.0%})"
        )


def print_report(report: dict) -> None:
    print(
        f"workload {report['workload']}: seed {report['seed']} -> runner seed "
        f"{report['runner_seed']}, {report['samples']} campaign(s), "
        f"{report['setups']} set-up(s)"
    )
    for name, value in report.get("end_to_end", {}).items():
        samples = " ".join(f"{v:.4g}" for v in report["sampled"][name])
        print(f"  {name:<14} {value:12.4f} {END_TO_END[name]:<3} median of [{samples}]")
    print(f"  {'failed_frac':<14} {report['failed_frac']:12.4f} "
          f"({report['failed']} of {report['attempted']} cells)")
    if report.get("fig11_gain_err") is not None:
        print(f"  {'fig11_gain_err':<14} {report['fig11_gain_err']:12.6f} "
              f"(|measured gain - {FIG11_PAPER_GAIN}|)")
    if "per_layer" in report:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<34} {report['per_layer'][name]:18.6f} {unit}")
        print(f"  zero-call layers: {', '.join(report['zero_call_layers'])}")
        if report["missing_targets"]:
            print(f"  targets absent: {', '.join(report['missing_targets'])}")
    if "config" in report:
        print("config: " + json.dumps(report["config"], sort_keys=True))
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")


def result_line(reports: List[dict], trace: bool, prefix: bool) -> str:
    names = PER_LAYER if trace else END_TO_END
    metrics = {}
    for report in reports:
        values = report.get("per_layer" if trace else "end_to_end", {})
        for name, unit in names.items():
            key = f"{report['workload']}.{name}" if prefix else name
            metrics[key] = {"value": float(values.get(name, 0.0)), "unit": unit}
    return json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fig 10 cold/warm and Exh-Dyn population benchmark."
    )
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", help="also write the full reports to this JSON file"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        reports = []
        for name in WORKLOADS:
            report = measure(name, args.seed, args.seconds, trace=True)
            print_report(report)
            reports.append(report)
        never = sorted(
            set.intersection(*(set(r.get("zero_call_layers", ())) for r in reports))
        )
        print(f"layers with zero calls on every workload: {', '.join(never)}")
        line = result_line(reports, trace=False, prefix=True)
    else:
        reports = [measure(args.workload, args.seed, args.seconds, bool(args.trace))]
        print_report(reports[0])
        line = result_line(reports, trace=bool(args.trace), prefix=False)
    if args.out:
        Path(args.out).write_text(
            json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
