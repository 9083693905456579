"""Recorded golden outputs of the simulator, the trainer and adaptation.

The simulator, the trainer and the phase adaptation each have exactly
one implementation, so their parity is checked against numbers recorded
in ``tests/golden/`` rather than against a second copy of the model:

* ``simulate.json`` — every :class:`SimResult` field (``kind_counts``
  included) for the 19 suite phase profiles under the ladder's eight
  ``(config, suppress)`` variants (base / resized queue, with and without
  the FU-replication stage), one prefetching config and one narrow
  config (width 1, queues 2, ROB 8).
* ``fuzzy_bank.json`` — the sha256 of each trained controller's
  ``mu``/``sigma``/``y`` bytes and its training ``final_rmse``, for every
  Freq, Vdd and Vbb FC of a small TS+ASV+ABB bank (queue and FU variants
  included).
* ``adaptation.json`` — every :class:`PhaseResult` field of a 2-chip,
  seed-7 runner over the full suite: Baseline and the six adaptive
  environments under Static and Exh-Dyn, plus TS+ASV+Q+FU under
  Fuzzy-Dyn with a small bank; the final frequency, voltages,
  temperatures and error rates of every TS+ASV+Q+FU phase adapted with
  retuning off; and the events of one timeline stream.

The simulator rows are integers. The controller digests and the
adaptation floats are float64 values, so like ``perfbench/golden/`` they hold for one numpy build's
``exp``/``power`` and must be re-recorded, with the reason stated, when
that changes. Otherwise re-record only in a deliberate fidelity change,
from the repository root::

    PYTHONPATH=src python tests/test_goldens.py [simulate|fuzzy_bank|adaptation|physics ...]

(no argument re-records every file).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from repro.chip.chip import lane_physics
from repro.core import (
    ADAPTIVE_ENVIRONMENTS,
    BASELINE,
    TS_ASV_Q,
    TS_ASV_Q_FU,
    TS_ASV_ABB,
    AdaptationMode,
)
from repro.core.adaptation import optimize_units_batched
from repro.core.timeline import run_timelines_batched
from repro.exps import run_fig8, run_retiming_comparison
from repro.exps.runner import ExperimentRunner, RunnerConfig
from repro.microarch import generate_phase_stream
from repro.microarch import DEFAULT_CORE_CONFIG, CoreConfig, spec2000_like_suite
from repro.microarch.pipeline import simulate_batch
from repro.microarch.trace import generate_trace
from repro.mitigation import reshape_curve
from repro.ml import bank as bank_module
from repro.thermal import solve_temperatures, solve_temperatures_lanes
from repro.timing.paths import StageModifiers

GOLDEN_DIR = Path(__file__).with_name("golden")
SIM_GOLDEN = GOLDEN_DIR / "simulate.json"
BANK_GOLDEN = GOLDEN_DIR / "fuzzy_bank.json"
ADAPT_GOLDEN = GOLDEN_DIR / "adaptation.json"
PHYSICS_GOLDEN = GOLDEN_DIR / "physics.json"

SIM_INSTRUCTIONS = 4000
SIM_SEED = 0

NARROW = CoreConfig(
    fetch_width=1,
    issue_width=1,
    retire_width=1,
    int_queue_size=2,
    fp_queue_size=2,
    mem_queue_size=2,
    rob_size=8,
)

BANK_EXAMPLES = 200
BANK_EPOCHS = 2
BANK_SEED = 3

ADAPT_CONFIG = RunnerConfig(
    n_chips=2, cores_per_chip=1, seed=7, fuzzy_examples=300, fuzzy_epochs=1
)
ADAPT_CELLS = [
    (env, mode)
    for env in [BASELINE] + ADAPTIVE_ENVIRONMENTS
    for mode in (AdaptationMode.STATIC, AdaptationMode.EXH_DYN)
] + [(TS_ASV_Q_FU, AdaptationMode.FUZZY_DYN)]
RETUNE_OFF_ENV = TS_ASV_Q_FU
TIMELINE_ENV = TS_ASV_Q
TIMELINE_MS = 1200.0
TIMELINE_SEED = 5

PHYSICS_TH = 343.15
FIG8_FREQS = 6
RETIMING_CHIPS = 2
#: Activity multiplier that drives a subsystem past the runaway cap.
BLOWUP = 1e4


def phase_profiles():
    """The 19 phase-specialised profiles of the SPEC-like suite."""
    return [
        workload.phase_profile(phase)
        for workload in spec2000_like_suite()
        for phase in workload.phases
    ]


def sim_variants(domain):
    """(label, config, suppress) for every recorded variant."""
    fu = DEFAULT_CORE_CONFIG.with_fu_replication()
    configs = {
        "base": DEFAULT_CORE_CONFIG,
        "resized": DEFAULT_CORE_CONFIG.with_resized_queue(domain),
        "fu": fu,
        "fu+resized": fu.with_resized_queue(domain),
        "prefetch": replace(DEFAULT_CORE_CONFIG, prefetch_accuracy=0.6),
        "narrow": NARROW,
    }
    return [
        (f"{label}/{'comp' if suppress else 'full'}", config, suppress)
        for label, config in configs.items()
        for suppress in (False, True)
    ]


def _sim_row(result):
    row = asdict(result)
    row["kind_counts"] = {str(k): v for k, v in sorted(row["kind_counts"].items())}
    return row


def simulate_rows():
    """``{profile/phase: {variant: SimResult fields}}`` from the model."""
    rows = {}
    for profile in phase_profiles():
        trace = generate_trace(profile, SIM_INSTRUCTIONS, SIM_SEED)
        variants = sim_variants(profile.domain)
        results = simulate_batch(trace, [(c, s) for _, c, s in variants])
        rows[f"{profile.name}/{profile.phases[0].name}"] = {
            label: _sim_row(result)
            for (label, _, _), result in zip(variants, results)
        }
    return rows


def _digest(fc):
    digest = hashlib.sha256()
    for array in (fc.mu, fc.sigma, fc.y):
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def bank_rows(core):
    """``{kind/index/variant: {sha256, final_rmse}}`` of a small bank.

    Training reports are captured by wrapping the trainer where the bank
    calls it; a call returns one ``(controller, report)`` pair or a list
    of them, and each report is matched to its controller by identity.
    """
    spec = TS_ASV_ABB.optimization_spec(core.n_subsystems, core.calib)
    trained = []
    original = bank_module.train_fuzzy_controller

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        trained.extend(result if isinstance(result, list) else [result])
        return result

    bank_module.train_fuzzy_controller = recording
    try:
        bank = bank_module.train_controller_bank(
            core, spec, n_examples=BANK_EXAMPLES, epochs=BANK_EPOCHS,
            seed=BANK_SEED,
        )
    finally:
        bank_module.train_fuzzy_controller = original
    reports = {id(fc): report for fc, report in trained}
    rows = {}
    for kind, fcs in (
        ("freq", bank.freq_fcs), ("vdd", bank.vdd_fcs), ("vbb", bank.vbb_fcs)
    ):
        for (index, variant), fc in sorted(fcs.items()):
            rows[f"{kind}/{index}/{variant}"] = {
                "sha256": _digest(fc),
                "final_rmse": reports[id(fc)].final_rmse,
            }
    for (index, variant), rmse in bank.freq_rmse.items():
        assert rows[f"freq/{index}/{variant}"]["final_rmse"] == rmse
    return rows


def _units(runner):
    return [
        (chip, core)
        for chip in range(runner.config.n_chips)
        for core in range(runner.config.cores_per_chip)
    ]


def _phase_pairs(runner, env):
    return [
        runner.measurements(profile, env)
        for workload in runner.workloads
        for profile, _ in runner.phase_profiles(workload)
    ]


def _fixed_row(result):
    """The retune-off record of one adapted phase, floats exact."""
    config, state = result.config, result.state
    return {
        "f_core": config.f_core,
        "f_controller": result.f_controller,
        "vdd": [float(v) for v in config.vdd],
        "vbb": [float(v) for v in config.vbb],
        "temperature": [float(t) for t in state.temperature],
        "pe": [float(p) for p in state.pe_per_subsystem],
        "performance_ips": result.performance_ips,
        "outcome": result.outcome.value,
        "queue_full": config.technique.queue_full,
        "lowslope": config.technique.lowslope,
    }


def _timeline_stream(runner):
    return generate_phase_stream(
        runner.workloads[5], total_ms=TIMELINE_MS, seed=TIMELINE_SEED
    )


def adaptation_rows(runner):
    """The ``adaptation.json`` payload, computed by the batched paths.

    Each cell runs all of its units as one block, the retune-off phases
    of every unit form one lane block, and the timeline is one lane of
    the lockstep timeline.
    """
    units = _units(runner)
    cells = {}
    for env, mode in ADAPT_CELLS:
        unit_rows = runner.run_units_batched(env, mode, units)
        cells[f"{env.name}|{mode.value}"] = [
            row.to_dict() for rows in unit_rows for row in rows
        ]
    pairs = _phase_pairs(runner, RETUNE_OFF_ENV)
    adapted = optimize_units_batched(
        [(runner.core(chip, core), pairs) for chip, core in units],
        RETUNE_OFF_ENV,
        retune_enabled=False,
    )
    retune_off = [_fixed_row(r) for results in adapted for r in results]
    (timeline,) = run_timelines_batched(
        [runner.core(0, 0)], TIMELINE_ENV, _timeline_stream(runner)
    )
    return {
        "cells": cells,
        "retune_off": retune_off,
        "timeline": [asdict(event) for event in timeline.events],
    }


def _array_row(array):
    """Shape, dtype and sha256 of an array's bytes (exact float64)."""
    array = np.ascontiguousarray(array)
    return {
        "shape": list(array.shape),
        "dtype": str(array.dtype),
        "sha256": hashlib.sha256(array.tobytes()).hexdigest(),
    }


def _thermal_row(solution):
    return {
        name: _array_row(getattr(solution, name))
        for name in ("temperature", "p_dynamic", "p_static", "converged")
    }


def _point_solves(core, novar_core):
    """``solve_temperatures`` at single (n,) operating points."""
    n = core.n_subsystems
    runaway = core.alpha_ref.copy()
    runaway[0] *= BLOWUP
    cases = {
        "variation": (core, np.full(n, 1.1), np.full(n, 0.1), 4.4e9,
                      core.alpha_ref),
        "variation/mixed": (core, np.linspace(0.9, 1.2, n),
                            np.linspace(-0.3, 0.3, n), 3.6e9,
                            core.alpha_ref * 1.5),
        "variation/runaway": (core, np.full(n, 1.0), np.zeros(n), 4.0e9,
                              runaway),
        "novar": (novar_core, np.full(n, 1.0), np.zeros(n), 4.0e9,
                  novar_core.alpha_ref),
    }
    return {
        name: _thermal_row(solve_temperatures(c, vdd, vbb, f, a, PHYSICS_TH))
        for name, (c, vdd, vbb, f, a) in cases.items()
    }


def _lane_solves(core, other_core, novar_core):
    """``solve_temperatures_lanes`` over shared and stacked cores."""
    n = core.n_subsystems
    vdd = np.stack([np.full(n, 0.9), np.full(n, 1.0), np.full(n, 1.15)])
    vbb = np.stack([np.zeros(n), np.full(n, 0.2), np.full(n, -0.3)])
    freq = np.array([2.4e9, 4.0e9, 4.8e9])[:, None]
    activity = np.stack(
        [core.alpha_ref * 0.05, core.alpha_ref, core.alpha_ref * BLOWUP]
    )
    stacked = lane_physics([core, other_core, core])
    return {
        "shared": _thermal_row(solve_temperatures_lanes(
            core, vdd, vbb, freq, activity, PHYSICS_TH
        )),
        "stacked": _thermal_row(solve_temperatures_lanes(
            stacked, vdd, vbb, freq, activity, PHYSICS_TH
        )),
        "novar": _thermal_row(solve_temperatures_lanes(
            novar_core, vdd[:2], vbb[:2], freq[:2],
            np.stack([novar_core.alpha_ref] * 2), PHYSICS_TH,
        )),
    }


def _reshape_rows(core):
    """Before/after PE curves and delays of ``reshape_curve``."""
    n = core.n_subsystems
    calib = core.calib
    freqs = np.linspace(0.85, 1.05, 9) * calib.f_nominal
    modifiers = StageModifiers(
        delay_scale=np.where(np.arange(n) % 3 == 0, 0.95, 1.0),
        sigma_scale=np.where(np.arange(n) % 4 == 1, np.sqrt(2.0), 1.0),
    )
    rows = {}
    for label, mods in (("plain", None), ("modified", modifiers)):
        result = reshape_curve(
            core, np.linspace(0.95, 1.15, n), np.linspace(-0.2, 0.2, n),
            freqs, core.alpha_ref, core.rho_ref, calib.t_heatsink_max, mods,
        )
        rows[label] = {
            "pe_before": _array_row(result.pe_before),
            "pe_after": _array_row(result.pe_after),
            "delays_before": [
                _array_row(result.delays_before.mean),
                _array_row(result.delays_before.sigma),
            ],
            "delays_after": [
                _array_row(result.delays_after.mean),
                _array_row(result.delays_after.sigma),
            ],
        }
    return rows


def physics_rows(core, other_core, novar_core):
    """The ``physics.json`` payload."""
    fig8 = run_fig8(n_freqs=FIG8_FREQS)
    retiming = run_retiming_comparison(n_chips=RETIMING_CHIPS)
    return {
        "point_solves": _point_solves(core, novar_core),
        "lane_solves": _lane_solves(core, other_core, novar_core),
        "reshape": _reshape_rows(core),
        "fig8": {
            name: _array_row(getattr(fig8, name))
            for name in ("pe_ts", "perf_ts", "pe_reshaped", "perf_reshaped")
        },
        "retiming": asdict(retiming),
    }


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TestSimulatorGoldens:
    def test_every_variant_matches_the_recorded_result(self):
        golden = _load(SIM_GOLDEN)
        assert golden["n_instructions"] == SIM_INSTRUCTIONS
        assert golden["seed"] == SIM_SEED
        rows = simulate_rows()
        assert len(rows) == 19
        assert rows.keys() == golden["rows"].keys()
        for name, variants in rows.items():
            for label, row in variants.items():
                assert row == golden["rows"][name][label], (name, label)


class TestFuzzyBankGoldens:
    def test_every_controller_matches_the_recorded_digest(self, core):
        golden = _load(BANK_GOLDEN)
        rows = bank_rows(core)
        assert {key.split("/")[0] for key in rows} == {"freq", "vdd", "vbb"}
        assert any(key.endswith("/resized") for key in rows)
        assert any(key.endswith("/lowslope") for key in rows)
        assert rows.keys() == golden["fcs"].keys()
        for key, row in rows.items():
            assert row == golden["fcs"][key], key


class TestAdaptationGoldens:
    @pytest.fixture(scope="class")
    def rows(self):
        return adaptation_rows(ExperimentRunner(ADAPT_CONFIG))

    @pytest.fixture(scope="class")
    def golden(self):
        return _load(ADAPT_GOLDEN)

    def test_recorded_at_this_scale(self, golden):
        assert golden["config"] == asdict(ADAPT_CONFIG)

    def test_every_cell_matches_the_recorded_rows(self, rows, golden):
        assert rows["cells"].keys() == golden["cells"].keys()
        for cell, cell_rows in rows["cells"].items():
            assert len(cell_rows) == 2 * 19, cell
            for index, row in enumerate(cell_rows):
                assert row == golden["cells"][cell][index], (cell, index)

    def test_rows_cover_every_figure13_outcome(self, golden):
        outcomes = {
            row["outcome"]
            for cell_rows in golden["cells"].values()
            for row in cell_rows
        }
        assert outcomes == {"NoChange", "LowFreq", "Error", "Temp", "Power"}

    def test_retune_off_matches_the_recorded_state(self, rows, golden):
        assert len(rows["retune_off"]) == 2 * 19
        assert {row["outcome"] for row in rows["retune_off"]} == {"NoChange"}
        for index, row in enumerate(rows["retune_off"]):
            assert row == golden["retune_off"][index], index

    def test_timeline_matches_the_recorded_events(self, rows, golden):
        assert len(rows["timeline"]) > 1
        assert rows["timeline"] == golden["timeline"]


class TestPhysicsGoldens:
    @pytest.fixture(scope="class")
    def rows(self, core, other_core, novar_core):
        return physics_rows(core, other_core, novar_core)

    @pytest.fixture(scope="class")
    def golden(self):
        return _load(PHYSICS_GOLDEN)

    def test_recorded_at_this_scale(self, golden):
        assert golden["th"] == PHYSICS_TH
        assert golden["fig8_freqs"] == FIG8_FREQS
        assert golden["retiming_chips"] == RETIMING_CHIPS

    def test_point_solves_match(self, rows, golden):
        assert rows["point_solves"] == golden["rows"]["point_solves"]

    def test_lane_solves_match(self, rows, golden):
        assert rows["lane_solves"] == golden["rows"]["lane_solves"]

    def test_reshape_curves_match(self, rows, golden):
        assert rows["reshape"] == golden["rows"]["reshape"]

    def test_fig8_panels_match(self, rows, golden):
        assert rows["fig8"] == golden["rows"]["fig8"]

    def test_retiming_frequencies_match(self, rows, golden):
        assert rows["retiming"] == golden["rows"]["retiming"]

    def test_rows_include_runaway(self, rows):
        """The recorded cases keep a runaway subsystem and lane."""
        point = rows["point_solves"]["variation/runaway"]["converged"]
        lanes = rows["lane_solves"]["stacked"]["converged"]
        assert point != rows["point_solves"]["variation"]["converged"]
        assert lanes["shape"] == [3, 15]


def _record(which=None) -> None:
    from repro.chip import build_core, build_novar_core
    from repro.variation import DieGrid, VariationModel

    GOLDEN_DIR.mkdir(exist_ok=True)
    # The same cores as the fixtures in conftest.py.
    population = VariationModel(grid=DieGrid(nx=24, ny=24)).population(
        6, seed=42
    )
    core = build_core(population[0], 0)
    payloads = {
        SIM_GOLDEN: lambda: {
            "n_instructions": SIM_INSTRUCTIONS,
            "seed": SIM_SEED,
            "rows": simulate_rows(),
        },
        BANK_GOLDEN: lambda: {
            "environment": TS_ASV_ABB.name,
            "n_examples": BANK_EXAMPLES,
            "epochs": BANK_EPOCHS,
            "seed": BANK_SEED,
            "fcs": bank_rows(core),
        },
        ADAPT_GOLDEN: lambda: {
            "config": asdict(ADAPT_CONFIG),
            **adaptation_rows(ExperimentRunner(ADAPT_CONFIG)),
        },
        PHYSICS_GOLDEN: lambda: {
            "th": PHYSICS_TH,
            "fig8_freqs": FIG8_FREQS,
            "retiming_chips": RETIMING_CHIPS,
            "rows": physics_rows(
                core, build_core(population[3], 1), build_novar_core()
            ),
        },
    }
    for path, payload in payloads.items():
        if which and path.stem not in which:
            continue
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload(), handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    _record(sys.argv[1:])
