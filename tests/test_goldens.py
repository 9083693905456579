"""Recorded golden outputs of the trace simulator and the fuzzy trainer.

The simulator and the trainer each have exactly one implementation, so
their parity is checked against numbers recorded in ``tests/golden/``
rather than against a second copy of the model:

* ``simulate.json`` — every :class:`SimResult` field (``kind_counts``
  included) for the 19 suite phase profiles under the ladder's eight
  ``(config, suppress)`` variants (base / resized queue, with and without
  the FU-replication stage), one prefetching config and one narrow
  config (width 1, queues 2, ROB 8).
* ``fuzzy_bank.json`` — the sha256 of each trained controller's
  ``mu``/``sigma``/``y`` bytes and its training ``final_rmse``, for every
  Freq, Vdd and Vbb FC of a small TS+ASV+ABB bank (queue and FU variants
  included).

The simulator rows are integers. The controller digests are of float64
bytes, so like ``perfbench/golden/`` they hold for one numpy build's
``exp``/``power`` and must be re-recorded, with the reason stated, when
that changes. Otherwise re-record only in a deliberate fidelity change,
from the repository root::

    PYTHONPATH=src python tests/test_goldens.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from repro.core import TS_ASV_ABB
from repro.microarch import DEFAULT_CORE_CONFIG, CoreConfig, spec2000_like_suite
from repro.microarch.pipeline import simulate_batch
from repro.microarch.trace import generate_trace
from repro.ml import bank as bank_module

GOLDEN_DIR = Path(__file__).with_name("golden")
SIM_GOLDEN = GOLDEN_DIR / "simulate.json"
BANK_GOLDEN = GOLDEN_DIR / "fuzzy_bank.json"

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


def _record() -> None:
    from repro.chip import build_core
    from repro.variation import DieGrid, VariationModel

    GOLDEN_DIR.mkdir(exist_ok=True)
    sim = {
        "n_instructions": SIM_INSTRUCTIONS,
        "seed": SIM_SEED,
        "rows": simulate_rows(),
    }
    # The same core as the ``core`` fixture in conftest.py.
    population = VariationModel(grid=DieGrid(nx=24, ny=24)).population(
        6, seed=42
    )
    bank = {
        "environment": TS_ASV_ABB.name,
        "n_examples": BANK_EXAMPLES,
        "epochs": BANK_EPOCHS,
        "seed": BANK_SEED,
        "fcs": bank_rows(build_core(population[0], 0)),
    }
    for path, payload in ((SIM_GOLDEN, sim), (BANK_GOLDEN, bank)):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    _record()
