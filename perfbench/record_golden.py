"""Record the golden rows that ``perfbench/run.py`` checks against.

Usage (from the repository root)::

    python3 perfbench/record_golden.py

Runs every golden campaign (the Fig 10 ladder and the Exh-Dyn population)
cold, once per runner seed in ``RUNNER_SEEDS``, and writes each cell's
row digest and phase-weighted means to ``perfbench/golden/<name>.json``.
Re-record only in a change whose purpose is to alter the program's
results (a fidelity fix), never in a performance change: those must
reproduce the recorded rows bit for bit.
"""

import json
import sys

from run import BENCH, GOLDEN, RUNNER_SEEDS, Campaigns, fig11_gain_err


def main() -> int:
    campaigns = Campaigns()
    try:
        for name in sorted(set(GOLDEN.values())):
            seeds = {}
            for seed in RUNNER_SEEDS:
                cache_dir = campaigns.scratch()
                if name == "exh_population":
                    campaigns.start(name, seed, cache_dir, mode="setup")
                workload = "fig10_cold" if name == "fig10" else name
                result = campaigns.start(workload, seed, cache_dir)
                if result is None or result.get("error") or not result["cells"]:
                    print("\n".join(campaigns.errors), file=sys.stderr)
                    return 1
                cells = result["cells"]
                entry = {"cells": cells}
                if name == "fig10":
                    entry["fig11_gain_err"] = fig11_gain_err(cells)
                seeds[str(seed)] = entry
                print(f"{name} seed {seed}: {len(cells)} cells")
            config = dict(result["config"])
            config["settings"] = dict(config["settings"], cache_dir=None)
            document = {
                "program_version": result["version"],
                "config": config,
                "seeds": seeds,
            }
            path = BENCH / "golden" / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(
                json.dumps(document, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )
    finally:
        campaigns.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
