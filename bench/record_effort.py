#!/usr/bin/env python3
"""Record bench/effort.json: the reference effort of every panel seed.

    python3 bench/record_effort.py

Runs one untraced 30-round unit of each defended workload at every seed of
the panel (harness.PANEL seeds) and writes, per workload and seed, the
generator iterations the unit took and its report digest.  `rounds_per_s`
and `cpu_s_per_round` scale their fixed generator effort by the ratio of a
run's iterations to these, so the file describes the commit the benchmark
is compared against and is not re-recorded when bfl changes.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
from calibrate import Reference  # noqa: E402

ROUNDS = 30


def main() -> int:
    table = {"rounds": ROUNDS, "workloads": {}}
    harness.BUILD.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="effort-", dir=harness.BUILD))
    try:
        for w in harness.WORKLOADS.values():
            if w.defense is None:
                continue
            entry = table["workloads"][w.name] = {}
            for i in range(harness.PANEL):
                seed = harness.ACCEPTANCE_SEED + harness.SEED_STRIDE * i
                unit = harness.run_unit(w, seed, ROUNDS, False, work / f"{w.name}-{seed}", Reference())
                if unit["problems"]:
                    print(f"{w.name} seed {seed}: {unit['problems']}", file=sys.stderr)
                    return 1
                entry[str(seed)] = {"gen_iters": unit["gen_iters"], "digest": unit["digest"]}
                print(w.name, seed, unit["gen_iters"], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "effort.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
