#!/usr/bin/env python3
"""bfl benchmark: round throughput, set-up cost and detection quality of the
acceptance scenario on three workloads, with an optional per-layer trace.

    python3 bench/bfl_bench.py --workload defended_iid [--seed 42] [--seconds 30] [--trace 0|1]

Run it from the root of a source checkout; it imports bfl from ./src and
exits with code 2 when that is missing.  It prints one JSON line with the
full record (environment, every unit run, every metric) and, as the last
line, {"correct", "attempted", "failed", "metrics"} holding the metrics that
BENCHMARK.json lists: the end-to-end ones with --trace 0, the per-layer ones
with --trace 1.  bench/README.md defines the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_bfl() -> None:
    """Import bfl from this checkout's src/, never from an installed copy."""
    if not (SRC / "bfl" / "__init__.py").is_file():
        raise FileNotFoundError(f"{SRC / 'bfl'} is missing; run from a bfl source checkout")
    sys.path.insert(0, str(SRC))
    import bfl

    if not Path(bfl.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"imported bfl from {bfl.__file__}, not {SRC}")


def contract_line(record: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """The last output line: the metrics BENCHMARK.json lists for this mode."""
    listed, source = (spec["per_layer"], record["per_layer"]) if record["trace"] else (
        spec["end_to_end"], record["end_to_end"])
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_bfl()
    except (FileNotFoundError, ImportError) as exc:
        print(f"bfl_bench: {exc}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(contract_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
