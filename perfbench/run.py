"""Benchmark entry point: `python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`, run from the root of a checkout.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics untraced (`--trace 0`), the
per-layer metrics traced (`--trace 1`).  Exits 2 without a result when the
checkout lacks the library or the PLS fixture.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REQUIRED = [SRC / "mlmt" / "__init__.py", ROOT / "fixtures" / "pls.json", ROOT / "fixtures" / "pls.mcmt"]
WORKLOAD_NAMES = ("pls-hammer-run", "wide-compile", "wide-apply")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mlmt benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"not a checkout of the repository: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    gate = workloads.Gate()
    wl = workloads.WORKLOADS[args.workload](args.seed, gate)
    if args.trace:
        metrics = workloads.measure_traced(wl, args.seconds)
    else:
        metrics = workloads.measure(wl, args.seconds)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
