"""Records the SHA-256 digests of every pool run of `pls-hammer-run`.

Run `python3 perfbench/record_golden.py` from the root of the repository
only when a change is meant to alter seeded traces; the benchmark counts any
run whose trace or final hierarchy differs from these digests as failed.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    h, module = workloads.load_inputs(*workloads.pls_texts(), workloads.Gate())
    golden = {}
    for seed in range(workloads.HAMMER_POOL):
        _, final_sha, trace_sha, _ = workloads.hammer_digests(h, module, seed)
        golden[str(seed)] = {"final": final_sha, "trace": trace_sha}
    with open(workloads.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
