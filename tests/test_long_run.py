"""Long seeded runs stay byte-identical.

`tests/fixtures/long_run_digests.json` holds the SHA-256 digests of the
final hierarchy (stdout) and the trace file of `mlmt run` on
`hammer_config`, seeds 0-2, 400 steps, as recorded before `run` kept its
matches across steps.  At 400 steps the model has grown to about 180
nodes, so a match list that drifts from a fresh search shows up here
first.
"""

import hashlib
import json
import os

import pytest

from mlmt.cli import main

DIGESTS = os.path.join(os.path.dirname(__file__), "fixtures", "long_run_digests.json")

with open(DIGESTS, encoding="utf-8") as fh:
    RECORDED = json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", sorted(RECORDED["seeds"]))
def test_long_run_is_byte_identical(pls_paths, tmp_path, capsysbinary, seed):
    hierarchy, rules = pls_paths
    trace = tmp_path / "trace.jsonl"
    args = ["--target", RECORDED["target"], "--steps", str(RECORDED["steps"]), "--seed", seed]
    assert main(["run", hierarchy, rules, *args, "--trace", str(trace)]) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == f"{RECORDED['steps']} step(s) applied\n".encode()
    assert sha256(captured.out) == RECORDED["seeds"][seed]["final"]
    assert sha256(trace.read_bytes()) == RECORDED["seeds"][seed]["trace"]
