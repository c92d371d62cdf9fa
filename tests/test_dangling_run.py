"""Runs that meet matches whose deletion would leave dangling arrows.

No seeded run of the PLS rules reaches `run`'s skip path (none in 200 steps
on either configuration, seeds 0-5).  `tests/fixtures/pls_scrap.mcmt` adds
`ScrapPart`, which deletes a contained part: a loose handle or head goes,
but an assembled hammer keeps its `hasHandle`/`hasHead` arrows, so that
match is skipped and another is drawn.  `tests/fixtures/scrap_machine.mcmt`
only deletes machines, and every machine of the configurations has an arrow.
"""

import hashlib
import json
import os

import pytest

from mlmt import engine
from mlmt.cli import main
from mlmt.hierarchy import hierarchy_to_json, load_hierarchy

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# `mlmt run fixtures/pls.json tests/fixtures/pls_scrap.mcmt --target hammer_config
# --steps 60 --seed 4`: SHA-256 of stdout and of the trace file
SCRAP_FINAL = "d8e3ca499906b8f180a75456468cb1372c193a3f1a65e1cc3d35575338800d46"
SCRAP_TRACE = "89222b039a9676c094d4df6812c3b7634b1a74eda958eb51c837789a4eef7c31"


@pytest.fixture
def skips(monkeypatch):
    """The number of matches `run` skipped for dangling deletion so far."""
    count = [0]
    apply = engine.apply_two_level_rule

    def counting(*args, **kwargs):
        successors, report = apply(*args, **kwargs)
        count[0] += len(report)
        return successors, report

    monkeypatch.setattr(engine, "apply_two_level_rule", counting)
    return count


def test_some_matches_dangle_and_others_apply(pls_paths, tmp_path, capsysbinary, skips):
    hierarchy, _ = pls_paths
    rules = os.path.join(FIXTURES, "pls_scrap.mcmt")
    trace = tmp_path / "trace.jsonl"
    argv = ["run", hierarchy, rules, "--target", "hammer_config", "--steps", "60", "--seed", "4"]
    assert main([*argv, "--trace", str(trace)]) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b"60 step(s) applied\n"
    assert skips[0] > 0
    steps = [json.loads(line) for line in trace.read_text().splitlines()]
    assert any(s["rule"].startswith("ScrapPart_") for s in steps)
    assert hashlib.sha256(captured.out).hexdigest() == SCRAP_FINAL
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == SCRAP_TRACE


@pytest.mark.parametrize("target", ["hammer_config", "stool_config"])
def test_every_match_dangles(pls_paths, tmp_path, capsys, skips, target):
    hierarchy, _ = pls_paths
    rules = os.path.join(FIXTURES, "scrap_machine.mcmt")
    trace = tmp_path / "trace.jsonl"
    argv = ["run", hierarchy, rules, "--target", target, "--steps", "10", "--seed", "0"]
    assert main([*argv, "--trace", str(trace)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["0 step(s) applied"]
    assert skips[0] == 3  # one match per machine, each skipped once
    assert trace.read_text() == ""
    assert json.loads(captured.out) == hierarchy_to_json(load_hierarchy(hierarchy))
