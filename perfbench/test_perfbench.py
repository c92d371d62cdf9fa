"""Tests of the benchmark itself: generators, closed forms, metric names."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mlmt import engine, hierarchy, matching, rules  # noqa: E402


def test_same_seed_gives_byte_identical_inputs():
    assert gen.to_text(gen.wide_compile(7, 3, 1, 2)) == gen.to_text(gen.wide_compile(7, 3, 1, 2))
    assert gen.to_text(gen.wide_compile(7, 3, 1, 2)) != gen.to_text(gen.wide_compile(8, 3, 1, 2))
    first = gen.wide_apply(7, 5, 2, workloads.ROOT)
    again = gen.wide_apply(7, 5, 2, workloads.ROOT)
    assert [gen.to_text(d) for d in [first[0], *first[1]]] == [
        gen.to_text(d) for d in [again[0], *again[1]]
    ]
    assert first[2] == again[2]
    assert gen.to_text(first[0]) != gen.to_text(gen.wide_apply(8, 5, 2, workloads.ROOT)[0])


@pytest.mark.parametrize("families,extra_depth", [(1, 0), (1, 2), (2, 1)])
def test_closed_form_counts_match_proliferation(families, extra_depth):
    h = hierarchy.parse_hierarchy(gen.to_text(gen.wide_compile(3, families, extra_depth, 2)))
    assert hierarchy.validate_hierarchy(h) == []
    module = rules.parse_rule_module(workloads.pls_texts()[1])
    for leaf in ("leaf_0", "leaf_1"):
        per_rule = matching.proliferate_all(module.rules, h, leaf)
        counts = {name: len(rs) for name, rs in per_rule.items()}
        assert counts == gen.expected_rule_counts(families)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_printed_metrics_are_the_declared_ones(workload, trace, monkeypatch, capsys):
    # shrink the inputs so one pass takes well under a second
    monkeypatch.setattr(workloads, "HAMMER_POOL", 1)
    monkeypatch.setattr(workloads, "WIDE_COMPILE", {"families": 1, "extra_depth": 1, "leaves": 2})
    monkeypatch.setattr(workloads, "WIDE_APPLY", {"copies": 2, "templates": 2})
    typed_matches = engine.typed_matches

    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert engine.typed_matches is typed_matches  # wrappers are removed


def test_missing_checkout_exits_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "REQUIRED", [tmp_path / "absent"])
    assert run.main(["--workload", "wide-apply", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_gate_checks_are_not_recorded():
    h = hierarchy.parse_hierarchy(workloads.pls_texts()[0])
    gate = workloads.Gate()
    rec = spans.Recorder()
    gate.unrecorded = rec.paused
    rec.install(workloads.SPANS, workloads.COUNTERS)
    try:
        wrapped = hierarchy.validate_hierarchy
        assert gate.valid(h)
        assert hierarchy.validate_hierarchy is wrapped  # wrappers are back
        assert not rec.spans and not rec.counts
        hierarchy.validate_hierarchy(h)
    finally:
        rec.uninstall()
    assert rec.totals()["hierarchy.validate"][0] == 1
    assert rec.counts["hierarchy.transitive_type_at.calls.hierarchy"] > 0
