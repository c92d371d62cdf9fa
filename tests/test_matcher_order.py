"""Ordered differential tests of the two matchers.

`run` draws a typed match by its index in the list `typed_matches` returns,
and proliferation names rules `<rule>_<n>` in META match order, so each
matcher must return exactly its oracle's list, order included.
"""

import random

import pytest

from mlmt import matching
from mlmt.engine import apply_two_level_rule, run, typed_matches
from mlmt.graphs import TotalMorphism
from mlmt.matching import find_meta_matches, proliferate

from support import (
    brute_force_graph_match,
    brute_force_typed_matches,
    filtered_homomorphisms,
    random_hierarchy,
    random_meta_rule,
    random_two_level_rule,
)

TARGET = "hammer_config"


def run_states(rules, h, seed, steps=50):
    """The hierarchy before the run and after each step, replayed from the
    trace through `apply_two_level_rule(at=...)`."""
    compiled = {r.name: r for rule in rules for r in proliferate(rule, h, TARGET)}
    trace = run(rules, h, TARGET, steps, seed)
    states = [h]
    for step in trace.steps:
        tl_rule = compiled[step.rule]
        nodes = {n: step.match[n] for n in tl_rule.lhs.nodes}
        arrows = {
            a: (nodes[a[0]], step.match[a[1]], nodes[a[2]]) for a in tl_rule.lhs.arrows
        }
        model = states[-1].model(TARGET)
        m = TotalMorphism(tl_rule.lhs, model.graph, nodes, arrows)
        (result,), _ = apply_two_level_rule(tl_rule, model, states[-1], at=m)
        states.append(states[-1].with_model(result.model))
    assert states[-1].model(TARGET) == trace.final.model(TARGET)
    return list(compiled.values()), states


@pytest.mark.parametrize("seed", range(4))
def test_typed_matches_in_order_on_pls_run_states(pls, pls_module, seed):
    compiled, states = run_states(pls_module.rules, pls, seed)
    assert len(states) == 51
    found = 0
    for state in states:
        model = state.model(TARGET)
        for tl_rule in compiled:
            got = typed_matches(tl_rule, model, state)
            assert got == brute_force_typed_matches(tl_rule, model, state)
            found += len(got)
    assert found > len(states)


def test_typed_matches_in_order_on_random_hierarchies():
    rng = random.Random(2005)
    found = 0
    for _ in range(1000):
        h = random_hierarchy(rng, depth=rng.randint(1, 3))
        model = max(h.models.values(), key=lambda m: m.level)
        tl_rule = random_two_level_rule(rng, h, model)
        want = filtered_homomorphisms(tl_rule, model, h)
        assert brute_force_typed_matches(tl_rule, model, h) == want
        assert typed_matches(tl_rule, model, h) == want
        found += bool(want)
    assert found >= 200


def recorded_graph_matches(monkeypatch, find):
    """Runs `find()` and returns every `graph_match` call it made, with its
    arguments and result."""
    calls = []
    inner = matching.graph_match

    def recording(*args):
        result = inner(*args)
        calls.append((args, result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(matching, "graph_match", recording)
        find()
    return calls


@pytest.mark.parametrize("target", ["hammer_config", "stool_config"])
def test_graph_match_in_order_on_pls(pls, pls_module, monkeypatch, target):
    for rule in pls_module.rules:
        calls = recorded_graph_matches(
            monkeypatch, lambda: find_meta_matches(rule, pls, target)
        )
        assert calls
        for args, result in calls:
            assert result == brute_force_graph_match(*args)


def test_graph_match_in_order_on_random_cases(monkeypatch):
    rng = random.Random(1904)
    found = 0
    for _ in range(600):
        h = random_hierarchy(rng, depth=rng.randint(1, 3))
        rule = random_meta_rule(rng, depth=rng.randint(1, 2))
        bottom = max(h.models.values(), key=lambda m: m.level)
        calls = recorded_graph_matches(
            monkeypatch, lambda: find_meta_matches(rule, h, bottom.name)
        )
        for args, result in calls:
            assert result == brute_force_graph_match(*args)
            found += bool(result)
    assert found >= 150
