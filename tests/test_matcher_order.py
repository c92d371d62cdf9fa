"""Ordered differential tests of the two matchers.

`run` draws a typed match by its index in the list `typed_matches` returns,
and proliferation names rules `<rule>_<n>` in META match order, so each
matcher must return exactly its oracle's list, order included.
"""

import random

import pytest

from mlmt import engine, matching
from mlmt.engine import apply_two_level_rule, run, typed_matches
from mlmt.graphs import Graph, TotalMorphism
from mlmt.hierarchy import ModelNode, TypeIndex
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


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("target", ["hammer_config", "stool_config"])
def test_maintained_matches_equal_fresh_ones(pls, pls_module, monkeypatch, target, seed):
    # `run` keeps each compiled rule's matches across steps; after every
    # step they must be the lists a search from scratch returns
    step = engine._LiveMatches.step
    checked = []

    def checking_step(live, h, result):
        step(live, h, result)
        model = h.model(target)
        fresh = TypeIndex(h, model)
        for tl_rule, found in zip(live.rules, live.lists):
            want = typed_matches(tl_rule, model, h, fresh)
            assert [(m.node_map, m.arrow_map) for m in found] == [
                (m.node_map, m.arrow_map) for m in want
            ]
        checked.append(sum(map(len, live.lists)))

    monkeypatch.setattr(engine._LiveMatches, "step", checking_step)
    trace = run(pls_module.rules, pls, target, 200, seed)
    assert len(checked) == len(trace.steps) > 0
    assert sum(checked) > len(checked)


def _grown(rng, model):
    """`model` after a made-up step: copies of some nodes, copies of some
    arrows between old nodes, and arrows from or to a node copy are created;
    some old arrows and old nodes left without arrows are deleted.  A copy
    takes the original's info, so the typing stays valid."""
    info, created = dict(model.info), []

    def create(element, like):
        created.append(element)
        info[element] = model.info[like]

    for n in sorted(model.graph.nodes):
        if rng.random() < 0.4:
            create(n + "*", n)
    for s, label, t in sorted(model.graph.arrows):
        if rng.random() < 0.5:
            create((s, label + "*", t), (s, label, t))
        if s + "*" in info and rng.random() < 0.7:
            create((s + "*", label + "<", t), (s, label, t))
        if t + "*" in info and rng.random() < 0.7:
            create((s, label + ">", t + "*"), (s, label, t))
    deleted = [a for a in sorted(model.graph.arrows) if rng.random() < 0.3]
    arrows = (model.graph.arrows - set(deleted)) | {c for c in created if isinstance(c, tuple)}
    for n in sorted(model.graph.nodes):
        if rng.random() < 0.3 and all(n not in (a[0], a[2]) for a in arrows):
            deleted.append(n)
    nodes = (model.graph.nodes - set(deleted)) | {c for c in created if not isinstance(c, tuple)}
    for e in deleted:
        del info[e]
    graph = Graph(model.name, frozenset(nodes), frozenset(arrows))
    return ModelNode(model.name, model.parent, model.level, graph, info), created, deleted


def test_anchored_matches_on_random_steps():
    # an index stepped by a made-up delta equals a fresh one, and
    # `touching=X` returns exactly the full list's matches that use X
    rng = random.Random(1982)
    used = 0
    for _ in range(600):
        h = random_hierarchy(rng, depth=rng.randint(1, 3))
        before = max(h.models.values(), key=lambda m: m.level)
        after, created, deleted = _grown(rng, before)
        if not after.graph.nodes:
            continue
        h_after = h.with_model(after)
        tl_rule = random_two_level_rule(rng, h_after, after)
        index = TypeIndex(h, before)
        typed_matches(tl_rule, before, h, index)  # fill the index's caches
        index.step(after, created, deleted)
        full = typed_matches(tl_rule, after, h_after)
        assert typed_matches(tl_rule, after, h_after, index) == full
        elements = sorted(after.graph.nodes) + sorted(after.graph.arrows)
        some = [e for e in elements if rng.random() < 0.3]
        for touching in (created, some):
            want = [m for m in full if any(m(e) in touching for e in (*m.node_map, *m.arrow_map))]
            assert typed_matches(tl_rule, after, h_after, index, touching=touching) == want
            used += bool(want)
    assert used >= 100


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
