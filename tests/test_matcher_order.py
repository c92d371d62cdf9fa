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
from mlmt.hierarchy import ModelNode, transitive_type_at, validate_hierarchy
from mlmt.matching import TwoLevelRule, TypeIndex, find_meta_matches, proliferate

from support import (
    brute_force_graph_match,
    brute_force_typed_matches,
    filtered_homomorphisms,
    outgrows,
    random_hierarchy,
    random_mcmt_rule,
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


def per_rule(live, n):
    """`live.matches` as `n` lists of image tuples, one per rule index; the one
    list must hold each rule's matches together, the rules in index order."""
    lists = [[] for _ in range(n)]
    for i, t in live.matches:
        lists[i].append(t)
    assert live.matches == [(i, t) for i, found in enumerate(lists) for t in found]
    return lists


def keeping_rules(monkeypatch):
    """The compiled rules of each `_LiveMatches` built from now on, the
    latest last."""
    kept, init = [], engine._LiveMatches.__init__

    def keeping(live, rules, *rest):
        init(live, rules, *rest)
        kept.append(rules)

    monkeypatch.setattr(engine._LiveMatches, "__init__", keeping)
    return kept


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("target", ["hammer_config", "stool_config"])
def test_maintained_matches_equal_fresh_ones(pls, pls_module, monkeypatch, target, seed):
    # `run` keeps each compiled rule's matches across steps; after every
    # step they must be the images, in `rule.pattern` order, of the lists a
    # search from scratch returns
    step = engine._LiveMatches.step
    checked, kept = [], keeping_rules(monkeypatch)

    def checking_step(live, result):
        step(live, result)
        model = result.model
        h = pls.with_model(model)
        rules = kept[-1]
        for tl_rule, found in zip(rules, per_rule(live, len(rules))):
            want = typed_matches(tl_rule, model, h)
            assert found == [tuple(m(e) for e in tl_rule.pattern) for m in want]
        checked.append(len(live.matches))

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
    # an index stepped by a made-up delta hands out the candidates a fresh
    # one builds, so a search through it returns the same list
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
        typed_matches(tl_rule, before, h, pools=index.pools(tl_rule.pattern))  # fill the caches
        index.step(after, created, deleted)
        full = typed_matches(tl_rule, after, h_after)
        assert typed_matches(tl_rule, after, h_after, pools=index.pools(tl_rule.pattern)) == full
        used += bool(full)
    assert used >= 100


def _rule_around(rng, h, model, x):
    """A rule whose left pattern is the element `x` of `model`, with an
    arrow's ends and, half the time, another arrow of the model at one of
    them, with its ends, and whose level types are its own types at random
    levels above the model, so that it matches at `x`, and at its
    look-alikes.  A search from either arrow then joins with the other."""
    if not isinstance(x, tuple):
        return _rule_like(rng, h, model, {"y0": x})
    names = {}  # image -> pattern node

    def node(image):
        return names.setdefault(image, f"y{len(names)}")

    like = {(node(x[0]), "b", node(x[2])): x}
    beside = sorted(a for a in model.graph.arrows if a != x and {a[0], a[2]} & {x[0], x[2]})
    if beside and rng.random() < 0.5:
        z = rng.choice(beside)
        like[node(z[0]), "c", node(z[2])] = z
    like.update({name: image for image, name in names.items()})
    return _rule_like(rng, h, model, like)


def _rule_like(rng, h, model, like):
    """A rule whose left pattern is the elements of `like`, each with its
    image's types at random levels above the model."""
    nodes = frozenset(e for e in like if not isinstance(e, tuple))
    lhs = Graph(model.name, nodes, frozenset(like) - nodes)
    levels = sorted(rng.sample(range(model.level), rng.randint(0, model.level)), reverse=True)
    level_types = {
        e: tuple((lvl, transitive_type_at(h, model.name, img, lvl)) for lvl in levels)
        for e, img in like.items()
    }
    return TwoLevelRule("Around", lhs, lhs, lhs, {}, level_types, "Around", None)


def _anchorable(rule, h, model, x):
    """The arrows of the rule's left pattern that the model's arrow `x` can
    stand for by its and its ends' level types, found without an index."""
    def typed(e, img):
        return all(
            transitive_type_at(h, model.name, img, level) == want
            for level, want in rule.level_types[e]
        )

    return [
        p for p in sorted(rule.lhs.arrows)
        if typed(p, x) and typed(p[0], x[0]) and typed(p[2], x[2])
    ]


def _beside_loop_or_both_ends(lhs, p):
    """Whether another arrow of `lhs` is a loop at an end of `p`, or joins
    both ends of `p`."""
    ends = {p[0], p[2]}
    return any(
        b != p and ({b[0], b[2]} == ends or (b[0] == b[2] and b[0] in ends))
        for b in lhs.arrows
    )


def test_anchor_table_steps_agree_with_the_exhaustive_search(monkeypatch):
    # after `_LiveMatches.step` on a made-up delta, each rule's kept list is
    # the exhaustive search's on the grown model, in `rule.pattern` order;
    # the anchored searches behind it start from nodes, arrows and loops, and
    # a match through a created arrow with a created end is still found.  A
    # created arrow that can stand for a pattern arrow by its types, and from
    # which no search starts, was refused by the join with the pattern's other
    # arrows at its ends; such refusals of arrows, of loops, and of anchors
    # next to a loop or to an arrow that joins both their ends are counted,
    # and the lists still match, so no refusal loses a match
    rng = random.Random(1970)
    seen = dict.fromkeys(
        ["node anchor", "arrow anchor", "loop anchor", "created end", "refused arrow",
         "refused loop", "refused beside a loop or a both-ends arrow"],
        0,
    )
    anchored, searched = engine._anchored, set()

    def counting(order, plan, pools, incidence, x, p):
        found = anchored(order, plan, pools, incidence, x, p)
        kind = "node" if not isinstance(x, tuple) else "loop" if x[0] == x[2] else "arrow"
        seen[f"{kind} anchor"] += bool(found)
        searched.add((id(pools), p, x))
        return found

    monkeypatch.setattr(engine, "_anchored", counting)
    for _ in range(300):
        h = random_hierarchy(rng, depth=rng.randint(1, 3))
        before = max(h.models.values(), key=lambda m: m.level)
        after, created, deleted = _grown(rng, before)
        if not created:
            continue
        h_after = h.with_model(after)
        rules = [random_two_level_rule(rng, h_after, after) for _ in range(2)]
        rules.append(_rule_around(rng, h_after, after, rng.choice(created)))
        live = engine._LiveMatches(rules, h, before.name)
        searched.clear()
        live.step(engine.ApplicationResult(after, None, tuple(created), tuple(deleted)))
        pools_of = {e[1]: id(e[5]) for entries in live.anchors.values() for e in entries}
        for i, (rule, found) in enumerate(zip(rules, per_rule(live, len(rules)))):
            want = filtered_homomorphisms(rule, after, h_after)
            assert found == [tuple(m(e) for e in rule.pattern) for m in want]
            for x in (c for c in created if isinstance(c, tuple)):
                for p in _anchorable(rule, h_after, after, x):
                    if (pools_of[i], p, x) in searched:
                        continue
                    seen["refused loop" if x[0] == x[2] else "refused arrow"] += 1
                    beside = _beside_loop_or_both_ends(rule.lhs, p)
                    seen["refused beside a loop or a both-ends arrow"] += beside
        skipped = {a for a in created if isinstance(a, tuple) and (a[0] in created or a[2] in created)}
        seen["created end"] += any(not skipped.isdisjoint(t) for _, t in live.matches)
    assert min(seen.values()) >= 20, seen


def test_runs_keep_fresh_matches_on_generated_inputs(monkeypatch):
    # seeded 8-step runs of a random MCMT rule on a random leaf of a random
    # hierarchy, half of them with the rule's reader, whose left pattern is the
    # rule's right one, so that later steps match through what it created:
    # after every step each rule's kept list is the images of a fresh search
    # and the model's derived incidence map is a rebuilt one, and every final
    # hierarchy is valid.  Steps that delete, steps that create an arrow with
    # a created end, and kept matches that send a pattern node with an arrow to
    # a node created in that step are counted.  With the old skip of a created
    # arrow with a created end put back on top of an anchor table without
    # entries for pattern nodes with arrows, this test fails.
    rng = random.Random(2008)
    seen = dict.fromkeys(["deletes", "created end", "through a created node"], 0)
    step, kept = engine._LiveMatches.step, keeping_rules(monkeypatch)

    def checking_step(live, result):
        step(live, result)
        model, created = result.model, set(result.created)
        h, g = live.index.h.with_model(model), model.graph
        assert g._incidence == Graph(g.name, g.nodes, g.arrows)._incidence
        rules = kept[-1]
        for tl_rule, found in zip(rules, per_rule(live, len(rules))):
            want = typed_matches(tl_rule, model, h)
            assert found == [tuple(m(e) for e in tl_rule.pattern) for m in want]
            seen["through a created node"] += sum(
                img in created
                for t in found
                for p, img in zip(tl_rule.pattern, t)
                if not isinstance(p, tuple) and tl_rule.lhs.incident(p)
            )
        seen["deletes"] += bool(result.deleted)
        seen["created end"] += any(
            isinstance(a, tuple) and {a[0], a[2]} & created for a in created
        )

    monkeypatch.setattr(engine._LiveMatches, "step", checking_step)
    for case in range(300):
        depth = rng.randint(2, 4)
        h = random_hierarchy(rng, depth=depth, varied=True)
        parents = {m.parent for m in h.models.values()}
        target = rng.choice(sorted(name for name in h.models if name not in parents))
        rule = random_mcmt_rule(rng, depth=rng.randint(1, depth - 1))
        rules = [rule]
        if case % 2:
            rules.append(rule._replace(name=rule.name + "_reads", from_pattern=rule.to_pattern))
        trace = run(rules, h, target, 8, seed=case)
        assert validate_hierarchy(trace.final) == []
    assert min(seen.values()) >= 10, seen


def _doubled(rng, model):
    """`model` after a made-up step that creates a copy `n'` of each node and
    of each arrow between the copies, some of them twice, as parallel arrows,
    as `_grown` gives it; every copy takes the original's info."""
    info = dict(model.info)
    arrows = set(model.graph.arrows)
    for n in model.graph.nodes:
        info[n + "'"] = model.info[n]
    for s, label, t in sorted(model.graph.arrows):
        copies = [(s + "'", label, t + "'")]
        if rng.random() < 0.5:
            copies.append((s + "'", label + "'", t + "'"))
        for c in copies:
            info[c] = model.info[s, label, t]
            arrows.add(c)
    nodes = model.graph.nodes | {n + "'" for n in model.graph.nodes}
    graph = Graph(model.name, frozenset(nodes), frozenset(arrows))
    created = sorted(nodes - model.graph.nodes) + sorted(arrows - model.graph.arrows)
    return ModelNode(model.name, model.parent, model.level, graph, info), created, []


def two_steps(rng, model):
    """Two made-up steps from `model`: `_doubled`, then `_grown` of that."""
    first = _doubled(rng, model)
    return [first, _grown(rng, first[0])]


def live_steps(rule, h, target, steps):
    """Builds `run`'s `_LiveMatches` for `rule` on the model `target` of `h`,
    steps it through `steps`, and yields after each step the model, what the
    step created and the rule's kept list."""
    live = engine._LiveMatches([rule], h, target)
    for after, created, deleted in steps:
        live.step(engine.ApplicationResult(after, None, tuple(created), tuple(deleted)))
        yield after, created, per_rule(live, 1)[0]


def test_anchored_matches_agree_with_the_brute_force_oracle():
    # the anchor table `run` keeps, stepped through a doubled and then a grown
    # model, holds the exhaustive search's matches after each step, for
    # patterns of up to 5 nodes with self-loops, parallel arrows and a node
    # without arrows, and finds matches through a created arrow whose end was
    # created with it
    rng = random.Random(1996)
    seen = dict.fromkeys(["loop", "parallel", "apart", "created end"], 0)
    for _ in range(2500):
        h = random_hierarchy(rng, depth=rng.randint(1, 3))
        before = max(h.models.values(), key=lambda m: m.level)
        steps = two_steps(rng, before)
        final = steps[-1][0]
        if not final.graph.nodes:
            continue
        tl_rule = random_two_level_rule(rng, h.with_model(final), final, varied=True)
        lhs = tl_rule.lhs
        for after, created, found in live_steps(tl_rule, h, before.name, steps):
            want = brute_force_typed_matches(tl_rule, after, h.with_model(after))
            assert found == [tuple(m(e) for e in tl_rule.pattern) for m in want]
            made = set(created)
            new = [t for t in found if not made.isdisjoint(t)]
            if not new:
                continue
            seen["loop"] += any(a[0] == a[2] for a in lhs.arrows)
            seen["parallel"] += len({(a[0], a[2]) for a in lhs.arrows}) < len(lhs.arrows)
            seen["apart"] += any(not lhs.incident(n) for n in lhs.nodes) and bool(lhs.arrows)
            ends = {a for a in made if isinstance(a, tuple) and {a[0], a[2]} & made}
            seen["created end"] += any(not ends.isdisjoint(t) for t in new)
    assert min(seen.values()) >= 20, seen


def recorded_graph_matches(monkeypatch, find):
    """Runs `find()` and returns every `graph_match` call it made, with its
    result and its first six arguments, the ones the oracle takes: the
    `TypeIndex` table that the call's levels share is left out, so the oracle
    never sees it."""
    calls = []
    inner = matching.graph_match

    def recording(*args):
        result = inner(*args)
        calls.append((args[:6], result))
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
    found = nonempty = outgrown = 0
    for _ in range(600):
        h = random_hierarchy(rng, depth=rng.randint(1, 3))
        rule = random_meta_rule(rng, depth=rng.randint(1, 2))
        bottom = max(h.models.values(), key=lambda m: m.level)
        matches = []
        calls = recorded_graph_matches(
            monkeypatch, lambda: matches.extend(find_meta_matches(rule, h, bottom.name))
        )
        for args, result in calls:
            assert result == brute_force_graph_match(*args)
            found += bool(result)
            outgrown += outgrows(args[0], args[1])  # the oracle enumerates these too
        nonempty += bool(matches)  # most random META rules have no match
    assert found >= 150
    assert nonempty >= 100
    assert outgrown >= 100
