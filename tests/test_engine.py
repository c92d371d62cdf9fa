import json
import os
import random

import pytest

from mlmt import engine
from mlmt.chains import (
    build_chain,
    chain_pullback_complement,
    chain_pushout,
)
from mlmt.engine import TypeIndex, apply_mcmt, apply_two_level_rule, run, typed_matches
from mlmt.errors import DanglingDeletion, GraphMismatch, IncompatibleMatch, MlmtError, TypeMismatch
from mlmt.graphs import Graph, TotalMorphism
from mlmt.hierarchy import (
    ElementInfo,
    ModelNode,
    load_hierarchy,
    transitive_type_at,
    validate_hierarchy,
)
from mlmt.matching import TwoLevelRule, proliferate, typing_stack
from mlmt.rules import expand_cardinalities, parse_rule_module

from support import (
    chain_morphism_conditions_hold,
    random_hierarchy,
    random_mcmt_rule,
    random_two_level_rule,
)
from test_cli import DROP_MACHINE
from test_matcher_order import live_steps, two_steps


def two_level_rules(pls, pls_rules, name, target="hammer_config"):
    return proliferate(pls_rules[name], pls, target)


def checked(m):
    """`m` rebuilt by the constructor that checks that it is total and keeps arrow ends."""
    return TotalMorphism(m.src, m.dst, m.node_map, m.arrow_map)


def cardinality_variants(tl_rule, source_rule, pls, target="hammer_config"):
    """The cardinality-expanded variants of the MCMT a two-level rule came from,
    under the multiplicities its META match bound."""
    stack = typing_stack(pls, target)
    mm = tl_rule.source_match
    bound_mults = {}
    for el in source_rule.meta_elements + source_rule.implicit_elements:
        if el.kind != "arrow" or el.level < 1:
            continue
        bound = mm.binding(el.level).get(el.name)
        if bound is None:
            continue
        model = stack[mm.f(el.level)]
        bound_mults[(el.level, el.name)] = (
            model.info_for(bound).multiplicity or (0, None)
        )
    return expand_cardinalities(source_rule, bound_mults)


def element_names(graph):
    return graph.nodes | {a[1] for a in graph.arrows}


def expanded_mcmt_for(tl_rule, source_rule, pls, target="hammer_config"):
    """The cardinality-expanded MCMT variant a two-level rule came from: the one
    whose FROM and TO patterns hold the rule's element names.  Variants that
    differ only in created elements share their FROM names, so both sides are
    compared, and what is left must be one rule."""
    wanted = (element_names(tl_rule.lhs), element_names(tl_rule.rhs))
    found = [
        cand
        for cand in cardinality_variants(tl_rule, source_rule, pls, target)
        if tuple({e.name for e in p.elements} for p in (cand.from_pattern, cand.to_pattern))
        == wanted
    ]
    assert found, "no expanded variant reproduces the two-level rule"
    assert all(cand == found[0] for cand in found)
    return found[0]


class TestTwoLevelApplication:
    def test_create_part_adds_typed_part(self, pls, pls_rules):
        rules = two_level_rules(pls, pls_rules, "CreatePart")
        handle_rule = next(
            r for r in rules if r.types["p1"] == ("hammer_plant", "Handle")
        )
        model = pls.model("hammer_config")
        results, report = apply_two_level_rule(handle_rule, model, pls)
        assert report == []
        assert len(results) == 1
        (res,) = results
        assert res.created == ("p1$0", ("ghandle", "c1$0", "p1$0"))
        # the match put m1 on the handle generator
        assert res.match("m1") == "ghandle"
        succ = res.model
        assert succ.info_for("p1$0").direct_type == ("hammer_plant", "Handle")
        created_arrow = ("ghandle", "c1$0", "p1$0")
        assert created_arrow in succ.graph.arrows

    def test_given_match_is_type_checked(self, pls, pls_rules):
        rules = two_level_rules(pls, pls_rules, "CreatePart")
        handle_rule = next(
            r for r in rules if r.types["p1"] == ("hammer_plant", "Handle")
        )
        head_rule = next(
            r for r in rules if r.types["p1"] == ("hammer_plant", "Head")
        )
        model = pls.model("hammer_config")
        (head_match,) = typed_matches(head_rule, model, pls)
        with pytest.raises(TypeMismatch):
            apply_two_level_rule(handle_rule, model, pls, at=head_match)

    def test_given_match_into_another_graph_is_refused(self, pls, pls_rules):
        # applied, a match into a graph with an extra node gave a model that
        # held `ghost` with no info, which validation reported as MissingTyping
        rule = two_level_rules(pls, pls_rules, "CreatePart")[0]
        model = pls.model("hammer_config")
        (m,) = typed_matches(rule, model, pls)
        L, g = rule.lhs, model.graph
        ghost = Graph(g.name, g.nodes | {"ghost"}, g.arrows)
        with pytest.raises(GraphMismatch):
            apply_two_level_rule(rule, model, pls, at=m._replace(dst=ghost))
        renamed = Graph(L.name + "'", L.nodes, L.arrows)
        with pytest.raises(GraphMismatch):
            apply_two_level_rule(rule, model, pls, at=m._replace(src=renamed))
        # equal graphs are as good as the same ones
        equal = m._replace(src=Graph(L.name, L.nodes, L.arrows), dst=Graph(g.name, g.nodes, g.arrows))
        (want,) = apply_two_level_rule(rule, model, pls, at=m)[0]
        (got,) = apply_two_level_rule(rule, model, pls, at=equal)[0]
        assert got.model == want.model
        assert validate_hierarchy(pls.with_model(got.model)) == []

    def test_a_model_with_child_models_is_refused(self, pls):
        # deleting a machine of hammer_plant would leave hammer_config's elements typed by
        # nothing; `run` refuses the same target with the same message
        (rule,) = proliferate(parse_rule_module(DROP_MACHINE).rules[0], pls, "hammer_plant")
        model = pls.model("hammer_plant")
        matches = typed_matches(rule, model, pls)
        assert matches
        for at in (None, matches[0]):
            with pytest.raises(MlmtError, match="^'hammer_plant' has child models"):
                apply_two_level_rule(rule, model, pls, at=at)

    def test_incompatible_match_is_refused_by_the_direct_route(self, pls, pls_rules):
        rules = two_level_rules(pls, pls_rules, "CreatePart")
        handle_rule = next(
            r for r in rules if r.types["p1"] == ("hammer_plant", "Handle")
        )
        head_rule = next(
            r for r in rules if r.types["p1"] == ("hammer_plant", "Head")
        )
        (head_match,) = typed_matches(head_rule, pls.model("hammer_config"), pls)
        with pytest.raises(IncompatibleMatch) as err:
            apply_mcmt(
                pls_rules["CreatePart"], pls, "hammer_config", handle_rule.source_match, head_match
            )
        assert (err.value.level, err.value.element) == (2, "m1")

    def test_interface_element_outside_both_sides_is_neither_created_nor_deleted(
        self, pls, pls_rules
    ):
        # x is glued on by the pushout and removed again by the pullback complement
        rule = two_level_rules(pls, pls_rules, "CreatePart")[0]
        inter = rule.interface
        ghost = rule._replace(interface=Graph(inter.name, inter.nodes | {"x"}, inter.arrows))
        model = pls.model("hammer_config")
        (want,) = apply_two_level_rule(rule, model, pls)[0]
        (got,) = apply_two_level_rule(ghost, model, pls)[0]
        assert got.created == want.created == ("p1$0", ("ghandle", "c1$0", "p1$0"))
        assert got.deleted == ()
        assert got.model.graph == want.model.graph
        assert got.model.info == want.model.info

    def test_node_deleted_through_two_lhs_nodes_is_listed_once(self, pls):
        model = pls.model("hammer_config")
        graph = Graph(model.name, model.graph.nodes | {"z"}, model.graph.arrows)
        info = {**model.info, "z": model.info["ghandle"]}
        model = ModelNode(model.name, model.parent, model.level, graph, info)
        h = pls.with_model(model)
        lhs = Graph(model.name, frozenset({"a", "b"}))
        rule = TwoLevelRule(
            "drop_twice", lhs, lhs, Graph(model.name), {}, {"a": (), "b": ()}, "drop", None
        )
        at = TotalMorphism(lhs, model.graph, {"a": "z", "b": "z"})
        (res,) = apply_two_level_rule(rule, model, h, at=at)[0]
        assert res.deleted == ("z",)
        assert res.created == ()
        assert res.model.graph == pls.model("hammer_config").graph
        assert res.model.info == pls.model("hammer_config").info

    def test_identity_rule_returns_the_same_graph(self, pls, pls_rules):
        rules = two_level_rules(pls, pls_rules, "CreatePart")
        noop = rules[0]._replace(interface=rules[0].lhs, rhs=rules[0].lhs)
        model = pls.model("hammer_config")
        results, _ = apply_two_level_rule(noop, model, pls)
        for res in results:
            assert res.model.graph == model.graph
            assert res.created == () and res.deleted == ()

    def test_send_part_out_moves_one_arrow(self, pls, pls_rules):
        model = pls.model("hammer_config")
        grown, _ = apply_two_level_rule(
            two_level_rules(pls, pls_rules, "CreatePart")[0], model, pls
        )
        state = grown[0].model
        h2 = pls.with_model(state)
        rules = two_level_rules(pls, pls_rules, "SendPartOut")
        moved = [
            res
            for rule in rules
            for res in apply_two_level_rule(rule, state, h2)[0]
        ]
        assert moved  # the freshly created part can be sent out
        for res in moved:
            # one creates-arrow deleted, one contains-arrow added
            assert len(res.deleted) == 1 and len(res.created) == 1
            assert len(res.model.graph.arrows) == len(state.graph.arrows)
            assert len(res.model.graph.nodes) == len(state.graph.nodes)

    def test_untouched_elements_keep_their_names(self, pls, pls_rules):
        model = pls.model("hammer_config")
        rule = two_level_rules(pls, pls_rules, "CreatePart")[0]
        (res,) = apply_two_level_rule(rule, model, pls)[0:1][0][0:1]
        assert model.graph.nodes <= res.model.graph.nodes
        assert model.graph.arrows <= res.model.graph.arrows
        for elem, info in model.info.items():
            assert res.model.info_for(elem) == info


class TestDirectApplication:
    def test_agrees_with_two_level_pipeline(self, pls, pls_rules, pls_module):
        model = pls.model("hammer_config")
        for name, rule in pls_rules.items():
            for tl_rule in two_level_rules(pls, pls_rules, name):
                expanded = expanded_mcmt_for(tl_rule, rule, pls)
                for m in typed_matches(tl_rule, model, pls):
                    via_two_level, _ = apply_two_level_rule(
                        tl_rule, model, pls, at=m
                    )
                    h2, direct = apply_mcmt(
                        rule if expanded.name == rule.name else expanded,
                        pls,
                        "hammer_config",
                        tl_rule.source_match,
                        m,
                    )
                    assert via_two_level, "two-level application vanished"
                    left = via_two_level[0].model
                    right = h2.model("hammer_config")
                    assert left.graph == right.graph
                    assert left.info == right.info

    def test_result_hierarchy_stays_valid(self, pls, pls_rules):
        tl_rule = two_level_rules(pls, pls_rules, "CreatePart")[0]
        model = pls.model("hammer_config")
        (m,) = typed_matches(tl_rule, model, pls)
        rule = pls_rules["CreatePart"]
        h2, _ = apply_mcmt(rule, pls, "hammer_config", tl_rule.source_match, m)
        assert validate_hierarchy(h2) == []

    def test_chain_morphisms_are_restrictions_of_level_zero(
        self, pls, pls_module, pls_rules, monkeypatch
    ):
        """Every chain morphism the direct route passes to or gets back from
        the chain pushout and pullback complement, at every match of every
        compiled rule over the states of a seeded run, is valid, and its
        component at each level is its level-0 component restricted there.
        S is a subgraph of D, and T of D, at every level, and d maps R into
        T at every level."""
        from test_matcher_order import run_states

        seen = []
        included = []  # (sub, sup) chains: S and D, then T and D
        kept = []  # (R, d, T) of each pullback complement

        def pushout_recorded(leg, m):
            seen.append(m)
            D, d = chain_pushout(leg, m)
            seen.append(d)
            included.append((m.dst, D))
            return D, d

        def pullback_complement_recorded(leg, d):
            seen.append(d)
            T = chain_pullback_complement(leg, d)
            included.append((T, d.dst))
            kept.append((leg, d, T))
            return T

        monkeypatch.setattr(engine, "chain_pushout", pushout_recorded)
        monkeypatch.setattr(engine, "chain_pullback_complement", pullback_complement_recorded)
        compiled, states = run_states(pls_module.rules, pls, seed=0)
        variants = [
            (tl, expanded_mcmt_for(tl, pls_rules[tl.source_rule], pls)) for tl in compiled
        ]
        applied = 0
        for state in states:
            model = state.model("hammer_config")
            for tl_rule, variant in variants:
                for m in typed_matches(tl_rule, model, state):
                    try:
                        apply_mcmt(variant, state, "hammer_config", tl_rule.source_match, m)
                        applied += 1
                    except DanglingDeletion:
                        pass
        assert applied > 0
        assert len(seen) >= 3 * applied
        assert len(included) >= 2 * applied
        assert len(kept) >= applied
        for R, d, T in kept:
            for i, g in enumerate(R.graphs):
                d_i, t_i = d.component(i), T.graph_at(d.level_map[i])
                assert all(d_i.node_map[n] in t_i.nodes for n in g.nodes)
                assert all(d_i.arrow_map[a] in t_i.arrows for a in g.arrows)
        for sub, sup in included:
            assert sub.length == sup.length
            for g, h in zip(sub.graphs, sup.graphs):
                assert g.nodes <= h.nodes and g.arrows <= h.arrows
        for cm in seen:
            assert chain_morphism_conditions_hold(cm)
            for c in (cm.src, cm.dst):
                # refactor_inclusion_chain skips this re-check as valid by construction
                assert build_chain(c.graphs, c.typings) == c
                assert c.is_inclusion_chain()
            base = cm.component(0)
            for i, component in cm.components.items():
                g = cm.src.graph_at(i)
                assert component.node_map == {n: base.node_map[n] for n in g.nodes}
                assert component.arrow_map == {a: base.arrow_map[a] for a in g.arrows}


def test_compiled_and_direct_routes_agree_on_generated_inputs():
    # random MCMT rules compiled onto a leaf of random hierarchies: at every
    # match of every compiled rule, the two-level step and the direct chain
    # route give the same graph, info, deleted elements and set of created
    # elements, or both refuse the match as a dangling deletion.  Counted are
    # applications that delete, that dangle and that create, and those whose
    # compiled rule's FROM names fit variants that differ in what they create
    rng = random.Random(5)
    seen = dict.fromkeys(["delete", "dangle", "create", "ambiguous"], 0)
    for _ in range(800):
        depth = rng.randint(2, 4)
        h = random_hierarchy(rng, depth=depth, varied=True)
        parents = {m.parent for m in h.models.values()}
        target = rng.choice(sorted(name for name in h.models if name not in parents))
        rule = random_mcmt_rule(rng, depth=rng.randint(1, depth - 1))
        model = h.model(target)
        for tl_rule in proliferate(rule, h, target):
            variant = expanded_mcmt_for(tl_rule, rule, h, target)
            creates = {
                frozenset(e.name for e in v.to_pattern.elements)
                for v in cardinality_variants(tl_rule, rule, h, target)
                if {e.name for e in v.from_pattern.elements} == element_names(tl_rule.lhs)
            }
            for m in typed_matches(tl_rule, model, h):
                via_rule, _ = apply_two_level_rule(tl_rule, model, h, at=m)
                try:
                    _, direct = apply_mcmt(variant, h, target, tl_rule.source_match, m)
                except DanglingDeletion:
                    direct = None
                seen["ambiguous"] += len(creates) > 1
                if not via_rule:
                    assert direct is None
                    seen["dangle"] += 1
                    continue
                (compiled,) = via_rule
                assert direct is not None
                assert compiled.model.graph == direct.model.graph
                assert compiled.model.info == direct.model.info
                assert compiled.deleted == direct.deleted
                assert set(compiled.created) == set(direct.created)
                seen["delete"] += bool(compiled.deleted)
                seen["create"] += bool(compiled.created)
    assert min(seen["delete"], seen["dangle"], seen["create"]) >= 20, seen
    assert seen["ambiguous"] >= 10, seen


def assert_index_equals_fresh(index, state, model):
    """Every cached list and bucket of `index` holds what a fresh index's does, each element
    once."""
    fresh = TypeIndex(state, model)
    for (arrows, profile), found in index.found.items():
        assert sorted(found) == sorted(fresh.candidates(arrows, profile))
    for key, buckets in index.ends.items():
        want = fresh.by_ends(*key)
        assert {k: sorted(v) for k, v in buckets.items()} == {
            k: sorted(v) for k, v in want.items()
        }


class TestTypeIndex:
    def test_one_index_serves_every_state_of_a_run(self, pls, pls_module):
        from test_matcher_order import run_states

        compiled, states = run_states(pls_module.rules, pls, seed=2)
        trace = run(pls_module.rules, pls, "hammer_config", 50, seed=2)
        index = TypeIndex(pls, pls.model("hammer_config"))
        for state, step in zip(states, (None, *trace.steps)):
            model = state.model("hammer_config")
            if step is not None:
                index.step(model, step.created, step.deleted)
            for tl_rule in compiled:
                assert typed_matches(
                    tl_rule, model, state, pools=index.pools(tl_rule.pattern)
                ) == typed_matches(tl_rule, model, state)
            assert_index_equals_fresh(index, state, model)

    def test_a_profile_or_join_first_asked_between_steps_is_kept(self, pls, pls_module):
        # the index resolves each element type's memberships once, so a profile
        # or a join asked between two steps must drop what was resolved before
        # it: every later step keeps the new set and groups as a fresh index's
        from test_matcher_order import run_states

        compiled, states = run_states(pls_module.rules, pls, seed=2)
        trace = run(pls_module.rules, pls, "hammer_config", 50, seed=2)
        index = TypeIndex(pls, pls.model("hammer_config"))
        for tl_rule in compiled:
            index.pools(tl_rule.pattern)
        part = ((1, "Part"),)  # a node of any part type
        contains = ((1, ("Container", "contains", "Part")),)
        join = (contains, ((2, "Conveyor"), (1, "Container")), part)
        parts_after, joined_after = 0, 0
        for n, (state, step) in enumerate(zip(states[1:], trace.steps), 1):
            model = state.model("hammer_config")
            entered = index.step(model, step.created, step.deleted)
            if n > 10:
                parts_after += sum(part in keys for keys in entered.values())
                joined_after += sum(join in keys for keys in entered.values())
                assert_index_equals_fresh(index, state, model)
            if n == 10:
                assert (False, part) not in index.found and (True, contains) not in index.found
                index.candidates(False, part)
                index.candidates(True, contains)
            if n == 20:  # its profiles are served, and it is its arrow profile's first join
                assert join not in index.ends and contains not in index.joined
                index.by_ends(*join)
        assert parts_after > 0 and joined_after > 0

    def test_elements_typed_sideways_have_no_upper_types(self, pls):
        # z types itself and w types z: neither direct type lies on a
        # higher level, so neither element has a type above its model
        from support import brute_force_typed_matches, random_two_level_rule

        model = pls.model("hammer_config")
        info = dict(model.info)
        info["z"] = ElementInfo(("hammer_config", "z"))
        info["w"] = ElementInfo(("hammer_config", "z"))
        graph = Graph(model.name, model.graph.nodes | {"z", "w"}, model.graph.arrows)
        model = ModelNode(model.name, model.parent, model.level, graph, info)
        h = pls.with_model(model)
        rng = random.Random(7)
        for _ in range(200):
            tl_rule = random_two_level_rule(rng, h, model)
            assert typed_matches(tl_rule, model, h) == brute_force_typed_matches(
                tl_rule, model, h
            )


class TestRun:
    def test_a_target_with_child_models_is_refused(self, pls, pls_module):
        # hammer_config's elements are typed by hammer_plant's, which a step would rewrite
        with pytest.raises(MlmtError, match="^'hammer_plant' has child models"):
            run(pls_module.rules, pls, "hammer_plant", 1, seed=0)

    def test_trace_is_deterministic_for_a_seed(self, pls, pls_module):
        a = run(pls_module.rules, pls, "hammer_config", 20, seed=5)
        b = run(pls_module.rules, pls, "hammer_config", 20, seed=5)
        assert a.to_json_lines() == b.to_json_lines()
        assert a.final.model("hammer_config").graph == b.final.model(
            "hammer_config"
        ).graph

    def test_trace_lines_are_json(self, pls, pls_module):
        trace = run(pls_module.rules, pls, "hammer_config", 5, seed=0)
        lines = trace.to_json_lines().strip().splitlines()
        assert len(lines) == 5
        for i, line in enumerate(lines):
            payload = json.loads(line)
            assert payload["step"] == i
            assert set(payload) == {"step", "rule", "match", "created", "deleted"}

    def test_empty_rule_list_gives_empty_trace(self, pls):
        trace = run([], pls, "hammer_config", 10, seed=0)
        assert trace.steps == ()
        assert trace.final.model("hammer_config").graph == pls.model(
            "hammer_config"
        ).graph

    def test_steps_search_only_rules_a_created_element_can_anchor(
        self, pls, pls_module, monkeypatch
    ):
        # a step searches a rule's pattern element only from a created element
        # of its kind that carries its level types; a created node only for a
        # pattern node without arrows, a created arrow only when its ends are in
        # the pools of the pattern arrow's ends, and also when an end was
        # created with it
        initial, searched, lives, made, joined, kept = [], [], [], [], [], []
        inner, anchored, init = engine.typed_matches, engine._anchored, engine._LiveMatches.__init__
        step = engine._LiveMatches.step

        def counting(rule, model, h, **kw):
            initial.append(rule)
            return inner(rule, model, h, **kw)

        def recording(order, plan, pools, incidence, x, p):
            (live,) = lives
            (i,) = {e[1] for entries in live.anchors.values() for e in entries if e[5] is pools}
            rule = kept[0][i]
            h = pls.with_model(live.index.model)
            searched.append((rule, p, x, h, made[-1]))
            if isinstance(x, tuple):
                joined.append(x[0] in pools[p[0]] and x[2] in pools[p[2]])
            return anchored(order, plan, pools, incidence, x, p)

        def keeping(live, rules, *args):
            init(live, rules, *args)
            lives.append(live)
            kept.append(rules)

        def stepping(live, result):
            made.append(set(result.created))
            step(live, result)

        monkeypatch.setattr(engine, "typed_matches", counting)
        monkeypatch.setattr(engine, "_anchored", recording)
        monkeypatch.setattr(engine._LiveMatches, "__init__", keeping)
        monkeypatch.setattr(engine._LiveMatches, "step", stepping)
        trace = run(pls_module.rules, pls, "hammer_config", 200, seed=3)
        assert len(trace.steps) == 200
        assert len({rule.name for rule in initial}) == len(initial) == 21
        assert 0 < len(searched) < 21 * len(trace.steps)
        for rule, p, x, h, _ in searched:
            assert isinstance(p, tuple) == isinstance(x, tuple)
            assert all(
                transitive_type_at(h, "hammer_config", x, level) == want
                for level, want in rule.level_types[p]
            )
            assert isinstance(x, tuple) or not rule.lhs.incident(p)
        assert any(isinstance(x, tuple) and {x[0], x[2]} & new for _, _, x, _, new in searched)
        assert joined and all(joined)

    def test_a_run_plans_and_searches_only_where_a_match_can_exist(
        self, pls, pls_module, monkeypatch
    ):
        # on hammer_config, seed 0, 50 steps: the initial search plans (the
        # `search_plan` calls sized by the pools) and runs only the rules whose
        # pools are all non-empty, each of the 4 distinct left graphs gets
        # anchor plans once, only for its arrows and its nodes without arrows,
        # and a step makes at most one anchored search, on average, and none
        # that finds nothing: the join with the anchor's neighbouring pattern
        # arrows refuses those first
        planned, searched, anchored, lives, anchor_plans, kept = [], [], [], [], [], []
        plan, inner, anchor = engine.search_plan, engine.injective_matches, engine._anchored
        init, plans_of = engine._LiveMatches.__init__, engine._anchor_plans

        def planning(*args, **kw):
            if "size" in kw:
                planned.append(args)
            return plan(*args, **kw)

        def planning_anchors(lhs):
            anchor_plans.append(lhs)
            return plans_of(lhs)

        def searching(order, plan, pools, incidence, fixed=None):
            if fixed is None:
                searched.append(pools)
            return inner(order, plan, pools, incidence, fixed)

        def counting(*args):
            found = anchor(*args)
            anchored.append(found)
            return found

        def keeping(live, rules, *args):
            init(live, rules, *args)
            lives.append(live)
            kept.append(rules)

        monkeypatch.setattr(engine, "search_plan", planning)
        monkeypatch.setattr(engine, "injective_matches", searching)
        monkeypatch.setattr(engine, "_anchored", counting)
        monkeypatch.setattr(engine, "_anchor_plans", planning_anchors)
        monkeypatch.setattr(engine._LiveMatches, "__init__", keeping)
        trace = run(pls_module.rules, pls, "hammer_config", 50, seed=0)
        assert len(trace.steps) == 50
        (live,), (rules,) = lives, kept
        assert len(anchor_plans) == len({r.lhs for r in rules}) == 4
        assert len(rules) == 21
        fresh = TypeIndex(pls, pls.model("hammer_config"))
        full = [i for i, r in enumerate(rules) if all(fresh.pools(r.pattern)[0].values())]
        rule_of = {id(e[5]): e[1] for entries in live.anchors.values() for e in entries}
        assert len(full) == len(planned) == 2
        assert [rule_of[id(pools)] for pools in searched] == full
        for r in rules:
            lhs = r.lhs
            apart = {n for n in lhs.nodes if not lhs.incident(n)}
            assert set(plans_of(lhs)) == set(lhs.arrows) | apart
        assert 0 < len(anchored) <= len(trace.steps)
        assert all(anchored)

    def test_applied_matches_are_total_and_keep_ends(self, pls, pls_module, monkeypatch):
        # `run` builds each match it applies unchecked, from the images its searches found
        applied, inner = [], engine.apply_two_level_rule

        def recording(rule, model, h, at=None):
            applied.append(at)
            return inner(rule, model, h, at)

        monkeypatch.setattr(engine, "apply_two_level_rule", recording)
        trace = run(pls_module.rules, pls, "hammer_config", 200, seed=3)
        assert len(applied) >= len(trace.steps) == 200
        assert all(checked(m) == m for m in applied)

    def test_run_records_why_it_stopped(self, pls, pls_module):
        trace = run(pls_module.rules, pls, "hammer_config", 50, seed=0)
        assert (len(trace.steps), trace.stop) == (50, "max-steps")
        assert run([], pls, "hammer_config", 10, seed=0).stop == "no-match"
        scrap = os.path.join(os.path.dirname(__file__), "fixtures", "scrap_machine.mcmt")
        with open(scrap, encoding="utf-8") as fh:
            rules = parse_rule_module(fh.read()).rules
        trace = run(rules, pls, "hammer_config", 10, seed=0)
        assert (trace.steps, trace.stop) == ((), "all-matches-dangling")

    def test_only_a_run_that_deletes_nodes_builds_an_incidence_map(self, pls_paths, pls_module):
        # the dangling check of a node deletion is the only reader of the bottom graph's map; a
        # fresh load, as other tests may have built the map of the shared fixture's graphs
        h = load_hierarchy(pls_paths[0])
        assert "_incidence" not in vars(h.model("hammer_config").graph)
        for seed in range(4):  # no PLS rule deletes a node
            graph = run(pls_module.rules, h, "hammer_config", 50, seed).final.model(
                "hammer_config"
            ).graph
            assert "_incidence" not in vars(graph)
        scrap = os.path.join(os.path.dirname(__file__), "fixtures", "pls_scrap.mcmt")
        with open(scrap, encoding="utf-8") as fh:
            rules = parse_rule_module(fh.read()).rules
        trace = run(rules, h, "hammer_config", 60, seed=4)
        assert sum(s.rule.startswith("ScrapPart_") for s in trace.steps) == 13
        graph = trace.final.model("hammer_config").graph
        assert vars(graph)["_incidence"] == Graph(graph.name, graph.nodes, graph.arrows)._incidence

    def test_hammers_emerge_and_typing_is_preserved(self, pls, pls_module):
        trace = run(pls_module.rules, pls, "hammer_config", 50, seed=1)
        final = trace.final
        assert validate_hierarchy(final) == []
        hammers = [
            n
            for n in final.model("hammer_config").graph.nodes
            if transitive_type_at(final, "hammer_config", n, 2) == "Hammer"
        ]
        assert hammers


def test_typed_matches_are_total_and_keep_ends():
    # `typed_matches` and `run`'s anchor table keep matches as images that
    # `_morphism` turns into morphisms unchecked; on the generated cases of the
    # anchored-search oracle test, a full search and the lists kept after each
    # step, the checked constructor agrees
    rng = random.Random(1996)
    found = kept = 0
    for _ in range(800):
        h = random_hierarchy(rng, depth=rng.randint(1, 3))
        before = max(h.models.values(), key=lambda m: m.level)
        steps = two_steps(rng, before)
        final = steps[-1][0]
        if not final.graph.nodes:
            continue
        tl_rule = random_two_level_rule(rng, h.with_model(final), final, varied=True)
        for m in typed_matches(tl_rule, final, h.with_model(final)):
            assert checked(m) == m
            found += bool(m.arrow_map)
        for after, _, images in live_steps(tl_rule, h, before.name, steps):
            for t in images:
                m = engine._morphism(tl_rule, after.graph, t)
                assert checked(m) == m
                kept += bool(m.arrow_map)
    assert found + kept >= 200
    assert kept >= 100
