import json
import random
from dataclasses import replace

import pytest

from mlmt import engine
from mlmt.chains import chain_pullback_complement, chain_pushout, validate_chain_morphism
from mlmt.engine import TypeIndex, apply_mcmt, apply_two_level_rule, run, typed_matches
from mlmt.errors import DanglingDeletion, IncompatibleMatch, TypeMismatch
from mlmt.graphs import Graph, TotalMorphism
from mlmt.hierarchy import ElementInfo, ModelNode, transitive_type_at, validate_hierarchy
from mlmt.matching import TwoLevelRule, proliferate, typing_stack
from mlmt.rules import expand_cardinalities, parse_rule_module


def two_level_rules(pls, pls_rules, name, target="hammer_config"):
    return proliferate(pls_rules[name], pls, target)


def expanded_mcmt_for(tl_rule, source_rule, pls, target="hammer_config"):
    """The cardinality-expanded MCMT variant a two-level rule came from."""
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
    wanted = tl_rule.lhs.nodes | {a[1] for a in tl_rule.lhs.arrows}
    for cand in expand_cardinalities(source_rule, bound_mults):
        names = {e.name for e in cand.from_pattern.elements}
        if names == wanted:
            return cand
    raise AssertionError("no expanded variant reproduces the two-level LHS")


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
        ghost = replace(rule, interface=Graph(inter.name, inter.nodes | {"x"}, inter.arrows))
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
        noop = replace(rules[0], interface=rules[0].lhs, rhs=rules[0].lhs)
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
        component at each level is its level-0 component restricted there."""
        from test_matcher_order import run_states

        seen = []

        def recording(construction):
            def wrapper(*morphisms):
                seen.extend(morphisms)
                result = construction(*morphisms)
                seen.extend(result[1:])
                return result

            return wrapper

        monkeypatch.setattr(engine, "chain_pushout", recording(chain_pushout))
        monkeypatch.setattr(
            engine, "chain_pullback_complement", recording(chain_pullback_complement)
        )
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
        assert len(seen) >= 7 * applied
        for cm in seen:
            assert validate_chain_morphism(cm) == []
            base = cm.component(0)
            for i, component in cm.components.items():
                g = cm.src.graph_at(i)
                assert component.node_map == {n: base.node_map[n] for n in g.nodes}
                assert component.arrow_map == {a: base.arrow_map[a] for a in g.arrows}


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
                assert typed_matches(tl_rule, model, state, index) == typed_matches(
                    tl_rule, model, state
                )
            # every cached list and bucket holds what a fresh index's does,
            # each element once
            fresh = TypeIndex(state, model)
            for (arrows, profile), found in index.found.items():
                assert sorted(found) == sorted(fresh.candidates(arrows, profile))
            for profile, buckets in index.ends.items():
                want = fresh.by_ends(profile)
                assert {k: sorted(v) for k, v in buckets.items()} == {
                    k: sorted(v) for k, v in want.items()
                }

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
