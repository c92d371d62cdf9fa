import json
import random
from collections import Counter

import pytest

from mlmt.errors import UnresolvedReference
from mlmt.hierarchy import parse_hierarchy, validate_hierarchy
from mlmt.matching import (
    MetaMatch,
    _element_satisfies,
    find_meta_matches,
    proliferate,
    proliferate_all,
    rule_set_to_json,
    typing_stack,
)
from mlmt.rules import ARROW, NODE, MetaElement, parse_rule_module

from support import (
    brute_force_meta_matches,
    chain_morphism_conditions_hold,
    find_homomorphisms,
    meta_chain_for_match,
    meta_match_key,
    random_hierarchy,
    random_meta_rule,
    two_arrow_root_document,
)


class TestFixtureMatches:
    def test_create_part_has_exactly_two_bindings(self, pls, pls_rules):
        matches = find_meta_matches(pls_rules["CreatePart"], pls, "hammer_config")
        assert len(matches) == 2
        bound = set()
        for m in matches:
            b = m.binding(2)  # META level 2 binds into hammer_plant
            bound.add((b["M1"], b["P1"]))
        assert bound == {("GenHandle", "Handle"), ("GenHead", "Head")}

    def test_fixture_match_counts(self, pls, pls_rules):
        stack = typing_stack(pls, "hammer_config")
        counts = {
            name: len(find_meta_matches(rule, pls, "hammer_config"))
            for name, rule in pls_rules.items()
        }
        assert counts == {
            "CreatePart": 2,
            "SendPartOut": 4,
            "Assemble": 12,
            "TransferPart": 3,
        }

    def test_missing_constant_empties_the_match_set(self, pls, pls_rules):
        rule = pls_rules["CreatePart"]
        # rename the implicit `creates` constant so nothing in the stack
        # carries that name
        renamed = tuple(
            e._replace(name="fabricates") if e.name == "creates" else e
            for e in rule.implicit_elements
        )
        mutated = rule._replace(implicit_elements=renamed)
        assert find_meta_matches(mutated, pls, "hammer_config") == []

    def test_pattern_multiplicity_constrains_bindings(self, pls, pls_rules):
        rule = pls_rules["Assemble"]

        def with_mult(mult):
            meta = tuple(
                e._replace(multiplicity=mult) if e.name == "h1" else e
                for e in rule.meta_elements
            )
            return rule._replace(meta_elements=meta)

        # h1 binds arrows whose multiplicity is 1..1, which contains 1..1
        assert len(find_meta_matches(with_mult((1, 1)), pls, "hammer_config")) == 12
        # 0..2 is not contained in 1..1, so nothing satisfies the pattern
        assert find_meta_matches(with_mult((0, 2)), pls, "hammer_config") == []

    def test_pattern_deeper_than_stack_cannot_match(self, pls, pls_rules):
        # the root has no typing chain above it at all
        for target in ("generic_plant", "root"):
            assert find_meta_matches(pls_rules["CreatePart"], pls, target) == []

    def test_empty_meta_chain_has_the_root_match_alone(self, pls):
        # with no META level below the root, the root binding alone is a match, as in the oracle
        (rule,) = parse_rule_module("rules R { rule Empty { meta { } from { } to { } } }").rules
        stack = typing_stack(pls, "hammer_config")
        matches = find_meta_matches(rule, pls, "hammer_config")
        assert matches == brute_force_meta_matches(rule, stack, pls) == [MetaMatch({0: 0}, {0: {}})]

    def test_shallow_pattern_slides_across_levels(self, pls):
        module = parse_rule_module(
            """
rules R {
  rule Touch {
    meta {
      N1 : Node mm0
    }
    from { n : N1 }
    to { n : N1 }
  }
}
"""
        )
        matches = find_meta_matches(module.rules[0], pls, "hammer_config")
        # N1 can bind at the generic level (3 nodes) or the hammer level (8)
        levels = sorted({m.f(1) for m in matches})
        assert levels == [1, 2]
        assert len(matches) == 11


class TestRootBinding:
    def test_unknown_root_node_type(self, pls):
        module = parse_rule_module("rules R { rule Bad { meta { X : Bogus mm0 } from { } to { } } }")
        with pytest.raises(UnresolvedReference) as err:
            find_meta_matches(module.rules[0], pls, "hammer_config")
        assert str(err.value) == "Bad: unknown root type 'Bogus'"

    def test_label_of_several_root_arrows(self, pls_paths, pls_rules):
        h = parse_hierarchy(json.dumps(two_arrow_root_document(pls_paths[0])))
        with pytest.raises(UnresolvedReference) as err:
            find_meta_matches(pls_rules["SendPartOut"], h, "hammer_config")
        assert str(err.value) == "SendPartOut: root arrow type 'Arrow' not uniquely resolvable"


class TestElementSatisfies:
    @pytest.mark.parametrize(
        "kind, candidate, multiplicity, satisfied",
        [
            (ARROW, ("Hammer", "hasHandle", "Handle"), (1, 1), True),
            # an upper bound above the type's 1..1, or none
            (ARROW, ("Hammer", "hasHandle", "Handle"), (1, 2), False),
            (ARROW, ("Hammer", "hasHandle", "Handle"), (1, None), False),
            # only an arrow carries a multiplicity
            (NODE, "Hammer", (1, 1), False),
        ],
    )
    def test_multiplicity_within_the_images_type(self, pls, kind, candidate, multiplicity, satisfied):
        meta_el = MetaElement("e", 2, kind, "t", 1, multiplicity=multiplicity)
        assert _element_satisfies(meta_el, pls.model("hammer_plant"), candidate) is satisfied


def assert_match_form(rule, mm):
    """A META match holds a level map over META levels 0..depth, in order, onto strictly
    increasing stack levels; one binding per META level >= 1 over exactly its META names;
    and equals itself rebuilt from the same dicts in reversed insertion order."""
    assert list(mm.level_map) == list(range(rule.depth + 1))
    stack_levels = list(mm.level_map.values())
    assert all(a < b for a, b in zip(stack_levels, stack_levels[1:]))
    for k in range(1, rule.depth + 1):
        assert set(mm.binding(k)) == {e.name for e in rule.meta_at(k)}
    rebuilt = MetaMatch(
        dict(reversed(mm.level_map.items())),
        {k: dict(reversed(b.items())) for k, b in reversed(mm.bindings.items())},
    )
    assert rebuilt == mm


def test_meta_matches_have_the_documented_form(pls, pls_rules):
    checked = 0
    for rule in pls_rules.values():
        for mm in find_meta_matches(rule, pls, "hammer_config"):
            assert_match_form(rule, mm)
            checked += 1
    assert checked == 21
    rng = random.Random(7)
    checked = 0
    for _ in range(400):
        h = random_hierarchy(rng, depth=rng.randint(1, 3))
        rule = random_meta_rule(rng, depth=rng.randint(1, 2))
        bottom = max(h.models.values(), key=lambda m: m.level)
        for mm in find_meta_matches(rule, h, bottom.name):
            assert_match_form(rule, mm)
            checked += 1
    assert checked >= 150


class TestProliferation:
    def test_create_part_yields_two_rules(self, pls, pls_rules):
        rules = proliferate(pls_rules["CreatePart"], pls, "hammer_config")
        assert len(rules) == 2
        assert {r.name for r in rules} == {"CreatePart_0", "CreatePart_1"}

    @pytest.mark.parametrize("potency, count", [("1-1", 2), ("0-1", 0), ("1-2", 0), ("2-2", 0)])
    def test_meta_potency_lies_inside_the_image_potency(self, pls, pls_paths, potency, count):
        # generic_plant's Part, the image of P1, has potency 1-1
        with open(pls_paths[1], encoding="utf-8") as fh:
            text = fh.read().replace("P1 : Part mm1\n", f"P1 : Part mm1 @{potency}\n", 1)
        rule = next(r for r in parse_rule_module(text).rules if r.name == "CreatePart")
        assert rule.meta_element("P1").potency == tuple(map(int, potency.split("-")))
        assert len(proliferate(rule, pls, "hammer_config")) == count

    def test_total_over_all_rules_is_21(self, pls, pls_module):
        per_rule = proliferate_all(pls_module.rules, pls, "hammer_config")
        assert {k: len(v) for k, v in per_rule.items()} == {
            "CreatePart": 2,
            "SendPartOut": 4,
            "Assemble": 12,
            "TransferPart": 3,
        }
        assert sum(len(v) for v in per_rule.values()) == 21

    def test_no_variables_survive_proliferation(self, pls, pls_module):
        per_rule = proliferate_all(pls_module.rules, pls, "hammer_config")
        for rule in [r for batch in per_rule.values() for r in batch]:
            for elem, ty in rule.types.items():
                model, key = ty
                assert key in pls.model(model).graph.elements

    def test_deterministic(self, pls, pls_module):
        def flat():
            per_rule = proliferate_all(pls_module.rules, pls, "hammer_config")
            return [r for batch in per_rule.values() for r in batch]

        assert rule_set_to_json(flat()) == rule_set_to_json(flat())

    def test_interface_is_shared_part(self, pls, pls_module):
        per_rule = proliferate_all(pls_module.rules, pls, "hammer_config")
        for rule in [r for batch in per_rule.values() for r in batch]:
            # co-span form: both sides embed into the shared interface
            assert rule.interface.nodes == rule.lhs.nodes | rule.rhs.nodes
            assert rule.interface.arrows == rule.lhs.arrows | rule.rhs.arrows

    def test_json_shape(self, pls, pls_rules):
        payload = rule_set_to_json(proliferate(pls_rules["CreatePart"], pls, "hammer_config"))
        assert set(payload) == {"rules"}
        entry = payload["rules"][0]
        assert set(entry) == {"name", "lhs", "interface", "rhs"}


class TestChainRealization:
    def test_every_fixture_match_is_a_chain_morphism(self, pls, pls_module):
        stack = typing_stack(pls, "hammer_config")
        for rule in pls_module.rules:
            for m in find_meta_matches(rule, pls, "hammer_config"):
                chain, cm = meta_chain_for_match(rule, m, pls, stack)
                assert chain_morphism_conditions_hold(cm)


class TestAgainstOracles:
    def test_graph_match_agrees_with_brute_force_homomorphisms(self, pls, pls_rules):
        # the level-2 binding of CreatePart, checked structurally: every
        # match restricted to one level is an injective homomorphism
        rule = pls_rules["CreatePart"]
        pattern = rule.from_pattern.graph("lhs")
        target = pls.model("hammer_config").graph
        structural = find_homomorphisms(pattern, target, injective=True)
        assert len(structural) >= len(find_meta_matches(rule, pls, "hammer_config"))

    def test_matcher_agrees_with_exhaustive_enumeration(self):
        # most random META rules have no match (a constant never matches), so
        # the cases with a match are counted and kept above a floor
        rng = random.Random(11)
        nonempty = 0
        for _ in range(700):
            h = random_hierarchy(rng, depth=rng.randint(1, 3))
            rule = random_meta_rule(rng, depth=rng.randint(1, 2))
            bottom = max(h.models.values(), key=lambda m: m.level)
            stack = typing_stack(h, bottom.name)
            got = Counter(map(meta_match_key, find_meta_matches(rule, h, bottom.name)))
            want = Counter(map(meta_match_key, brute_force_meta_matches(rule, stack, h)))
            assert got == want
            nonempty += bool(got)
        assert nonempty >= 100


def _pool_document() -> dict:
    """A valid four-level hierarchy whose `lang` nodes, all typed by the root's `Node`, differ in
    potency, and whose `lang` arrows, all typed by the root's `Arrow`, differ in multiplicity:
    META elements with one profile and different tests draw from one candidate set there."""

    def node(name, type_ref, potency="1-1"):
        return {"name": name, "type": type_ref, "potency": potency}

    def arrow(source, name, target, type_ref, multiplicity="0..n", potency="1-1"):
        return {"name": name, "source": source, "target": target, "type": type_ref,
                "potency": potency, "multiplicity": multiplicity}

    return {"models": [
        {"name": "root", "parent": None, "nodes": [node("Node", "root.Node", "1-2")],
         "arrows": [arrow("Node", "Arrow", "Node", "root.Arrow", potency="1-2")]},
        {"name": "lang", "parent": "root",
         "nodes": [node("Wide", "root.Node", "0-2"), node("Narrow", "root.Node"),
                   node("Low", "root.Node", "0-1")],
         "arrows": [arrow("Wide", "one", "Narrow", "root.Arrow", "1..1"),
                    arrow("Wide", "many", "Low", "root.Arrow", "0..n", "1-2"),
                    arrow("Narrow", "few", "Low", "root.Arrow", "0..2")]},
        {"name": "model", "parent": "lang",
         "nodes": [node("w", "lang.Wide"), node("n", "lang.Narrow"), node("l", "lang.Low")],
         "arrows": [arrow("w", "o", "n", "lang.one", "1..1"), arrow("w", "m", "l", "lang.many")]},
        {"name": "leaf", "parent": "model", "nodes": [node("w1", "model.w")], "arrows": []},
    ]}


_POOL_RULES = {
    "potency": (
        "rule Low { meta { X : Node mm0 @0-1 } from { x : X } to { x : X } }",
        "rule Any { meta { X : Node mm0 } from { x : X } to { x : X } }",
    ),
    "multiplicity": (
        "rule Bounded { meta { A : Node mm0  B : Node mm0  r : Arrow mm0  r = A -> B }"
        " from { a : A  b : B  x : r  x = a -> b } to { a : A  b : B  x : r  x = a -> b } }",
        "rule Unbounded { meta { A : Node mm0  B : Node mm0  r : Arrow mm0  r = A -> B }"
        " from { a : A  b : B  x : r  x = a -> b } to { a : A  b : B  x : r  x = a -> b } }",
    ),
    "constant": (
        "rule Named { meta { Narrow : Node$ mm0 } from { n : Narrow } to { n : Narrow } }",
        "rule Open { meta { Narrow : Node mm0 } from { n : Narrow } to { n : Narrow } }",
    ),
}


class TestSharedPools:
    """One `proliferate_all` call shares each stack model's filtered candidate sets among its
    rules; META elements with one profile and different tests must not share a set."""

    @staticmethod
    def rules_for(test):
        first, second = _POOL_RULES[test]
        rules = list(parse_rule_module(f"rules R {{ {first} {second} }}").rules)
        if test == "multiplicity":  # the rule language has no META multiplicity
            meta = tuple(e._replace(multiplicity=(0, None)) if e.name == "r" else e
                         for e in rules[0].meta_elements)
            rules[0] = rules[0]._replace(meta_elements=meta)
        return rules

    def test_the_document_is_valid(self):
        assert validate_hierarchy(parse_hierarchy(json.dumps(_pool_document()))) == []

    @pytest.mark.parametrize("test", sorted(_POOL_RULES))
    @pytest.mark.parametrize("reverse", [False, True], ids=["filtered-first", "filtered-last"])
    def test_each_rule_keeps_its_own_test(self, test, reverse):
        h = parse_hierarchy(json.dumps(_pool_document()))
        rules = self.rules_for(test)
        rules = rules[::-1] if reverse else rules
        per_rule = proliferate_all(rules, h, "leaf")
        stack = typing_stack(h, "leaf")
        wants = []
        for rule in rules:
            matches = {id(r.source_match): r.source_match for r in per_rule[rule.name]}.values()
            got = Counter(map(meta_match_key, matches))
            want = Counter(map(meta_match_key, brute_force_meta_matches(rule, stack, h)))
            assert got == want, rule.name
            wants.append(want)
        # the two tests pick different, non-empty match sets from one profile
        assert all(wants) and wants[0] != wants[1]
