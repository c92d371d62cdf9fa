"""The level types of proliferated rules, pinned.

A compiled rule's `level_types` decide which model elements `run` may
match, and its `types` the types of the elements it creates.  The golden
file holds both for every rule proliferated onto the two PLS
configurations, as `proliferated_types` prints them; `instance_profile`
is also checked against the reference in `support` on random META matches,
and `proliferate` against `reference_proliferate` on the PLS configurations,
on a generated family plant with `k..k` bounds and skipped levels, and on
random rules with patterns and bounded multiplicities over random hierarchies.
"""

import json
import os
import random
from collections import Counter

import pytest

from mlmt import matching
from mlmt.hierarchy import load_hierarchy, transitive_type_at
from mlmt.matching import find_meta_matches, instance_profile, proliferate, proliferate_all
from mlmt.rules import type_chain

from support import (
    outgrows,
    random_hierarchy,
    random_mcmt_rule,
    random_meta_rule,
    reference_instance_profile,
    reference_proliferate,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(FIXTURES, "proliferated_types.json")
# a generated plant of two product families, with parts bounded `1..1` and
# `2..2` and two refinement models that the META level map skips: the JSON
# text of `wide_compile(5, 2, 2, 2)` from `perfbench/gen.py`, written once
FAMILY_PLANT = os.path.join(FIXTURES, "family_plant.json")


def _json(value):
    return list(value) if isinstance(value, tuple) else value


def proliferated_types(h, module, target):
    """Name, `types` and `level_types` of each rule proliferated onto
    `target`, with elements in `repr` order."""
    return [
        {
            "name": r.name,
            "types": [
                [_json(e), [model, _json(t)]]
                for e, (model, t) in sorted(r.types.items(), key=repr)
            ],
            "level_types": [
                [_json(e), [[level, _json(t)] for level, t in profile]]
                for e, profile in sorted(r.level_types.items(), key=repr)
            ],
        }
        for rule in module.rules
        for r in proliferate(rule, h, target)
    ]


@pytest.mark.parametrize("target,count", [("hammer_config", 21), ("stool_config", 10)])
def test_proliferated_types_match_the_golden_file(pls, pls_module, target, count):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[target]
    assert len(golden) == count
    assert proliferated_types(pls, pls_module, target) == golden


def skips_a_level(mm_match) -> bool:
    stack_levels = list(mm_match.level_map.values())
    return any(b - a > 1 for a, b in zip(stack_levels, stack_levels[1:]))


def test_instance_profile_agrees_with_the_reference_on_random_matches():
    rng = random.Random(2019)
    checked = skipping = nonempty = 0
    for _ in range(600):
        h = random_hierarchy(rng, depth=rng.randint(1, 3))
        rule = random_meta_rule(rng, depth=rng.randint(1, 2))
        bottom = max(h.models.values(), key=lambda m: m.level)
        matches = find_meta_matches(rule, h, bottom.name)
        nonempty += bool(matches)  # most random META rules have no match
        for mm_match in matches:
            skipping += skips_a_level(mm_match)
            for el in rule.meta_elements + rule.implicit_elements:
                got = instance_profile(rule, el, mm_match)
                assert got == reference_instance_profile(rule, el, mm_match)
                checked += 1
    assert skipping >= 50
    assert checked >= 500
    assert nonempty >= 100


@pytest.fixture(scope="module")
def family_plant():
    return load_hierarchy(FAMILY_PLANT)


def leaves(h):
    parents = {m.parent for m in h.models.values()}
    return sorted(name for name in h.models if name not in parents)


def compiled(rules):
    """Every field of each rule, dicts as item lists so their order counts too."""
    return [
        (r.name, r.lhs, r.interface, r.rhs, list(r.types.items()),
         list(r.level_types.items()), r.source_rule, r.source_match)
        for r in rules
    ]


def test_proliferate_agrees_with_the_reference(pls, pls_module, family_plant):
    cases = [(pls, "hammer_config"), (pls, "stool_config")]
    cases += [(family_plant, leaf) for leaf in leaves(family_plant)]
    assert len(cases) == 4
    for h, target in cases:
        for rule in pls_module.rules:
            got = proliferate(rule, h, target)
            assert compiled(got) == compiled(reference_proliferate(rule, h, target)), (rule.name, target)


def test_matches_with_equal_bound_multiplicities_keep_their_own_types(pls_rules, family_plant):
    # one match per generator machine; every `creates` arrow is unbounded, so
    # all four share one cardinality variant but bind different types
    rules = proliferate(pls_rules["CreatePart"], family_plant, "leaf_0")
    assert len(rules) == 4
    assert len({r.lhs for r in rules}) == 1
    assert len({tuple(sorted(r.types.items(), key=repr)) for r in rules}) == 4


def test_proliferation_skips_outgrown_levels_and_expands_each_key_once(pls_module, family_plant, monkeypatch):
    # the plant's two refinement models have 2 nodes and no arrows: a META level with arrows, or
    # with more nodes, is answered there without a `TypeIndex`; and a rule's cardinality
    # variants are expanded once per distinct set of bound multiplicities, not once per match
    levels, indexed, expanded = [], [], Counter()
    graph_match, index, expand = matching.graph_match, matching.TypeIndex, matching.expand_cardinalities

    def matching_level(pattern, target, *rest):
        levels.append((pattern, target, len(indexed)))
        return graph_match(pattern, target, *rest)

    class RecordingIndex(index):
        def __init__(self, h, model):
            indexed.append((levels[-1][0], model))
            super().__init__(h, model)

    def expanding(rule, bound_multiplicities):
        expanded[rule.name, tuple(sorted(bound_multiplicities.items()))] += 1
        return expand(rule, bound_multiplicities)

    monkeypatch.setattr(matching, "graph_match", matching_level)
    monkeypatch.setattr(matching, "TypeIndex", RecordingIndex)
    monkeypatch.setattr(matching, "expand_cardinalities", expanding)
    per_rule = proliferate_all(pls_module.rules, family_plant, "leaf_0")
    monkeypatch.undo()
    assert per_rule == proliferate_all(pls_module.rules, family_plant, "leaf_0")

    assert indexed and not any(outgrows(pattern, model) for pattern, model in indexed)
    ends = [n for _, _, n in levels[1:]] + [len(indexed)]
    skipped = [(pattern, model) for (pattern, model, n), end in zip(levels, ends) if end == n]
    assert skipped and all(outgrows(pattern, model) for pattern, model in skipped)
    assert len(skipped) + len(indexed) == len(levels)
    assert set(expanded.values()) == {1}
    assert sum(name == "Assemble" for name, _ in expanded) >= 3


def premise_cases(rule, h, rules):
    """Check that every level type of `rules` is the one `transitive_type_at` gives the bound
    image at the stack levels of its META element's type chain, and None elsewhere, which
    `proliferate` relies on to derive it once per (level map, META element, image); and count
    the cases that exercise that."""
    typed_by = {
        e.name: rule.meta_element(e.type_name, e.type_level)
        for e in rule.from_pattern.elements + rule.to_pattern.elements
    }
    seen, matches, profiles, rules_of = Counter(), {}, {}, Counter()
    for r in rules:
        mm = r.source_match
        rules_of[id(mm)] += 1
        for key, (model, image) in r.types.items():
            meta_el = typed_by[(key if isinstance(key, str) else key[1]).split("$")[0]]
            # the META levels of its type chain; a random one ends at a root type
            levels = {c.level for c in type_chain(rule, meta_el)} | {0}
            at = {mm.level_map[k] for k in levels}
            rebuilt = tuple(
                (lvl, transitive_type_at(h, model, image, lvl) if lvl in at else None)
                for lvl, _ in r.level_types[key]
            )
            assert r.level_types[key] == rebuilt, (rule.name, key)
            seen["META chain skips a META level"] += levels != set(range(max(levels) + 1))
            matches.setdefault((tuple(mm.level_map.items()), meta_el, image), set()).add(id(mm))
            profiles.setdefault((meta_el, image), set()).add(rebuilt)
    seen["level map skips a stack level"] = sum(skips_a_level(r.source_match) for r in rules)
    seen["matches bind one META element to one image"] = sum(len(m) > 1 for m in matches.values())
    seen["level maps give one image two profiles"] = sum(len(p) > 1 for p in profiles.values())
    seen["match with more than one variant"] = sum(n > 1 for n in rules_of.values())
    return seen


def test_proliferate_agrees_with_the_reference_on_random_rules():
    rng = random.Random(1815)
    seen = Counter()
    for _ in range(300):
        for depth in (2, 3, 4):
            h = random_hierarchy(rng, depth=depth, varied=True)
            rule = random_mcmt_rule(rng, depth=rng.randint(1, depth - 1))
            for target in leaves(h):
                got = proliferate(rule, h, target)
                assert compiled(got) == compiled(reference_proliferate(rule, h, target)), rule
                seen += premise_cases(rule, h, got)
    assert len(seen) == 5 and min(seen.values()) >= 1, seen
