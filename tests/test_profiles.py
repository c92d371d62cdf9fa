"""The level types of proliferated rules, pinned.

A compiled rule's `level_types` decide which model elements `run` may
match, and its `types` the types of the elements it creates.  The golden
file holds both for every rule proliferated onto the two PLS
configurations, as `proliferated_types` prints them; `instance_profile`
is also checked against the reference in `support` on random META matches.
"""

import json
import os
import random

import pytest

from mlmt.matching import find_meta_matches, instance_profile, proliferate, typing_stack

from support import random_hierarchy, random_meta_rule, reference_instance_profile

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "proliferated_types.json")


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
    stack_levels = [t for _, t in mm_match.level_map]
    return any(b - a > 1 for a, b in zip(stack_levels, stack_levels[1:]))


def test_instance_profile_agrees_with_the_reference_on_random_matches():
    rng = random.Random(2019)
    checked = skipping = 0
    for _ in range(600):
        h = random_hierarchy(rng, depth=rng.randint(1, 3))
        rule = random_meta_rule(rng, depth=rng.randint(1, 2))
        bottom = max(h.models.values(), key=lambda m: m.level)
        stack = typing_stack(h, bottom.name)
        for mm_match in find_meta_matches(rule, h, bottom.name):
            skipping += skips_a_level(mm_match)
            for el in rule.meta_elements + rule.implicit_elements:
                got = instance_profile(rule, el, mm_match, stack)
                assert got == reference_instance_profile(rule, el, mm_match)
                checked += 1
    assert skipping >= 50
    assert checked >= 500
