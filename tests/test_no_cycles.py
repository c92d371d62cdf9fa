"""The library makes no reference cycles: a run, a proliferation, a rewrite,
a parse and a validation free what they allocate by reference counting, and
leave nothing for Python's cycle collector.

Each case is called once, so caches and cached properties fill, and then
again with the collector off; `gc.collect()` counts what the second call left
unreachable.  The CLI is left out: `json.dumps(indent=2)` uses the standard
library's pure-Python encoder, which makes a cycle on every call.

Needs no pytest: `PYTHONPATH=src python tests/test_no_cycles.py` runs every
test here and prints each that fails.
"""

import gc
import os
import sys
from functools import lru_cache

from mlmt.engine import apply_mcmt, apply_two_level_rule, run, typed_matches
from mlmt.hierarchy import load_hierarchy, parse_hierarchy, read_text, validate_hierarchy
from mlmt.matching import proliferate, proliferate_all
from mlmt.rules import parse_rule_module, validate_rule

HERE = os.path.dirname(os.path.abspath(__file__))
PLS = os.path.join(HERE, "..", "fixtures", "pls.json")
PLS_RULES = os.path.join(HERE, "..", "fixtures", "pls.mcmt")
SCRAP_RULES = os.path.join(HERE, "fixtures", "scrap_machine.mcmt")  # every match dangles
FAMILY_PLANT = os.path.join(HERE, "fixtures", "family_plant.json")
TARGET = "hammer_config"


def unreachable_after(call) -> int:
    """The objects that a second call of `call` leaves for the cycle collector."""
    call()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@lru_cache(maxsize=None)
def pls():
    return load_hierarchy(PLS)


@lru_cache(maxsize=None)
def rules(path=PLS_RULES):
    return parse_rule_module(read_text(path)).rules


def compiled(path=PLS_RULES):
    return [tl for rule in rules(path) for tl in proliferate(rule, pls(), TARGET)]


def test_the_harness_sees_a_cycle():
    def cycle():
        loop = []
        loop.append(loop)

    assert unreachable_after(cycle) > 0


def test_runs():
    left = {
        seed: unreachable_after(lambda: run(rules(), pls(), TARGET, 50, seed)) for seed in range(4)
    }
    assert left == {0: 0, 1: 0, 2: 0, 3: 0}, left


def test_proliferation():
    plant = load_hierarchy(FAMILY_PLANT)
    cases = [(pls(), TARGET), (plant, "leaf_0"), (plant, "leaf_1")]
    left = [unreachable_after(lambda: proliferate_all(rules(), h, target)) for h, target in cases]
    assert left == [0, 0, 0], left


def test_rewrites_at_every_match():
    model = pls().model(TARGET)

    def apply_all(path):
        for tl in compiled(path):
            apply_two_level_rule(tl, model, pls())

    def apply_at_each():
        for tl in compiled():
            for m in typed_matches(tl, model, pls()):
                apply_two_level_rule(tl, model, pls(), at=m)

    calls = [lambda: apply_all(PLS_RULES), lambda: apply_all(SCRAP_RULES), apply_at_each]
    left = [unreachable_after(call) for call in calls]
    assert left == [0, 0, 0], left


def test_direct_rewrite():
    (rule,) = [r for r in rules() if r.name == "CreatePart"]
    model = pls().model(TARGET)
    at = [
        (tl.source_match, m)
        for tl in proliferate(rule, pls(), TARGET)
        for m in typed_matches(tl, model, pls())
    ]

    def apply_at_each():
        for mm_match, m in at:
            apply_mcmt(rule, pls(), TARGET, mm_match, m)

    left = unreachable_after(apply_at_each)
    assert at and left == 0, left


def test_parsing_and_validation():
    text, root = read_text(PLS), pls().model("root").graph
    calls = [
        lambda: parse_hierarchy(text),
        lambda: validate_hierarchy(pls()),
        lambda: parse_rule_module(read_text(PLS_RULES)),
        lambda: [validate_rule(rule, root) for rule in rules()],
    ]
    left = [unreachable_after(call) for call in calls]
    assert left == [0, 0, 0, 0], left


if __name__ == "__main__":
    tests = [(name, test) for name, test in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, test in tests:
        try:
            test()
        except AssertionError as err:
            failed += 1
            print(f"FAILED {name}: {err}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    sys.exit(1 if failed else 0)
