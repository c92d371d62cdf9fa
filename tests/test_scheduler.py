"""`run`'s schedule against a reference that lists every match afresh.

`run` keeps its live matches across steps and draws from them; the
reference scheduler in `support.py` rebuilds the list of (compiled rule,
match) pairs from a fresh `typed_matches` of every rule at each step.  Both
draw `rng.randrange` over that list in compiled-rule order and pop the draw,
and both redraw from the rest after a dangling skip, so their traces, stop
reasons and final models are equal.  The reference reads no engine internals.
"""

import os

import pytest

from mlmt.engine import run
from mlmt.rules import parse_rule_module

from support import reference_run

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def read_rules(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return parse_rule_module(fh.read()).rules


def agree(rules, h, target, steps, seed):
    """Asserts that `run` and the reference give the same trace, stop and final
    model; returns the reference's stop reason and skip count."""
    trace = run(rules, h, target, steps, seed)
    lines, stop, final, skips = reference_run(rules, h, target, steps, seed)
    assert trace.to_json_lines() == lines
    assert trace.stop == stop
    assert trace.final.model(target) == final.model(target)
    return len(trace.steps), stop, skips


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("target", ["hammer_config", "stool_config"])
def test_pls_runs_draw_as_the_reference(pls, pls_module, target, seed):
    assert agree(pls_module.rules, pls, target, 100, seed) == (100, "max-steps", 0)


def test_a_run_with_dangling_skips_draws_as_the_reference(pls):
    steps, stop, skips = agree(read_rules("pls_scrap.mcmt"), pls, "hammer_config", 60, 4)
    assert (steps, stop) == (60, "max-steps")
    assert skips > 0


@pytest.mark.parametrize("target", ["hammer_config", "stool_config"])
def test_a_run_where_every_match_dangles_stops_as_the_reference(pls, target):
    rules = read_rules("scrap_machine.mcmt")
    assert agree(rules, pls, target, 10, 0) == (0, "all-matches-dangling", 3)


def test_a_run_without_matches_stops_as_the_reference(pls):
    assert agree([], pls, "hammer_config", 10, 0) == (0, "no-match", 0)
