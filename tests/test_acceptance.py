"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line with the criterion number, so the whole checklist is visible in the
test output.
"""

import random
from collections import Counter
from contextlib import contextmanager

from mlmt.chains import derive_typing_chain, typing_to_chain
from mlmt.engine import apply_mcmt, apply_two_level_rule, run, typed_matches
from mlmt.errors import DanglingDeletion
from mlmt.graphs import (
    Graph,
    TotalMorphism,
    compose_partial,
    pullback_complement,
    pushout,
)
from mlmt.hierarchy import transitive_type_at, validate_hierarchy
from mlmt.matching import find_meta_matches, proliferate, proliferate_all

from support import (
    brute_force_meta_matches,
    chain_conditions_hold,
    chain_morphism_conditions_hold,
    compatibility_holds,
    inclusion,
    meta_match_key,
    oracle_pullback_complement,
    pushout_agrees_with_oracle,
    random_graph,
    random_hierarchy,
    random_meta_rule,
    random_partial_morphism,
    random_subgraph_pair,
    random_total_morphism,
)

from test_engine import expanded_mcmt_for


import conftest


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        line = f"CRITERION {number} ({label}): FAIL"
        print(line)
        conftest.criterion_lines.append(line)
        raise
    line = f"CRITERION {number} ({label}): PASS"
    print(line)
    conftest.criterion_lines.append(line)


def test_criterion_1_proliferation_breakdown(pls, pls_module):
    with criterion(1, "21 two-level rules with the expected breakdown"):
        per_rule = proliferate_all(pls_module.rules, pls, "hammer_config")
        counts = {name: len(rules) for name, rules in per_rule.items()}
        assert counts == {
            "CreatePart": 2,
            "SendPartOut": 4,
            "Assemble": 12,
            "TransferPart": 3,
        }
        assert sum(counts.values()) == 21


def test_criterion_2_create_part_meta_matches(pls, pls_rules):
    with criterion(2, "CreatePart has exactly the two generator bindings"):
        matches = find_meta_matches(pls_rules["CreatePart"], pls, "hammer_config")
        assert len(matches) == 2
        bindings = {
            (m.binding(2)["M1"], m.binding(2)["P1"]) for m in matches
        }
        assert bindings == {("GenHandle", "Handle"), ("GenHead", "Head")}


def test_criterion_3_create_part_rule_shapes(pls, pls_rules):
    with criterion(3, "proliferated CreatePart rules have the expected shape"):
        rules = proliferate(pls_rules["CreatePart"], pls, "hammer_config")
        assert len(rules) == 2
        seen = set()
        for rule in rules:
            assert rule.lhs == Graph(rule.lhs.name, frozenset({"m1"}), frozenset())
            assert rule.rhs.nodes == frozenset({"m1", "p1"})
            assert rule.rhs.arrows == frozenset({("m1", "c1", "p1")})
            assert rule.interface == rule.rhs
            machine = rule.types["m1"]
            part = rule.types["p1"]
            arrow = rule.types[("m1", "c1", "p1")]
            assert arrow == (
                "hammer_plant",
                (machine[1], "creates", part[1]),
            )
            seen.add((machine, part))
        assert seen == {
            (("hammer_plant", "GenHandle"), ("hammer_plant", "Handle")),
            (("hammer_plant", "GenHead"), ("hammer_plant", "Head")),
        }


def test_criterion_4_stool_cardinality_expansion(pls, pls_rules):
    with criterion(4, "Assemble on the stool branch expands the 3..3 legs"):
        rules = proliferate(pls_rules["Assemble"], pls, "stool_config")
        assert len(rules) == 6
        for rule in rules:
            legs = {
                n for n in rule.lhs.nodes if rule.types[n] == ("stool_plant", "Leg")
            }
            assert len(legs) == 3
            base = min(legs, key=len)
            assert legs == {base, f"{base}$1", f"{base}$2"}
            # each replica keeps its own containment arrow
            containment = {
                a for a in rule.lhs.arrows if a[2] in legs
            }
            assert {a[2] for a in containment} == legs


def _fixture_states(pls, pls_module):
    """A family of reachable states: seeded run prefixes over the fixture."""
    states = []
    for steps in (0, 3, 6, 9, 12, 15):
        trace = run(pls_module.rules, pls, "hammer_config", steps, seed=3)
        assert len(trace.steps) == steps
        states.append(trace.final)
    return states


def test_criterion_5_pipeline_equivalence(pls, pls_module, pls_rules):
    with criterion(5, "proliferate+rewrite agrees with direct MCMT application"):
        covered = set()
        for state in _fixture_states(pls, pls_module):
            model = state.model("hammer_config")
            for name, rule in pls_rules.items():
                for tl_rule in proliferate(rule, state, "hammer_config"):
                    expanded = expanded_mcmt_for(
                        tl_rule, rule, state, "hammer_config"
                    )
                    for m in typed_matches(tl_rule, model, state):
                        covered.add(name)
                        try:
                            via_rule, _ = apply_two_level_rule(
                                tl_rule, model, state, at=m
                            )
                        except DanglingDeletion:
                            via_rule = []
                        try:
                            _, direct = apply_mcmt(
                                expanded,
                                state,
                                "hammer_config",
                                tl_rule.source_match,
                                m,
                            )
                        except DanglingDeletion:
                            direct = None
                        if not via_rule:
                            assert direct is None
                            continue
                        assert direct is not None
                        assert via_rule[0].model.graph == direct.model.graph
                        assert via_rule[0].model.info == direct.model.info
                        # the direct route lists created elements in TO-pattern order
                        assert via_rule[0].deleted == direct.deleted
                        assert set(via_rule[0].created) == set(direct.created)
        assert covered == {"CreatePart", "SendPartOut", "Assemble", "TransferPart"}


def test_criterion_6_hammers_are_reachable(pls, pls_module):
    with criterion(6, "every seed assembles a hammer within 50 steps"):
        for seed in range(10):
            trace = run(pls_module.rules, pls, "hammer_config", 50, seed=seed)
            final = trace.final
            assert validate_hierarchy(final) == []
            config = final.model("hammer_config")
            hammers = {
                n
                for n in config.graph.nodes
                if transitive_type_at(final, "hammer_config", n, 2) == "Hammer"
            }
            assert hammers
            some = next(iter(hammers))
            attached = {
                transitive_type_at(final, "hammer_config", a, 2)
                for a in config.graph.incident(some)
            }
            assert ("Hammer", "hasHandle", "Handle") in attached
            assert ("Hammer", "hasHead", "Head") in attached


def test_criterion_7_randomized_construction_oracles(pls, pls_module):
    with criterion(7, "rewriting and chain checks agree with direct oracles"):
        rng = random.Random(2026)

        checked = 0
        while checked < 200:  # pushout against the disjoint-union oracle
            S, I = random_graph(rng, "S"), random_graph(rng, "I")
            nodes, arrows = random_subgraph_pair(rng, I)
            L = Graph("L", nodes, arrows)
            m = (
                random_total_morphism(rng, L, S)
                if L.nodes
                else TotalMorphism(L, S, {}, {})
            )
            if m is None:
                continue
            D, d = pushout(I, m)
            assert pushout_agrees_with_oracle(L, I, m, D, inclusion(S, D), d)
            checked += 1

        checked = 0
        while checked < 200:  # pullback complement against its oracle
            I, S = random_graph(rng, "I"), random_graph(rng, "S")
            nodes, arrows = random_subgraph_pair(rng, I)
            R = Graph("R", nodes, arrows)
            d = random_total_morphism(rng, I, S)
            if d is None:
                continue
            expected = oracle_pullback_complement(R, I, d)
            if expected is None:
                try:
                    pullback_complement(R, d)
                    raise AssertionError("gluing violation not detected")
                except DanglingDeletion:
                    pass
            else:
                T = pullback_complement(R, d)
                assert (T.nodes, T.arrows) == expected
            checked += 1

        checked = 0
        while checked < 200:  # associativity of partial composition
            A, B = random_graph(rng, "A", 4), random_graph(rng, "B", 4)
            C, D2 = random_graph(rng, "C", 4), random_graph(rng, "D", 4)
            f = random_partial_morphism(rng, A, B)
            g2 = random_partial_morphism(rng, B, C)
            h2 = random_partial_morphism(rng, C, D2)
            if None in (f, g2, h2):
                continue
            left = compose_partial(compose_partial(f, g2), h2)
            right = compose_partial(f, compose_partial(g2, h2))
            assert left.node_map == right.node_map
            assert left.arrow_map == right.arrow_map
            checked += 1

        for _ in range(200):  # chain + morphism + compatibility validators
            h = random_hierarchy(rng, depth=rng.randint(1, 3))
            bottom = max(h.models.values(), key=lambda m: m.level)
            chain, mt = derive_typing_chain(h, bottom.name)
            typings = {k: chain.typing(*k) for k in chain.typings}
            assert chain_conditions_hold(list(chain.graphs), typings) is None
            assert compatibility_holds(mt)
            _, cm = typing_to_chain(mt)
            assert chain_morphism_conditions_hold(cm)


def test_criterion_8_matcher_equals_exhaustive_search(pls):
    with criterion(8, "typed matcher agrees with exhaustive enumeration"):
        # most random META rules have no match, so the cases with one are
        # counted and kept above a floor
        rng = random.Random(404)
        nonempty = 0
        for _ in range(700):
            h = random_hierarchy(rng, depth=rng.randint(1, 3))
            rule = random_meta_rule(rng, depth=rng.randint(1, 2))
            bottom = max(h.models.values(), key=lambda m: m.level)
            stack = [h.model(n) for n in h.root_path(bottom.name)[:-1]]
            got = Counter(map(meta_match_key, find_meta_matches(rule, h, bottom.name)))
            want = Counter(map(meta_match_key, brute_force_meta_matches(rule, stack, h)))
            assert got == want
            nonempty += bool(got)
        assert nonempty >= 120
