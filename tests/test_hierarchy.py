import json
import os
import random

import pytest

from mlmt.errors import InheritanceCycle, ParseError, SchemaError
from mlmt.graphs import build_graph
from mlmt.hierarchy import (
    ElementInfo,
    ModelNode,
    build_hierarchy,
    derive_typing_chain,
    flatten_inheritance,
    hierarchy_to_json,
    level_jump,
    load_hierarchy,
    parse_hierarchy,
    save_hierarchy,
    transitive_type_at,
    validate_hierarchy,
)

from support import random_hierarchy

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class TestLoadSave:
    def test_fixture_loads_clean(self, pls):
        assert validate_hierarchy(pls) == []
        assert pls.root == "root"
        assert pls.model("hammer_config").level == 3

    def test_round_trip_identity(self, pls, tmp_path):
        path = tmp_path / "h.json"
        save_hierarchy(pls, str(path))
        reloaded = load_hierarchy(str(path))
        assert hierarchy_to_json(reloaded) == hierarchy_to_json(pls)

    def test_unknown_parent_rejected(self):
        with pytest.raises(SchemaError):
            parse_hierarchy(
                json.dumps({"models": [{"name": "a", "parent": "ghost"}]})
            )

    def test_unknown_type_rejected(self):
        data = {
            "models": [
                {
                    "name": "root",
                    "parent": None,
                    "nodes": [{"name": "Node", "type": "root.Missing"}],
                }
            ]
        }
        with pytest.raises(SchemaError):
            parse_hierarchy(json.dumps(data))

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_hierarchy("{ nope")
        assert err.value.line == 1

    def test_shared_arrow_names_resolved_by_endpoint_typing(self, pls):
        # hammer_plant has two arrows labelled `creates`; each one's typing
        # resolved to the generic arrow, and instances pick the right one
        hp = pls.model("hammer_plant")
        creating = [a for a in hp.graph.arrows if a[1] == "creates"]
        assert len(creating) == 2
        for a in creating:
            assert hp.info_for(a).direct_type == (
                "generic_plant",
                ("Machine", "creates", "Part"),
            )

    def test_shared_arrow_label_resolved_two_levels_up(self):
        # m1 has two arrows labelled r; each m3 arrow typed m1.r takes the one
        # whose endpoints are its endpoints' types at level 1, through m2
        h = load_hierarchy(os.path.join(FIXTURES, "shared_arrow_label.json"))
        m3 = h.model("m3")
        assert m3.info_for(("x", "e", "y")).direct_type == ("m1", ("A", "r", "B"))
        assert m3.info_for(("x", "e", "z")).direct_type == ("m1", ("A", "r", "C"))
        assert validate_hierarchy(h) == []


class TestValidation:
    def test_level_jump_through_two_levels_allowed(self, pls):
        out_arrow = ("ghandle", "out", "cv1")
        assert level_jump(pls, "hammer_config", out_arrow) == 2
        assert validate_hierarchy(pls) == []

    def test_potency_violation_when_type_forbids_the_jump(self, pls):
        gp = pls.model("generic_plant")
        out_key = ("Machine", "out", "Container")
        tightened = dict(gp.info)
        tightened[out_key] = ElementInfo(
            gp.info_for(out_key).direct_type, (1, 1), (0, None)
        )
        mutated = pls.with_model(
            ModelNode(gp.name, gp.parent, gp.level, gp.graph, tightened)
        )
        issues = validate_hierarchy(mutated)
        assert any(i.rule == "PotencyViolation" for i in issues)

    def test_dangling_arrow_typing_detected(self, pls):
        hc = pls.model("hammer_config")
        info = dict(hc.info)
        bad = ("asm", "in", "t1")
        # retype the `in` instance by `out`, whose source/target types
        # no longer fit the endpoints' transitive types
        info[bad] = ElementInfo(
            ("hammer_plant", ("Conveyor", "cout", "Tray")), (1, 1), (0, None)
        )
        mutated = pls.with_model(
            ModelNode(hc.name, hc.parent, hc.level, hc.graph, info)
        )
        issues = validate_hierarchy(mutated)
        assert any(i.rule == "DanglingTyping" for i in issues)

    def test_own_potency_is_irrelevant_to_own_typing(self, pls):
        # changing an instance's own potency never changes whether it
        # type-checks against its type
        hc = pls.model("hammer_config")
        info = dict(hc.info)
        for elem in list(info):
            info[elem] = ElementInfo(
                info[elem].direct_type,
                (3, 7),
                info[elem].multiplicity,
                info[elem].supertypes,
            )
        mutated = pls.with_model(
            ModelNode(hc.name, hc.parent, hc.level, hc.graph, info)
        )
        assert [i for i in validate_hierarchy(mutated) if i.model == "hammer_config"] == []


class TestDeriveTypingChain:
    def test_chain_follows_root_path(self, pls):
        chain, mt = derive_typing_chain(pls, "hammer_config")
        assert [g.name for g in chain.graphs] == [
            "root",
            "generic_plant",
            "hammer_plant",
            "hammer_config",
        ]

    def test_level_jumping_arrows_reach_across(self, pls):
        chain, _ = derive_typing_chain(pls, "hammer_config")
        t31 = chain.typing(3, 1)
        assert t31.arrow_map[("ghandle", "out", "cv1")] == (
            "Machine",
            "out",
            "Container",
        )
        # every node reaches the generic level through composed types
        assert set(t31.node_map) == chain.graph_at(3).nodes
        # the jump-2 arrows are invisible one level up
        t32 = chain.typing(3, 2)
        assert ("ghandle", "out", "cv1") not in t32.arrow_map

    def test_root_model_gives_length_zero_chain(self, pls):
        chain, mt = derive_typing_chain(pls, "root")
        assert chain.length == 0
        assert mt.sigmas[0].is_total()

    def test_direct_types_recoverable_from_maximal_defined_level(self, pls):
        chain, _ = derive_typing_chain(pls, "hammer_config")
        model = pls.model("hammer_config")
        path = pls.root_path("hammer_config")
        for elem in sorted(model.graph.nodes) + sorted(model.graph.arrows):
            defined = [
                i for i in range(3) if chain.typing(3, i).defined_on(elem)
            ]
            top = max(defined)
            expected_model, expected_elem = model.info_for(elem).direct_type
            assert path[top] == expected_model
            assert chain.typing(3, top)(elem) == expected_elem

    def test_random_hierarchies_derive_valid_chains(self):
        rng = random.Random(3)
        for _ in range(200):
            h = random_hierarchy(rng, depth=rng.randint(1, 3))
            assert validate_hierarchy(h) == []
            bottom = max(h.models.values(), key=lambda m: m.level)
            chain, mt = derive_typing_chain(h, bottom.name)  # raises if invalid
            assert chain.length == bottom.level


def inheritance_fixture():
    root_graph = build_graph("root", ["Node"], [("Node", "Arrow", "Node")])
    root = ModelNode(
        "root",
        None,
        0,
        root_graph,
        {
            "Node": ElementInfo(("root", "Node"), (1, 2)),
            ("Node", "Arrow", "Node"): ElementInfo(
                ("root", ("Node", "Arrow", "Node")), (1, 2), (0, None)
            ),
        },
    )
    graph = build_graph("m", ["z", "y", "x", "w"], [("z", "owns", "w")])
    info = {
        "z": ElementInfo(("root", "Node"), (1, 1)),
        "w": ElementInfo(("root", "Node"), (1, 1)),
        "y": ElementInfo(("root", "Node"), (1, 1), supertypes=frozenset({"z"})),
        "x": ElementInfo(("root", "Node"), (1, 1), supertypes=frozenset({"y"})),
        ("z", "owns", "w"): ElementInfo(
            ("root", ("Node", "Arrow", "Node")), (1, 1), (0, None)
        ),
    }
    m = ModelNode("m", "root", 1, graph, info)
    return build_hierarchy([root, m])


class TestFlattenInheritance:
    def test_no_inheritance_is_identity(self, pls):
        flat = flatten_inheritance(pls)
        assert hierarchy_to_json(flat) == hierarchy_to_json(pls)

    def test_child_receives_parent_material(self):
        h = flatten_inheritance(inheritance_fixture())
        m = h.model("m")
        assert ("y", "owns", "w") in m.graph.arrows
        assert m.info_for("y").supertypes == frozenset()

    def test_two_step_chain_equals_two_single_steps(self):
        h = inheritance_fixture()
        flat = flatten_inheritance(h)
        m = flat.model("m")
        # x inherits through y from z, so it gets z's arrow transitively
        assert ("x", "owns", "w") in m.graph.arrows

    def test_idempotent_and_validity_preserving(self):
        h = inheritance_fixture()
        once = flatten_inheritance(h)
        twice = flatten_inheritance(once)
        assert hierarchy_to_json(once) == hierarchy_to_json(twice)
        assert validate_hierarchy(once) == []

    def test_cycle_detected(self):
        root_graph = build_graph("root", ["Node"], [])
        root = ModelNode(
            "root", None, 0, root_graph, {"Node": ElementInfo(("root", "Node"), (1, 1))}
        )
        graph = build_graph("m", ["a", "b"], [])
        info = {
            "a": ElementInfo(("root", "Node"), (1, 1), supertypes=frozenset({"b"})),
            "b": ElementInfo(("root", "Node"), (1, 1), supertypes=frozenset({"a"})),
        }
        h = build_hierarchy([root, ModelNode("m", "root", 1, graph, info)])
        with pytest.raises(InheritanceCycle):
            flatten_inheritance(h)
        assert any(
            i.rule == "InheritanceCycle" for i in validate_hierarchy(h)
        )


class TestTransitiveTypes:
    def test_walks_to_requested_level(self, pls):
        assert transitive_type_at(pls, "hammer_config", "ghandle", 2) == "GenHandle"
        assert transitive_type_at(pls, "hammer_config", "ghandle", 1) == "Machine"
        assert transitive_type_at(pls, "hammer_config", "ghandle", 0) == "Node"

    def test_skipped_levels_have_no_type(self, pls):
        arrow = ("ghandle", "out", "cv1")
        assert transitive_type_at(pls, "hammer_config", arrow, 2) is None
        assert transitive_type_at(pls, "hammer_config", arrow, 1) == (
            "Machine",
            "out",
            "Container",
        )
