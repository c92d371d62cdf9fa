import json
import os
import random
import subprocess
import sys
from collections import Counter
from typing import Optional

import pytest

from mlmt.chains import derive_typing_chain
from mlmt.cli import main
from mlmt.errors import InputError, ParseError, SchemaError
from mlmt.graphs import build_graph
from mlmt.hierarchy import (
    MAX_JSON_DEPTH,
    ElementInfo,
    ModelNode,
    MultilevelHierarchy,
    build_hierarchy,
    hierarchy_to_json,
    load_hierarchy,
    parse_hierarchy,
    transitive_type_at,
    validate_hierarchy,
)

from support import (
    child_env,
    random_hierarchy,
    random_inheritance_hierarchy,
    reference_transitive_type_at,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class TestLoadSave:
    def test_fixture_loads_clean(self, pls):
        assert validate_hierarchy(pls) == []
        assert pls.root == "root"
        assert pls.model("hammer_config").level == 3

    def test_round_trip_identity(self, pls, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(hierarchy_to_json(pls), indent=2), encoding="utf-8")
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

    def test_parent_cycle_rejected_without_hanging(self):
        # `build_hierarchy` on models whose parents form a cycle below the root
        # raises as `parse_hierarchy` does; it runs in a child process with a
        # timeout and a bounded address space, so that a walk around the cycle
        # fails here instead of hanging or filling memory
        code = """if True:
            try:
                import resource
                resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
            except (ImportError, OSError, ValueError):
                pass
            from mlmt.errors import SchemaError
            from mlmt.graphs import build_graph
            from mlmt.hierarchy import ModelNode, build_hierarchy
            models = [ModelNode("root", None, 0, build_graph("root", [], []))]
            models += [ModelNode(n, p, 1, build_graph(n, [], [])) for n, p in ("ab", "ba")]
            try:
                build_hierarchy(models)
            except SchemaError as err:
                print(err)
        """
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=child_env(), text=True, timeout=20
        )
        assert (proc.stdout, proc.stderr) == ("parent cycle through 'a'\n", "")

    @pytest.mark.parametrize(
        "children, message",
        [
            ([("m", "root", 1), ("m", "root", 1)], "duplicate model name 'm'"),
            ([("m", "ghost", 1)], "m: unknown parent 'ghost'"),
            ([("m", "root", 2)], "m: declared level 2 but tree depth is 1"),
        ],
    )
    def test_models_built_in_code_are_checked(self, children, message):
        # `parse_hierarchy` rejects each of these before it builds the models
        models = [ModelNode("root", None, 0, build_graph("root", [], []))]
        models += [ModelNode(n, p, level, build_graph(n, [], [])) for n, p, level in children]
        with pytest.raises(SchemaError) as err:
            build_hierarchy(models)
        assert str(err.value) == message

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_hierarchy("{ nope")
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "value, message",
        [
            ("[" * 2000, "input error: JSON nested too deeply"),
            ("[" * 100, "parse error: 2:1: Expecting value"),
            # brackets in a string, closed or not, do not nest
            ('"' + "[" * 2000 + '"', "parse error: 2:1: Expecting ',' delimiter"),
            ('"' + "[" * 2000 + "\\q", "parse error: 1:2013: Invalid \\escape"),
        ],
    )
    def test_nesting_past_the_bound_is_reported_on_every_interpreter(self, value, message, tmp_path, capsys):
        # unclosed text 2,000 levels deep: the C scanner of 3.10-3.12 runs out
        # of stack, that of 3.13 reaches the end of the text; both read alike
        path = tmp_path / "deep.json"
        path.write_text('{"models": ' + value + "\n")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == message + "\n"

    def test_nesting_bound_is_exact(self):
        # the object around `models` is the first level
        with pytest.raises(ParseError) as err:
            parse_hierarchy('{"models": ' + "[" * (MAX_JSON_DEPTH - 1) + "\n")
        assert str(err.value) == "2:1: Expecting value"
        with pytest.raises(InputError) as err:
            parse_hierarchy('{"models": ' + "[" * MAX_JSON_DEPTH + "\n")
        assert str(err.value) == "JSON nested too deeply"

    def test_well_formed_document_deeper_than_the_bound_is_decoded(self):
        # the bound is read only once decoding has failed: 600 levels decode,
        # and the record is checked as usual
        deep = "[" * 600 + "]" * 600
        with pytest.raises(InputError) as err:
            parse_hierarchy('{"models": [{"name": ' + deep + "}]}")
        assert str(err.value) == "models[0].name: expected a string"

    def test_well_formed_document_past_the_stack_is_nested_too_deeply(self):
        # 20,000 levels that would decode: the C scanner runs out of stack before the end,
        # on 3.13 as on 3.10-3.12, and raises RecursionError, not JSONDecodeError
        deep = "[" * 20000 + "]" * 20000
        with pytest.raises(InputError) as err:
            parse_hierarchy('{"models": [{"name": ' + deep + "}]}")
        assert str(err.value) == "JSON nested too deeply"

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


class TestParseKeepsNoState:
    """A parse shares one frozen `ElementInfo` between the records of one
    document that carry the same typing texts, and nothing between two
    parses."""

    def test_equal_infos_are_one_object_within_a_parse(self, pls_paths):
        # the wide document lists empty supertypes on every seventh node and none on the others
        for h in (load_hierarchy(pls_paths[0]), parse_hierarchy(json.dumps(wide_document()))):
            infos = [i for m in h.models.values() for i in m.info.values()]
            by_value = {}
            for info in infos:
                assert by_value.setdefault(info, info) is info
            assert len(by_value) < len(infos)

    def test_two_parses_share_no_info(self, pls_paths):
        first, second = load_hierarchy(pls_paths[0]), load_hierarchy(pls_paths[0])
        assert first == second
        ids = {id(i) for m in first.models.values() for i in m.info.values()}
        assert not ids & {id(i) for m in second.models.values() for i in m.info.values()}

    def test_round_trip_on_random_hierarchies(self):
        for seed in range(200):
            rng = random.Random(seed)
            h = random_hierarchy(rng, depth=rng.randint(1, 4), varied=True)
            assert parse_hierarchy(json.dumps(hierarchy_to_json(h))) == h


def wide_document(width: int = 300) -> dict:
    """A valid two-model document whose model `m` holds `width` nodes and
    `width` arrows; every arrow and every seventh node has every field it can
    have, the other nodes have no supertypes."""
    root = {
        "name": "root",
        "parent": None,
        "nodes": [{"name": "Node", "type": "root.Node", "potency": "0-2"}],
        "arrows": [{"name": "Arrow", "source": "Node", "target": "Node", "type": "root.Arrow"}],
    }
    nodes = [{"name": f"n{k}", "type": "root.Node", "potency": "1-1"} for k in range(width)]
    for node in nodes[::7]:
        node["supertypes"] = []
    arrows = [
        {"name": "e", "source": f"n{k}", "target": f"n{(k + 1) % width}", "type": "root.Arrow",
         "potency": "1-1", "multiplicity": "0..n"}
        for k in range(width)
    ]
    return {"models": [root, {"name": "m", "parent": "root", "nodes": nodes, "arrows": arrows}]}


ABSENT = object()  # a fault that removes the field
STRING_FIELDS = {"nodes": ["name", "type"], "arrows": ["source", "name", "target", "type"]}
DEFAULTED = {"nodes": ["potency"], "arrows": ["potency", "multiplicity"]}  # absent reads a default


def expected_fault(kind: str, field: str, value) -> Optional[str]:
    """What the reader says of `value` in `field` of a record of `kind`, or
    None for a value it accepts."""
    if field == "supertypes":
        return None if value is ABSENT or value == [] else "expected a list"
    if value is ABSENT:
        return None if field in DEFAULTED[kind] else "missing"
    return "missing" if value is None else "expected a string"


class TestRecordFaultsAtScale:
    """A bad field in one record of a wide model is reported with the path
    of that record and field, wherever the record stands."""

    @pytest.mark.parametrize(
        "kind, field",
        [(kind, f) for kind in ("nodes", "arrows") for f in STRING_FIELDS[kind] + DEFAULTED[kind]]
        + [("nodes", "supertypes")],
    )
    def test_a_bad_field_names_its_record(self, kind, field):
        for k in (0, 1, 173, 299):
            for value in (ABSENT, None, 3, [], {}):
                doc = wide_document()
                record = doc["models"][1][kind][k]
                if value is ABSENT:
                    record.pop(field, None)
                else:
                    record[field] = value
                fault = expected_fault(kind, field, value)
                if fault is None:
                    parse_hierarchy(json.dumps(doc))
                    continue
                with pytest.raises(InputError) as err:
                    parse_hierarchy(json.dumps(doc))
                assert str(err.value) == f"models[1].{kind}[{k}].{field}: {fault}", (k, value)

    def test_a_bad_supertype_names_its_index(self):
        doc = wide_document()
        doc["models"][1]["nodes"][250]["supertypes"] = ["n1", 3]
        with pytest.raises(InputError, match=r"^models\[1\]\.nodes\[250\]\.supertypes\[1\]: expected a string$"):
            parse_hierarchy(json.dumps(doc))

    @pytest.mark.parametrize("kind", ["nodes", "arrows"])
    def test_a_repeated_bad_potency_is_reported_where_it_first_stands(self, kind):
        doc = wide_document()
        records = doc["models"][1][kind]
        for k in (280, 120, 121, 6):
            records[k]["potency"] = "2-1"
        with pytest.raises(InputError) as err:
            parse_hierarchy(json.dumps(doc))
        assert str(err.value) == f"models[1].{kind}[6].potency: bad potency '2-1': min exceeds max"

    def test_a_bad_arrow_potency_after_the_same_text_on_nodes(self):
        # the text failed on a node first; nodes are read before arrows
        doc = wide_document()
        doc["models"][1]["arrows"][3]["potency"] = "1-x"
        doc["models"][1]["nodes"][200]["potency"] = "1-x"
        with pytest.raises(InputError) as err:
            parse_hierarchy(json.dumps(doc))
        assert str(err.value).startswith("models[1].nodes[200].potency: bad potency '1-x'")

    def test_supertypes_on_an_arrow_record_are_refused(self):
        # only nodes inherit, so a file's arrow supertypes are refused rather than
        # dropped; the key is checked after the arrow's ends and before its typing
        doc = wide_document()
        arrow = doc["models"][1]["arrows"][42]
        arrow["supertypes"], arrow["type"] = [], "nodot"
        with pytest.raises(InputError) as err:
            parse_hierarchy(json.dumps(doc))
        assert str(err.value) == "models[1].arrows[42].supertypes: only nodes inherit"
        del arrow["target"]
        with pytest.raises(InputError, match=r"^models\[1\]\.arrows\[42\]\.target: missing$"):
            parse_hierarchy(json.dumps(doc))

    @pytest.mark.parametrize("earlier", [None, "node", "arrow"])
    def test_an_unknown_type_is_named_alike_with_or_without_supertypes(self, earlier):
        # a node listing supertypes is read under other texts than one without;
        # its unknown type is still found, and the same node is named
        doc = wide_document()
        root, m = doc["models"]
        if earlier == "node":  # an earlier record of m with the same type and potency texts
            m["nodes"][20]["type"] = "root.Ghost"
        elif earlier == "arrow":  # an earlier record, of root, with the same texts
            root["arrows"][0].update(type="root.Ghost", potency="1-1")
        m["nodes"][150].update(type="root.Ghost", potency="1-1", supertypes=["n1"])
        with pytest.raises(SchemaError) as with_supertypes:
            parse_hierarchy(json.dumps(doc))
        del m["nodes"][150]["supertypes"]
        with pytest.raises(SchemaError) as without:
            parse_hierarchy(json.dumps(doc))
        named = "n20" if earlier == "node" else "n150"
        assert str(with_supertypes.value) == str(without.value) == f"m: node {named!r} has unknown type 'root.Ghost'"

    def test_the_wide_document_loads(self):
        h = parse_hierarchy(json.dumps(wide_document()))
        assert (len(h.model("m").graph.nodes), len(h.model("m").graph.arrows)) == (300, 300)
        assert validate_hierarchy(h) == []


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


class TestValidation:
    def test_level_jump_through_two_levels_allowed(self, pls):
        out_arrow = ("ghandle", "out", "cv1")
        config = pls.model("hammer_config")
        type_model = config.info_for(out_arrow).direct_type[0]
        assert config.level - pls.model(type_model).level == 2
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

    @pytest.mark.parametrize(
        "b_info, issue",
        [
            (None, "m1/'b': [MissingTyping] no element info"),
            (ElementInfo(("nowhere", "Node")), "m1/'b': [UnknownType] type nowhere.'Node' missing"),
        ],
    )
    def test_arrow_at_an_already_reported_endpoint_is_not_checked(self, b_info, issue):
        # an endpoint without info, or typed into an unknown model, is
        # reported once and its arrow's endpoint types are not looked up
        root = random_hierarchy(random.Random(0), depth=0).model("root")
        arrow = ("a", "x", "b")
        info = {
            "a": ElementInfo(("root", "Node")),
            arrow: ElementInfo(("root", ("Node", "Arrow", "Node")), (1, 1), (0, None)),
        }
        if b_info is not None:
            info["b"] = b_info
        m1 = ModelNode("m1", "root", 1, build_graph("m1", ["a", "b"], [arrow]), info)
        assert [str(i) for i in validate_hierarchy(build_hierarchy([root, m1]))] == [issue]

    def test_types_without_info_are_not_looked_up(self):
        # `x` has no info and is reported once in m1; the potency of the type
        # of m2's `y` and the endpoint types of m3's arrow at `y`'s instances
        # are not looked up through it, as for an endpoint without info
        root = random_hierarchy(random.Random(0), depth=0).model("root")
        m1 = ModelNode("m1", "root", 1, build_graph("m1", ["x"], []), {})
        m2 = ModelNode("m2", "m1", 2, build_graph("m2", ["y"], []), {"y": ElementInfo(("m1", "x"))})
        arrow = ("u", "r", "v")
        info = {
            "u": ElementInfo(("m2", "y")),
            "v": ElementInfo(("m2", "y")),
            arrow: ElementInfo(("root", ("Node", "Arrow", "Node")), (1, 1), (0, None)),
        }
        m3 = ModelNode("m3", "m2", 3, build_graph("m3", ["u", "v"], [arrow]), info)
        want = ["m1/'x': [MissingTyping] no element info"]
        assert [str(i) for i in validate_hierarchy(build_hierarchy([root, m1, m2]))] == want
        issues = [str(i) for i in validate_hierarchy(build_hierarchy([root, m1, m2, m3]))]
        assert issues == want + [
            "m3/('u', 'r', 'v'): [PotencyViolation] jump 3 outside declared potency 1-1 "
            "of root.('Node', 'Arrow', 'Node')"
        ]

    def test_built_hierarchies_with_dropped_or_moved_typings_are_reported(self):
        # `build_hierarchy` checks no element info, so random hierarchies
        # whose non-root elements lose their info or are retyped to any element
        # of any model, or of a missing one, are reported, never raised at
        rng = random.Random(23)
        reported = 0
        for _ in range(400):
            h = random_hierarchy(rng, depth=rng.randint(1, 4), varied=True)
            refs = [("ghost", "Node")]
            refs += [(m.name, e) for m in h.models.values() for e in sorted(m.info, key=repr)]
            models = []
            for m in h.models.values():
                info = dict(m.info)
                for e in sorted(info, key=repr) if m.parent is not None else ():
                    r = rng.random()
                    if r < 0.1:
                        del info[e]
                    elif r < 0.2:
                        info[e] = info[e]._replace(direct_type=rng.choice(refs))
                models.append(m._replace(info=info))
            reported += bool(validate_hierarchy(build_hierarchy(models)))
        assert reported >= 250

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

    def test_level_jump_out_of_range_reported(self):
        # `build_hierarchy` rejects a level that is not the model's tree depth,
        # so only a hierarchy assembled without it has a jump of 0
        root_info = {"Node": ElementInfo(("root", "Node"), (1, 2))}
        root = ModelNode("root", None, 0, build_graph("root", ["Node"], []), root_info)
        a = ModelNode("a", "root", 1, build_graph("a", ["T"], []), {"T": ElementInfo(("root", "Node"))})
        b = ModelNode("b", "a", 1, build_graph("b", ["x"], []), {"x": ElementInfo(("a", "T"))})
        h = MultilevelHierarchy({m.name: m for m in (root, a, b)}, "root")
        assert [str(i) for i in validate_hierarchy(h)] == ["b/'x': [BadJump] level jump 0 out of range"]

    def test_inheritance_cycle_reported(self):
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
        assert [str(i) for i in validate_hierarchy(h)] == [
            "m/'a -> b -> a': [InheritanceCycle] cyclic inheritance"
        ]

    def test_unknown_supertype_reported(self, pls_paths):
        with open(pls_paths[0], encoding="utf-8") as fh:
            data = json.load(fh)
        plant = next(m for m in data["models"] if m["name"] == "generic_plant")
        plant["nodes"].append(
            {"name": "Extra", "type": "root.Node", "potency": "1-1", "supertypes": ["Ghost"]}
        )
        h = parse_hierarchy(json.dumps(data))
        assert [str(i) for i in validate_hierarchy(h)] == [
            "generic_plant/'Extra': [UnknownSupertype] 'Ghost' not in model"
        ]

    def test_supertypes_on_an_arrow_are_reported(self, pls):
        # supertypes annotate nodes only; on an arrow they would be kept unread
        plant = pls.model("generic_plant")
        creates = ("Machine", "creates", "Part")
        info = {**plant.info, creates: plant.info[creates]._replace(supertypes=frozenset({"Part"}))}
        h = pls.with_model(plant._replace(info=info))
        assert [str(i) for i in validate_hierarchy(h)] == [
            "generic_plant/('Machine', 'creates', 'Part'): [ArrowSupertypes] only nodes inherit"
        ]

    def test_supertype_without_info_reported_as_missing_typing(self):
        h = inheritance_fixture()
        m = h.model("m")
        info = {k: v for k, v in m.info.items() if k != "z"}
        h = h.with_model(m._replace(info=info))
        assert [(i.element, i.rule) for i in validate_hierarchy(h)] == [("z", "MissingTyping")]


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

    def test_root_element_without_info_types_nothing_in_the_chain(self, pls):
        # no chain typing involves a root element's own self-typing, so the
        # chain does not read it; validation still reports the missing info
        root = pls.model("root")
        info = {k: v for k, v in root.info.items() if k != "Node"}
        stripped = pls.with_model(ModelNode(root.name, None, 0, root.graph, info))
        assert derive_typing_chain(stripped, "hammer_config") == derive_typing_chain(
            pls, "hammer_config"
        )
        assert [(i.model, i.element, i.rule) for i in validate_hierarchy(stripped)] == [
            ("root", "Node", "MissingTyping")
        ]

    def test_random_hierarchies_derive_valid_chains(self):
        rng = random.Random(3)
        for _ in range(200):
            h = random_hierarchy(rng, depth=rng.randint(1, 3))
            assert validate_hierarchy(h) == []
            bottom = max(h.models.values(), key=lambda m: m.level)
            chain, mt = derive_typing_chain(h, bottom.name)  # raises if invalid
            assert chain.length == bottom.level


class TestSupertypeAnnotation:
    """Supertypes are an annotation: on seeded valid hierarchies whose heirs
    differ from their supertypes, they validate clean and round-trip through
    JSON unchanged."""

    def test_random_hierarchies_validate_and_round_trip(self):
        reached = Counter()
        for seed in range(2000):
            h = random_inheritance_hierarchy(random.Random(seed))
            assert validate_hierarchy(h) == []
            assert parse_hierarchy(json.dumps(hierarchy_to_json(h))) == h
            for m in h.models.values():
                for n in m.graph.nodes:
                    sups, own = m.info[n].supertypes, (m.info[n].direct_type, m.info[n].potency)
                    reached["typing or potency unlike a supertype's"] += any(
                        (m.info[s].direct_type, m.info[s].potency) != own for s in sups
                    )
                    reached["two or more supertypes"] += len(sups) >= 2
                    reached["a supertype with supertypes"] += any(m.info[s].supertypes for s in sups)
        floors = {"typing or potency unlike a supertype's": 8000, "two or more supertypes": 4000,
                  "a supertype with supertypes": 4000}
        assert all(reached[case] >= floor for case, floor in floors.items()), reached


def supertype_chain_document(length: int, cyclic: bool) -> dict:
    """The PLS root and a model `m1` under it whose nodes n00000, n00001, ...
    each list the next as their supertype; the last lists the first if `cyclic`."""
    with open(os.path.join(FIXTURES, "..", "..", "fixtures", "pls.json"), encoding="utf-8") as fh:
        root = json.load(fh)["models"][0]
    names = [f"n{i:05d}" for i in range(length)]
    nodes = [
        {"name": n, "type": "root.Node", "potency": "1-1", "supertypes": [names[(i + 1) % length]]}
        for i, n in enumerate(names)
    ]
    if not cyclic:
        del nodes[-1]["supertypes"]
    return {"models": [root, {"name": "m1", "parent": "root", "nodes": nodes, "arrows": []}]}


class TestLongSupertypeChains:
    """Supertype chains longer than the interpreter's recursion limit are
    walked, and a cycle through all of them is reported once."""

    def test_long_chain_validates(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(supertype_chain_document(1500, cyclic=False)))
        assert main(["validate", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"0 violation(s) in {path}\n"
        assert captured.err == ""

    def test_long_cycle_reported_once(self, tmp_path, capsys):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(supertype_chain_document(1500, cyclic=True)))
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"1 violation(s) in {path}\n"
        (line,) = captured.err.splitlines()
        assert "InheritanceCycle" in line
        issues = validate_hierarchy(load_hierarchy(str(path)))
        assert [i.rule for i in issues] == ["InheritanceCycle"]
        names = [f"n{i:05d}" for i in range(1500)]
        assert issues[0].element == " -> ".join(names + names[:1])


def lookup_outcome(fn, *args):
    """What a type lookup gives: its result, or the type of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as err:  # the oracle compares exception types
        return "raised", type(err)


def lookups_agree(h, models=None) -> int:
    """Compares `transitive_type_at` with the generator-based reference on
    every element of `models` (default all) at every level from
    0 to the hierarchy's depth + 1; returns the types of what they raised."""
    depth = max(m.level for m in h.models.values())
    raised = set()
    for name in models or sorted(h.models):
        graph = h.models[name].graph
        for e in sorted(graph.nodes) + sorted(graph.arrows):
            for level in range(depth + 2):
                got = lookup_outcome(transitive_type_at, h, name, e, level)
                assert got == lookup_outcome(reference_transitive_type_at, h, name, e, level)
                if got[0] == "raised":
                    raised.add(got[1])
    return raised


class TestTypeLookupOracle:
    """The type lookup gives what the generator walk over `h.model` lookups
    it replaced gives, including where they stop and what they raise."""

    def test_random_hierarchies(self):
        for seed in range(40):
            rng = random.Random(seed)
            h = random_hierarchy(rng, depth=rng.randint(1, 4))
            assert lookups_agree(h) == set()

    def test_pls_and_cyclic_typing(self, pls):
        assert lookups_agree(pls) == set()
        cyclic = load_hierarchy(os.path.join(FIXTURES, "type_cycle.json"))
        assert lookups_agree(cyclic) == set()
        # x : B.y does not go up a level, so x has no type at the root's level
        assert transitive_type_at(cyclic, "A", "x", 0) is None

    def test_unknown_model(self, pls):
        for fn, args in (
            (transitive_type_at, (pls, "nowhere", "ghandle", 0)),
            (reference_transitive_type_at, (pls, "nowhere", "ghandle", 0)),
        ):
            assert lookup_outcome(fn, *args) == ("raised", SchemaError)

    def test_missing_info_and_unknown_type_model(self):
        raised = set()
        for seed in range(12):
            rng = random.Random(seed)
            h = random_hierarchy(rng, depth=3)
            for name in sorted(h.models):
                m = h.models[name]
                for e in sorted(m.info, key=repr):
                    info = {k: v for k, v in m.info.items() if k != e}
                    stripped = h.with_model(ModelNode(m.name, m.parent, m.level, m.graph, info))
                    raised |= lookups_agree(stripped)
                    info[e] = ElementInfo(("nowhere", "x"))
                    misdirected = h.with_model(
                        ModelNode(m.name, m.parent, m.level, m.graph, info)
                    )
                    raised |= lookups_agree(misdirected)
        assert raised == {KeyError, SchemaError}


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
