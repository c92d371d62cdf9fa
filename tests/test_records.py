"""The package's value types are immutable records: each refuses assignment,
equals only a record of its own class with equal fields, hashes its fields,
shows them as a frozen dataclass would, and is copied with `_replace`, which
checks the copy as the constructor checks a new record."""

import pytest

from mlmt.chains import ChainMorphism, GraphChain, MultilevelTyping
from mlmt.engine import ApplicationResult, ExecutionTrace, TraceStep
from mlmt.errors import DanglingArrow, GraphMismatch
from mlmt.graphs import Graph, PartialMorphism, TotalMorphism
from mlmt.hierarchy import ElementInfo, ModelNode, MultilevelHierarchy, ValidationIssue
from mlmt.matching import MetaMatch, TwoLevelRule
from mlmt.rules import McmtModule, McmtRule, MetaElement, PatternElement, RulePattern

G = "Graph(name='g', nodes=frozenset({'a'}), arrows=frozenset())"
T = f"TotalMorphism(src={G}, dst={G}, node_map={{'a': 'a'}}, arrow_map={{}})"
P = f"PartialMorphism(src={G}, dst={G}, node_map={{}}, arrow_map={{}})"
INFO = (
    "ElementInfo(direct_type=('root', 'Node'), potency=(0, 2), multiplicity=None, "
    "supertypes=frozenset())"
)
MODEL = f"ModelNode(name='root', parent=None, level=0, graph={G}, info={{'a': {INFO}}})"
H = f"MultilevelHierarchy(models={{'root': {MODEL}}}, root='root')"
CHAIN = f"GraphChain(graphs=({G},), typings={{}})"
ME = (
    "MetaElement(name='X', level=1, kind='node', type_name='Machine', type_level=0, "
    "constant=False, source=None, target=None, potency=None, multiplicity=None, implicit=False)"
)
PE = "PatternElement(name='x', type_name='X', type_level=1, kind='node', source=None, target=None)"
RULE = (
    f"McmtRule(name='R', meta_elements=({ME},), implicit_elements=(), "
    "from_pattern=RulePattern(elements=()), to_pattern=RulePattern(elements=()))"
)
MM = "MetaMatch(level_map={1: 1}, bindings={1: {'X': 'a'}})"
STEP = "TraceStep(step=0, rule='R_0', match={'x': 'a'}, created=('a',), deleted=())"


def samples():
    """One record of each public record type, with its repr as a frozen dataclass shows it."""
    g = Graph("g", frozenset({"a"}), frozenset())
    t = TotalMorphism(g, g, {"a": "a"}, {})
    p = PartialMorphism(g, g, {}, {})
    info = ElementInfo(("root", "Node"), (0, 2))
    model = ModelNode("root", None, 0, g, {"a": info})
    h = MultilevelHierarchy({"root": model}, "root")
    chain = GraphChain((g,))
    meta = MetaElement("X", 1, "node", "Machine", 0)
    pattern = PatternElement("x", "X", 1, "node")
    rule = McmtRule("R", (meta,))
    match = MetaMatch({1: 1}, {1: {"X": "a"}})
    step = TraceStep(0, "R_0", {"x": "a"}, ("a",), ())
    return [
        (g, G),
        (t, T),
        (p, P),
        (info, INFO),
        (model, MODEL),
        (h, H),
        (
            ValidationIssue("m", "a", "MissingTyping", "no element info"),
            "ValidationIssue(model='m', element='a', rule='MissingTyping', message='no element info')",
        ),
        (chain, CHAIN),
        (
            ChainMorphism(chain, chain, {0: 0}, {0: t}),
            f"ChainMorphism(src={CHAIN}, dst={CHAIN}, level_map={{0: 0}}, components={{0: {T}}})",
        ),
        (MultilevelTyping(g, chain, {0: p}), f"MultilevelTyping(subject={G}, chain={CHAIN}, sigmas={{0: {P}}})"),
        (meta, ME),
        (pattern, PE),
        (RulePattern((pattern,)), f"RulePattern(elements=({PE},))"),
        (rule, RULE),
        (McmtModule("M", (rule,)), f"McmtModule(name='M', rules=({RULE},))"),
        (match, MM),
        (
            TwoLevelRule("R_0", g, g, g, {"a": ("root", "Node")}, {"a": ((0, "Node"),)}, "R", match),
            f"TwoLevelRule(name='R_0', lhs={G}, interface={G}, rhs={G}, types={{'a': ('root', 'Node')}}, "
            f"level_types={{'a': ((0, 'Node'),)}}, source_rule='R', source_match={MM})",
        ),
        (
            ApplicationResult(model, t, ("a",), ()),
            f"ApplicationResult(model={MODEL}, match={T}, created=('a',), deleted=())",
        ),
        (step, STEP),
        (ExecutionTrace((step,), h, "max-steps"), f"ExecutionTrace(steps=({STEP},), final={H}, stop='max-steps')"),
    ]


SAMPLES = samples()
IDS = [type(record).__name__ for record, _ in SAMPLES]
# a record with a dict among its fields cannot be hashed, as a frozen dataclass cannot
UNHASHABLE = {"TotalMorphism", "PartialMorphism", "ModelNode", "MultilevelHierarchy", "GraphChain",
              "ChainMorphism", "MultilevelTyping", "MetaMatch", "TwoLevelRule", "ApplicationResult",
              "TraceStep", "ExecutionTrace"}


@pytest.mark.parametrize("record, shown", SAMPLES, ids=IDS)
def test_repr_is_the_dataclass_repr(record, shown):
    assert repr(record) == shown


@pytest.mark.parametrize("record, _", SAMPLES, ids=IDS)
def test_fields_refuse_assignment_and_deletion(record, _):
    for field, value in vars(record).items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record, _", SAMPLES, ids=IDS)
def test_equal_only_to_a_record_of_its_own_class(record, _):
    values = tuple(vars(record).values())
    twin = object.__new__(type("Twin", (type(record),), {}))
    twin.__dict__.update(vars(record))
    assert record != values and values != record
    assert record != twin and twin != record
    copy = record._replace()
    assert copy == record and copy is not record


def test_a_total_and_a_partial_morphism_with_equal_fields_differ():
    g = Graph("g", frozenset({"a"}))
    assert TotalMorphism(g, g, {"a": "a"}) != PartialMorphism(g, g, {"a": "a"})


@pytest.mark.parametrize("record, _", SAMPLES, ids=IDS)
def test_equal_records_hash_alike(record, _):
    copy = record._replace()
    if type(record).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record) == hash(tuple(vars(record).values()))


def test_defaults_are_fresh_or_immutable():
    g = Graph("g")
    assert g == Graph(name="g", nodes=frozenset(), arrows=frozenset())
    first, second = TotalMorphism(g, g), TotalMorphism(g, g)
    assert first == second and first.node_map == {} and first.node_map is not second.node_map
    assert ModelNode("m", None, 0, g).info is not ModelNode("m", None, 0, g).info
    assert McmtRule("R") == McmtRule("R", (), (), RulePattern(), RulePattern())


def test_replace_checks_the_copy_as_the_constructor_does():
    g = Graph("g", frozenset({"a", "b"}), frozenset({("a", "e", "b")}))
    assert g._replace(name="h") == Graph("h", g.nodes, g.arrows)
    with pytest.raises(DanglingArrow):
        g._replace(nodes=frozenset({"a"}))
    t = TotalMorphism(g, g, {"a": "a", "b": "b"}, {("a", "e", "b"): ("a", "e", "b")})
    with pytest.raises(GraphMismatch):
        t._replace(dst=Graph("h", frozenset({"a", "b"})))
    with pytest.raises(GraphMismatch):
        PartialMorphism(g, g)._replace(node_map={"c": "a"})
    with pytest.raises(TypeError):
        g._replace(size=2)


def test_replace_rebuilds_what_a_record_caches():
    g = Graph("g", frozenset({"a", "b"}), frozenset({("a", "e", "b")}))
    assert g.incident("a") == {("a", "e", "b")}
    assert g._replace(arrows=frozenset()).incident("a") == frozenset()
