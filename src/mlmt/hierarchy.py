"""Multilevel model hierarchies: trees of models with level-jumping typing.

A hierarchy is a tree of models with a single self-defining root.  Every
element of a non-root model carries an individual direct type that lives some
number of levels above it (the level jump d >= 1), a potency interval that
constrains the jumps of its own instances, and — for arrows — a multiplicity
interval.  This module holds the hierarchy itself: its parsing and JSON
output, validation, inheritance flattening and `transitive_type_at`, the
one walk up an element's typing.  The typing chain a root path induces is
derived in `chains`, and the type index the matchers draw candidates from
lives in `matching`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from .errors import (
    InheritanceCycle,
    InputError,
    ParseError,
    SchemaError,
)
from .graphs import Arrow, Graph, build_graph

ElementKey = Union[str, Arrow]  # node name or (source, label, target)
TypeRef = Tuple[str, ElementKey]  # (model name, element key)

UNBOUNDED = None  # upper multiplicity bound "n"


@dataclass(frozen=True)
class ElementInfo:
    """Typing and instantiation data attached to one model element."""

    direct_type: TypeRef
    potency: Tuple[int, int] = (1, 1)
    multiplicity: Optional[Tuple[int, Optional[int]]] = None
    supertypes: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class ModelNode:
    """One model in the hierarchy: a graph plus per-element info."""

    name: str
    parent: Optional[str]
    level: int
    graph: Graph
    info: Dict[ElementKey, ElementInfo] = field(default_factory=dict)

    def info_for(self, element: ElementKey) -> ElementInfo:
        return self.info[element]


@dataclass(frozen=True)
class MultilevelHierarchy:
    """A tree of models; the root is self-defining at level 0."""

    models: Dict[str, ModelNode]
    root: str

    def model(self, name: str) -> ModelNode:
        if name not in self.models:
            raise SchemaError(f"unknown model {name!r}")
        return self.models[name]

    def root_path(self, name: str) -> List[str]:
        """Model names from the root down to `name`."""
        path = []
        cur: Optional[str] = name
        while cur is not None:
            path.append(cur)
            cur = self.model(cur).parent
        return list(reversed(path))

    def with_model(self, model: ModelNode) -> "MultilevelHierarchy":
        models = dict(self.models)
        models[model.name] = model
        return MultilevelHierarchy(models, self.root)


@dataclass(frozen=True)
class ValidationIssue:
    model: str
    element: ElementKey
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.model}/{self.element!r}: [{self.rule}] {self.message}"


def build_hierarchy(models: List[ModelNode]) -> MultilevelHierarchy:
    """Check tree shape and level numbering, then freeze the hierarchy."""
    roots = [m for m in models if m.parent is None]
    if len(roots) != 1:
        raise SchemaError(f"hierarchy must have exactly one root, got {len(roots)}")
    by_name = {}
    for m in models:
        if m.name in by_name:
            raise SchemaError(f"duplicate model name {m.name!r}")
        by_name[m.name] = m
    for m in models:
        if m.parent is not None and m.parent not in by_name:
            raise SchemaError(f"{m.name}: unknown parent {m.parent!r}")
    parents = {m.name: m.parent for m in models}
    for m in models:
        depth = _depth(parents, m.name)
        if m.level != depth:
            raise SchemaError(
                f"{m.name}: declared level {m.level} but tree depth is {depth}"
            )
    root = roots[0]
    for elem, info in root.info.items():
        if info.direct_type[0] != root.name:
            raise SchemaError(
                f"root element {elem!r} must be typed inside the root"
            )
    return MultilevelHierarchy(by_name, root.name)


def _depth(parents: Dict[str, Optional[str]], name: str) -> int:
    """The number of parent steps from the model `name` up to the root."""
    d, cur, seen = 0, parents[name], {name}
    while cur is not None:
        if cur in seen:
            raise SchemaError(f"parent cycle through {cur!r}")
        seen.add(cur)
        d, cur = d + 1, parents[cur]
    return d


def transitive_type_at(
    h: MultilevelHierarchy, model: str, element: ElementKey, level: int
) -> Optional[ElementKey]:
    """The unique transitive type of `element` at `level`: the element itself
    at its own level, None at a level below it.  The walk follows direct
    types up toward the root.  A direct type lies on a strictly higher level
    than the element it types, so the walk ends at the first step that does
    not go up: at the self-typed root element, or where an invalid hierarchy
    types in a cycle.  A level the walk skips, or did not reach by then,
    reads None."""
    models, cur = h.models, h.model(model)
    while cur.level > level:
        t_model, element = cur.info[element].direct_type
        up = models.get(t_model) or h.model(t_model)
        if up.level >= cur.level:
            return None
        cur = up
    return element if cur.level == level else None


Verdict = Optional[Tuple[str, str]]  # the rule and message of an issue, or None


def validate_hierarchy(h: MultilevelHierarchy) -> List[ValidationIssue]:
    """The issues of each model: its elements' typings, in sorted order of
    the elements (nodes first), then its arrows' endpoint types and its
    inheritance.  Whether an element's typing is unknown, off the model's
    branch, a bad jump or against its type's potency depends only on the model
    and the element's direct type, and whether an arrow's typing dangles only
    on its own and its ends' direct types, so each model decides these once
    per distinct type."""
    issues: List[ValidationIssue] = []
    for m in h.models.values():
        ancestors = set(h.root_path(m.name)[:-1])
        verdicts: Dict[TypeRef, Verdict] = {}
        for elements in (m.graph.nodes, m.graph.arrows):
            found = []
            for elem in elements:
                info = m.info.get(elem)
                if info is None:
                    found.append(ValidationIssue(m.name, elem, "MissingTyping", "no element info"))
                    continue
                t = info.direct_type
                if t not in verdicts:
                    verdicts[t] = _typing_verdict(h, m, t, ancestors)
                if verdicts[t] is not None:
                    found.append(ValidationIssue(m.name, elem, *verdicts[t]))
            issues.extend(_in_element_order(found))
        issues.extend(_check_arrow_typing(h, m, verdicts))
        issues.extend(_check_inheritance(m))
    return issues


def _in_element_order(issues: List[ValidationIssue]) -> List[ValidationIssue]:
    # each element of one kind gives at most one issue in a pass, so sorting
    # the few issues found gives the order of the sorted elements
    return sorted(issues, key=lambda i: i.element)


def _typing_verdict(
    h: MultilevelHierarchy, m: ModelNode, t: TypeRef, ancestors: Set[str]
) -> Verdict:
    """The issue of an element of `m` typed by `t`, if any."""
    t_model, t_elem = t
    if t_model not in h.models or not h.models[t_model].graph.has(t_elem):
        return "UnknownType", f"type {t_model}.{t_elem!r} missing"
    if m.parent is None:
        return None  # root elements are self-typed, jump 0
    if t_model not in ancestors:
        return "TypeOffBranch", f"type model {t_model} is not an ancestor of {m.name}"
    d = m.level - h.models[t_model].level
    if not 1 <= d <= m.level:
        return "BadJump", f"level jump {d} out of range"
    t_info = h.models[t_model].info.get(t_elem)
    if t_info is None:
        return None  # reported as MissingTyping in its own model
    lo, hi = t_info.potency
    if not lo <= d <= hi:
        return (
            "PotencyViolation",
            f"jump {d} outside declared potency {lo}-{hi} of {t_model}.{t_elem!r}",
        )
    return None


def _check_arrow_typing(
    h: MultilevelHierarchy, m: ModelNode, verdicts: Dict[TypeRef, Verdict]
) -> List[ValidationIssue]:
    """Non-dangling typing: arrow and endpoint types must meet coherently.

    `verdicts` holds the `_typing_verdict` of every direct type in `m`.  An
    arrow is checked only at a level above `m`, where an endpoint's type is
    its direct type's, so the check is decided once per (arrow direct type,
    source direct type, target direct type)."""
    if m.parent is None:
        return []
    unknown = {t for t, v in verdicts.items() if v is not None and v[0] == "UnknownType"}
    dangling: Dict[tuple, Verdict] = {}

    def verdict(t: TypeRef, ends: Tuple[Optional[TypeRef], Optional[TypeRef]]) -> Verdict:
        t_model, t_elem = t
        t_level = h.models[t_model].level
        if t_level >= m.level:
            return None  # already reported as BadJump/TypeOffBranch
        if not isinstance(t_elem, tuple):
            return "TypeKindMismatch", "arrow typed by a node"
        if any(e is None or e in unknown for e in ends):
            return None  # already reported as MissingTyping or UnknownType
        # an endpoint typed in a model above m has its direct type's types; a walk up that meets
        # a type without info or in an unknown model is reported in that type's own model
        try:
            src_t, tgt_t = (
                transitive_type_at(h, *e, t_level) if h.models[e[0]].level < m.level else None
                for e in ends
            )
        except (KeyError, SchemaError):
            return None
        if src_t == t_elem[0] and tgt_t == t_elem[2]:
            return None
        return "DanglingTyping", (
            f"endpoint types at level {t_level} are ({src_t!r}, {tgt_t!r}), "
            f"type arrow needs ({t_elem[0]!r}, {t_elem[2]!r})"
        )

    found = []
    for a in m.graph.arrows:
        info = m.info.get(a)
        if info is None or info.direct_type in unknown:
            continue  # already reported
        src, tgt = m.info.get(a[0]), m.info.get(a[2])  # None for an end without info
        key = (info.direct_type, src and src.direct_type, tgt and tgt.direct_type)
        if key not in dangling:
            dangling[key] = verdict(key[0], key[1:])
        if dangling[key] is not None:
            found.append(ValidationIssue(m.name, a, *dangling[key]))
    return _in_element_order(found)


def _check_inheritance(m: ModelNode) -> List[ValidationIssue]:
    issues = []
    heirs = [(elem, info.supertypes) for elem, info in m.info.items() if info.supertypes]
    for elem, supertypes in heirs:
        if isinstance(elem, tuple):  # `flatten_inheritance` reads supertypes of nodes only
            issues.append(ValidationIssue(m.name, elem, "ArrowSupertypes", "only nodes inherit"))
            continue
        for sup in sorted(supertypes):
            if sup not in m.graph.nodes:
                issues.append(
                    ValidationIssue(
                        m.name, elem, "UnknownSupertype", f"{sup!r} not in model"
                    )
                )
    if heirs:  # without supertypes there is no cycle
        try:
            _inheritance_order(m)
        except InheritanceCycle as err:
            issues.append(
                ValidationIssue(m.name, str(err), "InheritanceCycle", "cyclic inheritance")
            )
    return issues


def _supertypes(m: ModelNode, n: str) -> List[str]:
    """The supertypes of the node `n` that count, sorted: nodes of `m` with info.
    Validation reports any other as UnknownSupertype, or a node without info as
    MissingTyping, and `flatten_inheritance` raises SchemaError for it."""
    info = m.info.get(n)
    return [s for s in sorted(info.supertypes) if s in m.info and s in m.graph.nodes] if info else []


def _inheritance_order(m: ModelNode) -> List[str]:
    """Topological order of nodes, supertypes first.

    A depth-first walk with an explicit stack, so that a supertype chain of
    any length is ordered; the nodes on the stack are the trail that an
    InheritanceCycle names.
    """
    order: List[str] = []
    state: Dict[str, int] = {}  # 1 while on the stack, 2 once ordered
    for root in sorted(m.graph.nodes):
        if root in state:
            continue
        state[root] = 1
        stack = [(root, iter(_supertypes(m, root)))]
        while stack:
            n, pending = stack[-1]
            for sup in pending:
                if state.get(sup) == 1:
                    raise InheritanceCycle(" -> ".join([x for x, _ in stack] + [sup]))
                if sup not in state:
                    state[sup] = 1
                    stack.append((sup, iter(_supertypes(m, sup))))
                    break
            else:
                stack.pop()
                state[n] = 2
                order.append(n)
    return order


def flatten_inheritance(h: MultilevelHierarchy) -> MultilevelHierarchy:
    """Replicate each supertype's typing and incident arrows onto its heirs.

    A node takes the flattened direct type and potency of its greatest
    transitive supertype by name, and copies the original arrows of each
    transitive supertype, both in sorted order, its name put in the
    supertype's; a copy of an arrow already there is dropped.  One pass in
    topological order takes time linear in the model plus the arrows copied.
    Raises InheritanceCycle, or SchemaError for a supertype that is not a node
    with element info.  Inheritance edges are dropped from the result;
    applying the operation twice equals applying it once.
    """
    new_models = []
    for m in h.models.values():
        arrows, info = set(m.graph.arrows), dict(m.info)
        tops: Dict[str, str] = {}  # the greatest of a node and its transitive supertypes
        donors: Dict[str, Tuple[str, ...]] = {}  # transitive supertypes with arrows, sorted
        for n in _inheritance_order(m):  # raises InheritanceCycle
            sups = _supertypes(m, n)
            if n in m.info and len(sups) < len(m.info[n].supertypes):
                bad = min(set(m.info[n].supertypes).difference(sups))
                raise SchemaError(
                    f"{m.name}/{n!r}: supertype {bad!r} is not a node with element info"
                )
            tops[n] = max([n, *(tops[s] for s in sups)])
            found = {d for s in sups for d in donors[s]}
            donors[n] = tuple(sorted(found.union(s for s in sups if m.graph.incident(s))))
            if sups:
                top = info[max(tops[s] for s in sups)]
                info[n] = replace(info[n], direct_type=top.direct_type, potency=top.potency)
            for sup in donors[n]:
                for a in sorted(m.graph.incident(sup)):
                    copy = (n if a[0] == sup else a[0], a[1], n if a[2] == sup else a[2])
                    if copy not in arrows:
                        arrows.add(copy)
                        info[copy] = replace(m.info[a], supertypes=frozenset())
        info = {k: replace(v, supertypes=frozenset()) if v.supertypes else v for k, v in info.items()}
        graph = Graph(m.graph.name, m.graph.nodes, frozenset(arrows))
        new_models.append(ModelNode(m.name, m.parent, m.level, graph, info))
    return build_hierarchy(new_models)


_POTENCY_RE = re.compile(r"([0-9]+)-([0-9]+)")
_MULT_RE = re.compile(r"([0-9]+)\.\.([0-9]+|n|\*)")


def _parse_potency(text: str) -> Tuple[int, int]:
    """A 'min-max' potency; raises ValueError saying what is wrong with it."""
    m = _POTENCY_RE.fullmatch(text)
    if not m:
        raise ValueError(f"bad potency {text!r}, expected 'min-max'")
    try:
        lo, hi = int(m.group(1)), int(m.group(2))
    except ValueError:  # more digits than the interpreter converts
        raise ValueError("bad potency: a bound has too many digits") from None
    if lo > hi:
        raise ValueError(f"bad potency {text!r}: min exceeds max")
    return lo, hi


def _parse_multiplicity(text: str) -> Tuple[int, Optional[int]]:
    """An 'l..u' multiplicity; raises ValueError saying what is wrong with it."""
    m = _MULT_RE.fullmatch(text)
    if not m:
        raise ValueError(f"bad multiplicity {text!r}, expected 'l..u'")
    try:
        lo = int(m.group(1))
        hi = None if m.group(2) in ("n", "*") else int(m.group(2))
    except ValueError:  # more digits than the interpreter converts
        raise ValueError("bad multiplicity: a bound has too many digits") from None
    if hi is not None and lo > hi:
        raise ValueError(f"bad multiplicity {text!r}: lower exceeds upper")
    return lo, hi


def _format_potency(p: Tuple[int, int]) -> str:
    return f"{p[0]}-{p[1]}"


def _format_multiplicity(mu: Tuple[int, Optional[int]]) -> str:
    return f"{mu[0]}..{'n' if mu[1] is None else mu[1]}"


def _split_type_ref(text: str) -> Tuple[str, str]:
    """A 'model.element' type reference; raises ValueError if it has no dot."""
    if "." not in text:
        raise ValueError(f"type reference {text!r} must be 'model.element'")
    model, elem = text.split(".", 1)
    return model, elem


def read_text(path: str) -> str:
    """The contents of a UTF-8 text file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not valid UTF-8 at byte {err.start}") from err


def load_hierarchy(path: str) -> MultilevelHierarchy:
    return parse_hierarchy(read_text(path))


def _bad(i: int, where: str, message: str) -> InputError:
    """The error of a bad field at `models[i]` followed by `where`."""
    return InputError(f"models[{i}]{where}: {message}")


def _not_a_string(value) -> str:
    """What is wrong with a field that should hold a string."""
    return "missing" if value is None else "expected a string"


def _parsed(parse, text, i: int, where: str):
    """`parse(text)` of a field; one that is not a string or does not parse raises with its path."""
    if text.__class__ is not str:
        raise _bad(i, where, _not_a_string(text))
    try:
        return parse(text)
    except ValueError as err:
        raise _bad(i, where, str(err)) from None


_ABSENT = ()  # what a node record without a "supertypes" key reads; JSON holds no tuple


class _Reader:
    """Reads the records of one document.

    A record's fields are read with one `dict.get` each and their classes
    checked inline, in a fixed order, so that the first bad field is the one
    reported; a record's `models[i].nodes[j]` path is built only when one of
    its fields is bad.  A document's many elements share a few typings, and
    each distinct record typing is read once: node infos are kept by their
    type, potency and supertypes texts, arrow typings by their type, potency
    and multiplicity texts, and arrow infos by their typing (and resolved arrow
    type, where several arrows bear its name).  A record enters a memo only
    once it was read without error.  A reader lives for one `parse_hierarchy`
    call."""

    def __init__(self):
        self.node_infos: Dict[tuple, ElementInfo] = {}  # (type, potency[, supertypes]) texts
        self.arrow_typings: Dict[Tuple[str, str, str], tuple] = {}  # (type, potency, multiplicity) texts
        self.candidates: Dict[Tuple[str, str], List[Arrow]] = {}
        self.arrow_infos: Dict[tuple, ElementInfo] = {}  # typing, or (typing, arrow type)

    def nodes(self, i: int, records: list) -> Tuple[List[str], List[ElementInfo]]:
        """The names and infos of the node records of `models[i]`."""
        names, infos = [], []
        memo = self.node_infos
        for j, n in enumerate(records):
            if n.__class__ is not dict:
                raise _bad(i, f".nodes[{j}]", "expected an object")
            name, t, p = n.get("name"), n.get("type"), n.get("potency", "1-1")
            supertypes = n.get("supertypes", _ABSENT)
            if name.__class__ is not str:
                raise _bad(i, f".nodes[{j}].name", _not_a_string(name))
            key = None
            if t.__class__ is str and p.__class__ is str:
                if supertypes is _ABSENT:
                    key = t, p
                elif supertypes.__class__ is list and all(s.__class__ is str for s in supertypes):
                    key = t, p, tuple(supertypes)
            info = memo.get(key)
            if info is None:
                type_ref = _parsed(_split_type_ref, t, i, f".nodes[{j}].type")
                if supertypes is not _ABSENT:
                    if supertypes.__class__ is not list:
                        raise _bad(i, f".nodes[{j}].supertypes", "expected a list")
                    for k, sup in enumerate(supertypes):
                        if sup.__class__ is not str:
                            raise _bad(i, f".nodes[{j}].supertypes[{k}]", "expected a string")
                potency = _parsed(_parse_potency, p, i, f".nodes[{j}].potency")
                info = memo[key] = ElementInfo(type_ref, potency, None, frozenset(supertypes))
            names.append(name)
            infos.append(info)
        return names, infos

    def arrows(self, i: int, records: list) -> Tuple[List[Arrow], List[tuple]]:
        """The keys and (type, potency, multiplicity) of the arrow records of `models[i]`."""
        keys, typings = [], []
        memo = self.arrow_typings
        for j, a in enumerate(records):
            if a.__class__ is not dict:
                raise _bad(i, f".arrows[{j}]", "expected an object")
            source, name, target = a.get("source"), a.get("name"), a.get("target")
            t, p, mu = a.get("type"), a.get("potency", "1-1"), a.get("multiplicity", "0..n")
            if source.__class__ is not str:
                raise _bad(i, f".arrows[{j}].source", _not_a_string(source))
            if name.__class__ is not str:
                raise _bad(i, f".arrows[{j}].name", _not_a_string(name))
            if target.__class__ is not str:
                raise _bad(i, f".arrows[{j}].target", _not_a_string(target))
            if "supertypes" in a:
                raise _bad(i, f".arrows[{j}].supertypes", "only nodes inherit")
            typing = None
            if t.__class__ is str and p.__class__ is str and mu.__class__ is str:
                typing = memo.get((t, p, mu))
            if typing is None:
                typing = memo[t, p, mu] = (
                    _parsed(_split_type_ref, t, i, f".arrows[{j}].type"),
                    _parsed(_parse_potency, p, i, f".arrows[{j}].potency"),
                    _parsed(_parse_multiplicity, mu, i, f".arrows[{j}].multiplicity"),
                )
            keys.append((source, name, target))
            typings.append(typing)
        return keys, typings

    def arrow_info(self, h: MultilevelHierarchy, model: str, arrow: Arrow, typing: tuple) -> ElementInfo:
        """The info of an arrow of `model` read with `typing`: its type is the
        candidate arrow of that name whose endpoints fit this arrow's typing,
        and where the name has one candidate, the info is kept by `typing`."""
        ref, potency, mult = typing
        t_model, label = ref
        candidates = self.candidates.get(ref)
        if candidates is None:
            if t_model not in h.models:
                raise SchemaError(f"{model}: unknown type model {t_model!r}")
            candidates = sorted(a for a in h.models[t_model].graph.arrows if a[1] == label)
            if not candidates:
                raise SchemaError(f"{model}: no arrow named {label!r} in model {t_model}")
            self.candidates[ref] = candidates
        if len(candidates) == 1:
            key, arrow_type = typing, candidates[0]
        else:
            t_level = h.models[t_model].level
            src_t = transitive_type_at(h, model, arrow[0], t_level)
            tgt_t = transitive_type_at(h, model, arrow[2], t_level)
            fitting = [a for a in candidates if a[0] == src_t and a[2] == tgt_t]
            if len(fitting) != 1:
                raise SchemaError(f"{model}: ambiguous arrow type {t_model}.{label} for {arrow!r}")
            arrow_type = fitting[0]
            key = typing, arrow_type
        info = self.arrow_infos.get(key)
        if info is None:
            info = self.arrow_infos[key] = ElementInfo((t_model, arrow_type), potency, mult)
        return info


def parse_hierarchy(text: str) -> MultilevelHierarchy:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, err.lineno, err.colno) from err
    except RecursionError as err:
        raise InputError("JSON nested too deeply") from err
    if not isinstance(data, dict) or not isinstance(data.get("models"), list):
        raise InputError("top level must be an object with a 'models' list")

    # first pass: graphs and records with their fields checked
    read = _Reader()
    records = []
    graphs: Dict[str, Graph] = {}
    parents: Dict[str, Optional[str]] = {}
    for i, entry in enumerate(data["models"]):
        if entry.__class__ is not dict:
            raise _bad(i, "", "expected an object")
        name = entry.get("name")
        if name.__class__ is not str:
            raise _bad(i, ".name", _not_a_string(name))
        nodes = entry.get("nodes", [])
        if nodes.__class__ is not list:
            raise _bad(i, ".nodes", "expected a list")
        node_names, node_infos = read.nodes(i, nodes)
        arrows = entry.get("arrows", [])
        if arrows.__class__ is not list:
            raise _bad(i, ".arrows", "expected a list")
        keys, typings = read.arrows(i, arrows)
        graphs[name] = build_graph(name, node_names, keys)
        parent = entry.get("parent")
        if parent is not None and parent.__class__ is not str:
            raise _bad(i, ".parent", "expected a string")
        parents[name] = parent
        records.append((name, dict(zip(node_names, node_infos)), keys, typings))
    for name, parent in parents.items():
        if parent is not None and parent not in graphs:
            raise SchemaError(f"{name}: unknown parent {parent!r}")
    if len(graphs) < len(records):  # a repeated name replaced an earlier model above
        seen = set()
        for name, _, _, _ in records:
            if name in seen:
                raise SchemaError(f"duplicate model name {name!r}")
            seen.add(name)

    # second pass: the node-typed models, over which arrow types are resolved;
    # each model's info then takes its arrows in place
    unknown = {
        (t_model, t_elem)
        for t_model, t_elem in (info.direct_type for info in read.node_infos.values())
        if t_model not in graphs or t_elem not in graphs[t_model].nodes
    }
    models = []
    for name, info, _, _ in records:
        if unknown:  # name the first node of an unknown type
            for node, node_info in info.items():
                if node_info.direct_type in unknown:
                    t_model, t_elem = node_info.direct_type
                    raise SchemaError(f"{name}: node {node!r} has unknown type {t_model + '.' + t_elem!r}")
        models.append(ModelNode(name, parents[name], _depth(parents, name), graphs[name], info))
    node_typed = build_hierarchy(models)
    for name, info, keys, typings in records:
        for key, typing in zip(keys, typings):
            info[key] = read.arrow_infos.get(typing) or read.arrow_info(node_typed, name, key, typing)
    return build_hierarchy(models)


def hierarchy_to_json(h: MultilevelHierarchy) -> dict:
    out = {"models": []}
    ordered = sorted(h.models.values(), key=lambda m: (m.level, m.name))
    for m in ordered:
        nodes = []
        for n in sorted(m.graph.nodes):
            inf = m.info[n]
            rec = {
                "name": n,
                "type": f"{inf.direct_type[0]}.{inf.direct_type[1]}",
                "potency": _format_potency(inf.potency),
            }
            if inf.supertypes:
                rec["supertypes"] = sorted(inf.supertypes)
            nodes.append(rec)
        arrows = []
        for a in sorted(m.graph.arrows):
            inf = m.info[a]
            t_model, t_elem = inf.direct_type
            arrows.append(
                {
                    "name": a[1],
                    "source": a[0],
                    "target": a[2],
                    "type": f"{t_model}.{t_elem[1]}",
                    "potency": _format_potency(inf.potency),
                    "multiplicity": _format_multiplicity(
                        inf.multiplicity or (0, UNBOUNDED)
                    ),
                }
            )
        out["models"].append(
            {"name": m.name, "parent": m.parent, "nodes": nodes, "arrows": arrows}
        )
    return out


def save_hierarchy(h: MultilevelHierarchy, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(hierarchy_to_json(h), fh, indent=2, sort_keys=False)
        fh.write("\n")
