"""Multilevel model hierarchies: trees of models with level-jumping typing.

A hierarchy is a tree of models with a single self-defining root.  Every
element of a non-root model carries an individual direct type that lives some
number of levels above it (the level jump d >= 1), a potency interval that
constrains the jumps of its own instances, and — for arrows — a multiplicity
interval.  From any model the root path induces a typing chain.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from .chains import GraphChain, MultilevelTyping, build_chain
from .errors import (
    InheritanceCycle,
    InputError,
    ParseError,
    SchemaError,
)
from .graphs import Arrow, Graph, PartialMorphism, build_graph

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
    h = MultilevelHierarchy(by_name, roots[0].name)
    for m in models:
        depth = len(h.root_path(m.name)) - 1
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
    return h


def type_walk(
    h: MultilevelHierarchy, model: str, element: ElementKey
) -> Iterator[Tuple[str, ElementKey]]:
    """Yield the transitive types of an element, up toward the root.

    Starts with the element's own (model, element) pair.  A direct type
    lies on a strictly higher level than the element it types, so the walk
    ends at the first step that does not go up: at the self-typed root
    element, or where an invalid hierarchy types in a cycle.
    """
    cur_model, cur_elem = model, element
    yield cur_model, cur_elem
    while True:
        t_model, t_elem = h.model(cur_model).info_for(cur_elem).direct_type
        if h.model(t_model).level >= h.model(cur_model).level:
            return
        cur_model, cur_elem = t_model, t_elem
        yield cur_model, cur_elem


def transitive_type_at(
    h: MultilevelHierarchy, model: str, element: ElementKey, level: int
) -> Optional[ElementKey]:
    """The unique transitive type of `element` at `level`, if the walk hits it."""
    for m, e in type_walk(h, model, element):
        if h.model(m).level == level:
            return e
        if h.model(m).level < level:
            return None
    return None


class TypeIndex:
    """The elements of a model that carry each level-type profile.

    A profile is a tuple of (level, type) pairs, None asking that the element be untyped there.
    Above its model an element has its direct type's types, as that lies higher, so a profile is
    decided once per direct type, and `accepts` decides one element by that memoised verdict.
    In `run` a step only deletes and creates elements of the bottom model, and the survivors keep
    their types: `step` updates every cached candidate list and `by_ends` bucket by that delta."""

    def __init__(self, h: MultilevelHierarchy, model: ModelNode):
        self.h, self.model, self.verdicts, self.found, self.ends = h, model, {}, {}, {}
        self.groups: Dict[Tuple[bool, TypeRef], List[ElementKey]] = {}
        for e in (*model.graph.nodes, *model.graph.arrows):
            self.groups.setdefault((isinstance(e, tuple), model.info_for(e).direct_type), []).append(e)

    def step(
        self, model: ModelNode, created: Iterable[ElementKey], deleted: Iterable[ElementKey]
    ) -> None:
        """Move to `model`, which differs from the current one by `created` and `deleted`."""
        for e in deleted:
            self._update(e, list.remove)
        self.model = model
        for e in created:
            self._update(e, list.append)

    def _update(self, e: ElementKey, change) -> None:
        """Remove `e` from, or add it to, its group and each cached list and bucket it belongs in."""
        kind = isinstance(e, tuple)
        change(self.groups.setdefault((kind, self.model.info_for(e).direct_type), []), e)
        for (arrows, profile), found in self.found.items():
            if arrows == kind and self.accepts(e, profile):
                change(found, e)
                if arrows and profile in self.ends:
                    bucket = self.ends[profile].setdefault((e[0], e[2]), [])
                    change(bucket, e)
                    if not bucket:
                        del self.ends[profile][e[0], e[2]]

    def candidates(self, arrows: bool, profile: tuple) -> List[ElementKey]:
        """The model's arrows, or nodes, that carry `profile`, grouped by direct type."""
        key = (arrows, profile)
        if key not in self.found:
            own = any(lvl >= self.model.level for lvl, _ in profile)
            self.found[key] = [
                e
                for (a, t), g in self.groups.items()
                if a == arrows and self._holds(t, profile)
                for e in g
                if not own or self._own(e, profile)
            ]
        return self.found[key]

    def by_ends(self, profile: tuple) -> Dict[Tuple[str, str], List[Arrow]]:
        """The arrows that carry `profile`, keyed by (source, target)."""
        if profile not in self.ends:
            ends = self.ends[profile] = {}
            for a in self.candidates(True, profile):
                ends.setdefault((a[0], a[2]), []).append(a)
        return self.ends[profile]

    def accepts(self, e: ElementKey, profile: tuple) -> bool:
        """Whether the model's element `e` carries `profile`."""
        return self._holds(self.model.info_for(e).direct_type, profile) and self._own(e, profile)

    def _holds(self, t: TypeRef, profile: tuple) -> bool:
        """Whether an element of direct type `t` has the profile's types above the model."""
        if (t, profile) not in self.verdicts:
            n = self.model.level
            above = [(lvl, want) for lvl, want in profile if lvl < n]
            up = self.h.model(t[0]).level < n
            types = [transitive_type_at(self.h, *t, lvl) if up else None for lvl, _ in above]
            self.verdicts[t, profile] = types == [want for _, want in above]
        return self.verdicts[t, profile]

    def _own(self, e: ElementKey, profile: tuple) -> bool:
        # at level n an element is its own type; below n, untyped
        n = self.model.level
        return all(want == (e if lvl == n else None) for lvl, want in profile if lvl >= n)


def level_jump(h: MultilevelHierarchy, model: str, element: ElementKey) -> int:
    info = h.model(model).info_for(element)
    return h.model(model).level - h.model(info.direct_type[0]).level


def validate_hierarchy(h: MultilevelHierarchy) -> List[ValidationIssue]:
    issues: List[ValidationIssue] = []
    for m in h.models.values():
        ancestors = set(h.root_path(m.name)[:-1])
        for elem in sorted(m.graph.nodes) + sorted(m.graph.arrows):
            if elem not in m.info:
                issues.append(
                    ValidationIssue(m.name, elem, "MissingTyping", "no element info")
                )
                continue
            info = m.info[elem]
            t_model, t_elem = info.direct_type
            if t_model not in h.models or not h.model(t_model).graph.has(t_elem):
                issues.append(
                    ValidationIssue(
                        m.name, elem, "UnknownType", f"type {t_model}.{t_elem!r} missing"
                    )
                )
                continue
            if m.parent is None:
                continue  # root elements are self-typed, jump 0
            if t_model not in ancestors:
                issues.append(
                    ValidationIssue(
                        m.name,
                        elem,
                        "TypeOffBranch",
                        f"type model {t_model} is not an ancestor of {m.name}",
                    )
                )
                continue
            d = level_jump(h, m.name, elem)
            if not 1 <= d <= m.level:
                issues.append(
                    ValidationIssue(
                        m.name, elem, "BadJump", f"level jump {d} out of range"
                    )
                )
                continue
            lo, hi = h.model(t_model).info_for(t_elem).potency
            if not lo <= d <= hi:
                issues.append(
                    ValidationIssue(
                        m.name,
                        elem,
                        "PotencyViolation",
                        f"jump {d} outside declared potency {lo}-{hi} of "
                        f"{t_model}.{t_elem!r}",
                    )
                )
        issues.extend(_check_arrow_typing(h, m))
        issues.extend(_check_inheritance(h, m))
    return issues


def _check_arrow_typing(h: MultilevelHierarchy, m: ModelNode) -> List[ValidationIssue]:
    """Non-dangling typing: arrow and endpoint types must meet coherently."""
    issues = []
    if m.parent is None:
        return issues
    for a in sorted(m.graph.arrows):
        if a not in m.info:
            continue
        t_model, t_elem = m.info[a].direct_type
        if t_model not in h.models or not h.model(t_model).graph.has(t_elem):
            continue  # already reported
        if h.model(t_model).level >= m.level:
            continue  # already reported as BadJump/TypeOffBranch
        if not isinstance(t_elem, tuple):
            issues.append(
                ValidationIssue(
                    m.name, a, "TypeKindMismatch", "arrow typed by a node"
                )
            )
            continue
        t_level = h.model(t_model).level
        src_t = transitive_type_at(h, m.name, a[0], t_level)
        tgt_t = transitive_type_at(h, m.name, a[2], t_level)
        if src_t != t_elem[0] or tgt_t != t_elem[2]:
            issues.append(
                ValidationIssue(
                    m.name,
                    a,
                    "DanglingTyping",
                    f"endpoint types at level {t_level} are "
                    f"({src_t!r}, {tgt_t!r}), type arrow needs "
                    f"({t_elem[0]!r}, {t_elem[2]!r})",
                )
            )
    return issues


def _check_inheritance(h: MultilevelHierarchy, m: ModelNode) -> List[ValidationIssue]:
    issues = []
    for elem, info in m.info.items():
        for sup in sorted(info.supertypes):
            if sup not in m.graph.nodes:
                issues.append(
                    ValidationIssue(
                        m.name, elem, "UnknownSupertype", f"{sup!r} not in model"
                    )
                )
    try:
        _inheritance_order(m)
    except InheritanceCycle as err:
        issues.append(
            ValidationIssue(m.name, str(err), "InheritanceCycle", "cyclic inheritance")
        )
    return issues


def _inheritance_order(m: ModelNode) -> List[str]:
    """Topological order of nodes, supertypes first."""
    order: List[str] = []
    state: Dict[str, int] = {}

    def visit(n: str, trail: Tuple[str, ...]):
        if state.get(n) == 2:
            return
        if state.get(n) == 1:
            raise InheritanceCycle(" -> ".join(trail + (n,)))
        state[n] = 1
        for sup in sorted(m.info[n].supertypes) if n in m.info else []:
            if sup in m.graph.nodes:
                visit(sup, trail + (n,))
        state[n] = 2
        order.append(n)

    for n in sorted(m.graph.nodes):
        visit(n, ())
    return order


def derive_typing_chain(
    h: MultilevelHierarchy, model_name: str
) -> Tuple[GraphChain, MultilevelTyping]:
    """Aggregate individual typings into the chain over the root path.

    Returns the full chain [G_0 .. G_n] (root first, `model_name` last) and
    the multilevel typing of the bottom model's graph over the prefix chain.
    """
    path = h.root_path(model_name)
    graphs = [h.model(p).graph.renamed(p) for p in path]
    typings: Dict[Tuple[int, int], PartialMorphism] = {}
    for j in range(1, len(path)):
        maps = [({}, {}) for _ in range(j)]  # node and arrow maps of typing (j, i)
        for e in (*graphs[j].nodes, *graphs[j].arrows):
            walk = type_walk(h, path[j], e)
            next(walk)  # the element itself; the levels of its types strictly decrease
            for t_model, t in walk:
                maps[h.model(t_model).level][isinstance(e, tuple)][e] = t
        for i, (node_map, arrow_map) in enumerate(maps):
            typings[(j, i)] = PartialMorphism(
                graphs[j], graphs[i], node_map, arrow_map
            )
    chain = build_chain(graphs, typings)
    n = len(path) - 1
    if n == 0:
        prefix = GraphChain((graphs[0],), {})
        ident = PartialMorphism(
            graphs[0],
            graphs[0],
            {nd: nd for nd in graphs[0].nodes},
            {a: a for a in graphs[0].arrows},
        )
        return chain, MultilevelTyping(graphs[0], prefix, {0: ident})
    prefix = GraphChain(
        tuple(graphs[:n]),
        {k: v for k, v in typings.items() if k[0] < n and k[1] < n},
    )
    sigmas = {i: typings[(n, i)] for i in range(n)}
    return chain, MultilevelTyping(graphs[n], prefix, sigmas)


def flatten_inheritance(h: MultilevelHierarchy) -> MultilevelHierarchy:
    """Replicate each supertype's typing and incident arrows onto its heirs.

    Inheritance edges are dropped from the result; applying the operation
    twice equals applying it once.
    """
    new_models = []
    for m in h.models.values():
        order = _inheritance_order(m)  # raises InheritanceCycle
        # transitive supertypes, computed in topological order
        closure: Dict[str, set] = {}
        for n in order:
            sups = set(m.info[n].supertypes) if n in m.info else set()
            for s in list(sups):
                sups |= closure.get(s, set())
            closure[n] = sups

        arrows = set(m.graph.arrows)
        info = {k: v for k, v in m.info.items()}
        for n in order:
            for sup in sorted(closure[n]):
                sup_info = info[sup]
                info[n] = replace(
                    info[n], direct_type=sup_info.direct_type, potency=sup_info.potency
                )
                for a in sorted(m.graph.incident(sup)):
                    src = n if a[0] == sup else a[0]
                    tgt = n if a[2] == sup else a[2]
                    copy = (src, a[1], tgt)
                    if copy not in arrows:
                        arrows.add(copy)
                        info[copy] = replace(info[a], supertypes=frozenset())
        info = {
            k: replace(v, supertypes=frozenset()) for k, v in info.items()
        }
        graph = Graph(m.graph.name, m.graph.nodes, frozenset(arrows))
        new_models.append(ModelNode(m.name, m.parent, m.level, graph, info))
    return build_hierarchy(new_models)


_POTENCY_RE = re.compile(r"([0-9]+)-([0-9]+)")
_MULT_RE = re.compile(r"([0-9]+)\.\.([0-9]+|n|\*)")


def _parse_potency(record: dict, path: str) -> Tuple[int, int]:
    text = _field(record, "potency", path, "1-1")
    m = _POTENCY_RE.fullmatch(text)
    if not m:
        raise InputError(f"{path}.potency: bad potency {text!r}, expected 'min-max'")
    try:
        lo, hi = int(m.group(1)), int(m.group(2))
    except ValueError:  # more digits than the interpreter converts
        raise InputError(f"{path}.potency: bad potency: a bound has too many digits") from None
    if lo > hi:
        raise InputError(f"{path}.potency: bad potency {text!r}: min exceeds max")
    return lo, hi


def _parse_multiplicity(record: dict, path: str) -> Tuple[int, Optional[int]]:
    text = _field(record, "multiplicity", path, "0..n")
    m = _MULT_RE.fullmatch(text)
    if not m:
        raise InputError(f"{path}.multiplicity: bad multiplicity {text!r}, expected 'l..u'")
    try:
        lo = int(m.group(1))
        hi = None if m.group(2) in ("n", "*") else int(m.group(2))
    except ValueError:  # more digits than the interpreter converts
        raise InputError(f"{path}.multiplicity: bad multiplicity: a bound has too many digits") from None
    if hi is not None and lo > hi:
        raise InputError(f"{path}.multiplicity: bad multiplicity {text!r}: lower exceeds upper")
    return lo, hi


def _format_potency(p: Tuple[int, int]) -> str:
    return f"{p[0]}-{p[1]}"


def _format_multiplicity(mu: Tuple[int, Optional[int]]) -> str:
    return f"{mu[0]}..{'n' if mu[1] is None else mu[1]}"


def _split_type_ref(record: dict, path: str) -> Tuple[str, str]:
    text = _field(record, "type", path)
    if "." not in text:
        raise InputError(f"{path}.type: type reference {text!r} must be 'model.element'")
    model, elem = text.split(".", 1)
    return model, elem


def _resolve_arrow_type(
    h: MultilevelHierarchy, model: str, arrow: Arrow, ref: Tuple[str, str]
) -> Arrow:
    """Pick the arrow named `ref` whose endpoints fit this arrow's typing."""
    t_model, label = ref
    if t_model not in h.models:
        raise SchemaError(f"{model}: unknown type model {t_model!r}")
    candidates = sorted(a for a in h.model(t_model).graph.arrows if a[1] == label)
    if not candidates:
        raise SchemaError(
            f"{model}: no arrow named {label!r} in model {t_model}"
        )
    if len(candidates) == 1:
        return candidates[0]
    t_level = h.model(t_model).level
    src_t = transitive_type_at(h, model, arrow[0], t_level)
    tgt_t = transitive_type_at(h, model, arrow[2], t_level)
    fitting = [a for a in candidates if a[0] == src_t and a[2] == tgt_t]
    if len(fitting) != 1:
        raise SchemaError(
            f"{model}: ambiguous arrow type {t_model}.{label} for {arrow!r}"
        )
    return fitting[0]


def read_text(path: str) -> str:
    """The contents of a UTF-8 text file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not valid UTF-8 at byte {err.start}") from err


def load_hierarchy(path: str) -> MultilevelHierarchy:
    return parse_hierarchy(read_text(path))


def _items(record: dict, key: str, path: str) -> list:
    value = record.get(key, [])
    if not isinstance(value, list):
        raise InputError(f"{path}.{key}: expected a list")
    return value


def _field(record, key: str, path: str, default: Optional[str] = None) -> str:
    """A string field of a JSON object, or an InputError naming its path."""
    if not isinstance(record, dict):
        raise InputError(f"{path}: expected an object")
    value = record.get(key, default)
    if not isinstance(value, str):
        raise InputError(f"{path}.{key}: {'missing' if value is None else 'expected a string'}")
    return value


def _node_record(n, path: str) -> tuple:
    """(name, type, potency, supertypes) of a node entry."""
    name, type_ref = _field(n, "name", path), _split_type_ref(n, path)
    supertypes = _items(n, "supertypes", path)
    for k, sup in enumerate(supertypes):
        if not isinstance(sup, str):
            raise InputError(f"{path}.supertypes[{k}]: expected a string")
    return name, type_ref, _parse_potency(n, path), frozenset(supertypes)


def _arrow_record(a, path: str) -> tuple:
    """((source, name, target), type, potency, multiplicity) of an arrow entry."""
    key = (_field(a, "source", path), _field(a, "name", path), _field(a, "target", path))
    return (
        key,
        _split_type_ref(a, path),
        _parse_potency(a, path),
        _parse_multiplicity(a, path),
    )


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
    records = []
    graphs: Dict[str, Graph] = {}
    parents: Dict[str, Optional[str]] = {}
    for i, entry in enumerate(data["models"]):
        path = f"models[{i}]"
        name = _field(entry, "name", path)
        nodes = [
            _node_record(n, f"{path}.nodes[{j}]")
            for j, n in enumerate(_items(entry, "nodes", path))
        ]
        arrows = [
            _arrow_record(a, f"{path}.arrows[{j}]")
            for j, a in enumerate(_items(entry, "arrows", path))
        ]
        graphs[name] = build_graph(name, [n[0] for n in nodes], [a[0] for a in arrows])
        parents[name] = None if entry.get("parent") is None else _field(entry, "parent", path)
        records.append((name, nodes, arrows))
    for name, parent in parents.items():
        if parent is not None and parent not in graphs:
            raise SchemaError(f"{name}: unknown parent {parent!r}")

    def depth(name: str) -> int:
        d, cur, seen = 0, parents[name], {name}
        while cur is not None:
            if cur in seen:
                raise SchemaError(f"parent cycle through {cur!r}")
            seen.add(cur)
            d, cur = d + 1, parents[cur]
        return d

    # second pass: the node-typed models, over which arrow types are resolved
    models = []
    for name, nodes, _ in records:
        info: Dict[ElementKey, ElementInfo] = {}
        for node, (t_model, t_elem), potency, supertypes in nodes:
            if t_model not in graphs or t_elem not in graphs[t_model].nodes:
                raise SchemaError(
                    f"{name}: node {node!r} has unknown type {t_model + '.' + t_elem!r}"
                )
            info[node] = ElementInfo(
                direct_type=(t_model, t_elem),
                potency=potency,
                supertypes=supertypes,
            )
        models.append(ModelNode(name, parents[name], depth(name), graphs[name], info))
    node_typed = build_hierarchy(models)

    for i, (name, _, arrows) in enumerate(records):
        info = dict(models[i].info)
        for key, ref, potency, mult in arrows:
            resolved = _resolve_arrow_type(node_typed, name, key, ref)
            info[key] = ElementInfo(
                direct_type=(ref[0], resolved),
                potency=potency,
                multiplicity=mult,
            )
        models[i] = replace(models[i], info=info)
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
