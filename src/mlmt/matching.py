"""Matching META patterns against typing chains, and rule proliferation.

The META pattern chain of an MCMT rule is matched level by level against the
typing chain above a target model: a strictly monotone level map plus one
injective, type-consistent binding per META level.  Each complete match
turns the rule into concrete two-level rules by substituting the bound types
and expanding bounded multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import UnresolvedReference
from .graphs import Arrow, Graph, build_graph, injective_matches
from .hierarchy import (
    ElementKey,
    ModelNode,
    MultilevelHierarchy,
    TypeIndex,
    TypeRef,
    transitive_type_at,  # noqa: F401  (perfbench counts calls per module through this name)
)
from .rules import (
    ARROW,
    NODE,
    McmtRule,
    MetaElement,
    element_key,
    expand_cardinalities,
    type_chain,
)


@dataclass(frozen=True)
class MetaMatch:
    """A complete match of a META chain into a typing chain."""

    level_map: Tuple[Tuple[int, int], ...]  # meta level -> stack level
    bindings: Tuple[Tuple[int, Tuple[Tuple[str, ElementKey], ...]], ...]

    @cached_property
    def _levels(self) -> Dict[int, int]:
        return dict(self.level_map)

    @cached_property
    def _bindings(self) -> Dict[int, Dict[str, ElementKey]]:
        return {lvl: dict(b) for lvl, b in self.bindings}

    def f(self, meta_level: int) -> int:
        return self._levels[meta_level]

    def binding(self, meta_level: int) -> Dict[str, ElementKey]:
        """The bindings of one META level; shared, so read-only."""
        return self._bindings[meta_level]


def _freeze_match(level_map: Dict[int, int], bindings: Dict[int, Dict[str, ElementKey]]) -> MetaMatch:
    return MetaMatch(
        tuple(sorted(level_map.items())),
        tuple(
            (lvl, tuple(sorted(b.items(), key=lambda kv: repr(kv))))
            for lvl, b in sorted(bindings.items())
        ),
    )


def _root_binding(rule: McmtRule, root: ModelNode) -> Dict[str, ElementKey]:
    """The trivial level-0 binding: root type names resolve by name."""
    binding: Dict[str, ElementKey] = {}
    arrows_by_label: Dict[str, List[Arrow]] = {}
    for a in root.graph.arrows:
        arrows_by_label.setdefault(a[1], []).append(a)
    for el in rule.meta_elements + rule.implicit_elements:
        if el.type_name is None or el.type_level != 0:
            continue
        if el.kind == NODE:
            if el.type_name not in root.graph.nodes:
                raise UnresolvedReference(
                    f"{rule.name}: unknown root type {el.type_name!r}"
                )
            binding[el.type_name] = el.type_name
        else:
            candidates = arrows_by_label.get(el.type_name, [])
            if len(candidates) != 1:
                raise UnresolvedReference(
                    f"{rule.name}: root arrow type {el.type_name!r} "
                    f"not uniquely resolvable"
                )
            binding[el.type_name] = candidates[0]
    return binding


def type_profile(
    rule: McmtRule, element: MetaElement
) -> Tuple[Dict[int, Tuple[str, int]], int]:
    """Anchors of an element's META type chain, keyed by META level.

    Returns (anchors, floor); anchors maps a META level to the (name, level)
    of the chain element there; floor is the lowest META level the chain
    reaches: 0 at the root, higher when it ends at an implicit constant.
    """
    anchors: Dict[int, Tuple[str, int]] = {}
    chain = type_chain(rule, element)
    for el in chain:
        anchors[el.level] = (el.name, el.level)
    last = chain[-1]
    if last.type_name is not None and last.type_level == 0:
        anchors[0] = (last.type_name, 0)
        return anchors, 0
    return anchors, last.level


def _meta_profile(
    rule: McmtRule,
    meta_el: MetaElement,
    level_map: Dict[int, int],
    bindings: Dict[int, Dict[str, ElementKey]],
) -> Tuple[Tuple[int, Optional[ElementKey]], ...]:
    """The types an image of `meta_el` must have at the stack levels of the META levels below its
    own, top down: the binding of its META type chain there, or None where the chain skips."""
    anchors, floor = type_profile(rule, meta_el)
    return tuple(
        (level_map[k], bindings[k][anchors[k][0]] if k in anchors else None)
        for k in range(meta_el.level - 1, floor - 1, -1)
    )


def _element_satisfies(meta_el: MetaElement, model: ModelNode, candidate: ElementKey) -> bool:
    """The potency and multiplicity a META element asks of its image."""
    if meta_el.potency is not None:
        lo, hi = model.info_for(candidate).potency
        if not (lo <= meta_el.potency[0] and meta_el.potency[1] <= hi):
            return False
    if meta_el.multiplicity is not None:
        if not isinstance(candidate, tuple):
            return False
        target_mult = model.info_for(candidate).multiplicity or (0, None)
        lo, hi = meta_el.multiplicity
        if target_mult[0] > lo:
            return False
        if target_mult[1] is not None and (hi is None or hi > target_mult[1]):
            return False
    return True


def graph_match(
    pattern: Sequence[MetaElement],
    target: ModelNode,
    h: MultilevelHierarchy,
    rule: McmtRule,
    level_map: Dict[int, int],
    bindings: Dict[int, Dict[str, ElementKey]],
) -> List[Dict[str, ElementKey]]:
    """All injective, type- and structure-consistent bindings of one level, in
    lexicographic order of node, then arrow images.  Type checks read only
    lower levels' bindings, so candidates come first."""
    nodes = [el.name for el in pattern if el.kind == NODE]
    ends = [(el.name, el.source, el.target) for el in pattern if el.kind == ARROW]
    index = TypeIndex(h, target)
    candidates = {
        el.name: [
            c
            for c in index.candidates(el.kind == ARROW, _meta_profile(rule, el, level_map, bindings))
            if (not el.constant or (c if el.kind == NODE else c[1]) == el.name)
            and _element_satisfies(el, target, c)
        ]
        for el in pattern
    }
    found = injective_matches(nodes, ends, candidates)
    return [dict(zip(nodes + [a for a, _, _ in ends], m)) for m in found]


def find_meta_matches(
    rule: McmtRule, h: MultilevelHierarchy, target_model: str
) -> List[MetaMatch]:
    """Every match of the rule's META chain into the typing chain above a
    target model, depth first.

    The root binds META level 0.  Descending a META level also advances the
    stack level, and the stack level may slide further down when the META
    chain is shorter than the stack.
    """
    stack = typing_stack(h, target_model)  # root first
    if not stack:  # the root has no typing chain above it
        return []
    depth = rule.depth

    def extend(mm_level, tg_level, level_map, bindings) -> Iterator[MetaMatch]:
        if mm_level == depth:
            yield _freeze_match(level_map, bindings)
            return
        pattern = rule.meta_at(mm_level + 1)
        # leave room below for the remaining META levels
        for t in range(tg_level + 1, len(stack) - (depth - mm_level - 1)):
            deeper = {**level_map, mm_level + 1: t}
            for binding in graph_match(pattern, stack[t], h, rule, deeper, bindings):
                yield from extend(mm_level + 1, t, deeper, {**bindings, mm_level + 1: binding})

    return list(extend(0, 0, {0: 0}, {0: _root_binding(rule, stack[0])}))


def typing_stack(h: MultilevelHierarchy, target_model: str) -> List[ModelNode]:
    """The models a target is typed over: its root path, itself excluded."""
    path = h.root_path(target_model)
    return [h.model(name) for name in path[:-1]]


# ---------------------------------------------------------------------------
# proliferation


@dataclass(frozen=True)
class TwoLevelRule:
    """A concrete co-span rule produced from an MCMT match.

    Element types are references into the hierarchy; `level_types` pins the
    full transitive-type profile per element across the stack levels, with
    None marking levels where the element must be untyped.
    """

    name: str
    lhs: Graph
    interface: Graph
    rhs: Graph
    types: Dict[ElementKey, TypeRef]
    level_types: Dict[ElementKey, Tuple[Tuple[int, Optional[ElementKey]], ...]]
    source_rule: str
    source_match: MetaMatch


def _pattern_graphs(rule: McmtRule, name: str) -> Tuple[Graph, Graph, Graph]:
    lhs = rule.from_pattern.graph(name)
    rhs = rule.to_pattern.graph(name)
    inter = build_graph(
        name,
        sorted(lhs.nodes | rhs.nodes),
        sorted(lhs.arrows | rhs.arrows),
    )
    return lhs, inter, rhs


def instance_profile(
    rule: McmtRule,
    meta_el: MetaElement,
    mm_match: MetaMatch,
    stack: Sequence[ModelNode],
) -> Tuple[Tuple[int, Optional[ElementKey]], ...]:
    """Per-stack-level type constraints for an instance of `meta_el`: its own
    binding, its META profile, and untyped at the stack levels in between."""
    top = mm_match.f(meta_el.level)
    profile = ((top, mm_match.binding(meta_el.level)[meta_el.name]),)
    profile += _meta_profile(rule, meta_el, mm_match._levels, mm_match._bindings)
    mapped = {level for level, _ in profile}
    between = tuple((level, None) for level in range(profile[-1][0], top) if level not in mapped)
    return tuple(sorted(profile + between, reverse=True))


def proliferate(
    rule: McmtRule, h: MultilevelHierarchy, target_model: str
) -> List[TwoLevelRule]:
    """Compile one MCMT into concrete two-level rules over a branch."""
    stack = typing_stack(h, target_model)
    out: List[TwoLevelRule] = []
    for mm_match in find_meta_matches(rule, h, target_model):
        bound_mults = {}
        for el in rule.meta_elements + rule.implicit_elements:
            if el.kind != ARROW or el.level < 1:
                continue
            bound = mm_match.binding(el.level).get(el.name)
            if bound is None:
                continue
            model = stack[mm_match.f(el.level)]
            bound_mults[(el.level, el.name)] = (
                model.info_for(bound).multiplicity or (0, None)
            )
        for expanded in expand_cardinalities(rule, bound_mults):
            name = f"{rule.name}_{len(out)}"
            lhs, inter, rhs = _pattern_graphs(expanded, target_model)
            types: Dict[ElementKey, TypeRef] = {}
            level_types = {}
            for e in expanded.to_pattern.elements + expanded.from_pattern.elements:
                key = element_key(e)
                if key in types:
                    continue
                meta_el = rule.meta_element(e.type_name, e.type_level)
                stack_level = mm_match.f(meta_el.level)
                bound = mm_match.binding(meta_el.level)[meta_el.name]
                types[key] = (stack[stack_level].name, bound)
                level_types[key] = instance_profile(rule, meta_el, mm_match, stack)
            out.append(
                TwoLevelRule(
                    name, lhs, inter, rhs, types, level_types, rule.name, mm_match
                )
            )
    return out


def proliferate_all(
    rules: Sequence[McmtRule], h: MultilevelHierarchy, target_model: str
) -> Dict[str, List[TwoLevelRule]]:
    """Proliferate a rule set; keyed per source rule for breakdown reports."""
    return {rule.name: proliferate(rule, h, target_model) for rule in rules}


def rule_set_to_json(rules: Sequence[TwoLevelRule]) -> dict:
    def graph_json(g: Graph, types: Dict[ElementKey, TypeRef]) -> dict:
        nodes = [
            {"name": n, "type": f"{types[n][0]}.{types[n][1]}"}
            for n in sorted(g.nodes)
        ]
        arrows = [
            {
                "name": a[1],
                "source": a[0],
                "target": a[2],
                "type": f"{types[a][0]}.{types[a][1][1]}",
            }
            for a in sorted(g.arrows)
        ]
        return {"nodes": nodes, "arrows": arrows}

    return {
        "rules": [
            {
                "name": r.name,
                "lhs": graph_json(r.lhs, r.types),
                "interface": graph_json(r.interface, r.types),
                "rhs": graph_json(r.rhs, r.types),
            }
            for r in rules
        ]
    }
