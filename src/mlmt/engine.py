"""Rule application and bounded execution.

Two application paths produce the same result: the compiled path applies a
proliferated two-level rule to the bottom model by pushout followed by
pullback complement, and the direct path runs the same co-span on the whole
typing chain at once.  A seeded scheduler drives repeated application.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .chains import (
    ChainMorphism,
    GraphChain,
    chain_pullback_complement,
    chain_pushout,
    refactor_inclusion_chain,
    typing_to_chain,
)
from .errors import DanglingDeletion, IncompatibleMatch, TypeMismatch
from .graphs import (
    Graph,
    Subgraph,
    TotalMorphism,
    inclusion,
    injective_matches,
    pullback_complement,
    pushout,
)
from .hierarchy import (
    ElementInfo,
    ElementKey,
    ModelNode,
    MultilevelHierarchy,
    TypeIndex,
    derive_typing_chain,
    transitive_type_at,
)
from .matching import (
    MetaMatch,
    TwoLevelRule,
    instance_profile,
    proliferate,
    type_profile,
    typing_stack,
)
from .rules import ARROW, NODE, McmtRule


def typed_matches(
    rule: TwoLevelRule, model: ModelNode, h: MultilevelHierarchy, index: Optional[TypeIndex] = None
) -> List[TotalMorphism]:
    """All injective matches of the rule's left pattern into the model, ordered by the images of
    sorted pattern nodes, then arrows.  `index`, if given, is a `TypeIndex` regrouped at `model`."""
    index = index or TypeIndex(h, model)
    nodes, arrows = sorted(rule.lhs.nodes), sorted(rule.lhs.arrows)
    candidates = {e: index.candidates(isinstance(e, tuple), rule.level_types[e]) for e in nodes + arrows}
    return [
        TotalMorphism(rule.lhs, model.graph, dict(zip(nodes, m)), dict(zip(arrows, m[len(nodes):])))
        for m in injective_matches(nodes, [(a, a[0], a[2]) for a in arrows], candidates)
    ]


def _created_info(rule: TwoLevelRule, element: ElementKey) -> ElementInfo:
    model_name, type_elem = rule.types[element]
    if isinstance(element, tuple):
        return ElementInfo(
            direct_type=(model_name, type_elem), potency=(1, 1), multiplicity=(0, None)
        )
    return ElementInfo(direct_type=(model_name, type_elem), potency=(1, 1))


@dataclass(frozen=True)
class ApplicationResult:
    model: ModelNode
    match: TotalMorphism
    created: Tuple[ElementKey, ...]
    deleted: Tuple[ElementKey, ...]


def apply_two_level_rule(
    rule: TwoLevelRule,
    model: ModelNode,
    h: MultilevelHierarchy,
    at: Optional[TotalMorphism] = None,
) -> Tuple[List[ApplicationResult], List[str]]:
    """Apply at every (or one given) match; returns successors and a report
    of matches skipped because deletion would leave dangling arrows."""
    if at is not None:
        matches = [at]
        for elem in sorted(rule.lhs.nodes) + sorted(rule.lhs.arrows):
            img = at(elem)
            for level, required in rule.level_types[elem]:
                if transitive_type_at(h, model.name, img, level) != required:
                    raise TypeMismatch(
                        f"{rule.name}: match image {img!r} not typed "
                        f"{required!r} at level {level}"
                    )
    else:
        matches = typed_matches(rule, model, h)
    successors: List[ApplicationResult] = []
    report: List[str] = []
    for m in matches:
        try:
            successors.append(_apply_at(rule, model, m))
        except DanglingDeletion as err:
            report.append(f"{rule.name}: skipped match, {err}")
    return successors, report


def _apply_at(
    rule: TwoLevelRule, model: ModelNode, m: TotalMorphism
) -> ApplicationResult:
    D, s, d = pushout(inclusion(rule.lhs, rule.interface), m)
    T, t_in, t_sub = pullback_complement(inclusion(rule.rhs, rule.interface), d)
    created = tuple(
        d(x)
        for x in sorted(rule.interface.nodes - rule.lhs.nodes)
        + sorted(rule.interface.arrows - rule.lhs.arrows)
        if T.has(d(x))
    )
    deleted = tuple(
        e for e in sorted(model.graph.nodes) + sorted(model.graph.arrows)
        if not T.has(e)
    )
    info = {k: v for k, v in model.info.items() if T.has(k)}
    for x in sorted(rule.interface.nodes - rule.lhs.nodes):
        if T.has(d(x)):
            info[d(x)] = _created_info(rule, x)
    for x in sorted(rule.interface.arrows - rule.lhs.arrows):
        if T.has(d(x)):
            info[d(x)] = _created_info(rule, x)
    successor = ModelNode(model.name, model.parent, model.level, T, info)
    return ApplicationResult(successor, m, created, deleted)


# ---------------------------------------------------------------------------
# direct MCMT application on the typing chain


def _pattern_level_subgraphs(
    rule: McmtRule,
    pattern_graph: Graph,
    pattern_elements,
    mm_match: MetaMatch,
    depth: int,
) -> List[Subgraph]:
    """Inclusion-chain layers of a pattern: level i holds the elements whose
    META type chain passes through META level i."""
    layers = [Subgraph(pattern_graph, pattern_graph.nodes, pattern_graph.arrows)]
    profiles = {}
    for e in pattern_elements:
        meta_el = rule.meta_element(e.type_name, e.type_level)
        anchors, floor, _ = type_profile(rule, meta_el)
        key = e.name if e.kind == NODE else (e.source, e.name, e.target)
        profiles[key] = set(anchors) | {meta_el.level}
    for i in range(1, depth + 1):
        nodes = frozenset(
            n for n in pattern_graph.nodes if i in profiles[n]
        )
        arrows = frozenset(
            a
            for a in pattern_graph.arrows
            if i in profiles[a] and a[0] in nodes and a[2] in nodes
        )
        layers.append(Subgraph(pattern_graph, nodes, arrows))
    return layers


def apply_mcmt(
    rule: McmtRule,
    h: MultilevelHierarchy,
    target_model: str,
    mm_match: MetaMatch,
    m: TotalMorphism,
) -> Tuple[MultilevelHierarchy, ApplicationResult]:
    """Direct application via chain pushout + chain pullback complement."""
    stack = typing_stack(h, target_model)
    model = h.model(target_model)
    depth = rule.depth

    lhs = rule.from_pattern.graph(target_model)
    rhs_elems = rule.to_pattern.elements
    interface_elems = list(rule.from_pattern.elements) + [
        e for e in rhs_elems if e.name not in rule.from_pattern.by_name()
    ]
    inter_nodes = [e.name for e in interface_elems if e.kind == NODE]
    inter_arrows = [
        (e.source, e.name, e.target) for e in interface_elems if e.kind == ARROW
    ]
    interface = Graph(
        target_model, frozenset(inter_nodes), frozenset(inter_arrows)
    )
    rhs_nodes = frozenset(e.name for e in rhs_elems if e.kind == NODE)
    rhs_arrows = frozenset(
        (e.source, e.name, e.target) for e in rhs_elems if e.kind == ARROW
    )
    rhs = Graph(target_model, rhs_nodes, rhs_arrows)

    # type-compatibility of the bottom match
    for e in rule.from_pattern.elements:
        key = e.name if e.kind == NODE else (e.source, e.name, e.target)
        meta_el = rule.meta_element(e.type_name, e.type_level)
        img = m(key)
        for level, required in instance_profile(rule, meta_el, mm_match, stack):
            if transitive_type_at(h, target_model, img, level) != required:
                raise IncompatibleMatch(level, key)

    # inclusion chains for L, I, R and the chain match into S
    chain, mt = derive_typing_chain(h, target_model)
    s_chain, s_morph = typing_to_chain(mt)

    names_l = [f"{rule.name}.L@{i}" for i in range(depth + 1)]
    names_i = [f"{rule.name}.I@{i}" for i in range(depth + 1)]
    names_r = [f"{rule.name}.R@{i}" for i in range(depth + 1)]
    l_chain = refactor_inclusion_chain(
        lhs,
        _pattern_level_subgraphs(rule, lhs, rule.from_pattern.elements, mm_match, depth),
        names=names_l,
    )
    i_chain = refactor_inclusion_chain(
        interface,
        _pattern_level_subgraphs(rule, interface, interface_elems, mm_match, depth),
        names=names_i,
    )
    r_chain = refactor_inclusion_chain(
        rhs,
        _pattern_level_subgraphs(rule, rhs, rhs_elems, mm_match, depth),
        names=names_r,
    )

    def chain_inclusion(src: GraphChain, dst: GraphChain) -> ChainMorphism:
        return ChainMorphism(
            src,
            dst,
            {i: i for i in range(src.length + 1)},
            {
                i: inclusion(src.graph_at(i), dst.graph_at(i))
                for i in range(src.length + 1)
            },
        )

    l_morph = chain_inclusion(l_chain, i_chain)
    r_morph = chain_inclusion(r_chain, i_chain)

    level_map = {0: 0}
    for i in range(1, depth + 1):
        level_map[i] = mm_match.f(i)
    m_components = {0: TotalMorphism(l_chain.graph_at(0), s_chain.graph_at(0), m.node_map, m.arrow_map)}
    for i in range(1, depth + 1):
        g = l_chain.graph_at(i)
        m_components[i] = TotalMorphism(
            g,
            s_chain.graph_at(level_map[i]),
            {n: m.node_map[n] for n in g.nodes},
            {a: m.arrow_map[a] for a in g.arrows},
        )
    m_chain = ChainMorphism(l_chain, s_chain, level_map, m_components)

    d_chain, s_incl, d_morph = chain_pushout(l_morph, m_chain)
    t_chain, t_in, t_sub = chain_pullback_complement(r_morph, d_morph)

    # install the result as the new bottom model
    t0 = t_chain.graph_at(0).renamed(target_model)
    d0 = d_morph.component(0)
    created_keys = []
    info = {k: v for k, v in model.info.items() if t0.has(k)}
    for e in interface_elems:
        if e.name in rule.from_pattern.by_name():
            continue
        key = e.name if e.kind == NODE else (e.source, e.name, e.target)
        img = d0(key)
        if not t0.has(img):
            continue
        created_keys.append(img)
        meta_el = rule.meta_element(e.type_name, e.type_level)
        bound = mm_match.binding(meta_el.level)[meta_el.name]
        type_model = stack[mm_match.f(meta_el.level)].name
        if isinstance(img, tuple):
            info[img] = ElementInfo((type_model, bound), (1, 1), (0, None))
        else:
            info[img] = ElementInfo((type_model, bound), (1, 1))
    deleted = tuple(
        e
        for e in sorted(model.graph.nodes) + sorted(model.graph.arrows)
        if not t0.has(e)
    )
    new_model = ModelNode(model.name, model.parent, model.level, t0, info)
    return h.with_model(new_model), ApplicationResult(
        new_model, m, tuple(created_keys), deleted
    )


# ---------------------------------------------------------------------------
# bounded execution


@dataclass(frozen=True)
class TraceStep:
    step: int
    rule: str
    match: Dict[str, str]
    created: Tuple[ElementKey, ...]
    deleted: Tuple[ElementKey, ...]

    def to_json(self) -> dict:
        def key(e: ElementKey):
            return list(e) if isinstance(e, tuple) else e

        return {
            "step": self.step,
            "rule": self.rule,
            "match": {k: key(v) for k, v in sorted(self.match.items(), key=lambda kv: repr(kv))},
            "created": [key(e) for e in self.created],
            "deleted": [key(e) for e in self.deleted],
        }


@dataclass(frozen=True)
class ExecutionTrace:
    steps: Tuple[TraceStep, ...]
    final: MultilevelHierarchy

    def to_json_lines(self) -> str:
        import json

        return "\n".join(
            json.dumps(s.to_json(), sort_keys=True) for s in self.steps
        ) + ("\n" if self.steps else "")


def run(
    rules: Sequence[McmtRule],
    h: MultilevelHierarchy,
    target_model: str,
    max_steps: int,
    seed: int,
) -> ExecutionTrace:
    """Seeded uniform scheduling of proliferated rules until quiescence."""
    compiled: List[TwoLevelRule] = []
    for rule in rules:
        compiled.extend(proliferate(rule, h, target_model))
    rng = random.Random(seed)
    steps: List[TraceStep] = []
    current = h
    index = TypeIndex(h, h.model(target_model))
    for step in range(max_steps):
        model = current.model(target_model)
        index.regroup(model)
        pairs: List[Tuple[TwoLevelRule, TotalMorphism]] = []
        for tl_rule in compiled:
            for m in typed_matches(tl_rule, model, current, index):
                pairs.append((tl_rule, m))
        applied = False
        while pairs:
            idx = rng.randrange(len(pairs))
            tl_rule, m = pairs.pop(idx)
            successors, _ = apply_two_level_rule(tl_rule, model, current, at=m)
            if not successors:
                continue
            result = successors[0]
            current = current.with_model(result.model)
            match_view = {}
            for k, v in result.match.node_map.items():
                match_view[k] = v
            for k, v in result.match.arrow_map.items():
                match_view[k[1]] = v[1]
            steps.append(
                TraceStep(
                    step, tl_rule.name, match_view, result.created, result.deleted
                )
            )
            applied = True
            break
        if not applied:
            break
    return ExecutionTrace(tuple(steps), current)
