"""Rule application and bounded execution.

Two application paths produce the same result: the compiled path applies a
proliferated two-level rule to the bottom model by pushout followed by
pullback complement, and the direct path runs the same co-span on the whole
typing chain at once.  A seeded scheduler drives repeated application.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .chains import (
    chain_pullback_complement,
    chain_pushout,
    lift,
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
from .rules import McmtRule, RulePattern, element_key


def typed_matches(
    rule: TwoLevelRule,
    model: ModelNode,
    h: MultilevelHierarchy,
    index: Optional[TypeIndex] = None,
    touching: Optional[Iterable[ElementKey]] = None,
) -> List[TotalMorphism]:
    """All injective matches of the rule's left pattern into the model, ordered by the images of
    sorted pattern nodes, then arrows.  `index`, if given, is a `TypeIndex` at `model`.

    With `touching`, only the matches that use at least one of those elements, in the same
    order.  Each touched element is tried as the image of every pattern element whose profile
    accepts it (an arrow's ends are fixed with it); a touched arrow with a touched end is left
    out, as every match that uses it also uses that end."""
    index = index or TypeIndex(h, model)
    nodes, arrows = sorted(rule.lhs.nodes), sorted(rule.lhs.arrows)

    def accepts(p: ElementKey, x: ElementKey) -> bool:
        return index.accepts(x, rule.level_types[p])

    if touching is not None:
        touched, anchors = set(touching), []  # (pattern element, touched element as its image)
        for x in touched:
            if not isinstance(x, tuple):
                anchors += [(p, x) for p in nodes if accepts(p, x)]
            elif x[0] not in touched and x[2] not in touched:
                anchors += [
                    (p, x)
                    for p in arrows
                    if accepts(p, x) and accepts(p[0], x[0]) and accepts(p[2], x[2])
                ]
        if not anchors:
            return []
    candidates = {e: index.candidates(isinstance(e, tuple), rule.level_types[e]) for e in nodes + arrows}
    if not all(candidates.values()):
        return []
    ends = [(a, a[0], a[2]) for a in arrows]
    by_ends = {a: index.by_ends(rule.level_types[a]) for a in arrows}
    if touching is None:
        found = injective_matches(nodes, ends, candidates, by_ends)
    else:
        anchored = set()
        for p, x in anchors:
            fixed, fixed_ends = {**candidates, p: (x,)}, by_ends
            if isinstance(x, tuple):
                fixed.update({p[0]: (x[0],), p[2]: (x[2],)})
                fixed_ends = {**by_ends, p: {(x[0], x[2]): [x]}}
            anchored.update(injective_matches(nodes, ends, fixed, fixed_ends))
        found = sorted(anchored)
    return [
        TotalMorphism(rule.lhs, model.graph, dict(zip(nodes, m)), dict(zip(arrows, m[len(nodes):])))
        for m in found
    ]


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
    """One co-span step.  The pushout glues on a fresh copy of I \\ L and the
    pullback complement removes d(I \\ R), so the created elements are the
    kept copies of I \\ L and the deleted ones are m(L \\ R): the rest of
    d(I \\ R) are copies that never reached the model."""
    L, I, R = rule.lhs, rule.interface, rule.rhs
    _, _, d = pushout(inclusion(L, I), m)
    T, _, _ = pullback_complement(inclusion(R, I), d)
    created: Dict[ElementKey, ElementInfo] = {}
    for x in sorted(I.nodes - L.nodes) + sorted(I.arrows - L.arrows):
        if T.has(d(x)):
            mult = (0, None) if isinstance(x, tuple) else None
            created[d(x)] = ElementInfo(rule.types[x], (1, 1), mult)
    deleted = tuple(sorted({m(x) for x in L.nodes - R.nodes})) + tuple(
        sorted({m(x) for x in L.arrows - R.arrows})
    )
    info = dict(model.info)
    for e in deleted:
        info.pop(e, None)
    info.update(created)
    successor = ModelNode(model.name, model.parent, model.level, T, info)
    return ApplicationResult(successor, m, tuple(created), deleted)


# ---------------------------------------------------------------------------
# direct MCMT application on the typing chain


def _pattern_level_subgraphs(
    rule: McmtRule,
    pattern_graph: Graph,
    pattern_elements,
    depth: int,
) -> List[Subgraph]:
    """Inclusion-chain layers of a pattern: level i holds the elements whose
    META type chain passes through META level i."""
    layers = [Subgraph(pattern_graph, pattern_graph.nodes, pattern_graph.arrows)]
    profiles = {}
    for e in pattern_elements:
        meta_el = rule.meta_element(e.type_name, e.type_level)
        anchors, _ = type_profile(rule, meta_el)
        profiles[element_key(e)] = set(anchors) | {meta_el.level}
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
    lhs_names = rule.from_pattern.by_name()
    created = [e for e in rule.to_pattern.elements if e.name not in lhs_names]
    interface = RulePattern(rule.from_pattern.elements + tuple(created))

    # type-compatibility of the bottom match
    for e in rule.from_pattern.elements:
        key = element_key(e)
        meta_el = rule.meta_element(e.type_name, e.type_level)
        img = m(key)
        for level, required in instance_profile(rule, meta_el, mm_match, stack):
            if transitive_type_at(h, target_model, img, level) != required:
                raise IncompatibleMatch(level, key)

    # inclusion chains for L, I, R and the chain match into S
    _, mt = derive_typing_chain(h, target_model)
    s_chain, _ = typing_to_chain(mt)
    chains = []
    for tag, pattern in (("L", rule.from_pattern), ("I", interface), ("R", rule.to_pattern)):
        g = pattern.graph(target_model)
        layers = _pattern_level_subgraphs(rule, g, pattern.elements, depth)
        names = [f"{rule.name}.{tag}@{i}" for i in range(depth + 1)]
        chains.append(refactor_inclusion_chain(g, layers, names))
    l_chain, i_chain, r_chain = chains
    ident = {i: i for i in range(depth + 1)}
    l_morph = lift(inclusion(l_chain.graph_at(0), i_chain.graph_at(0)), l_chain, i_chain, ident)
    r_morph = lift(inclusion(r_chain.graph_at(0), i_chain.graph_at(0)), r_chain, i_chain, ident)
    m_chain = lift(m, l_chain, s_chain, dict(mm_match.level_map))

    _, _, d_morph = chain_pushout(l_morph, m_chain)
    t_chain, _, _ = chain_pullback_complement(r_morph, d_morph)

    # install the result as the new bottom model
    t0 = t_chain.graph_at(0).renamed(target_model)
    d0 = d_morph.component(0)
    created_keys = []
    info = {k: v for k, v in model.info.items() if t0.has(k)}
    for e in created:
        img = d0(element_key(e))
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


class _LiveMatches:
    """Each compiled rule's `typed_matches` in the bottom model of a run, kept across steps.

    Rules have no negative conditions, and an element that survives a step keeps its type and
    info, so a step removes exactly the matches that use a deleted element, and every new match
    uses a created one (incremental matching, as in RETE).  A kept match still maps into the
    model it was found in."""

    def __init__(self, rules: List[TwoLevelRule], h: MultilevelHierarchy, target_model: str):
        model = h.model(target_model)
        self.rules, self.index = rules, TypeIndex(h, model)
        self.lists = [typed_matches(r, model, h, self.index) for r in rules]

    def step(self, h: MultilevelHierarchy, result: ApplicationResult) -> None:
        """Move to `h`, whose bottom model `result` made."""
        self.index.step(result.model, result.created, result.deleted)
        gone = set(result.deleted)
        for i, r in enumerate(self.rules):
            found = self.lists[i]
            if gone:
                found = [
                    m
                    for m in found
                    if gone.isdisjoint(m.node_map.values()) and gone.isdisjoint(m.arrow_map.values())
                ]
            new = typed_matches(r, result.model, h, self.index, touching=result.created)
            if new:
                order = sorted(r.lhs.nodes) + sorted(r.lhs.arrows)
                found = sorted(found + new, key=lambda m: [m(e) for e in order])
            self.lists[i] = found


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
    live = _LiveMatches(compiled, h, target_model)
    for step in range(max_steps):
        model = current.model(target_model)
        pairs = [(r, m) for r, found in zip(compiled, live.lists) for m in found]
        applied = False
        while pairs:
            idx = rng.randrange(len(pairs))
            tl_rule, m = pairs.pop(idx)
            # a kept match maps into the graph it was found in
            m = TotalMorphism(tl_rule.lhs, model.graph, m.node_map, m.arrow_map)
            successors, _ = apply_two_level_rule(tl_rule, model, current, at=m)
            if not successors:
                continue
            result = successors[0]
            current = current.with_model(result.model)
            live.step(current, result)
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
