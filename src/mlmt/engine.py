"""Rule application and bounded execution.

Two application paths produce the same result: the compiled path applies a
proliferated two-level rule to the bottom model by pushout followed by
pullback complement, and the direct path runs the same co-span on the whole
typing chain at once.  A seeded scheduler drives repeated application.
"""

from __future__ import annotations

import random
from bisect import insort
from typing import Dict, List, Optional, Sequence, Tuple

from .chains import (
    GraphChain,
    chain_pullback_complement,
    chain_pushout,
    derive_typing_chain,
    lift,
    refactor_inclusion_chain,
    typing_to_chain,
)
from .errors import DanglingDeletion, GraphMismatch, IncompatibleMatch, TypeMismatch
from .graphs import (
    Graph,
    Record,
    TotalMorphism,
    injective_matches,
    pullback_complement,
    pushout,
    search_plan,
)
from .hierarchy import (
    ElementInfo,
    ElementKey,
    ModelNode,
    MultilevelHierarchy,
    transitive_type_at,
)
from .matching import (
    MetaMatch,
    TwoLevelRule,
    TypeIndex,
    instance_profile,
    proliferate,
)
from .rules import McmtRule, RulePattern, element_key


def typed_matches(
    rule: TwoLevelRule,
    model: ModelNode,
    h: MultilevelHierarchy,
    pools: Optional[tuple] = None,
) -> List[TotalMorphism]:
    """All injective matches of the rule's left pattern into the model, ordered by the images of
    sorted pattern nodes, then arrows.  `pools`, if given, are the `pools` of `rule.pattern` of
    a `TypeIndex` at `model`.  A search with an empty pool is neither planned nor run.  `run`
    searches this way once per rule, and then only from what each step creates
    (`_LiveMatches`)."""
    pools, incidence = pools or TypeIndex(h, model).pools(rule.pattern)
    if not all(pools.values()):
        return []
    order = tuple(rule.pattern)
    nodes = sorted(rule.lhs.nodes)
    arrows = [(a, a[0], a[2]) for a in order[len(nodes):]]
    plan = search_plan(nodes, arrows, size=lambda n: len(pools[n]))
    found = injective_matches(order, plan, pools, incidence)
    return [_morphism(rule, model.graph, m) for m in found]


def _anchor_plans(lhs: Graph) -> Dict[ElementKey, List[tuple]]:
    """For each arrow of a left graph, and each node without arrows, the `search_plan` of the
    matches that fix its image (an arrow's ends with it): where a `run` step searches from."""
    nodes, arrows = sorted(lhs.nodes), sorted(lhs.arrows)
    ends = [(a, a[0], a[2]) for a in arrows]
    plans = {n: search_plan(nodes, ends, (n,)) for n in nodes if not lhs.incident(n)}
    plans.update({a: search_plan(nodes, ends, (a, a[0], a[2])) for a in arrows})
    return plans


def _anchored(order, plan, pools, incidence, x: ElementKey, p: ElementKey) -> List[tuple]:
    """The matches, as `injective_matches` lists them, that map the pattern element `p` to `x`
    by `p`'s plan: a node of `p`'s pool, or an arrow of `p`'s `TypeIndex.by_ends` groups, whose
    ends are in the pools of `p`'s ends and are fixed with it."""
    if not isinstance(x, tuple):
        return injective_matches(order, plan, pools, incidence, {p: x})
    if (p[0] == p[2]) != (x[0] == x[2]):
        return []  # a loop only matches a loop, injectively
    return injective_matches(order, plan, pools, incidence, {p: x, p[0]: x[0], p[2]: x[2]})


def _morphism(rule: TwoLevelRule, graph: Graph, images: tuple) -> TotalMorphism:
    """The match into `graph` with the images of `rule.pattern` that `injective_matches` found."""
    order, n = tuple(rule.pattern), len(rule.lhs.nodes)
    return TotalMorphism._trusted(
        rule.lhs, graph, dict(zip(order[:n], images)), dict(zip(order[n:], images[n:]))
    )


class ApplicationResult(Record):
    def __init__(self, model: ModelNode, match: TotalMorphism, created: Tuple[ElementKey, ...],
                 deleted: Tuple[ElementKey, ...]):
        self.__dict__.update(model=model, match=match, created=created, deleted=deleted)


def apply_two_level_rule(
    rule: TwoLevelRule,
    model: ModelNode,
    h: MultilevelHierarchy,
    at: Optional[TotalMorphism] = None,
) -> Tuple[List[ApplicationResult], List[str]]:
    """Apply at every (or one given) match; returns successors and a report
    of matches skipped because deletion would leave dangling arrows.  A given
    match must map the rule's left pattern into the model's graph."""
    if at is not None:
        g, lhs = model.graph, rule.lhs
        if (at.dst is not g and at.dst != g) or (at.src is not lhs and at.src != lhs):
            raise GraphMismatch(f"{rule.name}: match is not from {lhs.name} into {model.name}")
        matches = [at]
        for elem, profile in rule.pattern.items():
            img = at(elem)
            for level, required in profile:
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
    """One co-span step: the pushout glues on a fresh copy of I \\ L, the pullback complement
    removes d(I \\ R), and the model gains the copies of `rule.created` and loses m(L \\ R)."""
    _, d = pushout(rule.interface, m)
    T, _ = pullback_complement(rule.rhs, d)
    created = dict(zip(map(d, rule.created), rule.created_infos))
    gone_nodes, gone_arrows = rule.removed
    deleted = tuple(sorted({m.node_map[x] for x in gone_nodes})) + tuple(
        sorted({m.arrow_map[x] for x in gone_arrows})
    )
    info = dict(model.info)
    for e in deleted:
        info.pop(e, None)
    info.update(created)
    successor = ModelNode(model.name, model.parent, model.level, T, info)
    return ApplicationResult(successor, m, tuple(created), deleted)


# ---------------------------------------------------------------------------
# direct MCMT application on the typing chain


def _pattern_chain(rule: McmtRule, tag: str, pattern: RulePattern) -> GraphChain:
    """The inclusion chain of a pattern: its graph at level 0, and at each level
    1..depth the elements whose META type chain passes through META level i,
    each level named `<rule>.<tag>@i`."""
    g = pattern.graph(f"{rule.name}.{tag}@0")
    anchors = {
        element_key(e): rule.type_profile(e.type_name, e.type_level)[0] for e in pattern.elements
    }
    layers = []
    for i in range(1, rule.depth + 1):
        nodes = frozenset(
            n for n in g.nodes if i in anchors[n]
        )
        arrows = frozenset(
            a
            for a in g.arrows
            if i in anchors[a] and a[0] in nodes and a[2] in nodes
        )
        layers.append(Graph(f"{rule.name}.{tag}@{i}", nodes, arrows))
    return refactor_inclusion_chain(g, layers)


def apply_mcmt(
    rule: McmtRule,
    h: MultilevelHierarchy,
    target_model: str,
    mm_match: MetaMatch,
    m: TotalMorphism,
) -> Tuple[MultilevelHierarchy, ApplicationResult]:
    """Direct application via chain pushout + chain pullback complement."""
    model = h.model(target_model)
    lhs_names = rule.from_pattern.by_name()
    created = [e for e in rule.to_pattern.elements if e.name not in lhs_names]
    interface = RulePattern(rule.from_pattern.elements + tuple(created))

    # type-compatibility of the bottom match
    for e in rule.from_pattern.elements:
        key = element_key(e)
        meta_el = rule.meta_element(e.type_name, e.type_level)
        img = m(key)
        for level, required in instance_profile(rule, meta_el, mm_match):
            if transitive_type_at(h, target_model, img, level) != required:
                raise IncompatibleMatch(level, key)

    # the chain match of L into S, then the co-span L c-> I <-c R on S
    chain, mt = derive_typing_chain(h, target_model)
    s_chain, _ = typing_to_chain(mt)
    m_chain = lift(m, _pattern_chain(rule, "L", rule.from_pattern), s_chain, mm_match.level_map)
    _, d_morph = chain_pushout(_pattern_chain(rule, "I", interface), m_chain)
    t_chain, _ = chain_pullback_complement(_pattern_chain(rule, "R", rule.to_pattern), d_morph)

    # install the result as the new bottom model
    t0 = t_chain.graph_at(0).renamed(target_model)
    d0 = d_morph.component(0)
    created_keys = []
    info = {k: v for k, v in model.info.items() if t0.has(k)}
    for e in created:
        img = d0(element_key(e))
        created_keys.append(img)
        meta_el = rule.meta_element(e.type_name, e.type_level)
        bound = mm_match.binding(meta_el.level)[meta_el.name]
        type_model = chain.graph_at(mm_match.f(meta_el.level)).name
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


class TraceStep(Record):
    def __init__(self, step: int, rule: str, match: Dict[str, str],
                 created: Tuple[ElementKey, ...], deleted: Tuple[ElementKey, ...]):
        self.__dict__.update(step=step, rule=rule, match=match, created=created, deleted=deleted)

    def to_json(self) -> dict:
        def key(e: ElementKey):
            return list(e) if isinstance(e, tuple) else e

        return {
            "step": self.step,
            "rule": self.rule,
            "match": {k: key(v) for k, v in self.match.items()},
            "created": [key(e) for e in self.created],
            "deleted": [key(e) for e in self.deleted],
        }


class ExecutionTrace(Record):
    def __init__(self, steps: Tuple[TraceStep, ...], final: MultilevelHierarchy, stop: str):
        # `stop` is "max-steps", "no-match" or "all-matches-dangling"
        self.__dict__.update(steps=steps, final=final, stop=stop)

    def to_json_lines(self) -> str:
        """One line per step, as `json.dumps(step.to_json(), sort_keys=True)` writes it; the
        encoder writes a tuple as an array, so the steps' fields are encoded as they are."""
        import json

        encode = json.JSONEncoder(sort_keys=True).encode
        return "".join([
            encode({"created": s.created, "deleted": s.deleted, "match": s.match, "rule": s.rule,
                    "step": s.step}) + "\n"
            for s in self.steps
        ])


class _LiveMatches:
    """Each compiled rule's `typed_matches` in the bottom model of a run, kept across steps in
    one sorted list `matches` of `(rule index, images of rule.pattern)`: each rule's matches in
    `typed_matches` order, the rules in compiled order, which is the list `run` draws from.

    Rules have no negative conditions, and an element that survives a step keeps its type and
    info, so a step removes exactly the matches that use a deleted element, and every new match
    uses a created one (incremental matching, as in RETE).  So a step searches a pattern element
    only from a created element that can be its image, and only from there (the anchor table):
    a pattern node from a created node that carries its profile (RETE's alpha network at the
    level of pattern elements), a pattern arrow from a created arrow that entered the
    `TypeIndex.by_ends` group of its profile and its ends' profiles (RETE's beta network, which
    joins an arrow with its ends).  Each rule's pools are built once, for its initial search and
    its anchors, each distinct left graph's `_anchor_plans` once per run, and a rule with an
    empty pool is not searched at the start.

    A created node is searched only for pattern nodes without arrows.  It is new (`fresh_name`
    avoids every node of the model, and no arrow ends at a name the model lacks), so every arrow
    at it was created in the same step.  A match that sends a pattern node with an arrow to it
    sends that arrow to a created arrow, which joins the arrow's profile with its ends' and is
    searched with its ends fixed, also when they are created, so that search finds the match."""

    def __init__(self, rules: List[TwoLevelRule], h: MultilevelHierarchy, target_model: str):
        model = h.model(target_model)
        self.index, self.matches = TypeIndex(h, model), []
        # (kind, key) -> (rule index, pattern element, `_anchored`'s other arguments) for each
        # element of `_anchor_plans`: an arrow's key is its `by_ends` key, a node's its profile;
        # `index.step` updates the pools in place
        self.anchors: Dict[tuple, List[tuple]] = {}
        plans = {lhs: _anchor_plans(lhs) for lhs in {r.lhs for r in rules}}
        for i, r in enumerate(rules):
            pattern = r.pattern
            order, pools = tuple(pattern), self.index.pools(pattern)
            found = typed_matches(r, model, h, pools=pools)
            self.matches += [(i, tuple(m(e) for e in order)) for m in found]
            for p, plan in plans[r.lhs].items():
                kind = isinstance(p, tuple)
                key = (pattern[p], pattern[p[0]], pattern[p[2]]) if kind else pattern[p]
                self.anchors.setdefault((kind, key), []).append((i, p, order, plan, *pools))

    def step(self, result: ApplicationResult) -> None:
        """Move to the bottom model `result` made."""
        created = self.index.step(result.model, result.created, result.deleted)
        gone = set(result.deleted)
        if gone:
            self.matches = [m for m in self.matches if gone.isdisjoint(m[1])]
        new = set()  # a match through two created elements is found from each
        for x, keys in created.items():
            kind = isinstance(x, tuple)
            for key in keys:
                for i, p, order, plan, pools, incidence in self.anchors.get((kind, key), ()):
                    new.update((i, t) for t in _anchored(order, plan, pools, incidence, x, p))
        for m in new:
            insort(self.matches, m)


def run(
    rules: Sequence[McmtRule],
    h: MultilevelHierarchy,
    target_model: str,
    max_steps: int,
    seed: int,
) -> ExecutionTrace:
    """Seeded uniform scheduling of proliferated rules until quiescence: a step draws from the
    live `_LiveMatches.matches`, and drops a draw that dangles and draws again from the rest."""
    compiled: List[TwoLevelRule] = []
    indexes: Dict[str, TypeIndex] = {}  # the rules share one per stack model
    for rule in rules:
        compiled.extend(proliferate(rule, h, target_model, indexes))
    rng = random.Random(seed)
    steps: List[TraceStep] = []
    current = h
    live = _LiveMatches(compiled, h, target_model)
    stop = "max-steps"
    for step in range(max_steps):
        model = current.model(target_model)
        pairs = live.matches[:]
        if not pairs:
            stop = "no-match"
            break
        while pairs:
            i, images = pairs.pop(rng.randrange(len(pairs)))
            tl_rule = compiled[i]
            m = _morphism(tl_rule, model.graph, images)
            successors, _ = apply_two_level_rule(tl_rule, model, current, at=m)
            if not successors:
                continue
            result = successors[0]
            current = current.with_model(result.model)
            live.step(result)
            match_view = {
                (p[1] if isinstance(p, tuple) else p): (x[1] if isinstance(x, tuple) else x)
                for p, x in zip(tl_rule.pattern, images)
            }
            steps.append(TraceStep(step, tl_rule.name, match_view, result.created, result.deleted))
            break
        else:
            stop = "all-matches-dangling"
            break
    return ExecutionTrace(tuple(steps), current, stop)
