"""Graph chains, chain morphisms and the chain-level rewrite constructions.

A chain is a sequence of graphs G_0 .. G_n (level 0 at the top) with a
family of partial typing morphisms between them.  Levels are indexed by
their distance from the top, matching the level numbering of multilevel
hierarchies.  The two-step chain pushout and its pullback-complement twin
drive direct rule application on a whole typing chain at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    CompatibilityViolation,
    DepthMismatch,
    GraphMismatch,
    NonTotalRootTyping,
    NotInclusionChain,
    RootMismatch,
    UniquenessViolation,
)
from .graphs import (
    Graph,
    PartialMorphism,
    Subgraph,
    TotalMorphism,
    compose_partial,
    inclusion,
    pullback_complement,
    pushout,
)


@dataclass(frozen=True)
class GraphChain:
    """Graphs G_0 .. G_n with partial typings tau[(j, i)]: G_j -+-> G_i.

    graphs[i] sits at level i, so graphs[0] is the top (root) graph.
    """

    graphs: Tuple[Graph, ...]
    typings: Dict[Tuple[int, int], PartialMorphism] = field(default_factory=dict)

    @property
    def length(self) -> int:
        return len(self.graphs) - 1

    def graph_at(self, level: int) -> Graph:
        return self.graphs[level]

    def typing(self, j: int, i: int) -> PartialMorphism:
        return self.typings[(j, i)]

    def is_inclusion_chain(self) -> bool:
        top = self.graphs[0]
        for g in self.graphs[1:]:
            if not (g.nodes <= top.nodes and g.arrows <= top.arrows):
                return False
        for t in self.typings.values():
            if any(k != v for k, v in t.node_map.items()) or any(
                k != v for k, v in t.arrow_map.items()
            ):
                return False
        return True


def build_chain(
    graphs: Sequence[Graph],
    typings: Dict[Tuple[int, int], PartialMorphism],
) -> GraphChain:
    """Validate totality-to-root and uniqueness, then freeze the chain."""
    n = len(graphs) - 1
    for j in range(1, n + 1):
        for i in range(j):
            if (j, i) not in typings:
                raise GraphMismatch(f"missing typing morphism ({j},{i})")
    for j in range(1, n + 1):
        t = typings[(j, 0)]
        if not t.is_total():
            raise NonTotalRootTyping(
                f"typing {graphs[j].name} -> {graphs[0].name} not total"
            )
    for k in range(2, n + 1):
        for j in range(1, k):
            for i in range(j):
                composed = compose_partial(typings[(k, j)], typings[(j, i)])
                direct = typings[(k, i)]
                for elem, img in list(composed.node_map.items()) + list(
                    composed.arrow_map.items()
                ):
                    direct_img = (
                        direct.node_map.get(elem)
                        if not isinstance(elem, tuple)
                        else direct.arrow_map.get(elem)
                    )
                    if direct_img != img:
                        raise UniquenessViolation(k, j, i, elem)
    return GraphChain(tuple(graphs), dict(typings))


def refactor_inclusion_chain(
    host: Graph, subgraphs: Sequence[Subgraph], names: Optional[Sequence[str]] = None
) -> GraphChain:
    """Turn subgraphs S_0 .. S_m of a host graph into an inclusion chain.

    subgraphs[0] must be the full host; typing (j, i) is the span of
    inclusions through S_j intersect S_i.
    """
    if (
        subgraphs[0].nodes != host.nodes
        or subgraphs[0].arrows != host.arrows
    ):
        raise RootMismatch("level-0 subgraph must be the host graph itself")
    graphs = []
    for i, sg in enumerate(subgraphs):
        if sg.host.elements != host.elements:
            raise GraphMismatch("subgraphs must share the host graph")
        name = names[i] if names else f"{host.name}@{i}"
        graphs.append(sg.as_graph(name))
    typings = {}
    for j in range(1, len(graphs)):
        for i in range(j):
            common = subgraphs[j].intersection(subgraphs[i])
            typings[(j, i)] = PartialMorphism(
                graphs[j],
                graphs[i],
                {n: n for n in common.nodes},
                {a: a for a in common.arrows},
            )
    return build_chain(graphs, typings)


@dataclass(frozen=True)
class ChainMorphism:
    """A level map f plus total components phi_i: G_i -> H_f(i)."""

    src: GraphChain
    dst: GraphChain
    level_map: Dict[int, int]
    components: Dict[int, TotalMorphism]

    def component(self, i: int) -> TotalMorphism:
        return self.components[i]

    def f(self, i: int) -> int:
        return self.level_map[i]


def lift(
    base: TotalMorphism, src: GraphChain, dst: GraphChain, f: Dict[int, int]
) -> ChainMorphism:
    """The chain morphism src -> dst between inclusion chains whose component
    at level i is `base`, a morphism of the level-0 graphs, restricted to
    src level i and dst level f(i)."""
    components = {
        i: TotalMorphism(
            g,
            dst.graph_at(f[i]),
            {n: base.node_map[n] for n in g.nodes},
            {a: base.arrow_map[a] for a in g.arrows},
        )
        for i, g in enumerate(src.graphs)
    }
    return ChainMorphism(src, dst, dict(f), components)


def validate_chain_morphism(cm: ChainMorphism) -> List[str]:
    """Check Def.-2 conditions; returns one message per failure."""
    problems: List[str] = []
    n, m = cm.src.length, cm.dst.length
    if n > m:
        problems.append(f"source chain deeper than target ({n} > {m})")
        return problems
    if cm.level_map.get(0) != 0:
        problems.append("level map must fix level 0")
    for i in range(n):
        if cm.level_map[i] >= cm.level_map[i + 1]:
            problems.append(
                f"level map not strictly monotone at {i} -> {i + 1}"
            )
    for i in range(n + 1):
        comp = cm.components[i]
        if comp.src.elements != cm.src.graph_at(i).elements:
            problems.append(f"component {i} has wrong source graph")
        if comp.dst.elements != cm.dst.graph_at(cm.level_map[i]).elements:
            problems.append(f"component {i} has wrong target graph")
    if problems:
        return problems

    for j in range(1, n + 1):
        for i in range(j):
            tau_g = cm.src.typing(j, i)
            tau_h = cm.dst.typing(cm.level_map[j], cm.level_map[i])
            phi_i, phi_j = cm.components[i], cm.components[j]
            for elem in sorted(cm.src.graph_at(j).nodes) + sorted(
                cm.src.graph_at(j).arrows
            ):
                image = phi_j(elem)
                if tau_g.defined_on(elem) != tau_h.defined_on(image):
                    problems.append(
                        f"typing not reflected at levels ({j},{i}) on {elem!r}"
                    )
                elif tau_g.defined_on(elem) and phi_i(tau_g(elem)) != tau_h(image):
                    problems.append(
                        f"typing square ({j},{i}) does not commute on {elem!r}"
                    )
    return problems


@dataclass(frozen=True)
class MultilevelTyping:
    """A graph typed over a chain by one partial morphism per level."""

    subject: Graph
    chain: GraphChain
    sigmas: Dict[int, PartialMorphism]


def check_compatibility(mt: MultilevelTyping) -> None:
    """Enforce the strong compatibility between sigmas and chain typings."""
    m = mt.chain.length
    if not mt.sigmas[0].is_total():
        raise NonTotalRootTyping(
            f"{mt.subject.name}: typing to root level not total"
        )
    for j in range(m + 1):
        for i in range(j):
            tau = mt.chain.typing(j, i)
            sj, si = mt.sigmas[j], mt.sigmas[i]
            for elem in sorted(mt.subject.nodes) + sorted(mt.subject.arrows):
                lhs = sj.defined_on(elem) and tau.defined_on(sj(elem))
                rhs = sj.defined_on(elem) and si.defined_on(elem)
                if lhs != rhs:
                    raise CompatibilityViolation(
                        f"{mt.subject.name}: compatibility fails at levels "
                        f"({j},{i}) on {elem!r}"
                    )
                if lhs and tau(sj(elem)) != si(elem):
                    raise CompatibilityViolation(
                        f"{mt.subject.name}: transitive and direct types differ "
                        f"at levels ({j},{i}) on {elem!r}"
                    )


def typing_to_chain(mt: MultilevelTyping) -> Tuple[GraphChain, ChainMorphism]:
    """Refactor a multilevel typing into an inclusion chain plus morphism."""
    check_compatibility(mt)
    m = mt.chain.length
    subgraphs = [mt.sigmas[i].domain for i in range(m + 1)]
    subgraphs[0] = Subgraph(mt.subject, mt.subject.nodes, mt.subject.arrows)
    incl_chain = refactor_inclusion_chain(mt.subject, subgraphs)
    components = {
        i: TotalMorphism(
            incl_chain.graph_at(i),
            mt.chain.graph_at(i),
            dict(mt.sigmas[i].node_map),
            dict(mt.sigmas[i].arrow_map),
        )
        for i in range(m + 1)
    }
    cm = ChainMorphism(
        incl_chain, mt.chain, {i: i for i in range(m + 1)}, components
    )
    return incl_chain, cm


def _require_inclusion_chains(*chains: GraphChain) -> None:
    for c in chains:
        if not c.is_inclusion_chain():
            raise NotInclusionChain(
                f"{c.graph_at(0).name}: not an inclusion chain"
            )


def _element_sets(g: Graph):
    return set(g.nodes), set(g.arrows)


def chain_pushout(
    l: ChainMorphism, m: ChainMorphism
) -> Tuple[GraphChain, ChainMorphism, ChainMorphism]:
    """Pushout of S <-(m,f)- L -(l,id)-> I for inclusion chains.

    Step one pushes out level-wise on the levels touched by the rule; step
    two borrows the untouched levels of S verbatim.  Returns (D, s, d).
    """
    L, I, S = l.src, l.dst, m.dst
    if l.src is not m.src and l.src.graphs != m.src.graphs:
        raise GraphMismatch("pushout legs must share their source chain")
    if L.length != I.length:
        raise DepthMismatch("rule chains must have equal depth")
    _require_inclusion_chains(L, I, S)
    n, M = L.length, S.length
    f = m.level_map

    D0, s0, d0 = pushout(
        inclusion(L.graph_at(0), I.graph_at(0)), m.component(0)
    )

    level_subs: Dict[int, Tuple[set, set]] = {}
    for i in range(1, n + 1):
        s_nodes, s_arrows = _element_sets(S.graph_at(f[i]))
        extra_nodes = {
            d0.node_map[nd]
            for nd in I.graph_at(i).nodes - L.graph_at(i).nodes
        }
        extra_arrows = {
            d0.arrow_map[a]
            for a in I.graph_at(i).arrows - L.graph_at(i).arrows
        }
        level_subs[f[i]] = (s_nodes | extra_nodes, s_arrows | extra_arrows)
    touched = set(level_subs)
    for j in range(1, M + 1):
        if j not in touched:
            level_subs[j] = _element_sets(S.graph_at(j))

    subgraphs = [Subgraph(D0, frozenset(D0.nodes), frozenset(D0.arrows))]
    for j in range(1, M + 1):
        nd, ar = level_subs[j]
        subgraphs.append(Subgraph(D0, frozenset(nd), frozenset(ar)))
    D = refactor_inclusion_chain(
        D0, subgraphs, names=[S.graph_at(j).name for j in range(M + 1)]
    )

    return D, lift(s0, S, D, {j: j for j in range(M + 1)}), lift(d0, I, D, f)


def chain_pullback_complement(
    r: ChainMorphism, d: ChainMorphism
) -> Tuple[GraphChain, ChainMorphism, ChainMorphism]:
    """Level-wise pullback complement mirroring the two-step pushout.

    Deletes the d-images of I minus R at the base, intersects the upper
    levels with the survivors, and returns (T, R -> T, T -> D).
    """
    R, I, D = r.src, r.dst, d.dst
    if R.length != I.length:
        raise DepthMismatch("rule chains must have equal depth")
    _require_inclusion_chains(R, I, D)
    M = D.length

    T0, t_in0, t_sub0 = pullback_complement(
        inclusion(R.graph_at(0), I.graph_at(0)), d.component(0)
    )

    subgraphs = [Subgraph(T0, frozenset(T0.nodes), frozenset(T0.arrows))]
    for j in range(1, M + 1):
        gj = D.graph_at(j)
        subgraphs.append(
            Subgraph(T0, frozenset(gj.nodes & T0.nodes), frozenset(gj.arrows & T0.arrows))
        )
    T = refactor_inclusion_chain(
        T0, subgraphs, names=[D.graph_at(j).name for j in range(M + 1)]
    )

    return T, lift(t_in0, R, T, d.level_map), lift(t_sub0, T, D, {j: j for j in range(M + 1)})
