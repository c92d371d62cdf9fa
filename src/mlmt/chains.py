"""Graph chains, chain morphisms and the chain-level rewrite constructions.

A chain is a sequence of graphs G_0 .. G_n (level 0 at the top) with a
family of partial typing morphisms between them.  Levels are indexed by
their distance from the top, matching the level numbering of multilevel
hierarchies.  An inclusion chain is a host graph at level 0 with plain
subgraphs of it at levels 1..m and identity typings on their intersections
(`refactor_inclusion_chain`).  The two-step chain pushout and its
pullback-complement twin drive direct rule application on a whole typing
chain at once.  Like their graph twins, they take the rule's chains, not
morphisms between them: `chain_pushout(I, m) -> (D, d)` with L = m.src, and
`chain_pullback_complement(R, d) -> T` with I = d.src; each checks
that the leg is a subgraph of I at every level.  The typing chain they
rewrite is the one a hierarchy's root path induces (`derive_typing_chain`),
read off the hierarchy by `transitive_type_at`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .errors import (
    CompatibilityViolation,
    DepthMismatch,
    GraphMismatch,
    NonTotalRootTyping,
    NotInclusionChain,
    UniquenessViolation,
)
from .graphs import (
    Graph,
    PartialMorphism,
    Record,
    TotalMorphism,
    _require_subgraph,
    compose_partial,
    pullback_complement,
    pushout,
)
from .hierarchy import MultilevelHierarchy, transitive_type_at


class GraphChain(Record):
    """Graphs G_0 .. G_n with partial typings tau[(j, i)]: G_j -+-> G_i.

    graphs[i] sits at level i, so graphs[0] is the top (root) graph.
    """

    def __init__(self, graphs: Tuple[Graph, ...],
                 typings: Optional[Dict[Tuple[int, int], PartialMorphism]] = None):
        self.__dict__.update(graphs=graphs, typings={} if typings is None else typings)

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


def refactor_inclusion_chain(host: Graph, levels: Sequence[Graph]) -> GraphChain:
    """The inclusion chain with `host` at level 0 and `levels` at 1..m.

    Each level must be a subgraph of `host` (GraphMismatch otherwise) and
    keeps its own name.  Typing (j, i) is the identity on the intersection
    of levels j and i, so every typing to the root is total and composites
    agree with direct typings: the chain meets `build_chain`'s conditions by
    construction and is not re-checked.
    """
    for g in levels:
        if not (g.nodes <= host.nodes and g.arrows <= host.arrows):
            raise GraphMismatch(f"{g.name} is not a subgraph of {host.name}")
    graphs = (host, *levels)
    typings = {}
    for j in range(1, len(graphs)):
        for i in range(j):
            gj, gi = graphs[j], graphs[i]
            typings[(j, i)] = PartialMorphism(
                gj,
                gi,
                {n: n for n in gj.nodes & gi.nodes},
                {a: a for a in gj.arrows & gi.arrows},
            )
    return GraphChain(graphs, typings)


class ChainMorphism(Record):
    """A level map f plus total components phi_i: G_i -> H_f(i)."""

    def __init__(self, src: GraphChain, dst: GraphChain, level_map: Dict[int, int],
                 components: Dict[int, TotalMorphism]):
        self.__dict__.update(src=src, dst=dst, level_map=level_map, components=components)

    def component(self, i: int) -> TotalMorphism:
        return self.components[i]


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


class MultilevelTyping(Record):
    """A graph typed over a chain by one partial morphism per level."""

    def __init__(self, subject: Graph, chain: GraphChain, sigmas: Dict[int, PartialMorphism]):
        self.__dict__.update(subject=subject, chain=chain, sigmas=sigmas)


def derive_typing_chain(
    h: MultilevelHierarchy, model_name: str
) -> Tuple[GraphChain, MultilevelTyping]:
    """Aggregate individual typings into the chain over the root path.

    Returns the full chain [G_0 .. G_n] (root first, `model_name` last) and
    the multilevel typing of the bottom model's graph over the prefix chain.
    Typing (j, i) maps each element of level j to its `transitive_type_at`
    level i, where it has one.
    """
    path = h.root_path(model_name)
    graphs = [h.model(p).graph.renamed(p) for p in path]
    typings: Dict[Tuple[int, int], PartialMorphism] = {}
    for j in range(1, len(path)):
        for i in range(j):
            maps = ({}, {})  # node and arrow maps of typing (j, i)
            for e in (*graphs[j].nodes, *graphs[j].arrows):
                t = transitive_type_at(h, path[j], e, i)
                if t is not None:
                    maps[isinstance(e, tuple)][e] = t
            typings[(j, i)] = PartialMorphism(graphs[j], graphs[i], *maps)
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
    m, name = mt.chain.length, mt.subject.name
    incl_chain = refactor_inclusion_chain(
        mt.subject.renamed(f"{name}@0"),
        [mt.sigmas[i].domain.renamed(f"{name}@{i}") for i in range(1, m + 1)],
    )
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


def _require_rule_leg(leg: GraphChain, I: GraphChain) -> None:
    """A rule leg has I's depth and is a subgraph of I at every level."""
    if leg.length != I.length:
        raise DepthMismatch("rule chains must have equal depth")
    for g, h in zip(leg.graphs, I.graphs):
        _require_subgraph(g, h)


def chain_pushout(I: GraphChain, m: ChainMorphism) -> Tuple[GraphChain, ChainMorphism]:
    """Pushout of S <-(m,f)- L c-> I for inclusion chains, where L = m.src
    must be a subgraph of I at every level.

    Step one pushes out level-wise on the levels touched by the rule; step
    two borrows the untouched levels of S verbatim.  Returns (D, d) with
    d: I -> D; S is a subgraph of D at every level.
    """
    L, S = m.src, m.dst
    _require_rule_leg(L, I)
    _require_inclusion_chains(L, I, S)
    f = m.level_map

    D0, d0 = pushout(I.graph_at(0), m.component(0))

    levels = list(S.graphs[1:])  # the levels f does not touch are S's verbatim
    for i in range(1, L.length + 1):
        g = S.graph_at(f[i])
        levels[f[i] - 1] = Graph(
            g.name,
            g.nodes | {d0.node_map[nd] for nd in I.graph_at(i).nodes - L.graph_at(i).nodes},
            g.arrows | {d0.arrow_map[a] for a in I.graph_at(i).arrows - L.graph_at(i).arrows},
        )
    D = refactor_inclusion_chain(D0, levels)  # D0 is named after S's level 0
    return D, lift(d0, I, D, f)


def chain_pullback_complement(R: GraphChain, d: ChainMorphism) -> GraphChain:
    """Pullback complement of R c-> I -(d,f)-> D for inclusion chains, where
    R must be a subgraph of I = d.src at every level.

    Mirrors the two-step pushout: deletes the d-images of I minus R at the
    base and intersects the upper levels with the survivors.  Returns T, a
    subgraph of D at every level; the chain morphism R -> T is d restricted
    to R.
    """
    I, D = d.src, d.dst
    _require_rule_leg(R, I)
    _require_inclusion_chains(R, I, D)

    T0 = pullback_complement(R.graph_at(0), d.component(0))
    return refactor_inclusion_chain(  # T0 is named after D's level 0
        T0, [Graph(g.name, g.nodes & T0.nodes, g.arrows & T0.arrows) for g in D.graphs[1:]]
    )
