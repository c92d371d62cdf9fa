"""Directed multigraphs, graph homomorphisms and the categorical kernel.

Graphs carry named nodes and arrows identified by (source, label, target)
triples.  Everything in this module is immutable; operations return new
values.  The pushout and pullback-complement constructions implemented here
are the building blocks for co-span rule application: a rule L -> I <- R is
applied to a host graph by gluing I \\ L onto the host (pushout) and then
removing the images of I \\ R (pullback complement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    DanglingArrow,
    DanglingDeletion,
    DuplicateArrow,
    DuplicateNode,
    GraphMismatch,
    NotInclusion,
)

Arrow = Tuple[str, str, str]  # (source, label, target)


@dataclass(frozen=True)
class Graph:
    """A directed multigraph with named elements.

    Node names are unique; arrows are identified by their full
    (source, label, target) triple, so two arrows may share a label as long
    as their endpoints differ.
    """

    name: str
    nodes: FrozenSet[str] = frozenset()
    arrows: FrozenSet[Arrow] = frozenset()

    def __post_init__(self):
        for src, _, tgt in self.arrows:
            if src not in self.nodes or tgt not in self.nodes:
                raise DanglingArrow(
                    f"{self.name}: arrow endpoints {(src, tgt)} not declared"
                )

    @property
    def elements(self) -> FrozenSet:
        return self.nodes | self.arrows

    def has(self, element) -> bool:
        return element in self.nodes or element in self.arrows

    def incident(self, node: str) -> FrozenSet[Arrow]:
        return frozenset(a for a in self.arrows if node in (a[0], a[2]))

    def renamed(self, name: str) -> "Graph":
        return Graph(name, self.nodes, self.arrows)


def build_graph(name: str, nodes: Iterable[str], arrows: Iterable[Arrow]) -> Graph:
    """Construct a graph, rejecting duplicates and undeclared endpoints."""
    node_set = set()
    for n in nodes:
        if n in node_set:
            raise DuplicateNode(f"{name}: duplicate node {n!r}")
        node_set.add(n)
    arrow_set = set()
    for a in arrows:
        a = tuple(a)
        if a in arrow_set:
            raise DuplicateArrow(f"{name}: duplicate arrow {a!r}")
        if a[0] not in node_set or a[2] not in node_set:
            raise DanglingArrow(f"{name}: arrow {a!r} has undeclared endpoint")
        arrow_set.add(a)
    return Graph(name, frozenset(node_set), frozenset(arrow_set))


@dataclass(frozen=True)
class Subgraph:
    """A subset of a host graph's elements, closed under arrow endpoints."""

    host: Graph
    nodes: FrozenSet[str]
    arrows: FrozenSet[Arrow]

    def __post_init__(self):
        if not self.nodes <= self.host.nodes or not self.arrows <= self.host.arrows:
            raise GraphMismatch(f"subgraph not contained in {self.host.name}")
        for src, _, tgt in self.arrows:
            if src not in self.nodes or tgt not in self.nodes:
                raise DanglingArrow(
                    f"subgraph of {self.host.name} not closed at {(src, tgt)}"
                )

    def as_graph(self, name: Optional[str] = None) -> Graph:
        return Graph(name or self.host.name, self.nodes, self.arrows)

    def intersection(self, other: "Subgraph") -> "Subgraph":
        return Subgraph(
            self.host, self.nodes & other.nodes, self.arrows & other.arrows
        )


@dataclass(frozen=True)
class TotalMorphism:
    """A total graph homomorphism given by node and arrow maps."""

    src: Graph
    dst: Graph
    node_map: Dict[str, str] = field(default_factory=dict)
    arrow_map: Dict[Arrow, Arrow] = field(default_factory=dict)

    def __post_init__(self):
        if set(self.node_map) != set(self.src.nodes):
            raise GraphMismatch(
                f"node map not total on {self.src.name}"
            )
        if set(self.arrow_map) != set(self.src.arrows):
            raise GraphMismatch(f"arrow map not total on {self.src.name}")
        for n, img in self.node_map.items():
            if img not in self.dst.nodes:
                raise GraphMismatch(f"node image {img!r} not in {self.dst.name}")
        for a, img in self.arrow_map.items():
            if img not in self.dst.arrows:
                raise GraphMismatch(f"arrow image {img!r} not in {self.dst.name}")
            if self.node_map[a[0]] != img[0] or self.node_map[a[2]] != img[2]:
                raise GraphMismatch(
                    f"morphism breaks source/target maps at {a!r}"
                )

    def __call__(self, element):
        if element in self.node_map:
            return self.node_map[element]
        return self.arrow_map[element]

    def is_inclusion(self) -> bool:
        return all(k == v for k, v in self.node_map.items()) and all(
            k == v for k, v in self.arrow_map.items()
        )


def inclusion(sub: Graph, sup: Graph) -> TotalMorphism:
    """The inclusion of `sub` into `sup`; fails if `sub` is not contained."""
    if not (sub.nodes <= sup.nodes and sub.arrows <= sup.arrows):
        raise NotInclusion(f"{sub.name} is not a subgraph of {sup.name}")
    return TotalMorphism(
        sub, sup, {n: n for n in sub.nodes}, {a: a for a in sub.arrows}
    )


@dataclass(frozen=True)
class PartialMorphism:
    """A partial graph homomorphism: total on its domain of definition."""

    src: Graph
    dst: Graph
    node_map: Dict[str, str] = field(default_factory=dict)
    arrow_map: Dict[Arrow, Arrow] = field(default_factory=dict)

    def __post_init__(self):
        # the domain of definition must be a genuine subgraph
        dom = Subgraph(
            self.src, frozenset(self.node_map), frozenset(self.arrow_map)
        )
        TotalMorphism(dom.as_graph(), self.dst, dict(self.node_map), dict(self.arrow_map))

    @property
    def domain(self) -> Subgraph:
        return Subgraph(
            self.src, frozenset(self.node_map), frozenset(self.arrow_map)
        )

    def is_total(self) -> bool:
        return (
            set(self.node_map) == set(self.src.nodes)
            and set(self.arrow_map) == set(self.src.arrows)
        )

    def defined_on(self, element) -> bool:
        return element in self.node_map or element in self.arrow_map

    def __call__(self, element):
        if element in self.node_map:
            return self.node_map[element]
        return self.arrow_map[element]


def compose_partial(g: PartialMorphism, h: PartialMorphism) -> PartialMorphism:
    """Compose g: A -+-> B with h: B -+-> C by pullback (inverse image).

    The composite is defined exactly on the g-preimage of h's domain of
    definition, so it is total whenever both factors are.
    """
    if g.dst.name != h.src.name or g.dst.elements != h.src.elements:
        raise GraphMismatch(
            f"cannot compose through {g.dst.name} and {h.src.name}"
        )
    node_map = {
        n: h.node_map[v] for n, v in g.node_map.items() if v in h.node_map
    }
    arrow_map = {
        a: h.arrow_map[v] for a, v in g.arrow_map.items() if v in h.arrow_map
    }
    return PartialMorphism(g.src, h.dst, node_map, arrow_map)


def fresh_name(base: str, taken) -> str:
    """Deterministic fresh names: base$k with the smallest free k."""
    k = 0
    while f"{base}${k}" in taken:
        k += 1
    return f"{base}${k}"


def pushout(
    l: TotalMorphism, m: TotalMorphism
) -> Tuple[Graph, TotalMorphism, TotalMorphism]:
    """Pushout of S <-m- L -l-> I where l is an inclusion.

    Returns (D, s, d) with s: S -> D an inclusion and d: I -> D.  D extends S
    with a fresh copy of I minus L; copied elements are renamed with a `$k`
    suffix so repeated applications stay collision-free and deterministic.
    """
    if not l.is_inclusion():
        raise NotInclusion("left leg of the pushout span must be an inclusion")
    if l.src.elements != m.src.elements:
        raise GraphMismatch("pushout legs must share their source graph")
    L, I, S = l.src, l.dst, m.dst

    new_nodes = sorted(I.nodes - L.nodes)
    taken = set(S.nodes)
    node_copy: Dict[str, str] = {}
    for n in new_nodes:
        node_copy[n] = fresh_name(n, taken)
        taken.add(node_copy[n])

    def map_node(n: str) -> str:
        return node_copy[n] if n in node_copy else m.node_map[n]

    new_arrows = sorted(I.arrows - L.arrows)
    d_nodes = set(S.nodes) | set(node_copy.values())
    d_arrows = set(S.arrows)
    arrow_copy: Dict[Arrow, Arrow] = {}
    for a in new_arrows:
        src, label, tgt = map_node(a[0]), a[1], map_node(a[2])
        k = 0
        while (src, f"{label}${k}", tgt) in d_arrows:
            k += 1
        img = (src, f"{label}${k}", tgt)
        arrow_copy[a] = img
        d_arrows.add(img)

    D = Graph(S.name, frozenset(d_nodes), frozenset(d_arrows))
    s = inclusion(S, D)
    d = TotalMorphism(
        I,
        D,
        {n: map_node(n) for n in I.nodes},
        {a: (arrow_copy[a] if a in arrow_copy else m.arrow_map[a]) for a in I.arrows},
    )
    return D, s, d


def pullback_complement(
    r: TotalMorphism, d: TotalMorphism
) -> Tuple[Graph, TotalMorphism, TotalMorphism]:
    """Pullback complement of R -r-> I -d-> D where r is an inclusion.

    Removes from D the d-images of all elements of I outside R, and returns
    (T, R -> T, T -> D).  Raises DanglingDeletion when removing a node image
    would orphan a surviving arrow, or when a deleted image is shared with a
    preserved element (both are gluing-condition violations).
    """
    if not r.is_inclusion():
        raise NotInclusion("right leg must be an inclusion")
    if r.dst.elements != d.src.elements:
        raise GraphMismatch("r and d must share the interface graph")
    R, I, D = r.src, r.dst, d.dst

    gone_nodes = {d.node_map[n] for n in I.nodes - R.nodes}
    gone_arrows = {d.arrow_map[a] for a in I.arrows - R.arrows}
    kept_nodes = {d.node_map[n] for n in R.nodes}
    kept_arrows = {d.arrow_map[a] for a in R.arrows}
    if gone_nodes & kept_nodes or gone_arrows & kept_arrows:
        raise DanglingDeletion(
            "deleted image coincides with a preserved one (non-injective match)"
        )

    t_arrows = D.arrows - frozenset(gone_arrows)
    t_nodes = D.nodes - frozenset(gone_nodes)
    for a in t_arrows:
        if a[0] in gone_nodes or a[2] in gone_nodes:
            raise DanglingDeletion(
                f"deleting a node would orphan surviving arrow {a!r}"
            )
    T = Graph(D.name, t_nodes, t_arrows)
    t_in = TotalMorphism(
        R,
        T,
        {n: d.node_map[n] for n in R.nodes},
        {a: d.arrow_map[a] for a in R.arrows},
    )
    return T, t_in, inclusion(T, D)


def injective_matches(
    nodes: Sequence, arrows: Sequence[tuple], candidates: Dict, by_ends: Optional[Dict] = None
) -> List[tuple]:
    """All injective matches of a pattern, sorted, as tuples of the images of
    `nodes`, then of `arrows` ((arrow, source, target) triples).  Each
    element's `candidates` must not depend on the other elements' images;
    `by_ends`, if given, holds each arrow's candidates keyed by (source,
    target).  Nodes are bound fewest candidates first among those next to
    bound ones (connected-first, as in VF2), each arrow as soon as both its
    ends are."""
    ends = {a: (s, t) for a, s, t in arrows}
    if not all(candidates[e] for e in (*nodes, *ends)):
        return []
    if by_ends is None:
        by_ends = {a: {} for a in ends}
        for a, c in ((a, c) for a in ends for c in candidates[a]):
            by_ends[a].setdefault((c[0], c[2]), []).append(c)
    incident = {n: [(a, st) for a, st in ends.items() if n in st] for n in nodes}
    plan, bound, near = [], set(), set()
    for _ in nodes:
        todo = [n for n in nodes if n not in bound]
        node = min([n for n in todo if n in near] or todo, key=lambda n: len(candidates[n]))
        plan.append(node)
        bound.add(node)
        for a, st in incident[node]:
            near.update(st)
            if bound.issuperset(st):
                plan.append(a)
    if len(plan) < len(nodes) + len(ends):
        return []  # an arrow off the pattern's nodes
    image, used, found = {}, set(), []

    def extend(i: int) -> None:
        if i == len(plan):
            found.append(tuple(image[e] for e in (*nodes, *ends)))
            return
        e = plan[i]
        pool = by_ends[e].get(tuple(image[x] for x in ends[e]), ()) if e in ends else candidates[e]
        for c in pool:
            if c not in used:
                image[e] = c
                used.add(c)
                extend(i + 1)
                used.discard(c)

    extend(0)
    return sorted(found)
