"""Directed multigraphs, graph homomorphisms and the categorical kernel.

Graphs carry named nodes and arrows identified by (source, label, target)
triples.  Everything in this module is immutable; operations return new
values.  The pushout and pullback-complement constructions implemented here
are the building blocks for co-span rule application: a rule L -> I <- R is
applied to a host graph by gluing I \\ L onto the host (pushout) and then
removing the images of I \\ R (pullback complement).

Each graph maps every node with an arrow to the frozenset of its incident
arrows.  The map is built on first use and then carried along: the pushout
derives D's map from S's by adding the copied arrows, the pullback
complement derives T's from D's by removing the deleted ones, and neither
re-validates its result, which is valid by construction.  A node set, arrow
set or incidence map that a step leaves unchanged is shared with the result
rather than copied; all three are immutable.  So a rewrite step costs the
rule, the arrows incident to deleted nodes and a copy of each collection it
changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

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
        nodes = self.nodes
        bad = [a for a in self.arrows if a[0] not in nodes or a[2] not in nodes]
        if bad:
            src, _, tgt = min(bad)
            raise DanglingArrow(f"{self.name}: arrow endpoints {(src, tgt)} not declared")

    @classmethod
    def _trusted(
        cls,
        name: str,
        nodes: FrozenSet[str],
        arrows: FrozenSet[Arrow],
        incidence: Optional[Dict[str, FrozenSet[Arrow]]] = None,
    ) -> "Graph":
        """A graph its caller has proved valid, built without the endpoint
        walk of `__post_init__`; `incidence`, if given, must be its map."""
        g = object.__new__(cls)
        g.__dict__.update(name=name, nodes=nodes, arrows=arrows)
        if incidence is not None:
            g.__dict__["_incidence"] = incidence
        return g

    @cached_property
    def _incidence(self) -> Dict[str, FrozenSet[Arrow]]:
        """Each node with an arrow -> its incident arrows; never mutated,
        so graphs may share it."""
        return {n: frozenset(s) for n, s in group_by_end(self.arrows).items()}

    @cached_property
    def anchored_plans(self) -> Dict[object, List[tuple]]:
        """For each arrow, and each node without arrows, the `search_plan` of the matches of this
        graph, as a pattern, that give that element one image (an arrow's ends are bound with
        it): the elements a step of `run` searches from.  Rules that share a left pattern graph
        share these plans."""
        nodes, arrows = sorted(self.nodes), sorted(self.arrows)
        ends = [(a, a[0], a[2]) for a in arrows]
        plans = {n: search_plan(nodes, ends, (n,)) for n in nodes if n not in self._incidence}
        plans.update({a: search_plan(nodes, ends, (a, a[0], a[2])) for a in arrows})
        return plans

    @property
    def elements(self) -> FrozenSet:
        return self.nodes | self.arrows

    def has(self, element) -> bool:
        return element in self.nodes or element in self.arrows

    def incident(self, node: str) -> FrozenSet[Arrow]:
        return self._incidence.get(node, frozenset())

    def renamed(self, name: str) -> "Graph":
        return Graph._trusted(name, self.nodes, self.arrows, self.__dict__.get("_incidence"))


def group_by_end(arrows: Iterable[Arrow]) -> Dict[str, Set[Arrow]]:
    """The given arrows grouped under each of their endpoints."""
    ends: Dict[str, Set[Arrow]] = {}
    for a in arrows:
        ends.setdefault(a[0], set()).add(a)
        ends.setdefault(a[2], set()).add(a)
    return ends


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
    return Graph._trusted(name, frozenset(node_set), frozenset(arrow_set))


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

    @classmethod
    def _trusted(cls, src: Graph, dst: Graph, node_map: Dict, arrow_map: Dict) -> "TotalMorphism":
        """A morphism its caller has proved total and structure-preserving,
        built without the checks of `__post_init__`."""
        t = object.__new__(cls)
        t.__dict__.update(src=src, dst=dst, node_map=node_map, arrow_map=arrow_map)
        return t

    def __call__(self, element):
        if element in self.node_map:
            return self.node_map[element]
        return self.arrow_map[element]


def _require_subgraph(sub: Graph, sup: Graph) -> None:
    if not (sub.nodes <= sup.nodes and sub.arrows <= sup.arrows):
        raise NotInclusion(f"{sub.name} is not a subgraph of {sup.name}")


def inclusion(sub: Graph, sup: Graph) -> TotalMorphism:
    """The inclusion of `sub` into `sup`; fails if `sub` is not contained."""
    _require_subgraph(sub, sup)
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
        # the domain of definition must be a genuine subgraph of src
        src = self.src
        if not (self.node_map.keys() <= src.nodes and self.arrow_map.keys() <= src.arrows):
            raise GraphMismatch(f"domain of definition not contained in {src.name}")
        TotalMorphism(self.domain, self.dst, dict(self.node_map), dict(self.arrow_map))

    @property
    def domain(self) -> Graph:
        """The domain of definition, named after `src`; building it checks
        that it is closed under arrow endpoints."""
        return Graph(self.src.name, frozenset(self.node_map), frozenset(self.arrow_map))

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


def pushout(I: Graph, m: TotalMorphism) -> Tuple[Graph, TotalMorphism]:
    """Pushout of S <-m- L c-> I, where L = m.src must be a subgraph of I.

    Returns (D, d) with d: I -> D.  D extends S with a fresh copy of I minus
    L, so S is a subgraph of D; copied elements are renamed with a `$k`
    suffix so repeated applications stay collision-free and deterministic.
    """
    L, S = m.src, m.dst
    _require_subgraph(L, I)

    # copies of distinct nodes cannot collide, as `base$k` determines base
    # and k, so each only has to avoid S
    node_copy = {n: fresh_name(n, S.nodes) for n in I.nodes - L.nodes}

    def map_node(n: str) -> str:
        return node_copy[n] if n in node_copy else m.node_map[n]

    arrow_copy: Dict[Arrow, Arrow] = {}
    copies: Set[Arrow] = set()
    for a in sorted(I.arrows - L.arrows):
        src, label, tgt = map_node(a[0]), a[1], map_node(a[2])
        k = 0
        while (img := (src, f"{label}${k}", tgt)) in S.arrows or img in copies:
            k += 1
        arrow_copy[a] = img
        copies.add(img)

    nodes = S.nodes.union(node_copy.values()) if node_copy else S.nodes
    arrows, incidence = S.arrows, S._incidence
    if copies:
        arrows, incidence = arrows.union(copies), dict(incidence)
        for n, added in group_by_end(copies).items():
            incidence[n] = incidence.get(n, frozenset()) | added
    # valid: the copies' ends are S's nodes or copied nodes
    D = Graph._trusted(S.name, nodes, arrows, incidence)
    # valid: L's elements map as m does and the rest to their copies, whose ends map alike
    d = TotalMorphism._trusted(
        I,
        D,
        {n: map_node(n) for n in I.nodes},
        {a: (arrow_copy[a] if a in arrow_copy else m.arrow_map[a]) for a in I.arrows},
    )
    return D, d


def pullback_complement(R: Graph, d: TotalMorphism) -> Tuple[Graph, TotalMorphism]:
    """Pullback complement of R c-> I -d-> D, where R must be a subgraph of
    I = d.src.

    Removes from D the d-images of all elements of I outside R, and returns
    (T, R -> T); T is a subgraph of D.  Raises DanglingDeletion when removing
    a node image would orphan a surviving arrow (naming the smallest such
    arrow), or when a deleted image is shared with a preserved element (both
    are gluing-condition violations).
    """
    I, D = d.src, d.dst
    _require_subgraph(R, I)

    gone_nodes = {d.node_map[n] for n in I.nodes - R.nodes}
    gone_arrows = {d.arrow_map[a] for a in I.arrows - R.arrows}
    kept_nodes = {d.node_map[n] for n in R.nodes}
    kept_arrows = {d.arrow_map[a] for a in R.arrows}
    if gone_nodes & kept_nodes or gone_arrows & kept_arrows:
        raise DanglingDeletion(
            "deleted image coincides with a preserved one (non-injective match)"
        )

    orphans = [a for n in gone_nodes for a in D.incident(n) if a not in gone_arrows]
    if orphans:
        raise DanglingDeletion(
            f"deleting a node would orphan surviving arrow {min(orphans)!r}"
        )
    nodes = D.nodes - gone_nodes if gone_nodes else D.nodes
    arrows, incidence = D.arrows, D._incidence
    if gone_arrows:
        arrows, incidence = arrows - gone_arrows, dict(incidence)
        for n, removed in group_by_end(gone_arrows).items():
            rest = incidence.pop(n) - removed
            if rest:
                incidence[n] = rest
    # valid: no surviving arrow ends at a deleted node
    T = Graph._trusted(D.name, nodes, arrows, incidence)
    # valid: no image of R's elements is deleted
    t_in = TotalMorphism._trusted(
        R,
        T,
        {n: d.node_map[n] for n in R.nodes},
        {a: d.arrow_map[a] for a in R.arrows},
    )
    return T, t_in


def search_plan(
    nodes: Sequence,
    arrows: Sequence[tuple],
    bound: Iterable = (),
    size: Optional[Callable] = None,
) -> Optional[List[tuple]]:
    """The order in which `injective_matches` binds the elements of a pattern
    whose elements in `bound` are bound already; None if an arrow has an end
    outside `nodes`.  `arrows` are (arrow, source, target) triples.

    Nodes are bound connected-first, as in VF2: next to a bound node if one
    is, else one with an unbound arrow, else any; a node without arrows only
    multiplies the matches, so it comes after every search that can fail.
    Among those, the node `size` ranks lowest comes first; without `size`,
    the one with the most arrows to bound nodes.  Each arrow is bound as soon
    as both its ends are.  A node step is (node, None, vias), each via (arrow,
    bound node, out) naming an arrow that joins the node to a bound one, `out`
    if the arrow leaves the bound node; an arrow step is (arrow, (source,
    target), None).  Each unbound node's arrows are collected once, in
    `arrows` order, and a step only filters them by what is bound (as PROGRES
    keeps each node's connecting arrows)."""
    ends = {a: (s, t) for a, s, t in arrows}
    bound, plan = set(bound), []
    todo = [n for n in nodes if n not in bound]
    # (arrow, far end, out) for each arrow at an unbound node; a loop's far end is the node
    # itself, which is never bound while it waits, so a loop is never a via
    links: Dict = {n: [] for n in todo}
    for a, (s, t) in ends.items():
        if a in bound:
            continue
        if not (s in bound or s in links) or not (t in bound or t in links):
            return None
        if s in links:
            links[s].append((a, t, False))
        if t in links and t != s:
            links[t].append((a, s, True))
        if s in bound and t in bound:
            plan.append((a, ends[a], None))
    while todo:
        near = {n: tuple(v for v in links[n] if v[1] in bound) for n in todo}
        node = min(
            [n for n in todo if near[n]] or [n for n in todo if links[n]] or todo,
            key=size or (lambda n: -len(near[n])),
        )
        plan.append((node, None, near[node]))
        bound.add(node)
        todo.remove(node)
        plan += [(a, ends[a], None) for a, far, _ in links[node] if far in bound]
    return plan


def injective_matches(
    order: Sequence,
    plan: Sequence[tuple],
    pools: Dict,
    incidence: Dict,
    fixed: Optional[Dict] = None,
) -> List[tuple]:
    """All injective matches of a pattern that extend the images `fixed`,
    sorted, as tuples of the images of `order`, found by following `plan`
    (see `search_plan`).

    Each element's `pools` entry is the set of its possible images and must
    not depend on the other elements' images.  Each arrow's `incidence`
    entry groups the arrows of its pool whose ends are in its ends' pools
    under each end, as `group_by_end` does.  An arrow step walks those at the
    image of one of its ends.  A node step draws from its pool, or, where a
    bound neighbour's image has fewer of the connecting arrow's than the
    node's pool holds, from their far ends (the search plans of PROGRES)."""
    if not all(pools.values()):
        return []
    image = dict(fixed or {})
    used, found, last = set(image.values()), [], len(plan)

    def extend(i: int) -> None:
        if i == last:
            found.append(tuple([image[e] for e in order]))
            return
        e, ends, vias = plan[i]
        if ends is not None:
            s, t = image[ends[0]], image[ends[1]]
            at_s, at_t = incidence[e].get(s, ()), incidence[e].get(t, ())
            near = at_s if len(at_s) <= len(at_t) else at_t
            pool = [c for c in near if c[0] == s and c[2] == t]
        else:
            pool = pools[e]
            for a, b, out in vias:
                at = image[b]
                near = incidence[a].get(at, ())
                if len(near) < len(pool):
                    if out:
                        pool = {c[2] for c in near if c[0] == at}
                    else:
                        pool = {c[0] for c in near if c[2] == at}
        for c in pool:
            if c not in used:
                image[e] = c
                used.add(c)
                extend(i + 1)
                used.discard(c)

    extend(0)
    return sorted(found)
