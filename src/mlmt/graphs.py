"""Directed multigraphs, graph homomorphisms and the categorical kernel.

Graphs carry named nodes and arrows identified by (source, label, target)
triples.  Everything in this module is immutable; operations return new
values.  `Record`, the base of the package's value types, is defined here,
in the lowest layer that has any.  The pushout and pullback-complement constructions implemented here
are the building blocks for co-span rule application: a rule L -> I <- R is
applied to a host graph by gluing I \\ L onto the host (pushout) and then
removing the images of I \\ R (pullback complement).

Each graph maps every node with an arrow to the frozenset of its incident
arrows.  The map is built when incident arrows are first asked for, as the
dangling check of a node-deleting step does, and is derived only from a map
that exists: the pushout derives D's map from S's by adding the copied
arrows, the pullback complement derives T's from D's by removing the deleted
ones, and where the input holds no map neither builds one.  Neither
re-validates its result, which is valid by construction.  A node set, arrow
set or incidence map that a step leaves unchanged is shared with the result
rather than copied; all three are immutable.  So a rewrite step costs the
rule, the arrows incident to deleted nodes and a copy of each collection it
changes, and a run that deletes no node never builds a map.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter, itemgetter
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


class Record:
    """An immutable value.  Its fields are its constructor's parameters, in
    order, which the constructor stores in its `__dict__`.  As with a frozen
    dataclass, a record equals only a record of its own class with equal
    fields, hashes and shows its fields, and refuses assignment;
    `_replace(**changes)` copies it through the constructor, so the copy is
    checked as a new record is."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        fields = cls._fields = code.co_varnames[1 : code.co_argcount]
        get = attrgetter(*fields)
        cls._values = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join([f"{f}={v!r}" for f, v in zip(self._fields, self._values(self))])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        return self.__class__(**dict(zip(self._fields, self._values(self)), **changes))


class Graph(Record):
    """A directed multigraph with named elements.

    Node names are unique; arrows are identified by their full
    (source, label, target) triple, so two arrows may share a label as long
    as their endpoints differ.
    """

    def __init__(self, name: str, nodes: FrozenSet[str] = frozenset(),
                 arrows: FrozenSet[Arrow] = frozenset()):
        bad = [a for a in arrows if a[0] not in nodes or a[2] not in nodes]
        if bad:
            src, _, tgt = min(bad)
            raise DanglingArrow(f"{name}: arrow endpoints {(src, tgt)} not declared")
        self.__dict__.update(name=name, nodes=nodes, arrows=arrows)

    @classmethod
    def _trusted(
        cls,
        name: str,
        nodes: FrozenSet[str],
        arrows: FrozenSet[Arrow],
        incidence: Optional[Dict[str, FrozenSet[Arrow]]] = None,
    ) -> "Graph":
        """A graph its caller has proved valid, built without the endpoint
        walk of the constructor; `incidence`, if given, must be its map."""
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
    """Construct a graph, rejecting duplicates and undeclared endpoints.

    Set sizes and the set of arrow ends show whether the input is valid; only
    an invalid input is walked, in order, to name its first fault."""
    nodes, arrows = list(nodes), list(map(tuple, arrows))
    node_set, arrow_set = frozenset(nodes), frozenset(arrows)
    ends = set(map(itemgetter(0), arrows))
    ends.update(map(itemgetter(2), arrows))
    if len(node_set) == len(nodes) and len(arrow_set) == len(arrows) and ends <= node_set:
        return Graph._trusted(name, node_set, arrow_set)
    seen = set()
    for n in nodes:
        if n in seen:
            raise DuplicateNode(f"{name}: duplicate node {n!r}")
        seen.add(n)
    seen = set()
    for a in arrows:
        if a in seen:
            raise DuplicateArrow(f"{name}: duplicate arrow {a!r}")
        if a[0] not in node_set or a[2] not in node_set:
            raise DanglingArrow(f"{name}: arrow {a!r} has undeclared endpoint")
        seen.add(a)


class TotalMorphism(Record):
    """A total graph homomorphism given by node and arrow maps."""

    def __init__(self, src: Graph, dst: Graph, node_map: Optional[Dict[str, str]] = None,
                 arrow_map: Optional[Dict[Arrow, Arrow]] = None):
        self.__dict__.update(src=src, dst=dst, node_map={} if node_map is None else node_map,
                             arrow_map={} if arrow_map is None else arrow_map)
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
        built without the checks of the constructor."""
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


class PartialMorphism(Record):
    """A partial graph homomorphism: total on its domain of definition."""

    def __init__(self, src: Graph, dst: Graph, node_map: Optional[Dict[str, str]] = None,
                 arrow_map: Optional[Dict[Arrow, Arrow]] = None):
        self.__dict__.update(src=src, dst=dst, node_map={} if node_map is None else node_map,
                             arrow_map={} if arrow_map is None else arrow_map)
        # the domain of definition must be a genuine subgraph of src
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
    arrows, incidence = S.arrows, S.__dict__.get("_incidence")
    if copies:
        arrows = arrows.union(copies)
        if incidence is not None:
            incidence = dict(incidence)
            for n, added in group_by_end(copies).items():
                incidence[n] = incidence.get(n, frozenset()) | added
    # valid: the copies' ends are S's nodes or copied nodes
    D = Graph._trusted(S.name, nodes, arrows, incidence)
    # valid: L's elements map as m does and the rest to their copies, whose ends map alike
    d = TotalMorphism._trusted(I, D, {**m.node_map, **node_copy}, {**m.arrow_map, **arrow_copy})
    return D, d


def pullback_complement(R: Graph, d: TotalMorphism) -> Graph:
    """Pullback complement of R c-> I -d-> D, where R must be a subgraph of
    I = d.src.

    Removes from D the d-images of all elements of I outside R, and returns
    T, a subgraph of D; the morphism R -> T is d restricted to R.  Raises
    DanglingDeletion when removing a node image would orphan a surviving
    arrow (naming the smallest such arrow), or when a deleted image is shared
    with a preserved element (both are gluing-condition violations).
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
    # the check above built D's map if a node goes
    arrows, incidence = D.arrows, D.__dict__.get("_incidence")
    if gone_arrows:
        arrows = arrows - gone_arrows
        if incidence is not None:
            incidence = dict(incidence)
            for n, removed in group_by_end(gone_arrows).items():
                rest = incidence.pop(n) - removed
                if rest:
                    incidence[n] = rest
    # valid: no surviving arrow ends at a deleted node
    return Graph._trusted(D.name, nodes, arrows, incidence)


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
    del extend  # `extend` calls itself through this cell: emptying it frees the search now
    return sorted(found)
