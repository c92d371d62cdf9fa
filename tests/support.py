"""Shared helpers for the test suite.

Contains independent brute-force oracles (kept deliberately naive and
separate from the library implementations) and random instance generators.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations, permutations, product
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import mlmt.hierarchy
from mlmt.chains import ChainMorphism, GraphChain, build_chain, derive_typing_chain
from mlmt.engine import apply_two_level_rule, typed_matches
from mlmt.graphs import (
    Arrow,
    Graph,
    PartialMorphism,
    TotalMorphism,
    build_graph,
)
from mlmt.hierarchy import (
    ElementInfo,
    ElementKey,
    ModelNode,
    MultilevelHierarchy,
    build_hierarchy,
    transitive_type_at,
)
from mlmt.matching import MetaMatch, TwoLevelRule, find_meta_matches, proliferate, typing_stack
from mlmt.rules import (
    ARROW,
    NODE,
    McmtRule,
    MetaElement,
    PatternElement,
    RulePattern,
    element_key,
)

# ---------------------------------------------------------------------------
# brute-force categorical oracles


def oracle_pushout(L: Graph, I: Graph, m_nodes: Dict, m_arrows: Dict, S: Graph):
    """Tagged-disjoint-union pushout of S <-m- L c-> I (L included in I)."""
    nodes = {("s", n) for n in S.nodes} | {("i", n) for n in I.nodes - L.nodes}

    def end(n):
        return ("s", m_nodes[n]) if n in L.nodes else ("i", n)

    arrows = {("s", a) for a in S.arrows} | {
        ("i", a) for a in I.arrows - L.arrows
    }
    s_map = {n: ("s", n) for n in S.nodes}, {a: ("s", a) for a in S.arrows}
    d_nodes = {n: end(n) for n in I.nodes}
    d_arrows = {
        a: (("s", m_arrows[a]) if a in L.arrows else ("i", a)) for a in I.arrows
    }
    arrow_ends = {}
    for tag, a in arrows:
        if tag == "s":
            arrow_ends[(tag, a)] = (("s", a[0]), ("s", a[2]))
        else:
            arrow_ends[(tag, a)] = (end(a[0]), end(a[2]))
    return nodes, arrows, arrow_ends, s_map, (d_nodes, d_arrows)


def pushout_agrees_with_oracle(L, I, m: TotalMorphism, D, s, d) -> bool:
    """Checks D is isomorphic to the tagged pushout via the canonical map."""
    nodes, arrows, arrow_ends, (sn, sa), (dn, da) = oracle_pushout(
        L, I, m.node_map, m.arrow_map, m.dst
    )
    u_nodes: Dict[str, object] = {}
    for x in m.dst.nodes:
        u_nodes[s.node_map[x]] = sn[x]
    for y in I.nodes:
        img = d.node_map[y]
        if img in u_nodes and u_nodes[img] != dn[y]:
            return False
        u_nodes[img] = dn[y]
    if set(u_nodes) != set(D.nodes) or set(u_nodes.values()) != nodes:
        return False
    if len(set(u_nodes.values())) != len(u_nodes):
        return False
    u_arrows: Dict[Arrow, object] = {}
    for x in m.dst.arrows:
        u_arrows[s.arrow_map[x]] = sa[x]
    for y in I.arrows:
        img = d.arrow_map[y]
        if img in u_arrows and u_arrows[img] != da[y]:
            return False
        u_arrows[img] = da[y]
    if set(u_arrows) != set(D.arrows) or set(u_arrows.values()) != arrows:
        return False
    if len(set(u_arrows.values())) != len(u_arrows):
        return False
    for a in D.arrows:
        want = (u_nodes[a[0]], u_nodes[a[2]])
        if arrow_ends[u_arrows[a]] != want:
            return False
    return True


def oracle_pullback_complement(R: Graph, I: Graph, d: TotalMorphism):
    """Returns (t_nodes, t_arrows) or None when deletion would dangle."""
    gone_nodes = {d.node_map[n] for n in I.nodes - R.nodes}
    gone_arrows = {d.arrow_map[a] for a in I.arrows - R.arrows}
    if gone_nodes & {d.node_map[n] for n in R.nodes}:
        return None
    if gone_arrows & {d.arrow_map[a] for a in R.arrows}:
        return None
    t_nodes = d.dst.nodes - gone_nodes
    t_arrows = d.dst.arrows - gone_arrows
    for a in t_arrows:
        if a[0] in gone_nodes or a[2] in gone_nodes:
            return None
    return t_nodes, t_arrows


def brute_force_orphans(R: Graph, I: Graph, d: TotalMorphism) -> List[Arrow]:
    """The arrows of d.dst, sorted, that survive the pullback complement of
    R c-> I -d-> d.dst but end at a deleted node: a scan of every arrow,
    with no incidence map."""
    gone_nodes = {d.node_map[n] for n in I.nodes - R.nodes}
    gone_arrows = {d.arrow_map[a] for a in I.arrows - R.arrows}
    return sorted(
        a for a in d.dst.arrows
        if a not in gone_arrows and (a[0] in gone_nodes or a[2] in gone_nodes)
    )


def chain_conditions_hold(graphs, typings) -> Optional[str]:
    """Direct evaluation of the chain conditions; None when all hold."""
    n = len(graphs) - 1
    for j in range(1, n + 1):
        t = typings[(j, 0)]
        for e in graphs[j].nodes | graphs[j].arrows:
            if not t.defined_on(e):
                return f"typing ({j},0) undefined on {e!r}"
    for k in range(2, n + 1):
        for j in range(1, k):
            for i in range(j):
                for e in graphs[k].nodes | graphs[k].arrows:
                    if typings[(k, j)].defined_on(e) and typings[(j, i)].defined_on(
                        typings[(k, j)](e)
                    ):
                        via = typings[(j, i)](typings[(k, j)](e))
                        if (
                            not typings[(k, i)].defined_on(e)
                            or typings[(k, i)](e) != via
                        ):
                            return f"uniqueness fails at ({k},{j},{i}) on {e!r}"
    return None


def chain_morphism_conditions_hold(cm) -> bool:
    """Direct evaluation of the chain morphism conditions."""
    n, m = cm.src.length, cm.dst.length
    if n > m or cm.level_map[0] != 0:
        return False
    for i in range(n):
        if cm.level_map[i] >= cm.level_map[i + 1]:
            return False
    for j in range(1, n + 1):
        for i in range(j):
            tau_g = cm.src.typing(j, i)
            tau_h = cm.dst.typing(cm.level_map[j], cm.level_map[i])
            phi_j, phi_i = cm.components[j], cm.components[i]
            for e in cm.src.graph_at(j).nodes | cm.src.graph_at(j).arrows:
                if tau_g.defined_on(e) != tau_h.defined_on(phi_j(e)):
                    return False
                if tau_g.defined_on(e) and phi_i(tau_g(e)) != tau_h(phi_j(e)):
                    return False
    return True


def compatibility_holds(mt) -> bool:
    """Direct evaluation of the strong compatibility between typings."""
    if not mt.sigmas[0].is_total():
        return False
    m = mt.chain.length
    for j in range(m + 1):
        for i in range(j):
            tau = mt.chain.typing(j, i)
            sj, si = mt.sigmas[j], mt.sigmas[i]
            for e in mt.subject.nodes | mt.subject.arrows:
                lhs = sj.defined_on(e) and tau.defined_on(sj(e))
                rhs = sj.defined_on(e) and si.defined_on(e)
                if lhs != rhs:
                    return False
                if lhs and tau(sj(e)) != si(e):
                    return False
    return True


def find_homomorphisms(
    pattern: Graph, target: Graph, injective: bool = False
) -> List[TotalMorphism]:
    """Exhaustively enumerate all total homomorphisms pattern -> target.

    Brute force by design: this is the oracle the optimised matcher is
    checked against, so it must stay independent of it.
    """
    p_nodes = sorted(pattern.nodes)
    results: List[TotalMorphism] = []
    if injective and len(p_nodes) > len(target.nodes):
        return results
    candidates = (
        permutations(sorted(target.nodes), len(p_nodes))
        if injective
        else product(sorted(target.nodes), repeat=len(p_nodes))
    )
    p_arrows = sorted(pattern.arrows)
    for assignment in candidates:
        node_map = dict(zip(p_nodes, assignment))
        # each pattern arrow may map to any parallel target arrow
        per_arrow = []
        ok = True
        for (src, label, tgt) in p_arrows:
            options = sorted(
                a
                for a in target.arrows
                if a[0] == node_map[src] and a[2] == node_map[tgt]
            )
            if not options:
                ok = False
                break
            per_arrow.append(options)
        if not ok:
            continue
        for choice in product(*per_arrow):
            if injective and len(set(choice)) != len(choice):
                continue
            arrow_map = dict(zip(p_arrows, choice))
            results.append(TotalMorphism(pattern, target, node_map, arrow_map))
    return results


# ---------------------------------------------------------------------------
# random generators


def random_graph(rng: random.Random, name: str, max_nodes: int = 6) -> Graph:
    n = rng.randint(1, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    arrows = []
    for _ in range(rng.randint(0, n + 2)):
        a = (rng.choice(nodes), f"e{rng.randint(0, 3)}", rng.choice(nodes))
        if a not in arrows:
            arrows.append(a)
    return build_graph(name, nodes, arrows)


def random_subgraph_pair(rng: random.Random, g: Graph):
    """A random endpoint-closed subset of g, as (nodes, arrows)."""
    nodes = {n for n in g.nodes if rng.random() < 0.6}
    arrows = {
        a for a in g.arrows if a[0] in nodes and a[2] in nodes and rng.random() < 0.7
    }
    return frozenset(nodes), frozenset(arrows)


def random_total_morphism(
    rng: random.Random, src: Graph, dst: Graph
) -> Optional[TotalMorphism]:
    """A random structure-preserving total map, or None when stuck."""
    for _ in range(40):
        node_map = {n: rng.choice(sorted(dst.nodes)) for n in src.nodes}
        arrow_map = {}
        ok = True
        for a in src.arrows:
            options = [
                b
                for b in dst.arrows
                if b[0] == node_map[a[0]] and b[2] == node_map[a[2]]
            ]
            if not options:
                ok = False
                break
            arrow_map[a] = rng.choice(sorted(options))
        if ok:
            return TotalMorphism(src, dst, node_map, arrow_map)
    return None


def random_partial_morphism(
    rng: random.Random, src: Graph, dst: Graph
) -> Optional[PartialMorphism]:
    nodes, arrows = random_subgraph_pair(rng, src)
    dom = Graph("dom", nodes, arrows)
    t = random_total_morphism(rng, dom, dst)
    if t is None:
        return None
    return PartialMorphism(src, dst, dict(t.node_map), dict(t.arrow_map))


# the arrow multiplicities a varied `random_hierarchy` draws from
MULTIPLICITIES = [(0, None), (1, None), (1, 1), (2, 2), (1, 2), (0, 2)]


def random_hierarchy(
    rng: random.Random, depth: int = 2, varied: bool = False
) -> MultilevelHierarchy:
    """A small valid hierarchy: root Node/Arrow plus `depth` child models.

    A node is typed by a node of the model above it or by the root's Node.
    With `varied`, it may be typed by a node of any model above it instead,
    so a typing may skip levels, and an arrow gets a random multiplicity,
    bounded or not; without it, the draws are as they always were."""
    root_graph = build_graph("root", ["Node"], [("Node", "Arrow", "Node")])
    root = ModelNode(
        "root",
        None,
        0,
        root_graph,
        {
            "Node": ElementInfo(("root", "Node"), (1, depth + 1)),
            ("Node", "Arrow", "Node"): ElementInfo(
                ("root", ("Node", "Arrow", "Node")), (1, depth + 1), (0, None)
            ),
        },
    )
    models = [root]
    prev = root
    for lvl in range(1, depth + 1):
        name = f"m{lvl}"
        count = rng.randint(1, 3)
        nodes = [f"{name}_n{i}" for i in range(count)]
        info: Dict = {}
        for n in nodes:
            # type by the parent level (any level above if varied) or jump straight to the root
            if lvl > 1 and rng.random() < 0.7:
                up = rng.choice(models[1:]) if varied else prev
                t_model, t_elem = up.name, rng.choice(sorted(up.graph.nodes))
            else:
                t_model, t_elem = "root", "Node"
            info[n] = ElementInfo((t_model, t_elem), (1, max(1, depth + 1 - lvl)))
        arrows = []
        for _ in range(rng.randint(0, 2)):
            src, tgt = rng.choice(nodes), rng.choice(nodes)
            label = f"{name}_a{len(arrows)}"
            key = (src, label, tgt)
            # arrow typing must land on an arrow whose endpoints fit
            candidates = []
            for anc in models:
                for ta in anc.graph.arrows:
                    src_t = _tt(models, name, info, src, anc.level)
                    tgt_t = _tt(models, name, info, tgt, anc.level)
                    if src_t == ta[0] and tgt_t == ta[2]:
                        lo, hi = anc.info[ta].potency if ta in anc.info else (1, 1)
                        if lo <= lvl - anc.level <= hi:
                            candidates.append((anc.name, ta))
            if not candidates:
                continue
            t_model, ta = rng.choice(candidates)
            arrows.append(key)
            mult = rng.choice(MULTIPLICITIES) if varied else (0, None)
            info[key] = ElementInfo((t_model, ta), (1, max(1, depth + 1 - lvl)), mult)
        graph = build_graph(name, nodes, arrows)
        model = ModelNode(name, prev.name, lvl, graph, info)
        models.append(model)
        prev = model
    return build_hierarchy(models)


def _tt(models, own_name, own_info, node, level):
    """Transitive type of a node under construction, at a given level."""
    by_name = {m.name: m for m in models}
    cur_model, cur_elem, cur_level = own_name, node, len(models)
    info = own_info
    while True:
        if cur_model in by_name and by_name[cur_model].level == level:
            return cur_elem
        if cur_model in by_name and by_name[cur_model].level < level:
            return None
        t_model, t_elem = info[cur_elem].direct_type
        if (t_model, t_elem) == (cur_model, cur_elem):
            return None
        cur_model, cur_elem = t_model, t_elem
        if cur_model in by_name:
            info = by_name[cur_model].info
        else:
            return None


def reference_type_walk(h: MultilevelHierarchy, model: str, element: ElementKey):
    """The walk up an element's typing as a generator over `h.model` lookups,
    as it first stood: yields the element's own (model, element) pair, then
    its transitive types up to the first step that does not go up a level."""
    cur_model, cur_elem = model, element
    yield cur_model, cur_elem
    while True:
        t_model, t_elem = h.model(cur_model).info_for(cur_elem).direct_type
        if h.model(t_model).level >= h.model(cur_model).level:
            return
        cur_model, cur_elem = t_model, t_elem
        yield cur_model, cur_elem


def reference_transitive_type_at(
    h: MultilevelHierarchy, model: str, element: ElementKey, level: int
) -> Optional[ElementKey]:
    """`transitive_type_at` as it first stood, on `reference_type_walk`."""
    for m, e in reference_type_walk(h, model, element):
        if h.model(m).level == level:
            return e
        if h.model(m).level < level:
            return None
    return None


# the potencies and multiplicities a `random_inheritance_hierarchy` draws from
INHERITANCE_POTENCIES = [(1, 1), (1, 2), (1, 3), (0, 2), (2, 3)]
ROOT_ARROW = ("root", ("Node", "Arrow", "Node"))


def random_inheritance_hierarchy(rng: random.Random) -> MultilevelHierarchy:
    """A valid hierarchy whose models m1 and m2 each carry a supertype DAG.

    Nodes of m1 are typed by the root's Node; nodes of m2 by it or by a node
    of m1 that allows a jump of 1, so heirs and supertypes differ in direct
    type and potency.  Names are drawn in random order, so that sorted order
    is not a topological one.  Arrows, loops included, are typed by the root's
    Arrow and share a few labels; some arrows at a supertype are repeated at
    an heir with another multiplicity."""
    root_graph = build_graph("root", ["Node"], [("Node", "Arrow", "Node")])
    root = ModelNode(
        "root",
        None,
        0,
        root_graph,
        {
            "Node": ElementInfo(("root", "Node"), (1, 3)),
            ROOT_ARROW[1]: ElementInfo(ROOT_ARROW, (1, 3), (0, None)),
        },
    )
    models = [root]
    for lvl in (1, 2):
        name = f"m{lvl}"
        count = rng.randint(2, 7)
        nodes = [f"{name}_{c}" for c in rng.sample("abcdefghij", count)]  # topological order
        types = [("root", "Node")]
        if lvl == 2:
            m1 = models[1].info
            types += [("m1", n) for n in sorted(models[1].graph.nodes) if m1[n].potency[0] <= 1]
        info: Dict = {}
        for i, n in enumerate(nodes):
            sups = rng.sample(nodes[:i], rng.randint(0, min(i, 3)))
            potency = rng.choice(INHERITANCE_POTENCIES)
            info[n] = ElementInfo(rng.choice(types), potency, supertypes=frozenset(sups))
        arrows: Dict[Arrow, ElementInfo] = {}
        for _ in range(rng.randint(0, count + 2)):
            arrow = (rng.choice(nodes), rng.choice("rst"), rng.choice(nodes))
            potency, mult = rng.choice(INHERITANCE_POTENCIES), rng.choice(MULTIPLICITIES)
            arrows[arrow] = ElementInfo(ROOT_ARROW, potency, mult)
        for a in sorted(arrows):
            heirs = [n for n in nodes if a[0] in info[n].supertypes or a[2] in info[n].supertypes]
            if heirs and rng.random() < 0.3:
                heir = rng.choice(heirs)
                (src, label, tgt), sups = a, info[heir].supertypes
                twin = (heir if src in sups else src, label, heir if tgt in sups else tgt)
                arrows.setdefault(twin, arrows[a]._replace(multiplicity=rng.choice(MULTIPLICITIES)))
        info.update(arrows)
        graph = build_graph(name, nodes, sorted(arrows))
        models.append(ModelNode(name, models[-1].name, lvl, graph, info))
    return build_hierarchy(models)


def random_meta_rule(rng: random.Random, depth: int = 2) -> McmtRule:
    """A small META-only rule over root types Node/Arrow."""
    elements: List[MetaElement] = []
    for lvl in range(1, depth + 1):
        for i in range(rng.randint(1, 2)):
            if lvl == 1:
                type_name, type_level = "Node", 0
            else:
                prev = [e for e in elements if e.level == lvl - 1 and e.kind == NODE]
                if prev and rng.random() < 0.7:
                    chosen = rng.choice(prev)
                    type_name, type_level = chosen.name, lvl - 1
                else:
                    type_name, type_level = "Node", 0
            elements.append(
                MetaElement(
                    f"X{lvl}_{i}",
                    lvl,
                    NODE,
                    type_name,
                    type_level,
                    constant=rng.random() < 0.2,
                )
            )
        level_nodes = [e for e in elements if e.level == lvl and e.kind == NODE]
        if len(level_nodes) >= 1 and rng.random() < 0.5:
            src = rng.choice(level_nodes)
            tgt = rng.choice(level_nodes)
            elements.append(
                MetaElement(
                    f"A{lvl}",
                    lvl,
                    ARROW,
                    "Arrow",
                    0,
                    source=src.name,
                    target=tgt.name,
                )
            )
    return McmtRule(f"R{rng.randint(0, 999)}", tuple(elements))


def random_mcmt_rule(rng: random.Random, depth: int = 2) -> McmtRule:
    """A `random_meta_rule` with FROM and TO patterns typed by its META elements.

    A META node from level 3 on may be retyped by a node two META levels up,
    so its META type chain skips a level; a META arrow may ask for
    multiplicity 1..1; no META element is a constant.  The patterns hold a
    node per chosen META node and, per chosen META arrow, an arrow typed by it
    from a node typed by its source to a node of its own typed by its target,
    which `expand_cardinalities` replicates.  Each node and arrow is in FROM,
    in TO or in both."""
    meta = list(random_meta_rule(rng, depth).meta_elements)
    for i, el in enumerate(meta):
        two_up = [e for e in meta if e.kind == NODE and e.level == el.level - 2]
        if el.kind == NODE and two_up and rng.random() < 0.5:
            el = el._replace(type_name=rng.choice(two_up).name, type_level=el.level - 2)
        elif el.kind == ARROW and rng.random() < 0.3:
            el = el._replace(multiplicity=(1, 1))
        # no element of a random hierarchy is named after a META element
        meta[i] = el._replace(constant=False)
    nodes: List[PatternElement] = []
    arrows: List[PatternElement] = []

    def node(name: str, level: int) -> PatternElement:
        nodes.append(PatternElement(f"p{len(nodes)}", name, level, NODE))
        return nodes[-1]

    for el in meta:
        if el.kind == NODE and rng.random() < 0.6:
            node(el.name, el.level)
    for el in meta:
        if el.kind == ARROW and rng.random() < 0.8:
            sources = [n for n in nodes if (n.type_name, n.type_level) == (el.source, el.level)]
            src = sources[0] if sources else node(el.source, el.level)
            tgt = node(el.target, el.level)
            name = f"e{len(arrows)}"
            arrows.append(PatternElement(name, el.name, el.level, ARROW, src.name, tgt.name))
    side = {n.name: rng.choice(["from", "to", "both", "both"]) for n in nodes}
    from_els = [n for n in nodes if side[n.name] != "to"]
    to_els = [n for n in nodes if side[n.name] != "from"]
    for a in arrows:
        ends = {side[a.source], side[a.target]}
        if "to" not in ends:
            from_els.append(a)
        if "from" not in ends and (ends != {"both"} or rng.random() < 0.7):
            to_els.append(a)
    return McmtRule(
        f"R{rng.randint(0, 999)}",
        tuple(meta),
        from_pattern=RulePattern(tuple(from_els)),
        to_pattern=RulePattern(tuple(to_els)),
    )


# ---------------------------------------------------------------------------
# brute-force matcher oracle


def brute_force_meta_matches(rule: McmtRule, stack, h) -> List[MetaMatch]:
    """All monotone level maps x all injective typed bindings, exhaustively."""
    depth = rule.depth
    m = len(stack) - 1
    results = []
    root_b = _oracle_root_binding(rule, stack[0])
    if depth > m:
        return results
    for f_tail in combinations(range(1, m + 1), depth):
        level_map = {0: 0}
        for i, t in enumerate(f_tail):
            level_map[i + 1] = t
        per_level = []
        for lvl in range(1, depth + 1):
            per_level.append(
                _all_structural_bindings(rule.meta_at(lvl), stack[level_map[lvl]])
            )
        for combo in product(*per_level):
            bindings = {0: dict(root_b)}
            for lvl, b in enumerate(combo, start=1):
                bindings[lvl] = b
            if _binding_consistent(rule, stack, h, level_map, bindings):
                results.append(MetaMatch(level_map, bindings))
    return results


def _oracle_root_binding(rule: McmtRule, root: ModelNode) -> Dict[str, ElementKey]:
    """The level-0 binding: each root type a META element names, a node by
    its name and an arrow by its label, which must be unique in the root."""
    binding: Dict[str, ElementKey] = {}
    for el in rule.meta_elements + rule.implicit_elements:
        if el.type_name is None or el.type_level != 0:
            continue
        if el.kind == NODE:
            assert el.type_name in root.graph.nodes, el.type_name
            binding[el.type_name] = el.type_name
        else:
            (arrow,) = [a for a in root.graph.arrows if a[1] == el.type_name]
            binding[el.type_name] = arrow
    return binding


def meta_match_key(mm: MetaMatch) -> tuple:
    """A canonical, hashable and sortable form of a META match: its level map and
    bindings as sorted item tuples, so equal matches get equal keys."""
    return (
        tuple(sorted(mm.level_map.items())),
        tuple((lvl, tuple(sorted(b.items()))) for lvl, b in sorted(mm.bindings.items())),
    )


def _all_structural_bindings(elements, model) -> List[Dict]:
    nodes = [e for e in elements if e.kind == NODE]
    arrows = [e for e in elements if e.kind == ARROW]
    target_nodes = sorted(model.graph.nodes)
    target_arrows = sorted(model.graph.arrows)
    out = []
    if len(nodes) > len(target_nodes):
        return out
    for node_assign in permutations(target_nodes, len(nodes)):
        binding = dict(zip([e.name for e in nodes], node_assign))
        pools = []
        ok = True
        for a in arrows:
            options = [
                t
                for t in target_arrows
                if t[0] == binding[a.source] and t[2] == binding[a.target]
            ]
            if not options:
                ok = False
                break
            pools.append(options)
        if not ok:
            continue
        for arrow_assign in product(*pools):
            if len(set(arrow_assign)) != len(arrow_assign):
                continue
            full = dict(binding)
            for a, t in zip(arrows, arrow_assign):
                full[a.name] = t
            out.append(full)
    return out


def _binding_consistent(rule, stack, h, level_map, bindings) -> bool:
    return all(
        _elements_consistent(
            rule, rule.meta_at(lvl), stack[level_map[lvl]], h, level_map, bindings
        )
        for lvl in range(1, rule.depth + 1)
    )


def _elements_consistent(rule, elements, model, h, level_map, bindings) -> bool:
    """Each element's binding fits its constant name, type chain, potency
    and multiplicity."""
    from mlmt.rules import type_chain

    for el in elements:
        lvl = el.level
        bound = bindings[lvl][el.name]
        if el.constant:
            want = el.name
            got = bound if el.kind == NODE else bound[1]
            if got != want:
                return False
        # walk the declared type chain and compare anchors
        chain = type_chain(rule, el)
        anchor_levels = {c.level: c for c in chain}
        if chain[-1].type_name is not None and chain[-1].type_level == 0:
            floor = 0
            root_anchor = chain[-1].type_name
        else:
            floor = chain[-1].level
            root_anchor = None
        for meta_level in range(el.level - 1, floor - 1, -1):
            actual = transitive_type_at(
                h, model.name, bound, level_map[meta_level]
            )
            if meta_level in anchor_levels and meta_level > 0:
                want = bindings[meta_level][anchor_levels[meta_level].name]
                if actual != want:
                    return False
            elif meta_level == 0 and root_anchor is not None:
                want = bindings[0][root_anchor]
                if actual != want:
                    return False
            elif meta_level not in anchor_levels:
                if actual is not None:
                    return False
        if el.potency is not None:
            lo, hi = model.info_for(bound).potency
            if not (lo <= el.potency[0] and el.potency[1] <= hi):
                return False
        if el.multiplicity is not None:
            tm = model.info_for(bound).multiplicity or (0, None)
            plo, phi = el.multiplicity
            if tm[0] > plo:
                return False
            if tm[1] is not None and (phi is None or phi > tm[1]):
                return False
    return True


def reference_instance_profile(rule, meta_el, mm_match):
    """`instance_profile` as it first stood: walks the element's META type
    chain level by level, then marks the stack levels the level map skips
    inside its range untyped."""
    from mlmt.rules import type_chain

    chain = type_chain(rule, meta_el)
    anchors = {c.level: c.name for c in chain}
    if chain[-1].type_name is not None and chain[-1].type_level == 0:
        anchors[0] = chain[-1].type_name
        floor = 0
    else:
        floor = chain[-1].level
    constraints = []
    for meta_level in range(meta_el.level, floor - 1, -1):
        stack_level = mm_match.f(meta_level)
        if meta_level in anchors:
            constraints.append(
                (stack_level, mm_match.binding(meta_level)[anchors[meta_level]])
            )
        else:
            constraints.append((stack_level, None))
    mapped = {mm_match.f(l) for l in range(meta_el.level, floor - 1, -1)}
    for stack_level in range(mm_match.f(floor), mm_match.f(meta_el.level)):
        if stack_level not in mapped:
            constraints.append((stack_level, None))
    return tuple(sorted(constraints, reverse=True))


def reference_expand_cardinalities(rule: McmtRule, bound_multiplicities) -> List[McmtRule]:
    """`expand_cardinalities` written out from its docstring: one copy of the rule per value v
    of each bounded interval, the bounded META arrows taken in sorted order, the last one
    varying fastest; within a copy, each target of a pattern arrow typed by the META arrow is
    replicated v times, together with its incident pattern arrows."""
    variants = [rule]
    for (level, name), (lo, hi) in sorted(bound_multiplicities.items()):
        if hi is not None:
            variants = [_reference_replicate(r, level, name, v) for r in variants for v in range(lo, hi + 1)]
    return variants


def _reference_replicate(rule: McmtRule, level: int, name: str, v: int) -> McmtRule:
    """One replication step.  A pattern that replicates anything lists its nodes, then its
    arrows, each replicated element as its v copies in place: copy 0 is the element, copy i
    appends `$i` to its name and to each of its ends that is replicated."""
    patterns = (rule.from_pattern, rule.to_pattern)
    targets = {
        e.target
        for pattern in patterns
        for e in pattern.elements
        if e.kind == ARROW and e.type_name == name and e.type_level == level
    }
    if not targets or v == 1:
        return rule

    def marked(end: Optional[str], i: int) -> Optional[str]:
        return f"{end}${i}" if end in targets else end

    def copies(e: PatternElement) -> List[PatternElement]:
        if targets.isdisjoint({e.name} if e.kind == NODE else {e.source, e.target}):
            return [e]
        return [
            e if i == 0 else PatternElement(
                f"{e.name}${i}", e.type_name, e.type_level, e.kind, marked(e.source, i), marked(e.target, i)
            )
            for i in range(v)
        ]

    def replicated(pattern: RulePattern) -> RulePattern:
        nodes = [c for e in pattern.elements if e.kind == NODE for c in copies(e)]
        arrows = [c for e in pattern.elements if e.kind == ARROW for c in copies(e)]
        return RulePattern(tuple(nodes + arrows))

    return rule._replace(from_pattern=replicated(rule.from_pattern), to_pattern=replicated(rule.to_pattern))


def reference_proliferate(rule: McmtRule, h, target_model: str) -> List[TwoLevelRule]:
    """`proliferate` as it stood before its caches: every META match expands the
    cardinality variants with `reference_expand_cardinalities`, builds their
    graphs and derives each pattern element's type and profile anew.  Profiles
    come from `reference_instance_profile`, so no table of the library's is
    shared."""
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
        for expanded in reference_expand_cardinalities(rule, bound_mults):
            name = f"{rule.name}_{len(out)}"
            lhs, inter, rhs = _pattern_graphs(expanded, target_model)
            types: Dict[ElementKey, Tuple[str, ElementKey]] = {}
            level_types = {}
            for e in expanded.to_pattern.elements + expanded.from_pattern.elements:
                key = element_key(e)
                if key in types:
                    continue
                meta_el = rule.meta_element(e.type_name, e.type_level)
                stack_level = mm_match.f(meta_el.level)
                bound = mm_match.binding(meta_el.level)[meta_el.name]
                types[key] = (stack[stack_level].name, bound)
                level_types[key] = reference_instance_profile(rule, meta_el, mm_match)
            out.append(
                TwoLevelRule(
                    name, lhs, inter, rhs, types, level_types, rule.name, mm_match
                )
            )
    return out


def _pattern_graphs(rule: McmtRule, name: str) -> Tuple[Graph, Graph, Graph]:
    lhs = rule.from_pattern.graph(name)
    rhs = rule.to_pattern.graph(name)
    inter = build_graph(
        name,
        sorted(lhs.nodes | rhs.nodes),
        sorted(lhs.arrows | rhs.arrows),
    )
    return lhs, inter, rhs


# ---------------------------------------------------------------------------
# ordered matcher oracles
#
# Both matchers promise an order, not just a set: `run` draws a match by its
# index, and proliferation numbers rules in META match order.  A typed match
# comes in lexicographic order of the images of the sorted pattern nodes,
# then of the sorted pattern arrows; a META binding in lexicographic order of
# the images of its nodes, then of its arrows, in META pattern order.


def outgrows(pattern, target) -> bool:
    """Whether a META level's pattern has more nodes or more arrows than the target model, so
    that no injective image exists and `graph_match` answers without indexing the model."""
    nodes = sum(el.kind == NODE for el in pattern)
    return nodes > len(target.graph.nodes) or len(pattern) - nodes > len(target.graph.arrows)


def brute_force_graph_match(pattern, target, h, rule, level_map, bindings):
    """`graph_match` by exhaustive enumeration, in its emission order."""
    order = [e.name for e in pattern if e.kind == NODE]
    order += [e.name for e in pattern if e.kind == ARROW]
    level = pattern[0].level if pattern else 0
    found = [
        b
        for b in _all_structural_bindings(pattern, target)
        if _elements_consistent(
            rule, pattern, target, h, level_map, {**bindings, level: b}
        )
    ]
    return sorted(found, key=lambda b: [b[name] for name in order])


def _typed(rule, model, h, element, image) -> bool:
    return all(
        transitive_type_at(h, model.name, image, level) == want
        for level, want in rule.level_types[element]
    )


def _emission_key(rule):
    elements = sorted(rule.lhs.nodes) + sorted(rule.lhs.arrows)
    return lambda m: [m(e) for e in elements]


def filtered_homomorphisms(rule, model, h) -> List[TotalMorphism]:
    """`typed_matches` from the exhaustive homomorphism search: the injective
    homomorphisms of the left pattern whose images all carry the element's
    level types, in emission order.  Enumerates every injective node
    assignment, so only for small hosts."""
    elements = sorted(rule.lhs.nodes) + sorted(rule.lhs.arrows)
    found = [
        m
        for m in find_homomorphisms(rule.lhs, model.graph, injective=True)
        if all(_typed(rule, model, h, e, m(e)) for e in elements)
    ]
    return sorted(found, key=_emission_key(rule))


def brute_force_typed_matches(rule, model, h) -> List[TotalMorphism]:
    """`typed_matches` by a product over typed images, in emission order.

    Equal to `filtered_homomorphisms` (the random-hierarchy tests check
    this), but it enumerates only images that carry the element's level
    types, so it stays fast on hosts of a few dozen nodes.
    """
    nodes, arrows = sorted(rule.lhs.nodes), sorted(rule.lhs.arrows)
    host = model.graph
    pools = [
        [c for c in sorted(host.nodes) if _typed(rule, model, h, n, c)]
        for n in nodes
    ]
    found = []
    for images in product(*pools):
        if len(set(images)) != len(images):
            continue
        node_map = dict(zip(nodes, images))
        arrow_pools = [
            [
                c
                for c in sorted(host.arrows)
                if (c[0], c[2]) == (node_map[a[0]], node_map[a[2]])
                and _typed(rule, model, h, a, c)
            ]
            for a in arrows
        ]
        for choice in product(*arrow_pools):
            if len(set(choice)) == len(choice):
                found.append(
                    TotalMorphism(rule.lhs, host, node_map, dict(zip(arrows, choice)))
                )
    return sorted(found, key=_emission_key(rule))


def random_two_level_rule(
    rng: random.Random, h: MultilevelHierarchy, model: ModelNode, varied: bool = False
) -> TwoLevelRule:
    """A left pattern of 1-3 nodes and up to 3 arrows over `model`.

    Each element's level types are read off a random host element at random
    levels, the model's own level included, and sometimes replaced by None
    or by another element, so that some patterns match and some do not.

    `varied` draws 1-5 nodes and up to 5 arrows instead, with self-loops,
    arrows parallel to the one before (with its level types) and, at times,
    a last node that no arrow touches.
    """
    host_nodes = sorted(model.graph.nodes)
    host_arrows = sorted(model.graph.arrows)

    def profile(pool):
        seed = rng.choice(pool)
        levels = rng.sample(range(model.level + 1), rng.randint(0, model.level + 1))
        out = []
        for level in sorted(levels, reverse=True):
            want = transitive_type_at(h, model.name, seed, level)
            if rng.random() < 0.15:
                want = rng.choice([None, rng.choice(pool)])
            out.append((level, want))
        return tuple(out)

    twins = {}  # a parallel arrow -> the arrow before it, whose level types it takes
    if varied:
        nodes = [f"x{i}" for i in range(rng.randint(1, 5))]
        joined = nodes[:-1] if len(nodes) > 1 and rng.random() < 0.3 else nodes
        arrows = []
        for i in range(rng.randint(0, 5) if host_arrows else 0):
            shape = rng.random()
            if shape < 0.2:
                src = tgt = rng.choice(joined)
            elif shape < 0.5 and arrows:
                src, _, tgt = arrows[-1]
                twins[(src, f"a{i}", tgt)] = arrows[-1]
            else:
                src, tgt = rng.choice(joined), rng.choice(joined)
            arrows.append((src, f"a{i}", tgt))
    else:
        nodes = [f"x{i}" for i in range(rng.randint(1, 3))]
        arrows = []
        for i in range(rng.randint(0, 3) if host_arrows else 0):
            arrows.append((rng.choice(nodes), f"a{i}", rng.choice(nodes)))
    lhs = build_graph(model.name, nodes, arrows)
    level_types = {n: profile(host_nodes) for n in nodes}
    level_types.update({a: profile(host_arrows) for a in arrows})
    level_types.update({a: level_types[twin] for a, twin in twins.items()})
    return TwoLevelRule(
        "Random", lhs, lhs, lhs, {}, level_types, "Random", None
    )


# ---------------------------------------------------------------------------
# search plans


def reference_search_plan(
    nodes: Sequence,
    arrows: Sequence[tuple],
    bound: Iterable = (),
    size: Optional[Callable] = None,
) -> Optional[List[tuple]]:
    """`graphs.search_plan` as it was before it kept each node's arrows: every
    step rescans every waiting arrow for every unbound node, for the arrows
    that join it to bound nodes and, when no node has one, for any arrow."""
    ends = {a: (s, t) for a, s, t in arrows}
    bound, plan = set(bound), []
    waiting = [a for a in ends if a not in bound]
    todo = [n for n in nodes if n not in bound]
    while True:
        ready = [a for a in waiting if bound.issuperset(ends[a])]
        plan += [(a, ends[a], None) for a in ready]
        waiting = [a for a in waiting if a not in ready]
        if not todo:
            return None if waiting else plan
        near = {
            n: tuple(
                (a, s if t == n else t, t == n)
                for a in waiting
                for s, t in (ends[a],)
                if s != t and n in (s, t) and (s if t == n else t) in bound
            )
            for n in todo
        }
        linked = [n for n in todo if any(n in ends[a] for a in waiting)]
        node = min(
            [n for n in todo if near[n]] or linked or todo,
            key=size or (lambda n: -len(near[n])),
        )
        plan.append((node, None, near[node]))
        bound.add(node)
        todo.remove(node)


# ---------------------------------------------------------------------------
# reference scheduler: `run`'s draw rule over match lists rebuilt every step


def reference_run(rules, h, target, steps, seed):
    """`run` with every match listed afresh at each step: each compiled rule's
    `typed_matches` on the current model, in compiled-rule order, one list of
    (rule, match) pairs from which a step pops `rng.randrange(len(pairs))`; a
    match whose deletion would leave a dangling arrow is skipped, and the next
    draw is from the rest.  Returns the trace lines as `to_json_lines` writes
    them, the stop reason, the final hierarchy and the number of skips."""
    compiled = [r for rule in rules for r in proliferate(rule, h, target)]
    rng, lines, stop, skips = random.Random(seed), [], "max-steps", 0

    def key(e):
        return list(e) if isinstance(e, tuple) else e

    for step in range(steps):
        model = h.model(target)
        pairs = [(r, m) for r in compiled for m in typed_matches(r, model, h)]
        if not pairs:
            stop = "no-match"
            break
        while pairs:
            rule, m = pairs.pop(rng.randrange(len(pairs)))
            successors, _ = apply_two_level_rule(rule, model, h, at=m)
            if successors:
                break
            skips += 1
        else:
            stop = "all-matches-dangling"
            break
        result = successors[0]
        h = h.with_model(result.model)
        match = {**m.node_map, **{a[1]: image[1] for a, image in m.arrow_map.items()}}
        line = {"step": step, "rule": rule.name, "match": match,
                "created": [key(e) for e in result.created],
                "deleted": [key(e) for e in result.deleted]}
        lines.append(json.dumps(line, sort_keys=True) + "\n")
    return "".join(lines), stop, h, skips


def child_env() -> dict:
    """The environment of a child process that imports this package."""
    src = os.path.dirname(os.path.dirname(mlmt.hierarchy.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def two_arrow_root_document(hierarchy_path: str) -> dict:
    """The hierarchy document at `hierarchy_path` with a root node `Thing` and a second root
    arrow labelled `Arrow`, `Thing -> Thing`: a valid hierarchy in which the level-0 type name
    `Arrow` names no single root arrow."""
    with open(hierarchy_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    root = next(m for m in doc["models"] if m["parent"] is None)
    root["nodes"].append({"name": "Thing", "type": "root.Node", "potency": "1-2"})
    root["arrows"].append(
        {"name": "Arrow", "source": "Thing", "target": "Thing", "type": "root.Arrow", "potency": "1-2"}
    )
    return doc


def pls_fixture_paths():
    base = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    return (
        os.path.abspath(os.path.join(base, "pls.json")),
        os.path.abspath(os.path.join(base, "pls.mcmt")),
    )


# ---------------------------------------------------------------------------
# chain-morphism view of a META match, checked against Def. 2; the direct
# engine builds its own chain match


def meta_chain_for_match(
    rule: McmtRule,
    mm_match: MetaMatch,
    h: MultilevelHierarchy,
    stack: Sequence[ModelNode],
) -> Tuple[GraphChain, ChainMorphism]:
    """Realize a MetaMatch as a chain morphism META chain -> typing chain.

    Implicit constants carry no declared root type, so their typing is
    completed from the elements they are bound to.
    """
    depth = rule.depth
    graphs = [stack[0].graph.renamed(f"{rule.name}@0")]
    for lvl in range(1, depth + 1):
        els = rule.meta_at(lvl)
        graphs.append(
            build_graph(
                f"{rule.name}@{lvl}",
                [e.name for e in els if e.kind == NODE],
                [element_key(e) for e in els if e.kind == ARROW],
            )
        )

    def bound(lvl: int, name: str) -> ElementKey:
        return mm_match.binding(lvl)[name] if lvl > 0 else name

    typings: Dict[Tuple[int, int], PartialMorphism] = {}
    for j in range(1, depth + 1):
        for i in range(j):
            node_map: Dict[str, str] = {}
            arrow_map: Dict[Arrow, Arrow] = {}
            for el in rule.meta_at(j):
                tt = transitive_type_at(
                    h,
                    stack[mm_match.f(j)].name,
                    mm_match.binding(j)[el.name],
                    mm_match.f(i),
                )
                if tt is None:
                    continue
                # name the type element inside the META graph at level i
                if i == 0:
                    image = tt
                else:
                    named = [
                        e.name
                        for e in rule.meta_at(i)
                        if mm_match.binding(i).get(e.name) == tt
                        and e.kind == el.kind
                    ]
                    if not named:
                        continue
                    image = element_key(rule.meta_element(named[0], i))
                if el.kind == NODE:
                    node_map[el.name] = image
                else:
                    arrow_map[element_key(el)] = image
            typings[(j, i)] = PartialMorphism(
                graphs[j], graphs[i], node_map, arrow_map
            )
    meta_chain = build_chain(graphs, typings)

    tg_chain, _ = derive_typing_chain(h, stack[-1].name)

    components = {}
    for lvl in range(depth + 1):
        g = meta_chain.graph_at(lvl)
        tg = tg_chain.graph_at(mm_match.f(lvl))
        node_map = {n: bound(lvl, n) for n in g.nodes}
        arrow_map = {a: a if lvl == 0 else bound(lvl, a[1]) for a in g.arrows}
        components[lvl] = TotalMorphism(g, tg, node_map, arrow_map)
    cm = ChainMorphism(
        meta_chain, tg_chain, dict(mm_match.level_map), components
    )
    return meta_chain, cm
