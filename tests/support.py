"""Shared helpers for the test suite.

Contains independent brute-force oracles (kept deliberately naive and
separate from the library implementations) and random instance generators.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product
from typing import Dict, List, Optional, Sequence, Tuple

from mlmt.chains import ChainMorphism, GraphChain, build_chain
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
    derive_typing_chain,
    transitive_type_at,
)
from mlmt.matching import MetaMatch, TwoLevelRule
from mlmt.rules import ARROW, NODE, McmtRule, MetaElement, RulePattern, element_key

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


def random_hierarchy(rng: random.Random, depth: int = 2) -> MultilevelHierarchy:
    """A small valid hierarchy: root Node/Arrow plus `depth` child models."""
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
            # type by the parent level or jump straight to the root
            if lvl > 1 and rng.random() < 0.7:
                t_model, t_elem = prev.name, rng.choice(sorted(prev.graph.nodes))
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
            info[key] = ElementInfo(
                (t_model, ta), (1, max(1, depth + 1 - lvl)), (0, None)
            )
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


# ---------------------------------------------------------------------------
# brute-force matcher oracle


def brute_force_meta_matches(rule: McmtRule, stack, h) -> set:
    """All monotone level maps x all injective typed bindings, exhaustively."""
    from mlmt.matching import MetaMatch, _root_binding, _freeze_match
    from mlmt.hierarchy import transitive_type_at
    from mlmt.rules import type_chain

    depth = rule.depth
    m = len(stack) - 1
    results = set()
    root_b = _root_binding(rule, stack[0])
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
                results.add(_freeze_match(level_map, bindings))
    return results


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


# ---------------------------------------------------------------------------
# ordered matcher oracles
#
# Both matchers promise an order, not just a set: `run` draws a match by its
# index, and proliferation numbers rules in META match order.  A typed match
# comes in lexicographic order of the images of the sorted pattern nodes,
# then of the sorted pattern arrows; a META binding in lexicographic order of
# the images of its nodes, then of its arrows, in META pattern order.


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
    rng: random.Random, h: MultilevelHierarchy, model: ModelNode
) -> TwoLevelRule:
    """A left pattern of 1-3 nodes and up to 3 arrows over `model`.

    Each element's level types are read off a random host element at random
    levels, the model's own level included, and sometimes replaced by None
    or by another element, so that some patterns match and some do not.
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

    nodes = [f"x{i}" for i in range(rng.randint(1, 3))]
    arrows = []
    for i in range(rng.randint(0, 3) if host_arrows else 0):
        arrows.append((rng.choice(nodes), f"a{i}", rng.choice(nodes)))
    lhs = build_graph(model.name, nodes, arrows)
    level_types = {n: profile(host_nodes) for n in nodes}
    level_types.update({a: profile(host_arrows) for a in arrows})
    return TwoLevelRule(
        "Random", lhs, lhs, lhs, {}, level_types, "Random", None
    )


def pls_fixture_paths():
    import os

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
