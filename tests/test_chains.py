import random

import pytest

from mlmt.chains import (
    ChainMorphism,
    GraphChain,
    MultilevelTyping,
    build_chain,
    chain_pullback_complement,
    chain_pushout,
    check_compatibility,
    derive_typing_chain,
    refactor_inclusion_chain,
    typing_to_chain,
    validate_chain_morphism,
)
from mlmt.errors import (
    CompatibilityViolation,
    DepthMismatch,
    GraphMismatch,
    NonTotalRootTyping,
    NotInclusionChain,
    UniquenessViolation,
)
from mlmt.graphs import (
    Graph,
    PartialMorphism,
    TotalMorphism,
    build_graph,
    inclusion,
)

from support import (
    chain_conditions_hold,
    chain_morphism_conditions_hold,
    compatibility_holds,
    random_hierarchy,
)


def simple_chain():
    g0 = build_graph("g0", ["N"], [("N", "A", "N")])
    g1 = build_graph("g1", ["x", "y"], [("x", "a", "y")])
    g2 = build_graph("g2", ["p"], [])
    t10 = PartialMorphism(
        g1, g0, {"x": "N", "y": "N"}, {("x", "a", "y"): ("N", "A", "N")}
    )
    t21 = PartialMorphism(g2, g1, {"p": "x"}, {})
    t20 = PartialMorphism(g2, g0, {"p": "N"}, {})
    return [g0, g1, g2], {(1, 0): t10, (2, 1): t21, (2, 0): t20}


class TestBuildChain:
    def test_accepts_valid_chain(self):
        graphs, typings = simple_chain()
        chain = build_chain(graphs, typings)
        assert chain.length == 2
        assert chain.typing(2, 0).node_map == {"p": "N"}

    def test_rejects_partial_typing_to_root(self):
        graphs, typings = simple_chain()
        typings[(2, 0)] = PartialMorphism(graphs[2], graphs[0], {}, {})
        with pytest.raises(NonTotalRootTyping):
            build_chain(graphs, typings)

    def test_rejects_uniqueness_violation(self):
        g0 = build_graph("g0", ["N", "M"], [])
        g1 = build_graph("g1", ["x"], [])
        g2 = build_graph("g2", ["p"], [])
        typings = {
            (1, 0): PartialMorphism(g1, g0, {"x": "N"}, {}),
            (2, 1): PartialMorphism(g2, g1, {"p": "x"}, {}),
            # composite goes through x to N, direct typing says M
            (2, 0): PartialMorphism(g2, g0, {"p": "M"}, {}),
        }
        with pytest.raises(UniquenessViolation):
            build_chain([g0, g1, g2], typings)

    def test_matches_direct_condition_evaluation_on_random_instances(self):
        rng = random.Random(5)
        checked = 0
        while checked < 200:
            h = random_hierarchy(rng, depth=rng.randint(1, 3))
            bottom = max(h.models.values(), key=lambda m: m.level)
            chain, _ = derive_typing_chain(h, bottom.name)
            # the derived chain must satisfy the conditions verbatim
            typings = {k: chain.typing(*k) for k in chain.typings}
            assert chain_conditions_hold(list(chain.graphs), typings) is None
            checked += 1


class TestRefactorInclusionChain:
    def test_rejects_level_outside_host(self):
        g = build_graph("g", ["a", "b"], [("a", "x", "b")])
        inside = build_graph("in", ["a"], [])
        for outside in (
            build_graph("out", ["a", "z"], []),
            build_graph("out", ["a", "b"], [("b", "x", "a")]),
        ):
            with pytest.raises(GraphMismatch):
                refactor_inclusion_chain(g, [inside, outside])

    def test_builds_identity_typings_on_intersections(self):
        g = build_graph("g", ["a", "b", "c"], [("a", "x", "b")])
        s1 = build_graph("s1", ["a", "b"], [("a", "x", "b")])
        s2 = build_graph("s2", ["a", "c"], [])
        chain = refactor_inclusion_chain(g, [s1, s2])
        assert chain.is_inclusion_chain()
        assert chain.typing(2, 1).node_map == {"a": "a"}
        assert [c.name for c in chain.graphs] == ["g", "s1", "s2"]
        # valid by construction: the full re-check agrees
        assert build_chain(chain.graphs, chain.typings) == chain


class TestChainMorphism:
    def test_identity_is_valid(self):
        graphs, typings = simple_chain()
        chain = build_chain(graphs, typings)
        cm = ChainMorphism(
            chain,
            chain,
            {i: i for i in range(3)},
            {
                i: TotalMorphism(
                    chain.graph_at(i),
                    chain.graph_at(i),
                    {n: n for n in chain.graph_at(i).nodes},
                    {a: a for a in chain.graph_at(i).arrows},
                )
                for i in range(3)
            },
        )
        assert validate_chain_morphism(cm) == []
        assert chain_morphism_conditions_hold(cm)

    def test_detects_non_monotone_level_map(self):
        graphs, typings = simple_chain()
        chain = build_chain(graphs, typings)
        cm = ChainMorphism(
            chain,
            chain,
            {0: 0, 1: 2, 2: 1},
            {
                i: TotalMorphism(
                    chain.graph_at(i),
                    chain.graph_at(i),
                    {n: n for n in chain.graph_at(i).nodes},
                    {a: a for a in chain.graph_at(i).arrows},
                )
                for i in range(3)
            },
        )
        assert any("monotone" in p for p in validate_chain_morphism(cm))

    def test_detects_unreflected_typing(self):
        g0 = build_graph("g0", ["N"], [])
        g1 = build_graph("g1", ["x"], [])
        g2 = build_graph("g2", ["p"], [])
        src = build_chain(
            [g0, g2],
            {(1, 0): PartialMorphism(g2, g0, {"p": "N"}, {})},
        )
        dst = build_chain(
            [g0, g1, g2],
            {
                (1, 0): PartialMorphism(g1, g0, {"x": "N"}, {}),
                (2, 1): PartialMorphism(g2, g1, {"p": "x"}, {}),
                (2, 0): PartialMorphism(g2, g0, {"p": "N"}, {}),
            },
        )
        # map the 1-level chain's bottom to dst level 2; the dst typing (2,1)
        # is defined on p, but the source has no level between bottom and root
        cm = ChainMorphism(
            src,
            dst,
            {0: 0, 1: 2},
            {
                0: TotalMorphism(g0, g0, {"N": "N"}, {}),
                1: TotalMorphism(g2, g2, {"p": "p"}, {}),
            },
        )
        assert validate_chain_morphism(cm) == []  # (1,0) square holds fine
        assert chain_morphism_conditions_hold(cm)


class TestMultilevelTyping:
    def test_compatibility_enforced(self):
        graphs, typings = simple_chain()
        chain = build_chain(graphs[:2], {(1, 0): typings[(1, 0)]})
        subject = build_graph("s", ["q"], [])
        mt = MultilevelTyping(
            subject,
            chain,
            {
                0: PartialMorphism(subject, graphs[0], {"q": "N"}, {}),
                1: PartialMorphism(subject, graphs[1], {"q": "x"}, {}),
            },
        )
        check_compatibility(mt)
        assert compatibility_holds(mt)

    def test_rejects_transitive_direct_disagreement(self):
        g0 = build_graph("g0", ["N", "M"], [])
        g1 = build_graph("g1", ["x"], [])
        chain = build_chain(
            [g0, g1], {(1, 0): PartialMorphism(g1, g0, {"x": "N"}, {})}
        )
        subject = build_graph("s", ["q"], [])
        mt = MultilevelTyping(
            subject,
            chain,
            {
                0: PartialMorphism(subject, g0, {"q": "M"}, {}),
                1: PartialMorphism(subject, g1, {"q": "x"}, {}),
            },
        )
        with pytest.raises(CompatibilityViolation):
            check_compatibility(mt)
        assert not compatibility_holds(mt)

    def test_refactoring_yields_valid_inclusion_chain_and_morphism(self):
        graphs, typings = simple_chain()
        chain = build_chain(graphs[:2], {(1, 0): typings[(1, 0)]})
        subject = build_graph("s", ["q", "r"], [])
        mt = MultilevelTyping(
            subject,
            chain,
            {
                0: PartialMorphism(subject, graphs[0], {"q": "N", "r": "N"}, {}),
                1: PartialMorphism(subject, graphs[1], {"q": "x"}, {}),
            },
        )
        incl_chain, cm = typing_to_chain(mt)
        assert incl_chain.is_inclusion_chain()
        assert validate_chain_morphism(cm) == []
        assert incl_chain.graph_at(1).nodes == frozenset({"q"})

    def test_random_derived_typings_are_compatible(self):
        rng = random.Random(11)
        for _ in range(200):
            h = random_hierarchy(rng, depth=rng.randint(1, 3))
            bottom = max(h.models.values(), key=lambda m: m.level)
            _, mt = derive_typing_chain(h, bottom.name)
            check_compatibility(mt)
            assert compatibility_holds(mt)
            incl_chain, cm = typing_to_chain(mt)
            assert validate_chain_morphism(cm) == []
            assert chain_morphism_conditions_hold(cm)


def two_level_rule_chains():
    """A toy co-span whose patterns span two chain levels."""
    lhs = build_graph("L", ["m1"], [])
    inter = build_graph("L", ["m1", "p1"], [("m1", "c1", "p1")])
    rhs = inter
    l_chain = refactor_inclusion_chain(lhs, [lhs])
    i_chain = refactor_inclusion_chain(inter, [inter])
    r_chain = i_chain
    return lhs, inter, rhs, l_chain, i_chain, r_chain


class TestChainRewriting:
    def host_chain(self):
        host = build_graph("S", ["g1", "g2"], [])
        return host, refactor_inclusion_chain(host, [host])

    def make_morphism(self, src_chain, dst_chain, node_map, level_map=None):
        level_map = level_map or {i: i for i in range(src_chain.length + 1)}
        comps = {}
        for i in range(src_chain.length + 1):
            g = src_chain.graph_at(i)
            comps[i] = TotalMorphism(
                g,
                dst_chain.graph_at(level_map[i]),
                {n: node_map[n] for n in g.nodes},
                {},
            )
        return ChainMorphism(src_chain, dst_chain, level_map, comps)

    def test_pushout_adds_copies_at_all_touched_levels(self):
        lhs, inter, rhs, l_chain, i_chain, r_chain = two_level_rule_chains()
        host, s_chain = self.host_chain()
        l_morph = self.make_morphism(l_chain, i_chain, {"m1": "m1"})
        m_morph = self.make_morphism(l_chain, s_chain, {"m1": "g1"})
        d_chain, s_incl, d_morph = chain_pushout(l_morph, m_morph)
        assert "p1$0" in d_chain.graph_at(0).nodes
        assert "p1$0" in d_chain.graph_at(1).nodes
        assert ("g1", "c1$0", "p1$0") in d_chain.graph_at(0).arrows
        assert d_chain.is_inclusion_chain()

    def test_pullback_complement_restricts_every_level(self):
        lhs, inter, rhs, l_chain, i_chain, r_chain = two_level_rule_chains()
        host, s_chain = self.host_chain()
        l_morph = self.make_morphism(l_chain, i_chain, {"m1": "m1"})
        m_morph = self.make_morphism(l_chain, s_chain, {"m1": "g1"})
        d_chain, _, d_morph = chain_pushout(l_morph, m_morph)
        # deleting rule: keep only m1 on the right
        keep = build_graph("L", ["m1"], [])
        keep_chain = refactor_inclusion_chain(keep, [keep])
        r_morph = ChainMorphism(
            keep_chain,
            i_chain,
            {0: 0, 1: 1},
            {
                i: inclusion(keep_chain.graph_at(i), i_chain.graph_at(i))
                for i in range(2)
            },
        )
        t_chain, t_in, t_sub = chain_pullback_complement(r_morph, d_morph)
        assert "p1$0" not in t_chain.graph_at(0).nodes
        assert "p1$0" not in t_chain.graph_at(1).nodes
        assert "g2" in t_chain.graph_at(0).nodes
        assert t_chain.is_inclusion_chain()

    def test_pushout_rejects_rule_chains_of_unequal_depth(self):
        lhs, inter, _, l_chain, _, _ = two_level_rule_chains()
        host, s_chain = self.host_chain()
        deeper = refactor_inclusion_chain(inter, [inter, inter])
        l_morph = self.make_morphism(l_chain, deeper, {"m1": "m1"})
        m_morph = self.make_morphism(l_chain, s_chain, {"m1": "g1"})
        with pytest.raises(DepthMismatch):
            chain_pushout(l_morph, m_morph)

    def test_pullback_complement_rejects_rule_chains_of_unequal_depth(self):
        lhs, inter, rhs, l_chain, i_chain, r_chain = two_level_rule_chains()
        host, s_chain = self.host_chain()
        l_morph = self.make_morphism(l_chain, i_chain, {"m1": "m1"})
        m_morph = self.make_morphism(l_chain, s_chain, {"m1": "g1"})
        _, _, d_morph = chain_pushout(l_morph, m_morph)
        keep = build_graph("L", ["m1"], [])
        deeper = refactor_inclusion_chain(keep, [keep, keep])
        r_morph = self.make_morphism(deeper, i_chain, {"m1": "m1"}, {0: 0, 1: 1, 2: 1})
        with pytest.raises(DepthMismatch):
            chain_pullback_complement(r_morph, d_morph)

    def test_rejects_a_host_that_is_not_an_inclusion_chain(self):
        # a chain whose typings are not identities, such as one a hierarchy's
        # root path induces, is rewritten only after `typing_to_chain`
        lhs, inter, rhs, l_chain, i_chain, r_chain = two_level_rule_chains()
        host = build_chain(*simple_chain())
        assert not host.is_inclusion_chain()
        m_morph = ChainMorphism(
            l_chain,
            host,
            {0: 0, 1: 1},
            {
                0: TotalMorphism(lhs, host.graph_at(0), {"m1": "N"}, {}),
                1: TotalMorphism(lhs, host.graph_at(1), {"m1": "x"}, {}),
            },
        )
        l_morph = self.make_morphism(l_chain, i_chain, {"m1": "m1"})
        with pytest.raises(NotInclusionChain):
            chain_pushout(l_morph, m_morph)
        arrow = ("m1", "c1", "p1")
        d_morph = ChainMorphism(
            i_chain,
            host,
            {0: 0, 1: 1},
            {
                0: TotalMorphism(
                    inter, host.graph_at(0), {"m1": "N", "p1": "N"}, {arrow: ("N", "A", "N")}
                ),
                1: TotalMorphism(
                    inter, host.graph_at(1), {"m1": "x", "p1": "y"}, {arrow: ("x", "a", "y")}
                ),
            },
        )
        r_morph = self.make_morphism(l_chain, i_chain, {"m1": "m1"})
        with pytest.raises(NotInclusionChain):
            chain_pullback_complement(r_morph, d_morph)
