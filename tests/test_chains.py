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
)
from mlmt.errors import (
    CompatibilityViolation,
    DepthMismatch,
    GraphMismatch,
    NonTotalRootTyping,
    NotInclusion,
    NotInclusionChain,
    UniquenessViolation,
)
from mlmt.graphs import PartialMorphism, TotalMorphism, build_graph

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

    def test_rejects_missing_typing(self):
        graphs, typings = simple_chain()
        del typings[(2, 1)]
        with pytest.raises(GraphMismatch) as err:
            build_chain(graphs, typings)
        assert str(err.value) == "missing typing morphism (2,1)"

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

    def test_subgraph_levels_with_a_non_identity_typing_are_not_one(self):
        g0 = build_graph("g0", ["a", "b"], [])
        g1 = build_graph("g1", ["a"], [])
        for image, inclusion in (("a", True), ("b", False)):
            typing = PartialMorphism(g1, g0, {"a": image}, {})
            assert GraphChain((g0, g1), {(1, 0): typing}).is_inclusion_chain() is inclusion


class TestChainMorphism:
    def identity_morphism(self, src, dst, level_map):
        """The chain morphism whose component at level i is the identity of src
        level i, read as a morphism into dst level f(i)."""
        components = {
            i: TotalMorphism(
                src.graph_at(i),
                dst.graph_at(f),
                {n: n for n in src.graph_at(i).nodes},
                {a: a for a in src.graph_at(i).arrows},
            )
            for i, f in level_map.items()
        }
        return ChainMorphism(src, dst, level_map, components)

    def test_identity_is_valid(self):
        graphs, typings = simple_chain()
        chain = build_chain(graphs, typings)
        cm = self.identity_morphism(chain, chain, {i: i for i in range(3)})
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
        assert not chain_morphism_conditions_hold(cm)

    def test_reports_a_source_deeper_than_its_target(self):
        graphs, typings = simple_chain()
        deep = build_chain(graphs, typings)
        shallow = build_chain(graphs[:2], {(1, 0): typings[(1, 0)]})
        cm = ChainMorphism(deep, shallow, {0: 0, 1: 1, 2: 1}, {})
        assert not chain_morphism_conditions_hold(cm)

    def test_reports_a_level_map_that_moves_level_zero(self):
        graphs, typings = simple_chain()
        chain = build_chain(graphs, typings)
        lower = build_chain(graphs[1:], {(1, 0): typings[(2, 1)]})
        cm = self.identity_morphism(lower, chain, {0: 1, 1: 2})
        assert not chain_morphism_conditions_hold(cm)

    def test_reports_a_component_with_the_wrong_source(self):
        graphs, typings = simple_chain()
        chain = build_chain(graphs, typings)
        cm = self.identity_morphism(chain, chain, {i: i for i in range(3)})
        cm.components[1] = TotalMorphism(graphs[2], graphs[1], {"p": "x"}, {})
        assert not chain_morphism_conditions_hold(cm)

    def test_reports_a_typing_the_target_has_and_the_source_lacks(self):
        g0 = build_graph("g0", ["N"], [])
        g1 = build_graph("g1", ["x"], [])
        g2 = build_graph("g2", ["p", "q"], [])
        to_root = PartialMorphism(g2, g0, {"p": "N", "q": "N"}, {})
        g1_root = PartialMorphism(g1, g0, {"x": "N"}, {})

        def chain(mid_map):
            return build_chain(
                [g0, g1, g2],
                {(1, 0): g1_root, (2, 1): PartialMorphism(g2, g1, mid_map, {}), (2, 0): to_root},
            )

        src, dst = chain({"p": "x"}), chain({"p": "x", "q": "x"})
        cm = self.identity_morphism(src, dst, {i: i for i in range(3)})
        assert not chain_morphism_conditions_hold(cm)

    def test_reports_a_typing_square_that_does_not_commute(self):
        g0 = build_graph("g0", ["N", "M"], [])
        g1 = build_graph("g1", ["x"], [])
        src = build_chain([g0, g1], {(1, 0): PartialMorphism(g1, g0, {"x": "N"}, {})})
        dst = build_chain([g0, g1], {(1, 0): PartialMorphism(g1, g0, {"x": "M"}, {})})
        cm = self.identity_morphism(src, dst, {0: 0, 1: 1})
        assert not chain_morphism_conditions_hold(cm)

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
        assert chain_morphism_conditions_hold(cm)  # the (1,0) square holds fine


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

    def test_rejects_a_partial_typing_to_the_root(self):
        graphs, typings = simple_chain()
        chain = build_chain(graphs[:2], {(1, 0): typings[(1, 0)]})
        subject = build_graph("s", ["q"], [])
        mt = MultilevelTyping(
            subject,
            chain,
            {
                0: PartialMorphism(subject, graphs[0], {}, {}),
                1: PartialMorphism(subject, graphs[1], {"q": "x"}, {}),
            },
        )
        with pytest.raises(NonTotalRootTyping) as err:
            check_compatibility(mt)
        assert str(err.value) == "s: typing to root level not total"

    def test_rejects_a_type_the_chain_does_not_carry_down(self):
        # q is typed r at level 2 and x at level 1, but the chain does not type r at level 1
        g0 = build_graph("g0", ["N"], [])
        g1 = build_graph("g1", ["x"], [])
        g2 = build_graph("g2", ["p", "r"], [])
        chain = build_chain(
            [g0, g1, g2],
            {
                (1, 0): PartialMorphism(g1, g0, {"x": "N"}, {}),
                (2, 1): PartialMorphism(g2, g1, {"p": "x"}, {}),
                (2, 0): PartialMorphism(g2, g0, {"p": "N", "r": "N"}, {}),
            },
        )
        subject = build_graph("s", ["q"], [])
        mt = MultilevelTyping(
            subject,
            chain,
            {
                0: PartialMorphism(subject, g0, {"q": "N"}, {}),
                1: PartialMorphism(subject, g1, {"q": "x"}, {}),
                2: PartialMorphism(subject, g2, {"q": "r"}, {}),
            },
        )
        with pytest.raises(CompatibilityViolation) as err:
            check_compatibility(mt)
        assert str(err.value) == "s: compatibility fails at levels (2,1) on 'q'"
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
        assert chain_morphism_conditions_hold(cm)
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
        m_morph = self.make_morphism(l_chain, s_chain, {"m1": "g1"})
        d_chain, d_morph = chain_pushout(i_chain, m_morph)
        assert "p1$0" in d_chain.graph_at(0).nodes
        assert "p1$0" in d_chain.graph_at(1).nodes
        assert ("g1", "c1$0", "p1$0") in d_chain.graph_at(0).arrows
        assert d_chain.is_inclusion_chain()
        assert d_morph.src is i_chain and d_morph.dst is d_chain

    def test_pullback_complement_restricts_every_level(self):
        lhs, inter, rhs, l_chain, i_chain, r_chain = two_level_rule_chains()
        host, s_chain = self.host_chain()
        m_morph = self.make_morphism(l_chain, s_chain, {"m1": "g1"})
        d_chain, d_morph = chain_pushout(i_chain, m_morph)
        # deleting rule: keep only m1 on the right
        keep = build_graph("L", ["m1"], [])
        keep_chain = refactor_inclusion_chain(keep, [keep])
        t_chain = chain_pullback_complement(keep_chain, d_morph)
        assert "p1$0" not in t_chain.graph_at(0).nodes
        assert "p1$0" not in t_chain.graph_at(1).nodes
        assert "g2" in t_chain.graph_at(0).nodes
        assert t_chain.is_inclusion_chain()
        # d restricted to the kept chain maps it into T at every level
        for i, kept in enumerate(keep_chain.graphs):
            d_i, t_i = d_morph.component(i), t_chain.graph_at(d_morph.level_map[i])
            assert all(d_i.node_map[n] in t_i.nodes for n in kept.nodes)
            assert all(d_i.arrow_map[a] in t_i.arrows for a in kept.arrows)
        assert {n: d_morph.component(1).node_map[n] for n in keep_chain.graph_at(1).nodes} == {
            "m1": "g1"
        }

    def test_pushout_rejects_rule_chains_of_unequal_depth(self):
        lhs, inter, _, l_chain, _, _ = two_level_rule_chains()
        host, s_chain = self.host_chain()
        deeper = refactor_inclusion_chain(inter, [inter, inter])
        m_morph = self.make_morphism(l_chain, s_chain, {"m1": "g1"})
        with pytest.raises(DepthMismatch):
            chain_pushout(deeper, m_morph)

    def test_pullback_complement_rejects_rule_chains_of_unequal_depth(self):
        lhs, inter, rhs, l_chain, i_chain, r_chain = two_level_rule_chains()
        host, s_chain = self.host_chain()
        m_morph = self.make_morphism(l_chain, s_chain, {"m1": "g1"})
        _, d_morph = chain_pushout(i_chain, m_morph)
        keep = build_graph("L", ["m1"], [])
        deeper = refactor_inclusion_chain(keep, [keep, keep])
        with pytest.raises(DepthMismatch):
            chain_pullback_complement(deeper, d_morph)

    def test_rejects_a_leg_outside_the_interface_above_level_zero(self):
        # L and R hold m1 at level 1, where this interface does not: inside
        # I at level 0 is not enough
        lhs, inter, _, l_chain, _, _ = two_level_rule_chains()
        host, s_chain = self.host_chain()
        low_i = refactor_inclusion_chain(inter, [build_graph("I1", ["p1"], [])])
        with pytest.raises(NotInclusion, match="L is not a subgraph of I1"):
            chain_pushout(low_i, self.make_morphism(l_chain, s_chain, {"m1": "g1"}))
        empty_l = refactor_inclusion_chain(lhs, [build_graph("L1", [], [])])
        _, d_morph = chain_pushout(low_i, self.make_morphism(empty_l, s_chain, {"m1": "g1"}))
        with pytest.raises(NotInclusion, match="L is not a subgraph of I1"):
            chain_pullback_complement(l_chain, d_morph)

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
        with pytest.raises(NotInclusionChain):
            chain_pushout(i_chain, m_morph)
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
        with pytest.raises(NotInclusionChain):
            chain_pullback_complement(l_chain, d_morph)
