import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmt.errors import (
    DanglingArrow,
    DanglingDeletion,
    DuplicateArrow,
    DuplicateNode,
    NotInclusion,
)
from mlmt.graphs import (
    Graph,
    PartialMorphism,
    TotalMorphism,
    build_graph,
    compose_partial,
    fresh_name,
    inclusion,
    pullback_complement,
    pushout,
)

from support import (
    find_homomorphisms,
    oracle_pullback_complement,
    pushout_agrees_with_oracle,
    random_graph,
    random_partial_morphism,
    random_subgraph_pair,
    random_total_morphism,
)


def g(name, nodes, arrows=()):
    return build_graph(name, nodes, arrows)


class TestBuildGraph:
    def test_rejects_duplicate_nodes(self):
        with pytest.raises(DuplicateNode):
            build_graph("G", ["a", "a"], [])

    def test_rejects_duplicate_arrows(self):
        with pytest.raises(DuplicateArrow):
            build_graph("G", ["a"], [("a", "x", "a"), ("a", "x", "a")])

    def test_rejects_dangling_arrow(self):
        with pytest.raises(DanglingArrow):
            build_graph("G", ["a"], [("a", "x", "b")])

    def test_parallel_arrows_with_distinct_labels(self):
        graph = g("G", ["a", "b"], [("a", "x", "b"), ("a", "y", "b")])
        assert len(graph.arrows) == 2


class TestMorphisms:
    def test_inclusion_requires_containment(self):
        small = g("S", ["a"])
        big = g("B", ["a", "b"])
        assert inclusion(small, big).is_inclusion()
        with pytest.raises(NotInclusion):
            inclusion(big, small)

    def test_total_morphism_preserves_structure(self):
        src = g("S", ["a", "b"], [("a", "x", "b")])
        dst = g("D", ["c"], [("c", "y", "c")])
        t = TotalMorphism(
            src, dst, {"a": "c", "b": "c"}, {("a", "x", "b"): ("c", "y", "c")}
        )
        assert t("a") == "c"
        assert t(("a", "x", "b")) == ("c", "y", "c")

    def test_partial_composition_via_preimage(self):
        a = g("A", ["a1", "a2"])
        b = g("B", ["b1", "b2"])
        c = g("C", ["c1"])
        f = PartialMorphism(a, b, {"a1": "b1", "a2": "b2"}, {})
        h = PartialMorphism(b, c, {"b1": "c1"}, {})
        composed = compose_partial(f, h)
        assert composed.node_map == {"a1": "c1"}  # a2 falls outside the domain


class TestFreshNames:
    def test_smallest_free_suffix(self):
        assert fresh_name("p1", set()) == "p1$0"
        assert fresh_name("p1", {"p1$0", "p1$1"}) == "p1$2"

    @given(st.text(alphabet="ab", min_size=1, max_size=3), st.sets(st.integers(0, 5)))
    def test_result_never_collides(self, base, taken_ks):
        taken = {f"{base}${k}" for k in taken_ks}
        assert fresh_name(base, taken) not in taken


class TestPushout:
    def test_copies_are_renamed(self):
        L = g("L", ["m"])
        I = g("I", ["m", "p"], [("m", "c", "p")])
        S = g("S", ["m1"])
        m = TotalMorphism(L, S, {"m": "m1"}, {})
        D, s, d = pushout(inclusion(L, I), m)
        assert d.node_map["p"] == "p$0"
        assert s.is_inclusion()
        assert ("m1", "c$0", "p$0") in D.arrows

    def test_commutes_on_shared_part(self):
        L = g("L", ["m"])
        I = g("I", ["m", "p"])
        S = g("S", ["x", "y"])
        m = TotalMorphism(L, S, {"m": "y"}, {})
        D, s, d = pushout(inclusion(L, I), m)
        assert d.node_map["m"] == s.node_map[m.node_map["m"]]

    def test_left_leg_must_be_inclusion(self):
        L = g("L", ["m"])
        I = g("I", ["q"])
        with pytest.raises(NotInclusion):
            pushout(TotalMorphism(L, I, {"m": "q"}, {}), TotalMorphism(L, L, {"m": "m"}, {}))

    def test_randomized_against_disjoint_union_oracle(self):
        rng = random.Random(7)
        checked = 0
        while checked < 220:
            S = random_graph(rng, "S")
            I = random_graph(rng, "I")
            nodes, arrows = random_subgraph_pair(rng, I)
            L = Graph("L", nodes, arrows)
            if not L.nodes and not L.arrows and rng.random() < 0.7:
                continue
            m = random_total_morphism(rng, L, S) if L.nodes else TotalMorphism(L, S, {}, {})
            if m is None:
                continue
            D, s, d = pushout(inclusion(L, I), m)
            assert pushout_agrees_with_oracle(L, I, m, D, s, d)
            checked += 1


class TestPullbackComplement:
    def test_deletes_images_outside_r(self):
        R = g("R", ["m"])
        I = g("I", ["m", "p"], [("m", "c", "p")])
        S = g("S", ["m1", "p1"], [("m1", "c", "p1")])
        d = TotalMorphism(
            I, S, {"m": "m1", "p": "p1"}, {("m", "c", "p"): ("m1", "c", "p1")}
        )
        T, t_in, t_sub = pullback_complement(inclusion(R, I), d)
        assert T.nodes == frozenset({"m1"})
        assert T.arrows == frozenset()
        assert t_sub.is_inclusion()

    def test_dangling_node_deletion_raises(self):
        R = g("R", [])
        I = g("I", ["p"])
        S = g("S", ["p1", "q"], [("q", "x", "p1")])
        d = TotalMorphism(I, S, {"p": "p1"}, {})
        with pytest.raises(DanglingDeletion):
            pullback_complement(inclusion(R, I), d)

    def test_shared_deleted_and_kept_image_raises(self):
        R = g("R", ["a"])
        I = g("I", ["a", "b"])
        S = g("S", ["x"])
        d = TotalMorphism(I, S, {"a": "x", "b": "x"}, {})
        with pytest.raises(DanglingDeletion):
            pullback_complement(inclusion(R, I), d)

    def test_randomized_against_oracle(self):
        rng = random.Random(13)
        checked = 0
        while checked < 220:
            I = random_graph(rng, "I")
            nodes, arrows = random_subgraph_pair(rng, I)
            R = Graph("R", nodes, arrows)
            S = random_graph(rng, "S")
            d = random_total_morphism(rng, I, S)
            if d is None:
                continue
            expected = oracle_pullback_complement(R, I, d)
            if expected is None:
                with pytest.raises(DanglingDeletion):
                    pullback_complement(inclusion(R, I), d)
            else:
                T, t_in, t_sub = pullback_complement(inclusion(R, I), d)
                assert (T.nodes, T.arrows) == expected
                for x in R.nodes:
                    assert t_in.node_map[x] == d.node_map[x]
            checked += 1


class TestPartialCompositionAssociativity:
    def test_randomized(self):
        rng = random.Random(29)
        checked = 0
        while checked < 220:
            A = random_graph(rng, "A", 4)
            B = random_graph(rng, "B", 4)
            C = random_graph(rng, "C", 4)
            Dg = random_graph(rng, "D", 4)
            f = random_partial_morphism(rng, A, B)
            gm = random_partial_morphism(rng, B, C)
            hm = random_partial_morphism(rng, C, Dg)
            if None in (f, gm, hm):
                continue
            left = compose_partial(compose_partial(f, gm), hm)
            right = compose_partial(f, compose_partial(gm, hm))
            assert left.node_map == right.node_map
            assert left.arrow_map == right.arrow_map
            checked += 1


class TestFindHomomorphisms:
    def test_counts_on_triangle(self):
        pattern = g("P", ["a", "b"], [("a", "x", "b")])
        target = g(
            "T", ["u", "v", "w"], [("u", "e", "v"), ("v", "e", "w"), ("w", "e", "u")]
        )
        assert len(find_homomorphisms(pattern, target)) == 3

    def test_injective_excludes_collapsing(self):
        pattern = g("P", ["a", "b"])
        target = g("T", ["u"])
        assert find_homomorphisms(pattern, target, injective=True) == []
        assert len(find_homomorphisms(pattern, target)) == 1
