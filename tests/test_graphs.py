import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlmt.errors import (
    DanglingArrow,
    DanglingDeletion,
    DuplicateArrow,
    DuplicateNode,
    GraphMismatch,
    NotInclusion,
)
from mlmt.graphs import (
    Graph,
    PartialMorphism,
    TotalMorphism,
    build_graph,
    compose_partial,
    fresh_name,
    pullback_complement,
    pushout,
    search_plan,
)

from support import (
    brute_force_orphans,
    find_homomorphisms,
    inclusion,
    oracle_pullback_complement,
    pushout_agrees_with_oracle,
    random_graph,
    random_partial_morphism,
    random_subgraph_pair,
    random_total_morphism,
    reference_search_plan,
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

    def test_dangling_arrow_message_names_the_smallest(self):
        # not whichever arrow the frozenset yields first, which varies with
        # PYTHONHASHSEED; many names make a lucky pass unlikely
        for k in range(20):
            p = f"p{k}"
            bad = [(p, f"x{k}", f"q{k}"), (f"r{k}", f"y{k}", p), (f"q{k}", "z", f"s{k}")]
            src, _, tgt = min(bad)
            with pytest.raises(DanglingArrow) as err:
                Graph("G", frozenset({p}), frozenset(bad + [(p, "w", p)]))
            assert str(err.value) == f"G: arrow endpoints {(src, tgt)} not declared"


class TestMorphisms:
    def test_inclusion_requires_containment(self):
        small = g("S", ["a"])
        big = g("B", ["a", "b"])
        incl = inclusion(small, big)
        assert (incl.node_map, incl.arrow_map) == ({"a": "a"}, {})
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

    @pytest.mark.parametrize(
        "node_map, arrow_map, message",
        [
            ({"a": "c"}, {("a", "x", "b"): ("c", "y", "c")}, "node map not total on S"),
            ({"a": "c", "b": "c"}, {}, "arrow map not total on S"),
            (
                {"a": "c", "b": "z"},
                {("a", "x", "b"): ("c", "y", "c")},
                "node image 'z' not in D",
            ),
            (
                {"a": "c", "b": "c"},
                {("a", "x", "b"): ("c", "w", "c")},
                "arrow image ('c', 'w', 'c') not in D",
            ),
            (
                {"a": "c", "b": "e"},
                {("a", "x", "b"): ("c", "y", "c")},
                "morphism breaks source/target maps at ('a', 'x', 'b')",
            ),
        ],
    )
    def test_total_morphism_rejects_what_is_not_one(self, node_map, arrow_map, message):
        src = g("S", ["a", "b"], [("a", "x", "b")])
        dst = g("D", ["c", "e"], [("c", "y", "c")])
        with pytest.raises(GraphMismatch) as err:
            TotalMorphism(src, dst, node_map, arrow_map)
        assert str(err.value) == message

    def test_partial_composition_via_preimage(self):
        a = g("A", ["a1", "a2"])
        b = g("B", ["b1", "b2"])
        c = g("C", ["c1"])
        f = PartialMorphism(a, b, {"a1": "b1", "a2": "b2"}, {})
        h = PartialMorphism(b, c, {"b1": "c1"}, {})
        composed = compose_partial(f, h)
        assert composed.node_map == {"a1": "c1"}  # a2 falls outside the domain

    def test_partial_domain_must_lie_in_source(self):
        src = g("A", ["a1"], [("a1", "x", "a1")])
        dst = g("B", ["b1"], [("b1", "y", "b1")])
        with pytest.raises(GraphMismatch):
            PartialMorphism(src, dst, {"a1": "b1", "a2": "b1"}, {})
        with pytest.raises(GraphMismatch):
            PartialMorphism(
                src, dst, {"a1": "b1"}, {("a1", "z", "a1"): ("b1", "y", "b1")}
            )

    def test_partial_domain_must_be_closed(self):
        src = g("A", ["a1", "a2"], [("a1", "x", "a2")])
        dst = g("B", ["b1"], [("b1", "y", "b1")])
        with pytest.raises(DanglingArrow):
            PartialMorphism(src, dst, {"a1": "b1"}, {("a1", "x", "a2"): ("b1", "y", "b1")})
        t = PartialMorphism(src, dst, {"a1": "b1"}, {})
        assert t.domain == Graph("A", frozenset({"a1"}), frozenset())


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
        D, d = pushout(I, m)
        assert d.node_map["p"] == "p$0"
        assert S.nodes <= D.nodes and S.arrows <= D.arrows
        assert ("m1", "c$0", "p$0") in D.arrows

    def test_commutes_on_shared_part(self):
        L = g("L", ["m"])
        I = g("I", ["m", "p"])
        S = g("S", ["x", "y"])
        m = TotalMorphism(L, S, {"m": "y"}, {})
        D, d = pushout(I, m)
        assert S.nodes <= D.nodes and S.arrows <= D.arrows
        assert d.node_map["m"] == m.node_map["m"]

    def test_left_leg_must_be_inclusion(self):
        L = g("L", ["m"])
        I = g("I", ["q"])
        with pytest.raises(NotInclusion):
            pushout(I, TotalMorphism(L, L, {"m": "m"}, {}))

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
            D, d = pushout(I, m)
            assert pushout_agrees_with_oracle(L, I, m, D, inclusion(S, D), d)
            checked += 1


class TestPullbackComplement:
    def test_deletes_images_outside_r(self):
        R = g("R", ["m"])
        I = g("I", ["m", "p"], [("m", "c", "p")])
        S = g("S", ["m1", "p1"], [("m1", "c", "p1")])
        d = TotalMorphism(
            I, S, {"m": "m1", "p": "p1"}, {("m", "c", "p"): ("m1", "c", "p1")}
        )
        T = pullback_complement(R, d)
        assert T.nodes == frozenset({"m1"})
        assert T.arrows == frozenset()
        assert T.nodes <= S.nodes and T.arrows <= S.arrows

    def test_dangling_node_deletion_raises(self):
        R = g("R", [])
        I = g("I", ["p"])
        S = g("S", ["p1", "q"], [("q", "x", "p1")])
        d = TotalMorphism(I, S, {"p": "p1"}, {})
        with pytest.raises(DanglingDeletion):
            pullback_complement(R, d)

    def test_dangling_message_names_the_smallest_orphan(self):
        for k in range(20):
            p, q = f"p{k}", f"q{k}"
            orphans = [(p, f"x{k}", q), (q, f"y{k}", p), (q, "z", q)]
            S = g("S", [p, q], orphans)
            d = TotalMorphism(g("I", ["a"]), S, {"a": q}, {})
            with pytest.raises(DanglingDeletion) as err:
                pullback_complement(g("R", []), d)
            assert str(err.value) == (
                f"deleting a node would orphan surviving arrow {min(orphans)!r}"
            )

    def test_shared_deleted_and_kept_image_raises(self):
        R = g("R", ["a"])
        I = g("I", ["a", "b"])
        S = g("S", ["x"])
        d = TotalMorphism(I, S, {"a": "x", "b": "x"}, {})
        with pytest.raises(DanglingDeletion):
            pullback_complement(R, d)

    def test_right_leg_must_be_inclusion(self):
        R = g("R", ["q"])
        I = g("I", ["p"])
        d = TotalMorphism(I, I, {"p": "p"}, {})
        with pytest.raises(NotInclusion):
            pullback_complement(R, d)

    def test_randomized_against_oracle(self):
        self.check_against_oracle(derived=False)

    def test_randomized_against_oracle_on_derived_hosts(self):
        self.check_against_oracle(derived=True)

    @staticmethod
    def check_against_oracle(derived):
        rng = random.Random(13)
        checked = 0
        while checked < 220:
            I = random_graph(rng, "I")
            nodes, arrows = random_subgraph_pair(rng, I)
            R = Graph("R", nodes, arrows)
            S = random_graph(rng, "S")
            if derived:
                S = with_derived_incidence(S)
            d = random_total_morphism(rng, I, S)
            if d is None:
                continue
            expected = oracle_pullback_complement(R, I, d)
            if expected is None:
                with pytest.raises(DanglingDeletion):
                    pullback_complement(R, d)
            else:
                T = pullback_complement(R, d)
                assert (T.nodes, T.arrows) == expected
                # d restricted to R is a morphism R -> T
                assert all(d.node_map[x] in T.nodes for x in R.nodes)
                assert all(d.arrow_map[a] in T.arrows for a in R.arrows)
            checked += 1


def with_derived_incidence(S: Graph) -> Graph:
    """S again, through a pushout that adds a node with arrows to and from
    every node of S and a pullback complement that deletes them: a graph
    equal to S whose incidence map was derived, not built (the dangling
    check builds the pushout's, with the added arrows, unless S has one)."""
    L = Graph("L", S.nodes, frozenset())
    junk = [(n, "j", "x") for n in S.nodes] + [("x", "j", n) for n in S.nodes]
    I = Graph("I", S.nodes | {"x"}, frozenset(junk))
    _, d = pushout(I, inclusion(L, S))
    T = pullback_complement(L, d)
    assert T == S and "_incidence" in vars(T)
    return T


def assert_valid_with_carried_incidence(G: Graph) -> None:
    fresh = Graph(G.name, G.nodes, G.arrows)
    assert fresh == G
    assert "_incidence" in vars(G)  # carried along, not built on first use
    assert vars(G)["_incidence"] == fresh._incidence
    for n in G.nodes:
        assert G.incident(n) == frozenset(a for a in G.arrows if n in (a[0], a[2]))


KIND_SEEDS = [("add", 41), ("delete arrows", 43), ("move arrows", 47), ("delete nodes", 53)]


class TestDerivedGraphs:
    """Pushout and pullback complement build their results without
    re-validating them and derive their incidence maps step by step."""

    def test_randomized_chain_of_steps(self):
        rng = random.Random(31)
        host = random_graph(rng, "S", 8)
        host.incident("n0")  # builds the one map every later one derives from
        steps, dangling = 0, 0
        while steps < 60:
            I = random_graph(rng, "I", 4)
            L = Graph("L", *random_subgraph_pair(rng, I))
            R = Graph("R", *random_subgraph_pair(rng, I))
            if L.nodes and not host.nodes:
                continue
            m = random_total_morphism(rng, L, host)
            if m is None:
                continue
            D, d = pushout(I, m)
            assert_valid_with_carried_incidence(D)
            expected = oracle_pullback_complement(R, I, d)
            if expected is None:
                with pytest.raises(DanglingDeletion):
                    pullback_complement(R, d)
                host = D
                dangling += 1
            else:
                T = pullback_complement(R, d)
                assert (T.nodes, T.arrows) == expected
                assert_valid_with_carried_incidence(T)
                assert_valid_with_carried_incidence(T.renamed("T"))
                host = T
            steps += 1
        assert 0 < dangling < steps

    @staticmethod
    def rule_of_kind(rng, kind):
        """A random rule (L, I, R) whose steps change only what `kind` says."""
        I = random_graph(rng, "I", 4)

        def some_arrows():
            return frozenset(a for a in sorted(I.arrows) if rng.random() < 0.5)

        if kind == "add":
            return Graph("L", *random_subgraph_pair(rng, I)), I, I
        if kind == "delete arrows":
            return I, I, Graph("R", I.nodes, some_arrows())
        if kind == "move arrows":  # delete some arrows and add others between the same nodes
            L, R = Graph("L", I.nodes, some_arrows()), Graph("R", I.nodes, some_arrows())
            return L, Graph("I", I.nodes, L.arrows | R.arrows), R
        assert kind == "delete nodes"  # deleted nodes have no arrow in L
        ends = {x for a in I.arrows for x in (a[0], a[2])}
        keep = frozenset(n for n in sorted(I.nodes) if n in ends or rng.random() < 0.5)
        return I, I, Graph("R", keep, I.arrows)

    @pytest.mark.parametrize("kind, seed", KIND_SEEDS)
    def test_unchanged_collections_are_shared(self, kind, seed):
        rng = random.Random(seed)
        host = random_graph(rng, "S", 8)
        host.incident("n0")
        applied, dangling = 0, 0
        for step in range(120):
            if len(host.nodes) < 3 or len(host.arrows) < 2:
                host = random_graph(rng, "S", 8)
                host.incident("n0")
            L, I, R = self.rule_of_kind(rng, kind)
            m = random_total_morphism(rng, L, host)
            if m is None:
                continue
            if step % 5 == 0 and L.nodes:
                n = min(L.nodes)
                gap = Graph("I", I.nodes - {n}, frozenset(a for a in I.arrows if n not in a))
                with pytest.raises(NotInclusion):
                    pushout(gap, m)
            D, d = pushout(I, m)
            assert_valid_with_carried_incidence(D)
            assert (D.nodes is host.nodes) == (I.nodes <= L.nodes)
            assert (D.arrows is host.arrows) == (I.arrows <= L.arrows)
            assert (vars(D)["_incidence"] is vars(host)["_incidence"]) == (I.arrows <= L.arrows)
            if step % 5 == 0:
                with pytest.raises(NotInclusion):
                    pullback_complement(Graph("R", R.nodes | {"stray"}, R.arrows), d)
            expected = oracle_pullback_complement(R, I, d)
            if expected is None:
                with pytest.raises(DanglingDeletion):
                    pullback_complement(R, d)
                dangling += 1
                continue
            T = pullback_complement(R, d)
            assert (T.nodes, T.arrows) == expected
            assert_valid_with_carried_incidence(T)
            assert (T.nodes is D.nodes) == (I.nodes <= R.nodes)
            assert (T.arrows is D.arrows) == (I.arrows <= R.arrows)
            assert (vars(T)["_incidence"] is vars(D)["_incidence"]) == (I.arrows <= R.arrows)
            host, applied = T, applied + 1
        assert applied >= 25
        assert dangling > 0 if kind == "delete nodes" else dangling < applied

    def test_trusted_morphisms_pass_the_checked_constructor(self, monkeypatch):
        # `d` of a pushout skips the checks of `TotalMorphism`; replay the
        # seeded cases above and check each.  A pullback complement builds no
        # morphism: the replayed oracle checks assert that d maps R into T
        built = []
        trusted = TotalMorphism._trusted.__func__

        def recording(cls, *fields):
            built.append(trusted(cls, *fields))
            return built[-1]

        monkeypatch.setattr(TotalMorphism, "_trusted", classmethod(recording))
        TestPushout().test_randomized_against_disjoint_union_oracle()
        TestPullbackComplement.check_against_oracle(derived=False)
        TestPullbackComplement.check_against_oracle(derived=True)
        self.test_randomized_chain_of_steps()
        for kind, seed in KIND_SEEDS:
            self.test_unchanged_collections_are_shared(kind, seed)
        assert len(built) > 1000
        for t in built:
            assert TotalMorphism(t.src, t.dst, dict(t.node_map), dict(t.arrow_map)) == t


class TestIncidenceOnFirstUse:
    """A graph's incidence map is built when incident arrows are first asked
    for, which only the dangling check of a node-deleting step does, and a
    step derives its result's map only from a map its input holds."""

    def test_a_step_that_deletes_no_node_builds_no_map(self):
        rng = random.Random(59)
        host = random_graph(rng, "S", 8)
        applied, copied, removed = 0, 0, 0
        for step in range(240):
            if len(host.nodes) < 3 or len(host.arrows) < 2:
                host = random_graph(rng, "S", 8)
            kind = ("add", "delete arrows", "move arrows")[step % 3]
            L, I, R = TestDerivedGraphs.rule_of_kind(rng, kind)
            assert I.nodes <= R.nodes
            m = random_total_morphism(rng, L, host)
            if m is None:
                continue
            D, d = pushout(I, m)
            expected = oracle_pullback_complement(R, I, d)
            if expected is None:  # a deleted arrow shares its image with a kept one
                continue
            T = pullback_complement(R, d)
            assert (T.nodes, T.arrows) == expected
            assert "_incidence" not in vars(host)
            assert "_incidence" not in vars(D)
            assert "_incidence" not in vars(T)
            copied += D.arrows != host.arrows
            removed += T.arrows != D.arrows
            host, applied = T, applied + 1
        assert applied >= 100 and copied >= 25 and removed >= 15

    def test_a_node_deleting_step_builds_the_map_it_checks(self):
        rng = random.Random(61)
        applied, dangling, copied = 0, 0, 0
        while applied < 60:
            host = random_graph(rng, "S", 8)
            I = random_graph(rng, "I", 4)
            L = Graph("L", *random_subgraph_pair(rng, I))
            R = Graph("R", *random_subgraph_pair(rng, I))
            if not I.nodes - R.nodes:
                continue
            m = random_total_morphism(rng, L, host)
            if m is None:
                continue
            D, d = pushout(I, m)
            assert "_incidence" not in vars(D)
            expected = oracle_pullback_complement(R, I, d)
            if expected is None:
                with pytest.raises(DanglingDeletion):
                    pullback_complement(R, d)
                dangling += 1
                continue
            T = pullback_complement(R, d)
            assert (T.nodes, T.arrows) == expected
            assert "_incidence" not in vars(host)
            assert vars(D)["_incidence"] == Graph(D.name, D.nodes, D.arrows)._incidence
            assert_valid_with_carried_incidence(T)
            copied += D.arrows != host.arrows
            applied += 1
        assert dangling > 0 and copied > 0

    @pytest.mark.parametrize("built", [False, True])
    def test_dangling_message_names_the_smallest_orphan_a_scan_finds(self, built):
        rng = random.Random(67)
        named = 0
        while named < 60:
            host = random_graph(rng, "S", 8)
            if built:
                host.incident("n0")
            I = random_graph(rng, "I", 4)
            L = Graph("L", *random_subgraph_pair(rng, I))
            R = Graph("R", L.nodes & random_subgraph_pair(rng, I)[0], frozenset())
            m = random_total_morphism(rng, L, host)
            if m is None:
                continue
            _, d = pushout(I, m)
            gone = {d.node_map[n] for n in I.nodes - R.nodes}
            if gone & {d.node_map[n] for n in R.nodes}:
                continue  # refused as non-injective before any orphan is sought
            orphans = brute_force_orphans(R, I, d)
            if not orphans:
                pullback_complement(R, d)
                continue
            with pytest.raises(DanglingDeletion) as err:
                pullback_complement(R, d)
            assert str(err.value) == (
                f"deleting a node would orphan surviving arrow {orphans[0]!r}"
            )
            named += 1


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

    def test_factors_that_do_not_meet_are_rejected(self):
        A, B, C = g("A", ["a"]), g("B", ["b"]), g("C", ["b"])
        f = PartialMorphism(A, B, {"a": "b"}, {})
        h = PartialMorphism(C, A, {"b": "a"}, {})
        with pytest.raises(GraphMismatch, match="^cannot compose through B and C$"):
            compose_partial(f, h)


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


def _random_plan_input(rng: random.Random):
    """A pattern for `search_plan`: up to 6 nodes in shuffled order, arrows with loops,
    parallel arrows and, now and then, an end outside the nodes, in shuffled order; nothing
    bound, a bound node, a bound arrow with its ends, or a few bound nodes; and sizes drawn
    from a small range, so that they tie, or none."""
    names = [f"n{i}" for i in range(rng.randint(0, 6))]
    rng.shuffle(names)
    ends = names + (["out"] if rng.random() < 0.15 else [])
    arrows = []
    for i in range(rng.randint(0, 8) if ends else 0):
        s, t = rng.choice(ends), rng.choice(ends)
        if rng.random() < 0.15:
            t = s  # a loop
        a = (s, f"a{i % 3}", t)
        arrows.append((a, s, t))
    rng.shuffle(arrows)
    kind = rng.randrange(4)
    if kind == 1 and names:
        bound = [rng.choice(names)]
    elif kind == 2 and arrows:
        a, s, t = rng.choice(arrows)
        bound = [a, s, t]
    elif kind == 3:
        bound = rng.sample(names, rng.randint(0, len(names)))
    else:
        bound = []
    sizes = {n: rng.randint(0, 3) for n in names}
    size = sizes.get if rng.random() < 0.5 else None
    return names, arrows, bound, size


def test_search_plan_matches_the_rescanning_reference():
    # the planner that keeps each node's arrows gives the plan, or None, of
    # the one that rescans every waiting arrow for every node at every step
    rng = random.Random(1996)
    seen = dict.fromkeys(
        ["size ties", "no size", "none", "outside", "loop", "bound arrow", "bound node"], 0
    )
    for _ in range(6000):
        nodes, arrows, bound, size = _random_plan_input(rng)
        want = reference_search_plan(nodes, arrows, bound, size)
        assert search_plan(nodes, arrows, bound, size) == want
        free = [n for n in nodes if n not in bound]
        seen["size ties"] += size is not None and len({size(n) for n in free}) < len(free)
        seen["no size"] += size is None
        seen["none"] += want is None
        seen["outside"] += any("out" in (s, t) for _, s, t in arrows)
        seen["loop"] += any(s == t for _, s, t in arrows)
        seen["bound arrow"] += any(isinstance(b, tuple) for b in bound)
        seen["bound node"] += any(not isinstance(b, tuple) for b in bound)
    assert min(seen.values()) >= 200, seen
