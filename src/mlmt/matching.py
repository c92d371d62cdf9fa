"""Matching META patterns against typing chains, and rule proliferation.

The META pattern chain of an MCMT rule is matched level by level against the
typing chain above a target model: a strictly monotone level map plus one
injective, type-consistent binding per META level.  Each complete match
turns the rule into concrete two-level rules by substituting the bound types
and expanding bounded multiplicities.  The `TypeIndex` that both this META
matching and the engine's typed matching draw their candidates from lives
here too, next to the level-type profiles it indexes; one proliferation
call, for one rule or a rule set, builds one per stack model it searches.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import UnresolvedReference
from .graphs import Arrow, Graph, Record, group_by_end, injective_matches, search_plan
from .hierarchy import (
    ElementInfo,
    ElementKey,
    ModelNode,
    MultilevelHierarchy,
    TypeRef,
    transitive_type_at,
)
from .rules import (
    ARROW,
    NODE,
    McmtRule,
    MetaElement,
    expand_cardinalities,
    root_type,
)


class MetaMatch(Record):
    """A complete match of a META chain into a typing chain: the level map (meta level -> stack
    level) and the per-level bindings (meta level -> META element name -> image), as the search
    built them.  Matches found along one search branch, and the rules compiled from them (as
    `source_match`), share these dicts, so they are read-only.  Equality is dict equality, so it
    ignores insertion order; a `MetaMatch` is not hashable."""

    def __init__(self, level_map: Dict[int, int], bindings: Dict[int, Dict[str, ElementKey]]):
        self.__dict__.update(level_map=level_map, bindings=bindings)

    def f(self, meta_level: int) -> int:
        return self.level_map[meta_level]

    def binding(self, meta_level: int) -> Dict[str, ElementKey]:
        """The bindings of one META level; shared, so read-only."""
        return self.bindings[meta_level]


def _root_binding(rule: McmtRule, root: ModelNode) -> Dict[str, ElementKey]:
    """The trivial level-0 binding: root type names resolve by name (`root_type`)."""
    binding: Dict[str, ElementKey] = {}
    for el in rule.meta_elements + rule.implicit_elements:
        if el.type_name is None or el.type_level != 0:
            continue
        found = root_type(root.graph, el)
        if len(found) != 1 and el.kind == NODE:
            raise UnresolvedReference(f"{rule.name}: unknown root type {el.type_name!r}")
        if len(found) != 1:
            raise UnresolvedReference(
                f"{rule.name}: root arrow type {el.type_name!r} not uniquely resolvable"
            )
        binding[el.type_name] = found[0]
    return binding


def _meta_profile(
    rule: McmtRule,
    meta_el: MetaElement,
    level_map: Dict[int, int],
    bindings: Dict[int, Dict[str, ElementKey]],
) -> Tuple[Tuple[int, Optional[ElementKey]], ...]:
    """The types an image of `meta_el` must have at the stack levels of the META levels below its
    own, top down: the binding of its META type chain there, or None where the chain skips."""
    anchors, floor = rule.type_profile(meta_el.name, meta_el.level)
    return tuple(
        (level_map[k], bindings[k][anchors[k]] if k in anchors else None)
        for k in range(meta_el.level - 1, floor - 1, -1)
    )


def _element_satisfies(meta_el: MetaElement, model: ModelNode, candidate: ElementKey) -> bool:
    """The potency and multiplicity a META element asks of its image."""
    if meta_el.potency is not None:
        lo, hi = model.info_for(candidate).potency
        if not (lo <= meta_el.potency[0] and meta_el.potency[1] <= hi):
            return False
    if meta_el.multiplicity is not None:
        if not isinstance(candidate, tuple):
            return False
        target_mult = model.info_for(candidate).multiplicity or (0, None)
        lo, hi = meta_el.multiplicity
        if target_mult[0] > lo:
            return False
        if target_mult[1] is not None and (hi is None or hi > target_mult[1]):
            return False
    return True


class TypeIndex:
    """The elements of a model that carry each level-type profile.

    A profile is a tuple of (level, type) pairs, None asking that the element be untyped there.
    Above its model an element has its direct type's types, as that lies higher, so a profile is
    decided once per direct type (the alpha network of RETE).  `by_ends` joins an arrow profile
    with the profiles of its ends, groups the joined arrows under each end, and drops an end whose
    group empties, so an end is a key exactly while a joined arrow touches it.  In `run` a step
    only deletes and creates elements of the bottom model, and the survivors keep their types:
    `step` updates by that delta the candidate sets and the joined arrows of the profiles each
    element carries, and reports the joined groups each created arrow enters (the beta network).
    Each kind and direct type's memberships are resolved once per index, and again only after a
    new profile or join is asked of it: `held` lists, for the profiles asked so far that the type
    holds, the live candidate set its elements enter, whether the profile constrains the model's
    own level (so each element is tested against it), and the profile's joins.  `joined` keeps
    each join with the two end candidate sets it reads and the groups it writes, so an update
    reads an element's info once and looks up no set by its key.  All META searches of one
    proliferation call read one index per stack model, and never change its sets.  `filtered` keeps
    for those searches the candidates of each profile that pass a META element's test, keyed by
    (kind, profile, constant name or None, potency, multiplicity), so rules and levels that ask the
    same test share one set, which no one may change.  `run`'s own index of its target model is the
    one that `step` changes, and no META search reads it."""

    def __init__(self, h: MultilevelHierarchy, model: ModelNode):
        self.h, self.model, self.found, self.ends, self.filtered = h, model, {}, {}, {}
        # (kind, direct type) -> (profile, candidate set, own-level flag, joins) per profile held
        self.held: Dict[Tuple[bool, TypeRef], List[tuple]] = {}
        # arrow profile -> its `by_ends` keys, each with its ends' candidate sets and its groups
        self.joined: Dict[tuple, List[Tuple[tuple, Set[ElementKey], Set[ElementKey], dict]]] = {}
        self.groups: Dict[Tuple[bool, TypeRef], Set[ElementKey]] = {}
        for e in (*model.graph.nodes, *model.graph.arrows):
            self.groups.setdefault((isinstance(e, tuple), model.info_for(e).direct_type), set()).add(e)

    def step(
        self, model: ModelNode, created: Iterable[ElementKey], deleted: Iterable[ElementKey]
    ) -> Dict[ElementKey, List[tuple]]:
        """Move to `model`, which differs from the current one by `created` and `deleted`, and
        return for each created node the profiles asked so far that it carries, and for each
        created arrow the `by_ends` keys, (profile, source profile, target profile), whose groups
        it entered."""
        for e in deleted:
            self._update(e, False)
        self.model = model
        ends_first = sorted(created, key=lambda e: isinstance(e, tuple))
        return {e: self._update(e, True) for e in ends_first}

    def _update(self, e: ElementKey, add: bool) -> List[tuple]:
        """Add `e` to, or remove it from, its group, its candidate sets and its joined arrows;
        returns the profiles an added node carries, or the `by_ends` keys whose groups an added
        arrow entered."""
        kind = isinstance(e, tuple)
        key = (kind, self.model.info_for(e).direct_type)
        change = set.add if add else set.remove
        change(self.groups.setdefault(key, set()), e)
        held = self.held.get(key)
        if held is None:
            n, t = self.model.level, key[1]
            held = self.held[key] = [
                (p, found, any(lvl >= n for lvl, _ in p), self.joined.get(p, ()) if kind else ())
                for (arrows, p), found in self.found.items()
                if arrows == kind and self._holds(t, p)
            ]
        entered = []
        for profile, found, own, joins in held:
            if own and not self._own(e, profile):
                continue
            change(found, e)
            if not kind:
                entered.append(profile)
            for join, sources, targets, groups in joins:
                if add:
                    if e[0] in sources and e[2] in targets:
                        entered.append(join)
                        groups.setdefault(e[0], set()).add(e)
                        groups.setdefault(e[2], set()).add(e)  # once, for a loop
                elif e in groups.get(e[0], ()):
                    for end in (e[0],) if e[0] == e[2] else (e[0], e[2]):
                        groups[end].remove(e)
                        if not groups[end]:
                            del groups[end]
        return entered

    def candidates(self, arrows: bool, profile: tuple) -> Set[ElementKey]:
        """The model's arrows, or nodes, that carry `profile`."""
        key = (arrows, profile)
        if key not in self.found:
            own = any(lvl >= self.model.level for lvl, _ in profile)
            self.found[key] = {
                e
                for (a, t), g in self.groups.items()
                if a == arrows and self._holds(t, profile)
                for e in g
                if not own or self._own(e, profile)
            }
            self.held.clear()
        return self.found[key]

    def by_ends(self, profile: tuple, source: tuple, target: tuple) -> Dict[str, Set[Arrow]]:
        """The arrows that carry `profile` from a node that carries `source` to one that carries
        `target`, grouped under each of their ends."""
        key = (profile, source, target)
        if key not in self.ends:
            sources, targets = self.candidates(False, source), self.candidates(False, target)
            groups = self.ends[key] = group_by_end(
                a for a in self.candidates(True, profile) if a[0] in sources and a[2] in targets
            )
            self.joined.setdefault(profile, []).append((key, sources, targets, groups))
            self.held.clear()
        return self.ends[key]

    def pools(self, pattern: Dict[ElementKey, tuple]) -> tuple:
        """The candidates of each element of `pattern`, a dict from pattern elements to their
        profiles, and the `by_ends` groups of each of its arrows.  Both are the index's own live
        sets, which `step` updates in place, so a caller may keep them across steps."""
        pools = {e: self.candidates(isinstance(e, tuple), p) for e, p in pattern.items()}
        by_ends = {
            a: self.by_ends(p, pattern[a[0]], pattern[a[2]])
            for a, p in pattern.items()
            if isinstance(a, tuple)
        }
        return pools, by_ends

    def _holds(self, t: TypeRef, profile: tuple) -> bool:
        """Whether an element of direct type `t` has the profile's types above the model."""
        n = self.model.level
        up = self.h.model(t[0]).level < n
        return all(want == (transitive_type_at(self.h, *t, lvl) if up else None) for lvl, want in profile if lvl < n)

    def _own(self, e: ElementKey, profile: tuple) -> bool:
        # at level n an element is its own type; below n, untyped
        n = self.model.level
        return all(want == (e if lvl == n else None) for lvl, want in profile if lvl >= n)


def graph_match(
    pattern: Sequence[MetaElement],
    target: ModelNode,
    h: MultilevelHierarchy,
    rule: McmtRule,
    level_map: Dict[int, int],
    bindings: Dict[int, Dict[str, ElementKey]],
    indexes: Optional[Dict[str, TypeIndex]] = None,
) -> List[Dict[str, ElementKey]]:
    """All injective, type- and structure-consistent bindings of one level, in
    lexicographic order of node, then arrow images.  Type checks read only
    lower levels' bindings, so candidates come first.  They come from the
    model's `TypeIndex` in `indexes`, a table the caller's searches share,
    where a missing one is built and kept; each element's pool is the
    index's `filtered` set for its profile and test, built on first ask and
    only read here, by the incidence build and by `injective_matches`."""
    nodes = [el.name for el in pattern if el.kind == NODE]
    ends = [(el.name, el.source, el.target) for el in pattern if el.kind == ARROW]
    if len(nodes) > len(target.graph.nodes) or len(ends) > len(target.graph.arrows):
        return []  # too few elements for an injective image
    indexes = {} if indexes is None else indexes
    index = indexes.get(target.name) or indexes.setdefault(target.name, TypeIndex(h, target))
    pools, filtered = {}, index.filtered
    for el in pattern:
        arrow, profile = el.kind == ARROW, _meta_profile(rule, el, level_map, bindings)
        key = (arrow, profile, el.name if el.constant else None, el.potency, el.multiplicity)
        pool = filtered.get(key)
        if pool is None:
            pool = filtered[key] = {
                c
                for c in index.candidates(arrow, profile)
                if (not el.constant or (c[1] if arrow else c) == el.name)
                and _element_satisfies(el, target, c)
            }
        if not pool:
            return []  # an element with no candidate image
        pools[el.name] = pool
    plan = search_plan(nodes, ends, size=lambda n: len(pools[n]))
    if plan is None:
        return []  # an arrow with an end off this level's nodes
    order = nodes + [a for a, _, _ in ends]
    incidence = {
        a: group_by_end(c for c in pools[a] if c[0] in pools[s] and c[2] in pools[t])
        for a, s, t in ends
    }
    found = injective_matches(order, plan, pools, incidence)
    return [dict(zip(order, m)) for m in found]


def find_meta_matches(
    rule: McmtRule, h: MultilevelHierarchy, target_model: str,
    indexes: Optional[Dict[str, TypeIndex]] = None,
) -> List[MetaMatch]:
    """Every match of the rule's META chain into the typing chain above a
    target model, depth first.

    The root binds META level 0.  Descending a META level also advances the
    stack level, and the stack level may slide further down when the META
    chain is shorter than the stack.  Its levels share one `TypeIndex` per
    stack model, kept in `indexes`, which a caller may share in turn.
    """
    stack = typing_stack(h, target_model)  # root first
    if not stack:  # the root has no typing chain above it
        return []
    depth, found = rule.depth, []
    indexes = {} if indexes is None else indexes
    root = {0: _root_binding(rule, stack[0])}
    if depth == 0:  # no META level below the root's
        return [MetaMatch({0: 0}, root)]

    def extend(mm_level, tg_level, level_map, bindings) -> None:
        level = mm_level + 1
        pattern = rule.meta_at(level)
        # leave room below for the remaining META levels
        for t in range(tg_level + 1, len(stack) - (depth - level)):
            deeper = {**level_map, level: t}
            found_here = graph_match(pattern, stack[t], h, rule, deeper, bindings, indexes)
            if level == depth:  # each binding of the last META level completes a match
                found.extend([MetaMatch(deeper, {**bindings, level: b}) for b in found_here])
                continue
            for binding in found_here:
                extend(level, t, deeper, {**bindings, level: binding})

    extend(0, 0, {0: 0}, root)
    del extend  # as in `injective_matches`: the search's state goes when it returns
    return found


def typing_stack(h: MultilevelHierarchy, target_model: str) -> List[ModelNode]:
    """The models a target is typed over: its root path, itself excluded."""
    path = h.root_path(target_model)
    return [h.model(name) for name in path[:-1]]


# ---------------------------------------------------------------------------
# proliferation


class TwoLevelRule(Record):
    """A concrete co-span rule produced from an MCMT match.

    Element types are references into the hierarchy; `level_types` pins the
    full transitive-type profile per element across the stack levels, with
    None marking levels where the element must be untyped.
    """

    def __init__(self, name: str, lhs: Graph, interface: Graph, rhs: Graph,
                 types: Dict[ElementKey, TypeRef],
                 level_types: Dict[ElementKey, Tuple[Tuple[int, Optional[ElementKey]], ...]],
                 source_rule: str, source_match: MetaMatch):
        self.__dict__.update(name=name, lhs=lhs, interface=interface, rhs=rhs, types=types,
                             level_types=level_types, source_rule=source_rule,
                             source_match=source_match)

    @cached_property
    def pattern(self) -> Dict[ElementKey, Tuple[Tuple[int, Optional[ElementKey]], ...]]:
        """The left pattern's elements with their level types, in the order a match lists its
        images: nodes sorted, then arrows sorted."""
        order = sorted(self.lhs.nodes) + sorted(self.lhs.arrows)
        return {e: self.level_types[e] for e in order}

    @cached_property
    def pattern_keys(self) -> Tuple[Tuple[str, ...], Tuple[Arrow, ...]]:
        """The node keys and the arrow keys of `pattern`, each in its order."""
        order, n = tuple(self.pattern), len(self.lhs.nodes)
        return order[:n], order[n:]

    @cached_property
    def shown_names(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The names a trace step shows for the elements of `pattern`: its node keys, and its
        arrows' labels in its order."""
        nodes, arrows = self.pattern_keys
        return nodes, tuple([a[1] for a in arrows])

    @cached_property
    def created(self) -> Tuple[ElementKey, ...]:
        """(I \\ L) ∩ R, whose copies a step adds to the model, nodes sorted, then arrows sorted:
        the pullback complement removes the other copies of I \\ L that the pushout glued on."""
        I, L, R = self.interface, self.lhs, self.rhs
        return (*sorted((I.nodes - L.nodes) & R.nodes), *sorted((I.arrows - L.arrows) & R.arrows))

    @cached_property
    def created_infos(self) -> Tuple[ElementInfo, ...]:
        """The `ElementInfo` of each copy of `created`, in its order: the element's type, potency
        1-1 and, for an arrow, multiplicity 0..*.  Records are immutable, so every step that
        applies the rule shares them."""
        return tuple([
            ElementInfo(self.types[x], (1, 1), (0, None) if isinstance(x, tuple) else None)
            for x in self.created
        ])

    @cached_property
    def removed(self) -> Tuple[FrozenSet[str], FrozenSet[Arrow]]:
        """The nodes and the arrows of L \\ R, whose images a step deletes."""
        return self.lhs.nodes - self.rhs.nodes, self.lhs.arrows - self.rhs.arrows


def _variant(expanded: McmtRule, name: str, slots: Dict[Tuple[str, int], int]):
    """The graphs of one cardinality variant, its pattern element keys, and a function that picks
    from a tuple of per-slot values the value of each key's slot, the slot of the META element
    typing it."""
    lhs = expanded.from_pattern.graph(name)
    rhs = expanded.to_pattern.graph(name)
    # the union of two valid graphs is valid: each arrow's ends are in its own graph's nodes
    inter = Graph._trusted(name, lhs.nodes | rhs.nodes, lhs.arrows | rhs.arrows)
    typed_by: Dict[ElementKey, int] = {}
    for e in expanded.to_pattern.elements + expanded.from_pattern.elements:
        key = e.name if e.kind == NODE else (e.source, e.name, e.target)
        typed_by.setdefault(key, slots[e.type_name, e.type_level])
    at = tuple(typed_by.values())
    # `itemgetter` returns a bare value, not a tuple, for one index, and needs at least one
    pick = itemgetter(*at) if len(at) > 1 else lambda values: tuple([values[i] for i in at])
    return lhs, inter, rhs, tuple(typed_by), pick


def _profile_shape(
    rule: McmtRule, meta_el: MetaElement, level_map: Dict[int, int]
) -> Tuple[Tuple[int, Optional[Tuple[int, str]]], ...]:
    """The stack levels that constrain an instance of `meta_el`, top down, each with the (META
    level, name) whose binding the instance must have there, or None where it must be untyped:
    its own level, the levels of its META type chain and the stack levels in between.  It
    depends on the level map, not on the bindings."""
    anchors, floor = rule.type_profile(meta_el.name, meta_el.level)
    top = level_map[meta_el.level]
    shape: Dict[int, Optional[Tuple[int, str]]] = {top: (meta_el.level, meta_el.name)}
    for k in range(meta_el.level - 1, floor - 1, -1):
        shape[level_map[k]] = (k, anchors[k]) if k in anchors else None
    for level in range(level_map[floor], top):
        shape.setdefault(level, None)
    return tuple(sorted(shape.items(), reverse=True))


def _filled(shape, mm_match: MetaMatch) -> Tuple[Tuple[int, Optional[ElementKey]], ...]:
    """An instance profile: a `_profile_shape` with the META match's bindings filled in."""
    bindings = mm_match.bindings
    return tuple([(level, bindings[at[0]][at[1]] if at else None) for level, at in shape])


def instance_profile(
    rule: McmtRule,
    meta_el: MetaElement,
    mm_match: MetaMatch,
) -> Tuple[Tuple[int, Optional[ElementKey]], ...]:
    """Per-stack-level type constraints for an instance of `meta_el`: its own
    binding, its META profile, and untyped at the stack levels in between."""
    return _filled(_profile_shape(rule, meta_el, mm_match.level_map), mm_match)


def proliferate(
    rule: McmtRule, h: MultilevelHierarchy, target_model: str,
    indexes: Optional[Dict[str, TypeIndex]] = None,
) -> List[TwoLevelRule]:
    """Compile one MCMT into concrete two-level rules over a branch.

    The cardinality variants depend only on the bound multiplicities, so each
    distinct set of them is expanded once, and the rules compiled from one
    variant share its graphs; a variant keeps its pattern keys and, per key,
    the slot of the META element typing it.  `graph_match` draws a META
    element's image only from elements whose transitive types at the stack
    levels of its META type chain are the chain's bindings there, and the
    untyped levels of a profile follow from the level map; so each level map
    keeps, per META element, its profile shape and a memo from image to
    instance profile.  A META match then derives each slot's type and
    profile in one pass over the slots, and each rule picks its `types` and
    `level_types` by slot.  The `indexes` table, with the filtered candidate
    pools its indexes keep, may be shared by the calls of one rule set;
    nothing else is kept between calls.
    """
    stack = typing_stack(h, target_model)
    meta_els = {
        (e.type_name, e.type_level): rule.meta_element(e.type_name, e.type_level)
        for e in rule.from_pattern.elements + rule.to_pattern.elements
    }
    slots = {ref: i for i, ref in enumerate(meta_els)}
    metas = rule.meta_elements + rule.implicit_elements
    meta_arrows = [el for el in metas if el.kind == ARROW and el.level >= 1]
    variants: Dict[tuple, list] = {}
    # level map -> per META arrow (level, name, model info), per slot (level, name, model name,
    # profile shape, image -> profile)
    tables: Dict[tuple, tuple] = {}
    out: List[TwoLevelRule] = []
    for mm_match in find_meta_matches(rule, h, target_model, indexes):
        level_map, bindings = mm_match.level_map, mm_match.bindings
        levels = tuple(level_map.values())  # META levels 0..depth, in order
        if levels not in tables:
            tables[levels] = (
                [(el.level, el.name, stack[level_map[el.level]].info) for el in meta_arrows],
                [
                    (el.level, el.name, stack[level_map[el.level]].name, _profile_shape(rule, el, level_map), {})
                    for el in meta_els.values()
                ],
            )
        arrows, table = tables[levels]
        key = tuple([info[bindings[lvl][meta]].multiplicity for lvl, meta, info in arrows])
        variant_list = variants.get(key)
        if variant_list is None:
            bound_mults = {(el.level, el.name): m or (0, None) for el, m in zip(meta_arrows, key)}
            expanded = expand_cardinalities(rule, bound_mults)
            variant_list = variants[key] = [_variant(e, target_model, slots) for e in expanded]
        # each slot's bound type, and its profile from its memo per image
        bound_types, profiles = [], []
        for lvl, meta, model_name, shape, memo in table:
            image = bindings[lvl][meta]
            profile = memo.get(image)
            if profile is None:
                profile = memo[image] = _filled(shape, mm_match)
            bound_types.append((model_name, image))
            profiles.append(profile)
        for lhs, inter, rhs, keys, pick in variant_list:
            out.append(TwoLevelRule(
                f"{rule.name}_{len(out)}", lhs, inter, rhs, dict(zip(keys, pick(bound_types))),
                dict(zip(keys, pick(profiles))), rule.name, mm_match,
            ))
    return out


def proliferate_all(
    rules: Sequence[McmtRule], h: MultilevelHierarchy, target_model: str
) -> Dict[str, List[TwoLevelRule]]:
    """Proliferate a rule set; keyed per source rule for breakdown reports."""
    indexes: Dict[str, TypeIndex] = {}  # one per stack model, for all the rules
    return {rule.name: proliferate(rule, h, target_model, indexes) for rule in rules}


def rule_set_to_json(rules: Sequence[TwoLevelRule]) -> dict:
    def graph_json(g: Graph, types: Dict[ElementKey, TypeRef]) -> dict:
        nodes = [
            {"name": n, "type": f"{types[n][0]}.{types[n][1]}"}
            for n in sorted(g.nodes)
        ]
        arrows = [
            {
                "name": a[1],
                "source": a[0],
                "target": a[2],
                "type": f"{types[a][0]}.{types[a][1][1]}",
            }
            for a in sorted(g.arrows)
        ]
        return {"nodes": nodes, "arrows": arrows}

    return {
        "rules": [
            {
                "name": r.name,
                "lhs": graph_json(r.lhs, r.types),
                "interface": graph_json(r.interface, r.types),
                "rhs": graph_json(r.rhs, r.types),
            }
            for r in rules
        ]
    }
