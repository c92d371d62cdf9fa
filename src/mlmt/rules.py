"""MCMT rules and their textual DSL.

A rule module is a text of the form::

    rules Name {
      rule R {
        meta { X : T mm1 ... a = X -> Y ... }
        from { x : X ... }
        to   { x : X ... }
      }
    }

META declarations introduce pattern elements over the levels of a typing
chain ("T mm k" reads: typed by T, which lives at META level k; a `$` on the
type marks the declared element as a constant, matched by name).  Type names
used at a META level without being declared there are synthesised as implicit
constants.  FROM is the left-hand pattern, TO the right-hand one; an element
present only in FROM is deleted, one present only in TO is created.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cached_property
from itertools import product
from typing import Dict, List, Optional, Set, Tuple, Union

from .errors import (
    DuplicateDeclaration,
    ParseError,
    UnresolvedReference,
)
from .graphs import Arrow, Graph, Record, build_graph

NODE = "node"
ARROW = "arrow"


class MetaElement(Record):
    """One declaration in the META pattern chain: `level` is the META level
    the element lives at (>= 1), `kind` is node or arrow, `type_name` is None
    for implicit constants, and an arrow's `source` and `target` name its
    endpoints at the same level."""

    def __init__(self, name: str, level: int, kind: str, type_name: Optional[str],
                 type_level: int, constant: bool = False, source: Optional[str] = None,
                 target: Optional[str] = None, potency: Optional[Tuple[int, int]] = None,
                 multiplicity: Optional[Tuple[int, Optional[int]]] = None, implicit: bool = False):
        self.__dict__.update(
            name=name, level=level, kind=kind, type_name=type_name, type_level=type_level,
            constant=constant, source=source, target=target, potency=potency,
            multiplicity=multiplicity, implicit=implicit,
        )


class PatternElement(Record):
    """One FROM/TO declaration, typed by a META element."""

    def __init__(self, name: str, type_name: str, type_level: int, kind: str,
                 source: Optional[str] = None, target: Optional[str] = None):
        self.__dict__.update(name=name, type_name=type_name, type_level=type_level, kind=kind,
                             source=source, target=target)


def element_key(e) -> Union[str, Arrow]:
    """The graph key of a META or pattern element: a node's name, or an
    arrow's (source, name, target)."""
    return e.name if e.kind == NODE else (e.source, e.name, e.target)


class RulePattern(Record):
    def __init__(self, elements: Tuple[PatternElement, ...] = ()):
        self.__dict__.update(elements=elements)

    def nodes(self) -> List[PatternElement]:
        return [e for e in self.elements if e.kind == NODE]

    def arrows(self) -> List[PatternElement]:
        return [e for e in self.elements if e.kind == ARROW]

    def by_name(self) -> Dict[str, PatternElement]:
        return {e.name: e for e in self.elements}

    def graph(self, name: str) -> Graph:
        return build_graph(
            name,
            [e.name for e in self.nodes()],
            [element_key(e) for e in self.arrows()],
        )


MetaTable = Dict[Union[str, Tuple[str, int]], MetaElement]


def _meta_table(elements: Tuple[MetaElement, ...]) -> MetaTable:
    """(name, level) -> META element, and name -> the element of that name at
    the highest level; where two elements share a key, the first declared,
    explicit before implicit, wins."""
    table: MetaTable = {}
    for e in elements:
        table.setdefault((e.name, e.level), e)
        top = table.get(e.name)
        if top is None or e.level > top.level:
            table[e.name] = e
    return table


def _lookup(table: MetaTable, name: str, level: Optional[int] = None) -> MetaElement:
    e = table.get(name if level is None else (name, level))
    if e is None:
        at = "" if level is None else f" at level {level}"
        raise UnresolvedReference(f"no META element {name!r}{at}")
    return e


class McmtRule(Record):
    def __init__(self, name: str, meta_elements: Tuple[MetaElement, ...] = (),
                 implicit_elements: Tuple[MetaElement, ...] = (),
                 from_pattern: RulePattern = RulePattern(), to_pattern: RulePattern = RulePattern()):
        # `meta_elements` are the explicit ones, in declaration order
        self.__dict__.update(name=name, meta_elements=meta_elements,
                             implicit_elements=implicit_elements, from_pattern=from_pattern,
                             to_pattern=to_pattern)

    @property
    def depth(self) -> int:
        return max((e.level for e in self._meta_table.values()), default=0)

    def meta_at(self, level: int) -> List[MetaElement]:
        return [
            e
            for e in self.meta_elements + self.implicit_elements
            if e.level == level
        ]

    @cached_property
    def _meta_table(self) -> MetaTable:
        return _meta_table(self.meta_elements + self.implicit_elements)

    def meta_element(self, name: str, level: Optional[int] = None) -> MetaElement:
        """The META element `name` at `level`, or, without a level, the one of
        that name at the highest level; raises UnresolvedReference if none."""
        return _lookup(self._meta_table, name, level)

    @cached_property
    def _type_profiles(self) -> Dict[Tuple[str, int], Tuple[Dict[int, str], int]]:
        return {}

    def type_profile(self, name: str, level: int) -> Tuple[Dict[int, str], int]:
        """The type profile of the META element (name, level), derived once per rule.

        A profile is (anchors, floor): anchors maps a META level to the name of
        the element's META type chain there; floor is the lowest META level the
        chain reaches: 0 at the root, higher when it ends at an implicit constant.
        """
        profiles = self._type_profiles
        if (name, level) not in profiles:
            chain = type_chain(self, self.meta_element(name, level))
            anchors = {c.level: c.name for c in chain}
            last = chain[-1]
            if last.type_name is not None and last.type_level == 0:
                anchors[0] = last.type_name
                profiles[name, level] = (anchors, 0)
            else:
                profiles[name, level] = (anchors, last.level)
        return profiles[name, level]


class McmtModule(Record):
    def __init__(self, name: str, rules: Tuple[McmtRule, ...] = ()):
        self.__dict__.update(name=name, rules=rules)


# ---------------------------------------------------------------------------
# lexing / parsing

# a token, then the whitespace and `//` comments after it, so that every match
# yields a token; `_SKIP_RE` skips those before the first one
_TOKEN_RE = re.compile(
    r"""(?: (?P<id>[A-Za-z_][A-Za-z0-9_]*)
          | (?P<int>[0-9]+)
          | (?P<sym>->|[{}:=@$\-])
          | (?P<bad>.)
        ) \s* (?: //[^\n]* \s* )*
    """,
    re.VERBOSE | re.DOTALL,
)
_SKIP_RE = re.compile(r"\s*(?://[^\n]*\s*)*")
_LEVEL_RE = re.compile(r"mm[0-9]+")

_Tok = Tuple[str, str, int]  # kind (id | int | sym | bad | eof), text, offset into the text


def _tokenize(text: str) -> List[_Tok]:
    """The (kind, text, offset) tokens of `text`, ending in an `eof` token at
    its end.

    Whitespace and `//` comments are dropped: each match takes one token and
    what follows it up to the next.  Any character that starts no token
    becomes a `bad` token, which the parser rejects before it reads anything.
    `_Parser` turns an offset into a line and column only where it reports one.
    """
    tokens = [
        (m.lastgroup, m[m.lastgroup], m.start())
        for m in _TOKEN_RE.finditer(text, _SKIP_RE.match(text).end())
    ]
    tokens.append(("eof", "", len(text)))
    return tokens


class _RawDecl:
    def __init__(self, name: str, type_name: str, constant: bool, mm: Optional[int],
                 potency: Optional[Tuple[int, int]], line: int):
        self.name, self.type_name, self.constant = name, type_name, constant
        self.mm, self.potency, self.line = mm, potency, line  # `mm` is filled in if absent


class _RawAssign:
    def __init__(self, name: str, source: str, target: str, line: int):
        self.name, self.source, self.target, self.line = name, source, target, line


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        # the offset each line starts at; only "\n" starts a line
        self.line_starts = [0, *(m.end() for m in re.finditer("\n", text))]
        for tok in self.tokens:
            if tok[0] == "bad":
                self.fail(f"unexpected character {tok[1]!r}", tok)

    def line(self, tok: _Tok) -> int:
        return bisect_right(self.line_starts, tok[2])

    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def next(self) -> _Tok:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[_Tok] = None):
        tok = tok or self.peek()
        line = self.line(tok)
        raise ParseError(message, line, tok[2] - self.line_starts[line - 1] + 1)

    def expected(self, what: str, tok: _Tok):
        self.fail(f"expected {what}, found {tok[1] or 'end of file'!r}", tok)

    def expect(self, text: str) -> _Tok:
        tok = self.next()
        if tok[1] != text:
            self.expected(repr(text), tok)
        return tok

    def ident(self, what: str) -> _Tok:
        tok = self.next()
        if tok[0] != "id":
            self.expected(what, tok)
        return tok

    def integer(self, tok: _Tok, digits: str, what: str) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than the interpreter converts
            self.fail(f"{what} has too many digits", tok)

    def bound(self, tok: _Tok) -> int:
        if tok[0] != "int":
            self.fail("expected potency bound", tok)
        return self.integer(tok, tok[1], "potency bound")

    def module(self) -> McmtModule:
        self.expect("rules")
        name = self.ident("module name")[1]
        self.expect("{")
        rules, first_line = [], {}
        while self.peek()[1] != "}":
            line = self.line(self.peek())
            rule = self.rule()
            if rule.name in first_line:
                raise DuplicateDeclaration(
                    f"{name}: rule {rule.name!r} declared twice (line {line}, "
                    f"first at line {first_line[rule.name]})"
                )
            first_line[rule.name] = line
            rules.append(rule)
        self.expect("}")
        if self.peek()[0] != "eof":
            self.fail("trailing input after module")
        return McmtModule(name, tuple(rules))

    def rule(self) -> McmtRule:
        self.expect("rule")
        name = self.ident("rule name")[1]
        self.expect("{")
        self.expect("meta")
        meta = self.block(True)
        self.expect("from")
        frm = self.block(False)
        self.expect("to")
        to = self.block(False)
        self.expect("}")
        return _elaborate(name, meta, frm, to)

    def block(self, meta: bool) -> List[object]:
        """The declarations and assignments of a `{ ... }` block; only a
        `meta` block's declarations may carry `$`, `mm k` or a potency.

        One loop over the tokens, indexed by a local position: a block holds
        most of a module's tokens."""
        self.expect("{")
        tokens, i = self.tokens, self.pos
        items: List[object] = []
        while True:
            name_tok = tokens[i]
            if name_tok[1] == "}":
                break
            if name_tok[0] != "id":
                self.expected("declaration name", name_tok)
            sep = tokens[i + 1]
            i += 2
            if sep[1] == ":":
                type_tok = tokens[i]
                if type_tok[0] != "id":
                    self.expected("type name", type_tok)
                i += 1
                extra = tokens[i]
                constant = extra[1] == "$"
                if constant:
                    i += 1
                kind, text, _ = tok = tokens[i]
                level = kind == "id" and _LEVEL_RE.fullmatch(text)
                if not meta and (constant or level or text == "@"):
                    self.fail("a META level, '$' or potency belongs in the meta block", extra)
                mm: Optional[int] = None
                if level:
                    i += 1
                    mm = self.integer(tok, text[2:], "META level")
                potency: Optional[Tuple[int, int]] = None
                if tokens[i][1] == "@":
                    lo_tok = tokens[i + 1]
                    lo = hi = self.bound(lo_tok)
                    i += 2
                    if tokens[i][1] == "-":
                        hi = self.bound(tokens[i + 1])
                        i += 2
                        if lo > hi:
                            self.fail(f"potency {lo}-{hi}: min exceeds max", lo_tok)
                    potency = (lo, hi)
                items.append(
                    _RawDecl(name_tok[1], type_tok[1], constant, mm, potency, self.line(name_tok))
                )
            elif sep[1] == "=":
                src = tokens[i]
                if src[0] != "id":
                    self.expected("arrow source", src)
                if tokens[i + 1][1] != "->":
                    self.expected("'->'", tokens[i + 1])
                tgt = tokens[i + 2]
                if tgt[0] != "id":
                    self.expected("arrow target", tgt)
                i += 3
                items.append(_RawAssign(name_tok[1], src[1], tgt[1], self.line(name_tok)))
            else:
                self.fail("expected ':' or '=' after name", sep)
        self.pos = i + 1
        return items


def parse_rule_module(text: str) -> McmtModule:
    return _Parser(text).module()


# ---------------------------------------------------------------------------
# elaboration: raw declarations -> resolved rule


def _split_items(items, where: str):
    decls: List[_RawDecl] = []
    assigns: Dict[str, _RawAssign] = {}
    seen = set()
    for item in items:
        if isinstance(item, _RawDecl):
            if item.name in seen:
                raise DuplicateDeclaration(
                    f"{where}: {item.name!r} declared twice (line {item.line})"
                )
            seen.add(item.name)
            decls.append(item)
        else:
            if item.name in assigns:
                raise DuplicateDeclaration(
                    f"{where}: {item.name!r} assigned twice (line {item.line})"
                )
            assigns[item.name] = item
    for name in assigns:
        if name not in seen:
            raise UnresolvedReference(
                f"{where}: assignment to undeclared {name!r}"
            )
    return decls, assigns


def _elaborate(name, meta_items, from_items, to_items) -> McmtRule:
    meta_decls, meta_assigns = _split_items(meta_items, f"rule {name} meta")

    # fill in missing mm indices by declaration order
    last_mm = 1
    for d in meta_decls:
        if d.mm is None:
            d.mm = last_mm
        last_mm = d.mm

    elements: Dict[Tuple[str, int], MetaElement] = {}
    levels: Dict[str, Set[int]] = {}  # the levels of the elements of each name
    order: List[MetaElement] = []
    implicit: List[MetaElement] = []

    def add(el: MetaElement):
        elements[(el.name, el.level)] = el
        levels.setdefault(el.name, set()).add(el.level)
        (implicit if el.implicit else order).append(el)

    node_decls = [d for d in meta_decls if d.name not in meta_assigns]
    # pass 1: explicit nodes
    for d in node_decls:
        add(MetaElement(d.name, d.mm + 1, NODE, d.type_name, d.mm, constant=d.constant, potency=d.potency))
    # pass 2: implicit node constants for node types
    for d in node_decls:
        if d.mm >= 1 and (d.type_name, d.mm) not in elements:
            add(MetaElement(d.type_name, d.mm, NODE, None, d.mm - 1, constant=True, implicit=True))
    # pass 3: explicit arrows, at the highest level that has both endpoints (a
    # level with an element has a node: passes 1-3 place each arrow at a node's level)
    arrows: List[Tuple[_RawDecl, MetaElement]] = []
    for d in meta_decls:
        if d.name not in meta_assigns:
            continue
        asg = meta_assigns[d.name]
        shared = levels.get(asg.source, set()) & levels.get(asg.target, set())
        if not shared:
            raise UnresolvedReference(
                f"rule {name}: endpoints of {d.name!r} not declared "
                f"(line {asg.line})"
            )
        el = MetaElement(
            d.name, max(shared), ARROW, d.type_name, d.mm,
            constant=d.constant, source=asg.source, target=asg.target, potency=d.potency,
        )
        add(el)
        arrows.append((d, el))
    # pass 4: implicit arrow constants for arrow types
    for d, el in arrows:
        if d.mm < 1 or (d.type_name, d.mm) in elements:
            continue
        src_el = elements.get((el.source, el.level))
        tgt_el = elements.get((el.target, el.level))
        if src_el is None or tgt_el is None or src_el.type_name is None or tgt_el.type_name is None:
            raise UnresolvedReference(
                f"rule {name}: cannot infer endpoints of implicit type "
                f"{d.type_name!r} at level {d.mm}"
            )
        add(
            MetaElement(
                d.type_name, d.mm, ARROW, None, d.mm - 1,
                constant=True, implicit=True,
                source=src_el.type_name, target=tgt_el.type_name,
            )
        )

    table = _meta_table(tuple(order + implicit))
    from_pattern = _elaborate_pattern(table, from_items, f"rule {name} from")
    to_pattern = _elaborate_pattern(table, to_items, f"rule {name} to")

    # shared names must agree between FROM and TO
    from_by = from_pattern.by_name()
    for e in to_pattern.elements:
        if e.name in from_by and from_by[e.name] != e:
            raise DuplicateDeclaration(
                f"rule {name}: {e.name!r} differs between from and to"
            )
    rule = McmtRule(name, tuple(order), tuple(implicit), from_pattern, to_pattern)
    rule.__dict__["_meta_table"] = table  # its cached META table, built from the same elements
    return rule


def _elaborate_pattern(table, items, where: str) -> RulePattern:
    decls, assigns = _split_items(items, where)
    elements: List[PatternElement] = []
    node_names = set()
    for d in decls:
        meta = _lookup(table, d.type_name)
        asg = assigns.get(d.name)
        if meta.kind == ARROW and asg is None:
            raise UnresolvedReference(
                f"{where}: {d.name!r} typed by arrow {d.type_name!r} "
                "needs an endpoint assignment"
            )
        if meta.kind == NODE and asg is not None:
            raise UnresolvedReference(
                f"{where}: {d.name!r} typed by node {d.type_name!r} "
                "cannot have endpoints"
            )
        if asg is None:
            elements.append(
                PatternElement(d.name, meta.name, meta.level, NODE)
            )
            node_names.add(d.name)
        else:
            elements.append(
                PatternElement(
                    d.name, meta.name, meta.level, ARROW, asg.source, asg.target
                )
            )
    for e in elements:
        if e.kind == ARROW and (
            e.source not in node_names or e.target not in node_names
        ):
            raise UnresolvedReference(
                f"{where}: endpoints of {e.name!r} not declared in this block"
            )
    return RulePattern(tuple(elements))


# ---------------------------------------------------------------------------
# validation


def type_chain(rule: McmtRule, element: MetaElement) -> List[MetaElement]:
    """The element followed by its META types down toward the root.

    A META type lies on a strictly lower META level than the element it
    types, so the chain ends at the first step that does not go down: at the
    root, at an implicit constant, or where a rule types an element at or
    below its own level, which `validate_rule` reports.
    """
    chain = [element]
    cur = element
    while cur.type_name is not None and 1 <= cur.type_level < cur.level:
        cur = rule.meta_element(cur.type_name, cur.type_level)
        chain.append(cur)
    return chain


def root_type(root_graph: Graph, el: MetaElement) -> List[Union[str, Arrow]]:
    """The root elements the level-0 type name of `el` names: for a node type the root node of
    that name, for an arrow type every root arrow with that label.  It resolves only when there
    is exactly one."""
    if el.kind == NODE:
        return [el.type_name] if el.type_name in root_graph.nodes else []
    return [a for a in root_graph.arrows if a[1] == el.type_name]


def validate_rule(rule: McmtRule, root_graph: Optional[Graph] = None) -> List[str]:
    """The problems of `rule`.  Without a root graph every check runs but the one that level-0
    type names name root elements.  A rule with an empty meta block has only its MetaEmpty
    problem."""
    if not rule.meta_elements:
        return [f"{rule.name}: MetaEmpty — the meta block must contain a pattern"]
    report: List[str] = []
    for el in rule.meta_elements + rule.implicit_elements:
        if el.type_level >= el.level:
            report.append(
                f"{rule.name}: {el.name!r} typed at level {el.type_level}, "
                f"not above its own level {el.level}"
            )
        if root_graph is not None and el.type_name is not None and el.type_level == 0:
            found = root_type(root_graph, el)
            if not found:
                report.append(f"{rule.name}: {el.name!r} references unknown root type {el.type_name!r}")
            elif len(found) > 1:
                report.append(f"{rule.name}: {el.name!r} references root arrow type "
                              f"{el.type_name!r}, which labels {len(found)} root arrows")
        if el.type_name is not None and el.type_level >= 1:
            try:
                ty = rule.meta_element(el.type_name, el.type_level)
            except UnresolvedReference:
                report.append(
                    f"{rule.name}: type {el.type_name!r} of {el.name!r} missing "
                    f"at level {el.type_level}"
                )
                continue
            if ty.kind != el.kind:
                report.append(
                    f"{rule.name}: {el.name!r} ({el.kind}) typed by "
                    f"{ty.name!r} ({ty.kind})"
                )
    for pattern, which in ((rule.from_pattern, "from"), (rule.to_pattern, "to")):
        by_name = pattern.by_name()
        for e in pattern.arrows():
            ty = rule.meta_element(e.type_name, e.type_level)
            for end_name, ty_end in ((e.source, ty.source), (e.target, ty.target)):
                end = by_name[end_name]
                end_ty = rule.meta_element(end.type_name, end.type_level)
                anchor_names = {c.name for c in type_chain(rule, end_ty)}
                if ty_end not in anchor_names:
                    report.append(
                        f"{rule.name}/{which}: TypingIncompatibility — "
                        f"endpoint {end_name!r} of {e.name!r} is typed "
                        f"{end.type_name!r}, but {e.type_name!r} expects "
                        f"{ty_end!r}"
                    )
    return report


# ---------------------------------------------------------------------------
# cardinality expansion


def expand_cardinalities(
    rule: McmtRule,
    bound_multiplicities: Dict[Tuple[int, str], Tuple[int, Optional[int]]],
) -> List[McmtRule]:
    """Replicate pattern elements per the bound multiplicities.

    `bound_multiplicities` maps (level, META arrow name) to the multiplicity
    interval of the stack arrow the META arrow was bound to.  Every bounded
    interval l..u contributes one rule copy per value in [l, u]; within a
    copy for value v, the instances attached through the META arrow (the
    targets of pattern arrows typed by it) are replicated v times together
    with their incident pattern arrows.  Unbounded intervals are ignored.
    """
    bounded = [
        (key, (lo, hi))
        for key, (lo, hi) in sorted(bound_multiplicities.items())
        if hi is not None
    ]
    if not bounded:
        return [rule]
    value_ranges = [range(lo, hi + 1) for _, (lo, hi) in bounded]
    out = []
    for values in product(*value_ranges):
        expanded = rule
        for ((level, arrow_name), _), v in zip(bounded, values):
            expanded = _replicate(expanded, rule.meta_element(arrow_name, level), v)
        out.append(expanded)
    return out


def _replicate(rule: McmtRule, meta: MetaElement, v: int) -> McmtRule:
    targets = {
        e.target
        for pat in (rule.from_pattern, rule.to_pattern)
        for e in pat.arrows()
        if e.type_name == meta.name and e.type_level == meta.level
    }
    if not targets or v == 1:
        return rule

    def copy(e: PatternElement, i: int) -> PatternElement:
        # copy 0 is the element itself; copy i marks its name and each replicated end
        if i == 0:
            return e
        source = f"{e.source}${i}" if e.source in targets else e.source
        target = f"{e.target}${i}" if e.target in targets else e.target
        return PatternElement(f"{e.name}${i}", e.type_name, e.type_level, e.kind, source, target)

    def expand(pattern: RulePattern) -> RulePattern:
        nodes = [copy(e, i) for e in pattern.nodes() for i in (range(v) if e.name in targets else (0,))]
        arrows = [
            copy(e, i)
            for e in pattern.arrows()
            for i in (range(v) if e.source in targets or e.target in targets else (0,))
        ]
        return RulePattern(tuple(nodes + arrows))

    return McmtRule(
        rule.name, rule.meta_elements, rule.implicit_elements,
        expand(rule.from_pattern), expand(rule.to_pattern),
    )


# ---------------------------------------------------------------------------
# canonical printing


def _format_decl(el_name: str, type_name: str, constant: bool, mm: int, potency) -> str:
    text = f"{el_name} : {type_name}"
    if constant:
        text += "$"
    text += f" mm{mm}"
    if potency is not None:
        text += f" @{potency[0]}-{potency[1]}"
    return text


def print_rule_module(module: McmtModule) -> str:
    lines = [f"rules {module.name} {{"]
    for rule in module.rules:
        lines.append(f"  rule {rule.name} {{")
        lines.append("    meta {")
        for el in rule.meta_elements:
            lines.append(
                "      "
                + _format_decl(
                    el.name, el.type_name, el.constant, el.type_level, el.potency
                )
            )
            if el.kind == ARROW:
                lines.append(f"      {el.name} = {el.source} -> {el.target}")
        lines.append("    }")
        for pattern, label in (
            (rule.from_pattern, "from"),
            (rule.to_pattern, "to"),
        ):
            lines.append(f"    {label} {{")
            for e in pattern.elements:
                lines.append(f"      {e.name} : {e.type_name}")
                if e.kind == ARROW:
                    lines.append(f"      {e.name} = {e.source} -> {e.target}")
            lines.append("    }")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
