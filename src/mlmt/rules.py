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
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .errors import (
    DuplicateDeclaration,
    ParseError,
    UnresolvedReference,
)
from .graphs import Arrow, Graph, build_graph

NODE = "node"
ARROW = "arrow"


@dataclass(frozen=True)
class MetaElement:
    """One declaration in the META pattern chain."""

    name: str
    level: int  # META level the element lives at (>= 1)
    kind: str  # node | arrow
    type_name: Optional[str]  # None for implicit constants
    type_level: int
    constant: bool = False
    source: Optional[str] = None  # endpoint names, same level (arrows)
    target: Optional[str] = None
    potency: Optional[Tuple[int, int]] = None
    multiplicity: Optional[Tuple[int, Optional[int]]] = None
    implicit: bool = False


@dataclass(frozen=True)
class PatternElement:
    """One FROM/TO declaration, typed by a META element."""

    name: str
    type_name: str
    type_level: int
    kind: str
    source: Optional[str] = None
    target: Optional[str] = None


def element_key(e) -> Union[str, Arrow]:
    """The graph key of a META or pattern element: a node's name, or an
    arrow's (source, name, target)."""
    return e.name if e.kind == NODE else (e.source, e.name, e.target)


@dataclass(frozen=True)
class RulePattern:
    elements: Tuple[PatternElement, ...] = ()

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


@dataclass(frozen=True)
class McmtRule:
    name: str
    meta_elements: Tuple[MetaElement, ...] = ()  # declaration order, explicit
    implicit_elements: Tuple[MetaElement, ...] = ()
    from_pattern: RulePattern = field(default_factory=RulePattern)
    to_pattern: RulePattern = field(default_factory=RulePattern)

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
    def _meta_table(self) -> Dict[Union[str, Tuple[str, int]], MetaElement]:
        """(name, level) -> META element, and name -> the element of that name
        at the highest level; where two elements share a key, the first
        declared, explicit before implicit, wins."""
        table: Dict[Union[str, Tuple[str, int]], MetaElement] = {}
        for e in self.meta_elements + self.implicit_elements:
            table.setdefault((e.name, e.level), e)
            top = table.get(e.name)
            if top is None or e.level > top.level:
                table[e.name] = e
        return table

    def meta_element(self, name: str, level: Optional[int] = None) -> MetaElement:
        """The META element `name` at `level`, or, without a level, the one of
        that name at the highest level; raises UnresolvedReference if none."""
        e = self._meta_table.get(name if level is None else (name, level))
        if e is None:
            at = "" if level is None else f" at level {level}"
            raise UnresolvedReference(f"no META element {name!r}{at}")
        return e

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


@dataclass(frozen=True)
class McmtModule:
    name: str
    rules: Tuple[McmtRule, ...] = ()


# ---------------------------------------------------------------------------
# lexing / parsing

_TOKEN_RE = re.compile(
    r"""\s+ | //[^\n]*
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<sym>->|[{}:=@$\-])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_LEVEL_RE = re.compile(r"mm[0-9]+")


class _Token(NamedTuple):
    kind: str  # id | int | sym | bad | eof
    text: str
    pos: int  # offset into the text


def _tokenize(text: str) -> List[_Token]:
    """The tokens of `text`, ending in an `eof` token at its end.

    Whitespace and `//` comments are dropped; any character that starts no
    token becomes a `bad` token, which the parser rejects before it reads
    anything.  A token carries its offset; `_Parser` turns an offset into a
    line and column only where it reports one.
    """
    tokens = [_Token(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text) if m.lastgroup]
    tokens.append(_Token("eof", "", len(text)))
    return tokens


@dataclass
class _RawDecl:
    name: str
    type_name: str
    constant: bool
    mm: Optional[int]
    potency: Optional[Tuple[int, int]]
    line: int


@dataclass
class _RawAssign:
    name: str
    source: str
    target: str
    line: int


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        # the offset each line starts at; only "\n" starts a line
        self.line_starts = [0, *(m.end() for m in re.finditer("\n", text))]
        bad = next((tok for tok in self.tokens if tok.kind == "bad"), None)
        if bad is not None:
            self.fail(f"unexpected character {bad.text!r}", bad)

    def line(self, tok: _Token) -> int:
        return bisect_right(self.line_starts, tok.pos)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        line = self.line(tok)
        raise ParseError(message, line, tok.pos - self.line_starts[line - 1] + 1)

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text or 'end of file'!r}", tok)
        return tok

    def ident(self, what: str) -> _Token:
        tok = self.next()
        if tok.kind != "id":
            self.fail(f"expected {what}, found {tok.text or 'end of file'!r}", tok)
        return tok

    def integer(self, tok: _Token, digits: str, what: str) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than the interpreter converts
            self.fail(f"{what} has too many digits", tok)

    def bound(self) -> Tuple[int, _Token]:
        tok = self.next()
        if tok.kind != "int":
            self.fail("expected potency bound", tok)
        return self.integer(tok, tok.text, "potency bound"), tok

    def module(self) -> McmtModule:
        self.expect("rules")
        name = self.ident("module name").text
        self.expect("{")
        rules, first_line = [], {}
        while self.peek().text != "}":
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
        if self.peek().kind != "eof":
            self.fail("trailing input after module")
        return McmtModule(name, tuple(rules))

    def rule(self) -> McmtRule:
        self.expect("rule")
        name = self.ident("rule name").text
        self.expect("{")
        self.expect("meta")
        meta = self.block()
        self.expect("from")
        frm = self.block()
        self.expect("to")
        to = self.block()
        self.expect("}")
        return _elaborate(name, meta, frm, to)

    def block(self) -> List[object]:
        self.expect("{")
        items: List[object] = []
        while self.peek().text != "}":
            name_tok = self.ident("declaration name")
            sep = self.next()
            if sep.text == ":":
                items.append(self.decl(name_tok))
            elif sep.text == "=":
                src = self.ident("arrow source").text
                self.expect("->")
                tgt = self.ident("arrow target").text
                items.append(_RawAssign(name_tok.text, src, tgt, self.line(name_tok)))
            else:
                self.fail("expected ':' or '=' after name", sep)
        self.expect("}")
        return items

    def decl(self, name_tok: _Token) -> _RawDecl:
        type_tok = self.ident("type name")
        constant = False
        if self.peek().text == "$":
            self.next()
            constant = True
        mm: Optional[int] = None
        tok = self.peek()
        if tok.kind == "id" and _LEVEL_RE.fullmatch(tok.text):
            self.next()
            mm = self.integer(tok, tok.text[2:], "META level")
        potency: Optional[Tuple[int, int]] = None
        if self.peek().text == "@":
            self.next()
            lo, lo_tok = self.bound()
            hi = lo
            if self.peek().text == "-":
                self.next()
                hi, _ = self.bound()
                if lo > hi:
                    self.fail(f"potency {lo}-{hi}: min exceeds max", lo_tok)
            potency = (lo, hi)
        return _RawDecl(name_tok.text, type_tok.text, constant, mm, potency, self.line(name_tok))


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
    order: List[MetaElement] = []
    implicit: List[MetaElement] = []

    def add(el: MetaElement):
        elements[(el.name, el.level)] = el
        (implicit if el.implicit else order).append(el)

    node_decls = [d for d in meta_decls if d.name not in meta_assigns]
    # pass 1: explicit nodes
    for d in node_decls:
        add(MetaElement(d.name, d.mm + 1, NODE, d.type_name, d.mm, constant=d.constant, potency=d.potency))
    # pass 2: implicit node constants for node types
    for d in node_decls:
        if d.mm >= 1 and (d.type_name, d.mm) not in elements:
            add(MetaElement(d.type_name, d.mm, NODE, None, d.mm - 1, constant=True, implicit=True))
    # pass 3: explicit arrows, at the highest level with a node that has both endpoints there
    arrows: List[Tuple[_RawDecl, MetaElement]] = []
    for d in meta_decls:
        if d.name not in meta_assigns:
            continue
        asg = meta_assigns[d.name]
        levels = [
            lvl
            for (_, lvl), el in elements.items()
            if el.kind == NODE and (asg.source, lvl) in elements and (asg.target, lvl) in elements
        ]
        if not levels:
            raise UnresolvedReference(
                f"rule {name}: endpoints of {d.name!r} not declared "
                f"(line {asg.line})"
            )
        el = MetaElement(
            d.name, max(levels), ARROW, d.type_name, d.mm,
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

    rule_stub = McmtRule(name, tuple(order), tuple(implicit))
    from_pattern = _elaborate_pattern(rule_stub, from_items, f"rule {name} from")
    to_pattern = _elaborate_pattern(rule_stub, to_items, f"rule {name} to")

    # shared names must agree between FROM and TO
    from_by = from_pattern.by_name()
    for e in to_pattern.elements:
        if e.name in from_by and from_by[e.name] != e:
            raise DuplicateDeclaration(
                f"rule {name}: {e.name!r} differs between from and to"
            )
    return replace(
        rule_stub, from_pattern=from_pattern, to_pattern=to_pattern
    )


def _elaborate_pattern(rule: McmtRule, items, where: str) -> RulePattern:
    decls, assigns = _split_items(items, where)
    elements: List[PatternElement] = []
    node_names = set()
    for d in decls:
        meta = rule.meta_element(d.type_name)
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


def validate_rule(rule: McmtRule, root_graph: Optional[Graph]) -> List[str]:
    """The problems of `rule` against the root graph.  A rule with an empty
    meta block has only its MetaEmpty problem, found without the root graph."""
    if not rule.meta_elements:
        return [f"{rule.name}: MetaEmpty — the meta block must contain a pattern"]
    report: List[str] = []
    root_arrow_labels = {a[1] for a in root_graph.arrows}
    for el in rule.meta_elements + rule.implicit_elements:
        if el.type_level >= el.level:
            report.append(
                f"{rule.name}: {el.name!r} typed at level {el.type_level}, "
                f"not above its own level {el.level}"
            )
        if el.type_name is not None and el.type_level == 0:
            known = root_graph.nodes if el.kind == NODE else root_arrow_labels
            if el.type_name not in known:
                report.append(
                    f"{rule.name}: {el.name!r} references unknown root "
                    f"type {el.type_name!r}"
                )
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
            expanded = _replicate(expanded, level, arrow_name, v)
        out.append(expanded)
    return out


def _replicate(rule: McmtRule, level: int, arrow_name: str, v: int) -> McmtRule:
    meta = rule.meta_element(arrow_name, level)
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
        return replace(e, name=f"{e.name}${i}", source=source, target=target)

    def expand(pattern: RulePattern) -> RulePattern:
        nodes = [copy(e, i) for e in pattern.nodes() for i in (range(v) if e.name in targets else (0,))]
        arrows = [
            copy(e, i)
            for e in pattern.arrows()
            for i in (range(v) if e.source in targets or e.target in targets else (0,))
        ]
        return RulePattern(tuple(nodes + arrows))

    return replace(
        rule,
        from_pattern=expand(rule.from_pattern),
        to_pattern=expand(rule.to_pattern),
    )


# ---------------------------------------------------------------------------
# canonical printing


def _format_decl(el_name: str, type_name: str, constant: bool,
                 mm: Optional[int], potency) -> str:
    text = f"{el_name} : {type_name}"
    if constant:
        text += "$"
    if mm is not None:
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
