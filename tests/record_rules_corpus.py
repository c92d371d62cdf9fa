"""Records what parsing, checking and expanding a corpus of rule documents gives.

The corpus is a few hundred seeded documents: the repository's rule fixtures
and the printed forms of seeded `random_mcmt_rule` modules, most of them
mutated.  A character-level mutation inserts a symbol, a tab, `\\r\\n`,
`\\x85`, a non-ASCII letter, a `//` comment or a long `mm` level or potency,
or deletes a few characters; a line-level one duplicates or drops a line,
appends `mm k`, `$` or `@a-b` to a declaration, retypes a declaration by
another name of the document, repeats a declaration or assignment with a
line break after its name, or puts a token after the module.

For each document the fixture holds the SHA-256 of its text and either the
class and message of what `parse_rule_module` raised, with the line and
column of a `ParseError`, or, for a module that parses, the SHA-256 of its
`repr` and of `print_rule_module`, and per rule: its `validate_rule` report
against the PLS root, the SHA-256 of its `meta_element` lookups, its `depth`
and the SHA-256 of what `expand_cardinalities` gives for each META arrow at
each of the bounds in `BOUNDS`.  `test_rules_corpus.py` replays it and asks
for byte-equal results.

Run `PYTHONPATH=src python3 tests/record_rules_corpus.py` from the root of
the repository only when a change is meant to alter what the rule front end
gives.
"""

import hashlib
import json
import os
import random
import re
import sys
from functools import lru_cache

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from mlmt.errors import ParseError  # noqa: E402
from mlmt.hierarchy import load_hierarchy  # noqa: E402
from mlmt.rules import (  # noqa: E402
    ARROW,
    McmtModule,
    expand_cardinalities,
    parse_rule_module,
    print_rule_module,
    validate_rule,
)

from support import random_mcmt_rule  # noqa: E402

CORPUS = os.path.join(HERE, "fixtures", "rules_corpus.json")
SEED = 19
DOCUMENTS = 600
RANDOM_MODULES = 14
BOUNDS = [(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (0, None)]

FIXTURE_FILES = [
    os.path.join(HERE, "..", "fixtures", "pls.mcmt"),
    os.path.join(HERE, "fixtures", "fuzz", "mm_level_digits.mcmt"),
    os.path.join(HERE, "fixtures", "fuzz", "potency_digits.mcmt"),
    os.path.join(HERE, "fixtures", "meta_type_cycle.mcmt"),
    os.path.join(HERE, "fixtures", "pls_scrap.mcmt"),
    os.path.join(HERE, "fixtures", "scrap_machine.mcmt"),
]

INSERTS = ["{", "}", ":", "=", "@", "$", "-", "->", "#", ";", "\t", "\r\n", "\x85", " ", "\n",
           "é", "Ω", "ß", "// note\n", " //", "x"]
NUMBERED = [" mm", "mm", " @", " @1-", "@0-", " "]
DIGITS = [1, 2, 3, 50, 5000]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def base_documents(rng: random.Random) -> list:
    texts = []
    for path in FIXTURE_FILES:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    for m in range(RANDOM_MODULES):
        rules = [
            random_mcmt_rule(rng, depth=rng.randint(1, 4))._replace(name=f"R{i}")
            for i in range(rng.randint(1, 3))
        ]
        texts.append(print_rule_module(McmtModule(f"Random{m}", tuple(rules))))
    return texts


def mutate_chars(rng: random.Random, text: str) -> str:
    pos = rng.randrange(len(text) + 1)
    kind = rng.choice(["insert", "insert", "number", "delete"])
    if kind == "delete":
        return text[:pos] + text[pos + rng.randint(1, 3):]
    if kind == "number":
        piece = rng.choice(NUMBERED) + "".join(rng.choice("0123456789") for _ in range(rng.choice(DIGITS)))
    else:
        piece = rng.choice(INSERTS)
    return text[:pos] + piece + text[pos:]


def mutate_lines(rng: random.Random, text: str) -> str:
    lines = text.split("\n")
    decls = [i for i, line in enumerate(lines) if " : " in line]
    kind = rng.choice(["duplicate", "drop", "level", "level", "constant", "potency", "retype", "wrap", "trailing"])
    i = rng.choice(decls) if kind in ("level", "constant", "potency", "retype") and decls else rng.randrange(len(lines))
    if kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "wrap":
        # a declaration or assignment again, broken before its separator, so
        # that its name and the rest of it are on different lines
        sep = rng.choice([" : ", " = "])
        i = rng.choice([j for j, line in enumerate(lines) if sep in line] or [i])
        name, _, rest = lines[i].partition(sep)
        lines.insert(i + 1, f"{name}\n{sep.strip()} {rest}")
    elif kind == "drop":
        del lines[i]
    elif kind == "level":  # in place of the level the declaration has
        lines[i] = re.sub(r" mm[0-9]+", "", lines[i]) + f" mm{rng.randint(0, 4)}"
    elif kind == "constant":
        lines[i] += " $"
    elif kind == "potency":
        lines[i] += f" @{rng.randint(0, 3)}-{rng.randint(0, 3)}"
    elif kind == "retype":
        # a declaration typed by another name of the document, at any level
        name, _, rest = lines[i].partition(" : ")
        rest = rest.partition(" ")[2] if rng.random() < 0.5 else f"mm{rng.randint(0, 3)}"
        lines[i] = f"{name} : {rng.choice(re.findall(r'[A-Za-z_][A-Za-z0-9_]*', text))} {rest}"
    else:
        lines.append(rng.choice(["}", "rules", "x", "1", "rules More { }"]))
    return "\n".join(lines)


def documents():
    """The corpus texts, in order; the same on every run."""
    rng = random.Random(SEED)
    bases = base_documents(rng)
    texts = []
    for i in range(DOCUMENTS):
        text = bases[i % len(bases)]
        faults = 0 if rng.random() < 0.2 else rng.choice([1, 1, 1, 2, 3])
        for _ in range(faults):
            text = (mutate_chars if rng.random() < 0.5 else mutate_lines)(rng, text)
        texts.append(text)
    return texts


def _attempt(fn, *args):
    """`repr` of what `fn(*args)` returns, or the class and message it raises."""
    try:
        return repr(fn(*args))
    except Exception as err:  # the corpus records what is raised, whatever it is
        return [type(err).__name__, str(err)]


def _lookups(rule) -> list:
    """Every `meta_element` lookup of the names and levels the rule mentions."""
    metas = rule.meta_elements + rule.implicit_elements
    patterns = rule.from_pattern.elements + rule.to_pattern.elements
    names = sorted({e.name for e in metas} | {e.type_name for e in metas + patterns if e.type_name} | {"Nowhere"})
    levels = sorted({e.level for e in metas} | {e.type_level for e in metas} | {0, rule.depth + 1})
    return [[name, _attempt(rule.meta_element, name)] + [_attempt(rule.meta_element, name, lvl) for lvl in levels]
            for name in names]


def _expansions(rule) -> list:
    """`expand_cardinalities` for each META arrow of the rule at each of `BOUNDS`."""
    arrows = [e for e in rule.meta_elements + rule.implicit_elements if e.kind == ARROW]
    return [_attempt(expand_cardinalities, rule, {(e.level, e.name): bound}) for e in arrows for bound in BOUNDS]


@lru_cache(maxsize=None)
def root_graph():
    h = load_hierarchy(os.path.join(HERE, "..", "fixtures", "pls.json"))
    return h.model(h.root).graph


def _report(rule):
    """The `validate_rule` report of the rule against the PLS root, or what it raises."""
    try:
        return validate_rule(rule, root_graph())
    except Exception as err:  # the corpus records what is raised, whatever it is
        return {"raised": [type(err).__name__, str(err)]}


def outcome(text: str) -> dict:
    """What parsing `text` and checking and expanding its rules gives."""
    try:
        module = parse_rule_module(text)
    except ParseError as err:
        return {"doc": sha256(text), "raised": [type(err).__name__, str(err), err.line, err.column]}
    except Exception as err:  # the corpus records what is raised, whatever it is
        return {"doc": sha256(text), "raised": [type(err).__name__, str(err)]}
    rules = [
        {
            "name": rule.name,
            "validate": _report(rule),
            "lookups": sha256(json.dumps(_lookups(rule))),
            "depth": rule.depth,
            "expansions": sha256(json.dumps(_expansions(rule))),
        }
        for rule in module.rules
    ]
    return {"doc": sha256(text), "repr": sha256(repr(module)), "print": sha256(print_rule_module(module)),
            "rules": rules}


def main() -> int:
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump([outcome(t) for t in documents()], fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
