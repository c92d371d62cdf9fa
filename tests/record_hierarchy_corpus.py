"""Records what loading and validating a corpus of hierarchy documents gives.

The corpus is a few hundred seeded documents: the repository's hierarchy
fixtures and varied `random_hierarchy` draws, most of them mutated with
wrong potencies, multiplicities, type references and field kinds, unknown
or off-branch types, bad level jumps, dangling arrow typings, broken
supertypes and parents.  For each document the fixture holds the SHA-256 of
its text and either the class and message of what `parse_hierarchy` or
`validate_hierarchy` raised, or the SHA-256 of `hierarchy_to_json` of the
loaded hierarchy together with `[str(i) for i in validate_hierarchy(h)]`.
`test_hierarchy_corpus.py` replays it and asks for byte-equal results.

Run `PYTHONPATH=src python3 tests/record_hierarchy_corpus.py` from the root
of the repository only when a change is meant to alter what loading or
validation gives.
"""

import copy
import hashlib
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from mlmt.hierarchy import hierarchy_to_json, parse_hierarchy, validate_hierarchy  # noqa: E402

from support import random_hierarchy  # noqa: E402

CORPUS = os.path.join(HERE, "fixtures", "hierarchy_corpus.json")
SEED = 17
DOCUMENTS = 480

FIXTURE_FILES = [
    os.path.join(HERE, "..", "fixtures", "pls.json"),
    os.path.join(HERE, "fixtures", "family_plant.json"),
    os.path.join(HERE, "fixtures", "shared_arrow_label.json"),
    os.path.join(HERE, "fixtures", "type_cycle.json"),
]

POTENCIES = ["1-1", "0-0", "2-2", "1-3", "3-3", "0-1", "2-1", "1", "x", "01-2", " 1-1", "1-1\n",
             "1-" + "9" * 5000, 12, None, True]
MULTIPLICITIES = ["0..n", "1..*", "1..1", "2..2", "0..0", "2..1", "..", "1-2", "0..", "1.." + "9" * 5000,
                  3, None, False]
ODD_VALUES = [7, 2.5, [], {}, None, True, "", "x"]
ODD_REFS = ["nodot", "nowhere.Node", "root.Missing", "root.", ".Node", "", 5, None, ["root", "Node"]]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def widened(doc: dict, name: str, copies: int) -> dict:
    """`doc` with the nodes and arrows of its model `name` repeated `copies`
    times under suffixed names, so that many records share a few types."""
    bottom = next(m for m in doc["models"] if m["name"] == name)
    nodes, arrows = [], []
    for c in range(copies):
        nodes += [dict(n, name=f"{n['name']}_{c}") for n in bottom["nodes"]]
        arrows += [
            dict(a, source=f"{a['source']}_{c}", target=f"{a['target']}_{c}") for a in bottom["arrows"]
        ]
    wide = dict(bottom, nodes=nodes, arrows=arrows)
    return {"models": [wide if m is bottom else m for m in doc["models"]]}


def base_documents(rng: random.Random) -> list:
    docs = []
    for path in FIXTURE_FILES:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    docs += [widened(docs[0], "hammer_config", 4), widened(docs[2], "m3", 4)]
    for _ in range(12):
        docs.append(hierarchy_to_json(random_hierarchy(rng, depth=rng.randint(1, 4), varied=True)))
    return docs


def _records(doc, kind):
    """(model, record) pairs of the document's well-formed `kind` lists."""
    out = []
    for m in doc["models"]:
        if isinstance(m, dict) and isinstance(m.get(kind), list):
            out.extend((m, r) for r in m[kind] if isinstance(r, dict))
    return out


def _type_refs(doc, arrows: bool) -> list:
    """'model.element' references to every node, or arrow label, of the document."""
    refs = []
    for m, r in _records(doc, "arrows" if arrows else "nodes"):
        if isinstance(m.get("name"), str) and isinstance(r.get("name"), str):
            refs.append(f"{m['name']}.{r['name']}")
    return refs


def _lists(doc) -> list:
    """The non-empty model, node and arrow lists of the document."""
    lists = [doc["models"]] if doc["models"] else []
    for m in doc["models"]:
        if isinstance(m, dict):
            lists.extend(m[k] for k in ("nodes", "arrows") if isinstance(m.get(k), list) and m[k])
    return lists


def mutate(rng: random.Random, doc: dict) -> None:
    """Applies one seeded fault to `doc` in place."""
    models = [m for m in doc["models"] if isinstance(m, dict)]
    nodes, arrows = _records(doc, "nodes"), _records(doc, "arrows")
    kind = rng.choice(
        ["potency", "potency", "multiplicity", "type", "type", "type", "kind", "kind",
         "endpoint", "supertypes", "parent", "rename", "drop"]
    )
    if kind == "potency" and nodes + arrows:
        _, r = rng.choice(nodes + arrows)
        r["potency"] = rng.choice(POTENCIES)
    elif kind == "multiplicity" and arrows:
        _, r = rng.choice(arrows)
        r["multiplicity"] = rng.choice(MULTIPLICITIES)
    elif kind == "type" and nodes + arrows:
        # a reference to any element of the document: off-branch, same level,
        # lower, an arrow label for a node and the other way round
        _, r = rng.choice(nodes + arrows)
        pool = _type_refs(doc, rng.random() < 0.5)
        r["type"] = rng.choice(pool) if pool and rng.random() < 0.8 else rng.choice(ODD_REFS)
    elif kind == "kind":
        # a whole record of the wrong kind, or a field of the wrong kind or left out
        lists = _lists(doc)
        if lists and rng.random() < 0.15:
            lst = rng.choice(lists)
            lst[rng.randrange(len(lst))] = rng.choice([[], "x", 3, None])
        elif models:
            target = rng.choice([*models, *(r for _, r in nodes + arrows)])
            key = rng.choice(sorted(target) + ["supertypes", "nodes", "arrows"])
            if rng.random() < 0.3:
                target.pop(key, None)
            else:
                target[key] = rng.choice(ODD_VALUES)
    elif kind == "endpoint" and arrows:
        m, r = rng.choice(arrows)
        names = [n.get("name") for n in m.get("nodes", []) if isinstance(n, dict)]
        r[rng.choice(["source", "target"])] = rng.choice(names + ["ghost"])
    elif kind == "supertypes" and nodes:
        m, r = rng.choice(nodes)
        names = [n.get("name") for n in m.get("nodes", []) if isinstance(n, dict)]
        r["supertypes"] = rng.sample(names + ["ghost", 4], rng.randint(1, 2))
    elif kind == "parent" and models:
        m = rng.choice(models)
        m["parent"] = rng.choice([x.get("name") for x in models] + [None, "ghost", 3])
    elif kind == "rename" and models:
        r = rng.choice([r for _, r in nodes] or models) if rng.random() < 0.7 else rng.choice(models)
        r["name"] = rng.choice(["a", "Node", "root", "m1", r.get("name")])
    elif kind == "drop" and _lists(doc):
        lst = rng.choice(_lists(doc))
        lst.pop(rng.randrange(len(lst)))


def documents():
    """The corpus texts, in order; the same on every run."""
    rng = random.Random(SEED)
    bases = base_documents(rng)
    texts = []
    for i in range(DOCUMENTS):
        doc = copy.deepcopy(bases[i % len(bases)])
        faults = 0 if rng.random() < 0.15 else rng.choice([1, 1, 1, 2, 3])
        for _ in range(faults):
            mutate(rng, doc)
        text = json.dumps(doc)
        if rng.random() < 0.02:
            text = text[: rng.randrange(len(text))]  # truncated: not JSON
        texts.append(text)
    return texts


def outcome(text: str) -> dict:
    """What loading and validating `text` gives."""
    try:
        h = parse_hierarchy(text)
        issues = [str(i) for i in validate_hierarchy(h)]
    except Exception as err:  # the corpus records what is raised, whatever it is
        return {"doc": sha256(text), "raised": [type(err).__name__, str(err)]}
    dumped = json.dumps(hierarchy_to_json(h), sort_keys=True)
    return {"doc": sha256(text), "json": sha256(dumped), "issues": issues}


def main() -> int:
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump([outcome(t) for t in documents()], fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
