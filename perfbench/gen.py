"""Seeded, stdlib-only input generators for the benchmark workloads.

The generators write hierarchy JSON (the format `mlmt` loads) directly and
never import `mlmt`, so the inputs and the closed-form rule counts that
check `wide-compile` stay independent of the code under test.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

PLS_JSON = Path("fixtures") / "pls.json"


def _node(name, type_ref, potency="1-1"):
    return {"name": name, "type": type_ref, "potency": potency}


def _arrow(source, name, target, type_ref, multiplicity="0..n", potency="1-1"):
    return {
        "name": name,
        "source": source,
        "target": target,
        "type": type_ref,
        "potency": potency,
        "multiplicity": multiplicity,
    }


def _model(name, parent, nodes, arrows):
    return {"name": name, "parent": parent, "nodes": nodes, "arrows": arrows}


def to_text(doc: dict) -> str:
    """The canonical text of a generated document; equal seeds give equal bytes."""
    return json.dumps(doc, indent=1) + "\n"


# ---------------------------------------------------------------------------
# wide-compile: a "family plant" with f product families


def expected_rule_counts(families: int) -> dict:
    """Two-level rules per PLS rule on any leaf below the family plant.

    Each family has two generators, an assembler and three parts; all
    families share one Conveyor -> Tray link.  CreatePart binds each
    generator (2f); SendPartOut a generator and one of two containers (4f);
    TransferPart one of 3f parts on the single link (3f); Assemble one of 3f
    machines, two containers and an ordered part pair of one product
    (3f * 2 * 2f).  Bounded k..k has-arrows give one variant each, so they
    do not change the counts.
    """
    f = families
    return {
        "CreatePart": 2 * f,
        "SendPartOut": 4 * f,
        "Assemble": 12 * f * f,
        "TransferPart": 3 * f,
    }


def wide_compile(seed: int, families: int, extra_depth: int, leaves: int) -> dict:
    """root -> generic_plant -> refine_1..d -> family_plant -> leaf_1..n.

    The refinement models hold only nodes typed directly by the root, so the
    META level map must skip them; family-plant elements therefore jump
    1 + d levels to their generic types.
    """
    rng = random.Random(seed)
    d = extra_depth
    deep = f"1-{2 + d}"
    models = [
        _model(
            "root",
            None,
            [_node("Node", "root.Node", deep)],
            [_arrow("Node", "Arrow", "Node", "root.Arrow", potency=deep)],
        ),
        _model(
            "generic_plant",
            "root",
            [
                _node(n, "root.Node", f"1-{1 + d}")
                for n in ("Machine", "Part", "Container")
            ],
            [
                _arrow("Machine", "creates", "Part", "root.Arrow", potency=f"1-{1 + d}"),
                _arrow("Container", "contains", "Part", "root.Arrow", potency=deep),
                _arrow("Machine", "in", "Container", "root.Arrow", potency=deep),
                _arrow("Machine", "out", "Container", "root.Arrow", potency=deep),
            ],
        ),
    ]
    parent = "generic_plant"
    for j in range(1, d + 1):
        zones = [_node(f"Zone{j}_{z}", "root.Node") for z in range(2)]
        models.append(_model(f"refine_{j}", parent, zones, []))
        parent = f"refine_{j}"

    nodes = [
        _node("Conveyor", "generic_plant.Container"),
        _node("Tray", "generic_plant.Container"),
    ]
    arrows = [_arrow("Conveyor", "cout", "Tray", "root.Arrow", "1..1")]
    # the seed picks which family gets which k, not how many get each
    ks = [(1, 2, 3)[i % 3] for i in range(families)]
    rng.shuffle(ks)
    for i in rng.sample(range(families), families):
        gen_a, gen_b, asm = f"Gen{i}a", f"Gen{i}b", f"Asm{i}"
        prod, part_a, part_b = f"Prod{i}", f"Part{i}a", f"Part{i}b"
        nodes += [_node(m, "generic_plant.Machine") for m in (gen_a, gen_b, asm)]
        nodes += [_node(p, "generic_plant.Part") for p in (prod, part_a, part_b)]
        k = ks[i]
        arrows += [
            _arrow(gen_a, "creates", part_a, "generic_plant.creates"),
            _arrow(gen_b, "creates", part_b, "generic_plant.creates"),
            _arrow(prod, f"has{i}a", part_a, "root.Arrow", f"{k}..{k}"),
            _arrow(prod, f"has{i}b", part_b, "root.Arrow", "1..1"),
        ]
    rng.shuffle(nodes)
    rng.shuffle(arrows)
    models.append(_model("family_plant", parent, nodes, arrows))

    for leaf in range(leaves):
        models.append(_config(rng, f"leaf_{leaf}", families))
    return {"models": models}


def _config(rng: random.Random, name: str, families: int) -> dict:
    """A small configuration: a few families' machines on one conveyor line."""
    nodes = [_node("cv", "family_plant.Conveyor"), _node("tr", "family_plant.Tray")]
    arrows = [_arrow("cv", "cout", "tr", "family_plant.cout")]
    for i in sorted(rng.sample(range(families), min(families, 2))):
        for m, out in ((f"Gen{i}a", "cv"), (f"Gen{i}b", "cv"), (f"Asm{i}", None)):
            inst = m.lower()
            nodes.append(_node(inst, f"family_plant.{m}"))
            if out is None:
                arrows.append(_arrow(inst, "in", "tr", "generic_plant.in"))
            else:
                arrows.append(_arrow(inst, "out", out, "generic_plant.out"))
    return _model(name, "family_plant", nodes, arrows)


# ---------------------------------------------------------------------------
# wide-apply: k disjoint copies of the hammer configuration, parts in flight


def _load_pls(root: Path) -> dict:
    with open(root / PLS_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def hammer_template(rng: random.Random, base: dict) -> dict:
    """One copy of `hammer_config` with seeded parts in flight.

    Returns a model dict named "floor" (under `hammer_plant`) with local,
    suffix-free names.  Of the three loose handles and the three loose
    heads, one of each sits where a run leaves it: just created (a `creates`
    arrow from its generator), on its conveyor, or on the tray.  One hammer
    sits on the tray.  The seed picks which part sits where, so every
    template has the same size and the same matches up to renaming.
    """
    nodes = [dict(n) for n in base["nodes"]]
    arrows = [dict(a) for a in base["arrows"]]
    counter = [0]

    def part(kind):
        counter[0] += 1
        name = f"p{counter[0]}"
        nodes.append(_node(name, f"hammer_plant.{kind}"))
        return name

    for kind, gen, conveyor in (("Handle", "ghandle", "cv1"), ("Head", "ghead", "cv2")):
        places = ["created", "conveyor", "tray"]
        rng.shuffle(places)
        for place in places:
            p = part(kind)
            if place == "created":
                arrows.append(_arrow(gen, "creates", p, "hammer_plant.creates"))
            else:
                holder = conveyor if place == "conveyor" else "t1"
                arrows.append(_arrow(holder, "contains", p, "generic_plant.contains"))
    hammer = part("Hammer")
    arrows.append(_arrow(hammer, "hasHandle", part("Handle"), "hammer_plant.hasHandle"))
    arrows.append(_arrow(hammer, "hasHead", part("Head"), "hammer_plant.hasHead"))
    arrows.append(_arrow("t1", "contains", hammer, "generic_plant.contains"))
    return _model("floor", "hammer_plant", nodes, arrows)


def copy_name(name: str, copy: int) -> str:
    """The name a template element gets in copy `copy` of the wide model."""
    return f"{name}_{copy}"


def wide_apply(seed: int, copies: int, templates: int, root: Path):
    """Returns (wide document, template documents, template index per copy).

    The upper levels are those of the PLS fixture's hammer branch; copy c of
    the floor model is template `assignment[c]` with every name suffixed.
    """
    rng = random.Random(seed)
    pls = _load_pls(root)
    upper = [m for m in pls["models"] if m["name"] in ("root", "generic_plant", "hammer_plant")]
    base = next(m for m in pls["models"] if m["name"] == "hammer_config")
    shapes = [hammer_template(rng, base) for _ in range(templates)]
    assignment = [c % templates for c in range(copies)]
    rng.shuffle(assignment)

    nodes, arrows = [], []
    for c, t in enumerate(assignment):
        for n in shapes[t]["nodes"]:
            nodes.append(dict(n, name=copy_name(n["name"], c)))
        for a in shapes[t]["arrows"]:
            arrows.append(
                dict(a, source=copy_name(a["source"], c), target=copy_name(a["target"], c))
            )
    wide = {"models": upper + [_model("floor", "hammer_plant", nodes, arrows)]}
    small = [{"models": upper + [shape]} for shape in shapes]
    return wide, small, assignment
