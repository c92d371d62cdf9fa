"""The benchmark workloads, their correctness gates and their layer spans.

Each workload has a one-off `setup` (load plus validation of its inputs),
a `compile` of the PLS rules onto its target, and a list of `units`, each
timed by `op`.  `op` returns the unit's latency in milliseconds:

- pls-hammer-run: one seeded `run()` on the PLS `hammer_config` plus
  serialising the final hierarchy and the trace, as `mlmt run` does after
  setup, per applied step.  The run seeds are a fixed pool whose trace and
  final-hierarchy SHA-256 digests are recorded in `golden.json`.
- wide-compile: proliferating every PLS rule onto one leaf of a generated
  family plant, checked against the generator's closed-form counts.
- wide-apply: one application of a compiled rule to a wide model through
  `apply_two_level_rule(at=m)`; the direct chain route `apply_mcmt` gives
  the reference result it must equal.

All calls into `mlmt` go through module attributes, so the spans that
`SPANS` declares see them when the traced run installs its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from mlmt import cli, engine, graphs, hierarchy, matching, rules
from mlmt.errors import DanglingDeletion

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

HAMMER_STEPS = 50
HAMMER_POOL = 4  # run seeds 0..3; golden.json holds a digest pair for each
WIDE_COMPILE = {"families": 3, "extra_depth": 2, "leaves": 4}
WIDE_APPLY = {"copies": 40, "templates": 4}

PLS_BREAKDOWN = {
    "hammer_config": {"CreatePart": 2, "SendPartOut": 4, "Assemble": 12, "TransferPart": 3},
    "stool_config": {"CreatePart": 2, "SendPartOut": 2, "Assemble": 6, "TransferPart": 0},
}


class Gate:
    """Counts checked operations and failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        # the traced run sets this to its recorder's `paused`
        self.unrecorded = contextlib.nullcontext

    def valid(self, h) -> bool:
        """`validate_hierarchy(h) == []`, outside the traced run's spans and
        counters: a check of an output is not work of the layer it checks."""
        with self.unrecorded():
            return not hierarchy.validate_hierarchy(h)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _read(path: Path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def pls_texts():
    """The PLS fixture: hierarchy JSON text and rule module text."""
    return _read(ROOT / gen.PLS_JSON), _read(ROOT / "fixtures" / "pls.mcmt")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_inputs(hier_text: str, rules_text: str, gate: Gate):
    """Load plus `validate_hierarchy`, `parse_rule_module` and `validate_rule`."""
    h = hierarchy.parse_hierarchy(hier_text)
    problems = [str(i) for i in hierarchy.validate_hierarchy(h)]
    module = rules.parse_rule_module(rules_text)
    root_graph = h.model(h.root).graph
    for rule in module.rules:
        problems.extend(rules.validate_rule(rule, root_graph))
    gate.check(not problems, f"inputs do not validate: {problems[:3]}")
    return h, module


def compile_counts(module, h, target: str):
    per_rule = matching.proliferate_all(module.rules, h, target)
    return per_rule, {name: len(rs) for name, rs in per_rule.items()}


def serialize_run(trace):
    """The bytes `mlmt run` writes after setup: the final hierarchy on
    stdout and the trace file."""
    final = json.dumps(cli.hierarchy_to_json(trace.final), indent=2) + "\n"
    return final, trace.to_json_lines()


def hammer_digests(h, module, seed: int):
    """One pool run: (trace, final digest, trace digest, seconds)."""
    start = perf_counter()
    trace = engine.run(list(module.rules), h, "hammer_config", HAMMER_STEPS, seed)
    final_text, trace_text = serialize_run(trace)
    elapsed = perf_counter() - start
    return trace, _sha256(final_text), _sha256(trace_text), elapsed


class HammerRun:
    """Seeded runs of the paper's example: the matcher scans the whole
    model every step although few matches are live."""

    trace_units = 4

    def __init__(self, seed: int, gate: Gate):
        self.gate = gate
        self.texts = pls_texts()
        with open(GOLDEN, encoding="utf-8") as fh:
            self.golden = json.load(fh)
        self.units = random.Random(seed).sample(range(HAMMER_POOL), HAMMER_POOL)

    def setup(self):
        self.h, self.module = load_inputs(*self.texts, self.gate)

    def compile(self):
        _, counts = compile_counts(self.module, self.h, "hammer_config")
        self.gate.check(counts == PLS_BREAKDOWN["hammer_config"], f"hammer breakdown {counts}")

    def prepare(self):
        _, counts = compile_counts(self.module, self.h, "stool_config")
        self.gate.check(counts == PLS_BREAKDOWN["stool_config"], f"stool breakdown {counts}")

    def op(self, seed: int) -> float:
        trace, final_sha, trace_sha, elapsed = hammer_digests(self.h, self.module, seed)
        golden = self.golden[str(seed)]
        ok = [final_sha, trace_sha] == [golden["final"], golden["trace"]]
        ok = ok and self.gate.valid(trace.final)
        self.gate.check(ok, f"run seed {seed} differs from its golden digests")
        return elapsed * 1000 / len(trace.steps)


class WideCompile:
    """Proliferation onto the leaves of a generated family plant: almost
    all META matching, plus hierarchy load and validation."""

    trace_units = 3

    def __init__(self, seed: int, gate: Gate):
        self.gate = gate
        p = WIDE_COMPILE
        doc = gen.wide_compile(seed, p["families"], p["extra_depth"], p["leaves"])
        self.texts = (gen.to_text(doc), pls_texts()[1])
        self.expected = gen.expected_rule_counts(p["families"])
        leaves = [f"leaf_{i}" for i in range(p["leaves"])]
        self.units = random.Random(seed).sample(leaves, len(leaves))

    def setup(self):
        self.h, self.module = load_inputs(*self.texts, self.gate)

    def compile(self):
        """Proliferation onto one fixed leaf; the units cover every leaf."""
        self.op("leaf_0")

    def prepare(self):
        pass

    def op(self, leaf: str) -> float:
        start = perf_counter()
        _, counts = compile_counts(self.module, self.h, leaf)
        elapsed = perf_counter() - start
        self.gate.check(counts == self.expected, f"{leaf}: {counts} != {self.expected}")
        return elapsed * 1000


def expanded_variant(rule, tl_rule, h, target):
    """The cardinality-expanded MCMT a two-level rule was compiled from.

    Calls `rules.expand_cardinalities`, which the traced run leaves alone:
    its span counts only the expansions that proliferation makes.
    """
    stack = matching.typing_stack(h, target)
    mm = tl_rule.source_match
    bound = {}
    for el in rule.meta_elements + rule.implicit_elements:
        if el.kind != rules.ARROW or el.level < 1:
            continue
        image = mm.binding(el.level).get(el.name)
        if image is not None:
            model = stack[mm.f(el.level)]
            bound[(el.level, el.name)] = model.info_for(image).multiplicity or (0, None)
    wanted = tl_rule.lhs.nodes | {a[1] for a in tl_rule.lhs.arrows}
    (variant,) = [
        v
        for v in rules.expand_cardinalities(rule, bound)
        if {e.name for e in v.from_pattern.elements} == wanted
    ]
    return variant


class WideApply:
    """Rewriting a wide model: every compiled rule at each of its matches,
    found on one small copy and renamed into each copy."""

    trace_units = 60
    target = "floor"

    def __init__(self, seed: int, gate: Gate):
        self.gate = gate
        p = WIDE_APPLY
        wide, small, self.assignment = gen.wide_apply(seed, p["copies"], p["templates"], ROOT)
        self.texts = (gen.to_text(wide), pls_texts()[1])
        self.templates = [hierarchy.parse_hierarchy(gen.to_text(doc)) for doc in small]
        self.seed = seed

    def setup(self):
        self.h, self.module = load_inputs(*self.texts, self.gate)

    def compile(self):
        _, counts = compile_counts(self.module, self.h, self.target)
        self.gate.check(counts == PLS_BREAKDOWN["hammer_config"], f"floor breakdown {counts}")

    def prepare(self):
        """Matches per template, renamed into every copy of that template."""
        per_rule, _ = compile_counts(self.module, self.h, self.target)
        compiled = [
            (tl, expanded_variant(rule, tl, self.h, self.target))
            for rule in self.module.rules
            for tl in per_rule[rule.name]
        ]
        found = [
            [
                (i, m)
                for i, (tl, _) in enumerate(compiled)
                for m in engine.typed_matches(tl, t.model(self.target), t)
            ]
            for t in self.templates
        ]
        host = self.h.model(self.target).graph
        self.ops = []
        for copy, template in enumerate(self.assignment):
            for i, m in found[template]:
                tl, variant = compiled[i]
                renamed = graphs.TotalMorphism(
                    tl.lhs,
                    host,
                    {k: gen.copy_name(v, copy) for k, v in m.node_map.items()},
                    {
                        k: (gen.copy_name(v[0], copy), v[1], gen.copy_name(v[2], copy))
                        for k, v in m.arrow_map.items()
                    },
                )
                self.ops.append((tl, variant, renamed))
        self.units = random.Random(self.seed).sample(range(len(self.ops)), len(self.ops))
        self.checked = {}

    def _direct(self, tl, variant, m):
        """The direct chain route's result, checked to be a valid hierarchy."""
        try:
            h2, _ = engine.apply_mcmt(variant, self.h, self.target, tl.source_match, m)
        except DanglingDeletion:
            return None
        self.gate.check(self.gate.valid(h2), f"{tl.name}: invalid result")
        return h2.model(self.target)

    def op(self, index: int) -> float:
        """The compiled route.  A unit's first result must equal the direct
        route's; repeats must hash like the first."""
        tl, variant, m = self.ops[index]
        start = perf_counter()
        successors, _ = engine.apply_two_level_rule(tl, self.h.model(self.target), self.h, at=m)
        elapsed = perf_counter() - start
        got = successors[0].model if successors else None
        digest = None if got is None else hash((got.graph, frozenset(got.info.items())))
        if index not in self.checked:
            want = self._direct(tl, variant, m)
            if got is None or want is None:
                ok = got is want
            else:
                ok = got.graph == want.graph and got.info == want.info
            self.checked[index] = digest
        else:
            ok = digest == self.checked[index]
        self.gate.check(ok, f"{tl.name}: compiled and direct routes disagree")
        return elapsed * 1000


WORKLOADS = {"pls-hammer-run": HammerRun, "wide-compile": WideCompile, "wide-apply": WideApply}


# ---------------------------------------------------------------------------
# spans of the traced run, named <layer>.<function>


def _count_len(key):
    def on_result(counts, args, result):
        counts[key] += len(result)

    return on_result


def _count_steps(counts, args, result):
    counts["engine.run.steps"] += len(result.steps)


def _count_skips(counts, args, result):
    counts["engine.dangling_skips"] += len(result[1])


def _count_host(counts, args, result):
    host = args[1].dst
    counts["graphs.host_elements.total"] += len(host.nodes) + len(host.arrows)


SPANS = [
    ("hierarchy.load", [(hierarchy, "parse_hierarchy")], None),
    ("hierarchy.validate", [(hierarchy, "validate_hierarchy")], None),
    ("hierarchy.derive_typing_chain", [(engine, "derive_typing_chain")], None),
    ("rules.parse", [(rules, "parse_rule_module")], None),
    ("rules.validate", [(rules, "validate_rule")], None),
    (
        "rules.expand_cardinalities",
        [(matching, "expand_cardinalities")],
        _count_len("rules.expand_cardinalities.variants"),
    ),
    (
        "matching.proliferate",
        [(matching, "proliferate"), (engine, "proliferate")],
        _count_len("matching.proliferate.rules_out"),
    ),
    (
        "matching.find_meta_matches",
        [(matching, "find_meta_matches")],
        _count_len("matching.find_meta_matches.matches"),
    ),
    ("matching.graph_match", [(matching, "graph_match")], _count_len("matching.graph_match.bindings")),
    ("engine.run", [(engine, "run")], _count_steps),
    ("engine.typed_matches", [(engine, "typed_matches")], _count_len("engine.typed_matches.matches")),
    ("engine.apply_two_level_rule", [(engine, "apply_two_level_rule")], _count_skips),
    ("engine.apply_mcmt", [(engine, "apply_mcmt")], None),
    ("graphs.pushout", [(engine, "pushout")], _count_host),
    ("graphs.pullback_complement", [(engine, "pullback_complement")], None),
    ("chains.typing_to_chain", [(engine, "typing_to_chain")], None),
    ("chains.chain_pushout", [(engine, "chain_pushout")], None),
    ("chains.chain_pullback_complement", [(engine, "chain_pullback_complement")], None),
    ("cli.serialize", [(sys.modules[__name__], "serialize_run")], None),
]

# transitive_type_at is called ~10^6 times a run: counted, not spanned
COUNTERS = [
    (f"hierarchy.transitive_type_at.calls.{m.__name__.split('.')[-1]}", m, "transitive_type_at")
    for m in (engine, matching, hierarchy)
]


# best time of `reference()` on the 2-vCPU machine the baseline was recorded on
REFERENCE_MS = 0.25
# seconds between samples of set-up, compile and `reference()` in `measure`
SAMPLE_EVERY_S = 0.25
_REFERENCE_NAMES = [f"n{i * 7919 % 100003}" for i in range(600)]


def reference() -> int:
    """A fixed stdlib-only task of dict, set, tuple and sort work, timed
    between units to measure how fast the machine runs Python right now."""
    d = {}
    for i, name in enumerate(_REFERENCE_NAMES):
        d[(name, i % 7)] = (i, name)
    return len(sorted(frozenset(d) - frozenset(list(d)[::3])))


def _timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, seconds: float) -> dict:
    """The end-to-end metrics of one untraced run of a workload.

    Other tenants of the measuring machine slow the CPU by up to 2x, in
    stretches of seconds to minutes, so every time is taken relative to the
    machine's speed at that moment.  Every `SAMPLE_EVERY_S` seconds, between
    units, the run takes a sample: the best of 4 timings of the stdlib-only
    `reference()` task, then one set-up and one compile.  Each set-up,
    compile and unit time is divided by the latest reference time and scaled
    to a machine on which `reference()` takes `REFERENCE_MS`.  `setup_s` and
    `compile_s` are the medians of their samples.  Units run in passes until
    `seconds` have passed, and `op_ms_p50` is the median over units of each
    unit's median.
    """

    setups, compiles = [], []

    def sample():
        ref = min(_timed(reference) for _ in range(4))
        # a fresh load that leaves the workload's own hierarchy in place
        setups.append(_timed(lambda: load_inputs(*wl.texts, wl.gate)) / ref)
        compiles.append(_timed(wl.compile) / ref)
        return ref, perf_counter() + SAMPLE_EVERY_S

    wl.setup()
    ref, next_sample = sample()
    wl.prepare()
    ratios = defaultdict(list)
    units = wl.units
    deadline = perf_counter() + seconds
    i = 0
    while i < len(units) or perf_counter() < deadline:  # at least one full pass
        unit = units[i % len(units)]
        ratios[unit].append(wl.op(unit) / ref)
        i += 1
        if perf_counter() >= next_sample:
            ref, next_sample = sample()
    scale = REFERENCE_MS / 1000
    return {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "compile_s": (statistics.median(compiles) * scale, "s"),
        "op_ms_p50": (statistics.median(statistics.median(r) for r in ratios.values()) * scale, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in output order."""
    out = {}
    for name, _, _ in SPANS:
        out.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    out.update({key: "count" for key, _, _ in COUNTERS})
    for key in (
        "rules.expand_cardinalities.variants",
        "matching.proliferate.rules_out",
        "matching.find_meta_matches.matches",
        "matching.graph_match.bindings",
        "engine.run.steps",
        "engine.typed_matches.matches",
        "engine.dangling_skips",
        "graphs.host_elements",
    ):
        out[key] = "count"
    out.update(
        {
            "engine.matches_per_step": "ratio",
            "engine.type_checks_per_match": "ratio",
            "trace.untraced_s": "s",
            "trace.overhead_pct": "%",
        }
    )
    return out


def measure_traced(wl, seconds: float) -> dict:
    """Per-layer metrics of a fixed unit of work: one setup and compile and
    the first `trace_units` units.  The unit runs untraced and traced in
    turn until `seconds` have passed; values are per unit."""

    def work():
        wl.setup()
        wl.compile()
        wl.prepare()
        for u in wl.units[: wl.trace_units]:
            wl.op(u)

    rec = spans.Recorder()
    wl.gate.unrecorded = rec.paused
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain.append(_timed(work))
        rec.install(SPANS, COUNTERS)
        try:
            traced.append(_timed(work))
        finally:
            rec.uninstall()
    reps = len(traced)

    values = {key: n / reps for key, n in rec.counts.items()}
    for name, (calls, incl, own) in rec.totals().items():
        values.update({f"{name}.calls": calls / reps, f"{name}.s": incl / reps, f"{name}.self_s": own / reps})
    pushouts = values.get("graphs.pushout.calls")
    if pushouts:
        values["graphs.host_elements"] = values["graphs.host_elements.total"] / pushouts
    matches = values.get("engine.typed_matches.matches")
    if values.get("engine.run.steps"):
        values["engine.matches_per_step"] = matches / values["engine.run.steps"]
    if matches:
        values["engine.type_checks_per_match"] = (
            values["hierarchy.transitive_type_at.calls.engine"] / matches
        )
    out = {key: (values.get(key, 0), unit) for key, unit in layer_metric_units().items()}
    untraced = statistics.median(plain)
    out["trace.untraced_s"] = (untraced, "s")
    out["trace.overhead_pct"] = ((statistics.median(traced) / untraced - 1) * 100, "%")
    return out
