"""Mutation check: every recorded mutant of `src/` must be killed by its tests.

Run from anywhere as `python tests/mutants.py`; it uses only the standard
library and pytest, which the tests need anyway.  pytest does not collect this
file, as its name does not start with `test_`.

Each record names a file under `src/`, the exact text to replace, which must
occur there exactly once, its replacement, and the test ids that must fail.
The script first runs every listed test on an unchanged copy of `src/`, where
they must pass.  Then, for each mutant, it applies the edit to a fresh
temporary copy of `src/` and runs each of its test ids in a child process with
`PYTHONPATH` pointing at that copy and a timeout.  A mutant is killed when each
of its test ids fails.  The script exits non-zero when a mutant survives, when
its text no longer occurs once, or when a listed test fails unmutated.

A change that reports a mutation check adds its mutants here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TIMEOUT = 300  # seconds per child process; a test run that hangs counts as a kill

SCHEDULE = "tests/test_scheduler.py"
MAINTAINED = "tests/test_matcher_order.py::test_maintained_matches_equal_fresh_ones"
STEPS = "tests/test_graphs.py::TestDerivedGraphs::test_randomized_chain_of_steps"

MUTANTS = [
    {
        "name": "the draw pops the first live match",
        "file": "mlmt/engine.py",
        "old": "pairs.pop(rng.randrange(len(pairs)))",
        "new": "pairs.pop(0)",
        "tests": [SCHEDULE, "tests/test_long_run.py"],
    },
    {
        "name": "a step draws from the live list itself, not from a copy",
        "file": "mlmt/engine.py",
        "old": "pairs = live.matches[:]",
        "new": "pairs = live.matches",
        "tests": [SCHEDULE, MAINTAINED],
    },
    {
        "name": "a deletion keeps the matches that use a deleted element",
        "file": "mlmt/engine.py",
        "old": "self.matches = [m for m in self.matches if gone.isdisjoint(m[1])]",
        "new": "self.matches = self.matches",
        "tests": [SCHEDULE, MAINTAINED],
    },
    {
        "name": "new matches are appended unsorted",
        "file": "mlmt/engine.py",
        "old": "insort(self.matches, m)",
        "new": "self.matches.append(m)",
        "tests": [SCHEDULE, MAINTAINED],
    },
    {
        "name": "the pushout's map misses the copied arrows",
        "file": "mlmt/graphs.py",
        "old": "incidence.get(n, frozenset()) | added",
        "new": "incidence.get(n, frozenset())",
        "tests": [STEPS],
    },
    {
        "name": "the pullback complement's map keeps the deleted arrows",
        "file": "mlmt/graphs.py",
        "old": "rest = incidence.pop(n) - removed",
        "new": "rest = incidence.pop(n)",
        "tests": [STEPS],
    },
    {
        "name": "a created arrow has no multiplicity",
        "file": "mlmt/matching.py",
        "old": "(0, None) if isinstance(x, tuple) else None",
        "new": "None",
        "tests": [
            "tests/test_acceptance.py::test_criterion_5_pipeline_equivalence",
            "tests/test_engine.py::test_compiled_and_direct_routes_agree_on_generated_inputs",
        ],
    },
    {
        "name": "the pushout builds its input's map",
        "file": "mlmt/graphs.py",
        "old": 'arrows, incidence = S.arrows, S.__dict__.get("_incidence")',
        "new": "arrows, incidence = S.arrows, S._incidence",
        "tests": [
            "tests/test_graphs.py::TestIncidenceOnFirstUse::test_a_step_that_deletes_no_node_builds_no_map",
            "tests/test_engine.py::TestRun::test_only_a_run_that_deletes_nodes_builds_an_incidence_map",
        ],
    },
    {
        "name": "the root resolver takes the first of several root arrows",
        "file": "mlmt/rules.py",
        "old": "return [a for a in root_graph.arrows if a[1] == el.type_name]",
        "new": "return [a for a in root_graph.arrows if a[1] == el.type_name][:1]",
        "tests": [
            "tests/test_rules.py::TestValidation::test_label_of_several_root_arrows_is_reported_with_their_number",
            "tests/test_matching.py::TestRootBinding::test_label_of_several_root_arrows",
        ],
    },
    {
        "name": "rule validation returns early without a root graph",
        "file": "mlmt/rules.py",
        "old": "report: List[str] = []",
        "new": "report: List[str] = []\n    if root_graph is None:\n        return report",
        "tests": [
            "tests/test_rules.py::TestValidation::test_type_missing_at_its_level_in_a_rule_built_in_code",
            "tests/test_cli.py::TestRulesCheck::test_arrow_end_typed_off_its_meta_arrow_is_reported[False]",
        ],
    },
    {
        "name": "a META multiplicity's upper bound is compared the wrong way round",
        "file": "mlmt/matching.py",
        "old": "hi > target_mult[1]",
        "new": "hi < target_mult[1]",
        "tests": ["tests/test_matching.py::TestElementSatisfies::test_multiplicity_within_the_images_type"],
    },
    {
        "name": "building a hierarchy skips the level check",
        "file": "mlmt/hierarchy.py",
        "old": "if m.level != depth:",
        "new": "if False:",
        "tests": ["tests/test_hierarchy.py::TestLoadSave::test_models_built_in_code_are_checked"],
    },
]


def copy_src(into: str) -> str:
    src = os.path.join(into, "src")
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def pytest(src: str, tests) -> str:
    """'passed', 'failed', 'timeout' or 'error' (pytest could not run the tests)."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode not in (0, 1):
        sys.stdout.write(done.stdout.decode(errors="replace")[-2000:])
    return {0: "passed", 1: "failed"}.get(done.returncode, "error")


def check(mutant) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(tmp)
        path = os.path.join(src, mutant["file"])
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        count = text.count(mutant["old"])
        if count != 1:
            print(f"STALE    {mutant['name']}: its text occurs {count} times in {mutant['file']}")
            return False
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant["old"], mutant["new"]))
        outcomes = {test: pytest(src, [test]) for test in mutant["tests"]}
    killed = all(o in ("failed", "timeout") for o in outcomes.values())
    detail = ", ".join(f"{test} {o}" for test, o in outcomes.items())
    print(f"{'KILLED' if killed else 'SURVIVED':8} {mutant['name']}: {detail}")
    return killed


def main() -> int:
    start = time.perf_counter()
    tests = sorted({test for mutant in MUTANTS for test in mutant["tests"]})
    with tempfile.TemporaryDirectory() as tmp:
        baseline = pytest(copy_src(tmp), tests)
    if baseline != "passed":
        print(f"the mutants' tests do not pass on the unchanged code ({baseline})")
        return 1
    killed = sum(check(mutant) for mutant in MUTANTS)
    print(f"{killed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s"
          f" (PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset')})")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
