"""Fuzzing the input boundary: the hierarchy parser, the rule parser and
`mlmt validate`.

Whatever the input, the parsers raise nothing but `MlmtError`, and
`mlmt validate` ends with exit code 0, 1 or 2.  The runs are derandomized
and bounded, so the suite sees the same examples on every run; inputs that
once broke these promises are kept in `fixtures/fuzz/` and replayed:
hierarchies as `.json`, rule modules as `.mcmt`.
"""

import json
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mlmt.cli import main
from mlmt.errors import MlmtError
from mlmt.hierarchy import parse_hierarchy
from mlmt.rules import parse_rule_module

from support import pls_fixture_paths

FUZZ_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "fuzz")

fuzz = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ---------------------------------------------------------------------------
# hierarchy documents: mostly well-formed, with names from a small pool so
# that references often resolve, and any field sometimes of the wrong kind

NAMES = ["root", "m1", "m2", "Node", "Arrow", "a", "b", "e", ""]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
names = st.sampled_from(NAMES)
type_refs = st.builds(lambda m, e: f"{m}.{e}", names, names) | st.text(max_size=6)
potencies = st.sampled_from(["0-1", "1-1", "1-2", "0-3", "2-1", "1", "x", "1-1\n"])
multiplicities = st.sampled_from(["0..n", "1..1", "0..*", "3..3", "2..1", "1..x", "n"])


def record(fields):
    """A JSON object with all of `fields`, or with each left out or replaced
    by a value of any kind."""
    return st.fixed_dictionaries(fields) | st.fixed_dictionaries(
        {}, optional={key: value | json_values for key, value in fields.items()}
    )


nodes = record(
    {
        "name": names,
        "type": type_refs,
        "potency": potencies,
        "supertypes": st.lists(names, max_size=2),
    }
)
arrows = record(
    {
        "name": names,
        "source": names,
        "target": names,
        "type": type_refs,
        "potency": potencies,
        "multiplicity": multiplicities,
    }
)
models = record(
    {
        "name": names,
        "parent": st.none() | names,
        "nodes": st.lists(nodes, max_size=4),
        "arrows": st.lists(arrows, max_size=3),
    }
)
documents = st.one_of(
    st.fixed_dictionaries({"models": st.lists(models, max_size=4)}),
    json_values,
)
deep_nesting = st.integers(0, 3000).map(lambda n: '{"models": ' + "[" * n)
hierarchy_texts = st.one_of(documents.map(json.dumps), deep_nesting, st.text(max_size=40))


@fuzz
@given(hierarchy_texts)
def test_parse_hierarchy_raises_only_mlmt_errors(text):
    try:
        parse_hierarchy(text)
    except MlmtError:
        pass


# ---------------------------------------------------------------------------
# rule modules: token soup from the rule language, and the fixture module
# with a slice cut out or repeated


def _fixture_rules():
    with open(pls_fixture_paths()[1], encoding="utf-8") as fh:
        return fh.read()


TOKENS = [
    "rules", "rule", "meta", "from", "to", "{", "}", ":", "=", "->", "$", "@",
    "-", "mm0", "mm1", "mm2", "0", "1", "3", "X", "Y", "Machine", "Part",
    "creates", "Arrow", "Node", "\n", "// c\n",
]
token_soup = st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join)


@st.composite
def spliced_fixture(draw):
    text = _fixture_rules()
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 80)))
    return text[:i] + draw(st.sampled_from(["", text[i:j], text[i:j] * 2, "}", "{"])) + text[j:]


@fuzz
@given(st.one_of(token_soup, spliced_fixture(), st.text(max_size=40)))
def test_parse_rule_module_raises_only_mlmt_errors(text):
    try:
        parse_rule_module(text)
    except MlmtError:
        pass


# ---------------------------------------------------------------------------
# the command line


def validate_exit(data: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "h.json")
        with open(path, "wb") as fh:
            fh.write(data)
        return main(["validate", path])


@fuzz
@given(st.one_of(hierarchy_texts.map(str.encode), st.binary(max_size=40)))
def test_validate_exits_zero_one_or_two(data):
    assert validate_exit(data) in (0, 1, 2)


def fuzz_fixtures(extension):
    return sorted(name for name in os.listdir(FUZZ_FIXTURES) if name.endswith(extension))


@pytest.mark.parametrize("name", fuzz_fixtures(".json"))
def test_inputs_found_by_fuzzing_end_in_an_input_error(name, capsys):
    with open(os.path.join(FUZZ_FIXTURES, name), "rb") as fh:
        assert validate_exit(fh.read()) == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("name", fuzz_fixtures(".mcmt"))
def test_rules_found_by_fuzzing_end_in_a_parse_error(name, capsys):
    assert main(["fmt", os.path.join(FUZZ_FIXTURES, name)]) == 2
    assert re.fullmatch(r"parse error: \d+:\d+: [^\n]*\n", capsys.readouterr().err)
