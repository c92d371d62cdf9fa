import json
import os

import pytest

from mlmt.cli import main
from mlmt.hierarchy import load_hierarchy, read_text, validate_hierarchy
from mlmt.rules import parse_rule_module, validate_rule

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def paths(pls_paths):
    hierarchy, rules = pls_paths
    return hierarchy, rules


class TestValidate:
    def test_clean_hierarchy_exits_zero(self, paths, capsys):
        hierarchy, _ = paths
        assert main(["validate", hierarchy]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_broken_hierarchy_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "models": [
                        {
                            "name": "root",
                            "parent": None,
                            "nodes": [
                                {"name": "Node", "type": "root.Node", "potency": "1-1"}
                            ],
                        },
                        {
                            "name": "m1",
                            "parent": "root",
                            "nodes": [
                                {"name": "a", "type": "root.Node", "potency": "1-1"}
                            ],
                        },
                        {
                            "name": "m2",
                            "parent": "m1",
                            "nodes": [
                                # jump of 2, but root.Node only allows depth 1
                                {"name": "b", "type": "root.Node", "potency": "1-1"}
                            ],
                        },
                    ]
                }
            )
        )
        assert main(["validate", str(bad)]) == 1
        assert "violation(s)" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/nonexistent.json"]) == 2

    def test_type_cycle_is_reported_not_followed(self, capsys):
        # A.x : B.y and B.y : A.x; the arrow on x makes validation walk x's
        # types, which used to loop forever
        path = os.path.join(FIXTURES, "type_cycle.json")
        assert main(["validate", path]) == 1
        captured = capsys.readouterr()
        assert "3 violation(s)" in captured.out
        assert "A/'x': [TypeOffBranch]" in captured.err
        assert "B/'y': [TypeOffBranch]" in captured.err

    def test_arrow_type_no_endpoint_typing_fits_exits_one(self, capsys):
        path = os.path.join(FIXTURES, "shared_arrow_label_ambiguous.json")
        assert main(["validate", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: m3: ambiguous arrow type m1.r for ('x', 'e', 'w')\n"


def small_hierarchy():
    return {
        "models": [
            {
                "name": "root",
                "parent": None,
                "nodes": [{"name": "Node", "type": "root.Node", "potency": "1-2"}],
                "arrows": [
                    {
                        "name": "Arrow",
                        "source": "Node",
                        "target": "Node",
                        "type": "root.Arrow",
                        "potency": "1-2",
                    }
                ],
            },
            {
                "name": "m1",
                "parent": "root",
                "nodes": [{"name": "a", "type": "root.Node"}],
                "arrows": [
                    {"name": "e", "source": "a", "target": "a", "type": "root.Arrow"}
                ],
            },
        ]
    }


class TestMalformedInput:
    def test_small_hierarchy_is_valid(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(small_hierarchy()))
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize(
        "kind,field",
        [
            ("nodes", "name"),
            ("nodes", "type"),
            ("arrows", "name"),
            ("arrows", "source"),
            ("arrows", "target"),
            ("arrows", "type"),
        ],
    )
    def test_missing_field_names_its_json_path(self, tmp_path, capsys, kind, field):
        data = small_hierarchy()
        del data["models"][1][kind][0][field]
        path = tmp_path / "h.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: models[1].{kind}[0].{field}: missing\n"

    def test_field_of_the_wrong_kind_names_its_json_path(self, tmp_path, capsys):
        data = small_hierarchy()
        data["models"][0]["nodes"][0]["potency"] = 2
        path = tmp_path / "h.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "input error: models[0].nodes[0].potency: expected a string\n"

    @pytest.mark.parametrize(
        "kind,field,value,message",
        [
            ("nodes", "potency", "x", "potency: bad potency 'x', expected 'min-max'"),
            ("nodes", "potency", "2-1", "potency: bad potency '2-1': min exceeds max"),
            ("nodes", "type", "Node", "type: type reference 'Node' must be 'model.element'"),
            ("nodes", "supertypes", ["a", 3], "supertypes[1]: expected a string"),
            ("arrows", "potency", "1", "potency: bad potency '1', expected 'min-max'"),
            ("arrows", "multiplicity", "1..x", "multiplicity: bad multiplicity '1..x', expected 'l..u'"),
            ("arrows", "multiplicity", "2..1", "multiplicity: bad multiplicity '2..1': lower exceeds upper"),
            ("arrows", "type", "Arrow", "type: type reference 'Arrow' must be 'model.element'"),
            ("nodes", "potency", "1-1\n", "potency: bad potency '1-1\\n', expected 'min-max'"),
            ("nodes", "potency", "\u0661-\u0662", "potency: bad potency '\u0661-\u0662', expected 'min-max'"),
            ("arrows", "multiplicity", "0..1\n", "multiplicity: bad multiplicity '0..1\\n', expected 'l..u'"),
            ("arrows", "multiplicity", "\u0660..n", "multiplicity: bad multiplicity '\u0660..n', expected 'l..u'"),
            pytest.param(
                "nodes", "potency", "1-" + "9" * 5000,
                "potency: bad potency: a bound has too many digits",
                id="nodes-potency-5000-digits",
            ),
            pytest.param(
                "arrows", "multiplicity", "0.." + "9" * 5000,
                "multiplicity: bad multiplicity: a bound has too many digits",
                id="arrows-multiplicity-5000-digits",
            ),
        ],
    )
    def test_malformed_value_names_its_json_path(
        self, tmp_path, capsys, kind, field, value, message
    ):
        data = small_hierarchy()
        data["models"][1][kind][0][field] = value
        path = tmp_path / "h.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: models[1].{kind}[0].{message}\n"

    def test_parent_of_the_wrong_kind_names_its_json_path(self, tmp_path, capsys):
        data = small_hierarchy()
        data["models"][1]["parent"] = ["root"]
        path = tmp_path / "h.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "input error: models[1].parent: expected a string\n"

    @pytest.mark.parametrize(
        "kind,type_ref,message",
        [
            ("nodes", "ghost.Node", "m1: node 'a' has unknown type 'ghost.Node'"),
            ("arrows", "ghost.Arrow", "m1: unknown type model 'ghost'"),
        ],
    )
    def test_unknown_type_model_is_a_schema_error(
        self, tmp_path, capsys, kind, type_ref, message
    ):
        data = small_hierarchy()
        data["models"][1][kind][0]["type"] = type_ref
        path = tmp_path / "h.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_hierarchy_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_bytes(json.dumps(small_hierarchy()).encode() + b"\xff\xfe")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{path}: not valid UTF-8 at byte" in err

    def test_rules_that_are_not_utf8_exit_two(self, tmp_path, capsys):
        path = tmp_path / "r.mcmt"
        path.write_bytes(b"rules X {\n  \xc3\x28\n}\n")
        assert main(["fmt", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{path}: not valid UTF-8 at byte 12" in err


class TestInvalidInputs:
    @pytest.mark.parametrize(
        "command",
        [
            ["proliferate"],
            ["apply", "--rule", "CreatePart"],
            ["run", "--steps", "5", "--seed", "0"],
        ],
    )
    def test_every_problem_is_reported_and_nothing_written(
        self, paths, tmp_path, capsys, command
    ):
        _, rules = paths
        data = small_hierarchy()
        for kind in ("nodes", "arrows"):  # m1.a and m1.e jump one level
            data["models"][0][kind][0]["potency"] = "2-2"
        path = tmp_path / "h.json"
        path.write_text(json.dumps(data))
        h = load_hierarchy(str(path))
        problems = [str(issue) for issue in validate_hierarchy(h)]
        for rule in parse_rule_module(read_text(rules)).rules:
            problems.extend(validate_rule(rule, h.model(h.root).graph))
        assert len(problems) > 1

        code = main([command[0], str(path), rules, "--target", "m1", *command[1:]])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == problems


class TestRulesCheck:
    def test_fixture_rules_pass(self, paths, capsys):
        hierarchy, rules = paths
        assert main(["rules", "check", rules, "--hierarchy", hierarchy]) == 0
        assert "4 rule(s), 0 problem(s)" in capsys.readouterr().out

    def test_syntax_error_is_line_anchored(self, tmp_path, capsys):
        broken = tmp_path / "broken.mcmt"
        broken.write_text("rules X {\n  rule {\n}\n")
        assert main(["rules", "check", str(broken)]) == 1
        err = capsys.readouterr().err
        assert "SyntaxError" in err
        assert "2:" in err  # the offending line number


class TestProliferate:
    def test_summary_line_and_breakdown(self, paths, capsys):
        hierarchy, rules = paths
        code = main(
            ["proliferate", hierarchy, rules, "--target", "hammer_config"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 MCMT rules -> 21 two-level rules" in out
        assert "Assemble: 12 two-level rule(s)" in out

    def test_json_output(self, paths, tmp_path, capsys):
        hierarchy, rules = paths
        dest = tmp_path / "rules.json"
        code = main(
            [
                "proliferate",
                hierarchy,
                rules,
                "--target",
                "hammer_config",
                "-o",
                str(dest),
            ]
        )
        assert code == 0
        payload = json.loads(dest.read_text())
        assert len(payload["rules"]) == 21


class TestApply:
    def test_single_application_prints_successor(self, paths, capsys):
        hierarchy, rules = paths
        code = main(
            [
                "apply",
                hierarchy,
                rules,
                "--target",
                "hammer_config",
                "--rule",
                "CreatePart",
                "--match",
                "0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        names = {m["name"] for m in payload["models"]}
        assert "hammer_config" in names
        config = next(m for m in payload["models"] if m["name"] == "hammer_config")
        assert any(n["name"] == "p1$0" for n in config["nodes"])

    def test_unknown_rule_exits_one(self, paths, capsys):
        hierarchy, rules = paths
        code = main(
            [
                "apply",
                hierarchy,
                rules,
                "--target",
                "hammer_config",
                "--rule",
                "Nope",
            ]
        )
        assert code == 1


class TestRun:
    def test_bounded_run_with_trace(self, paths, tmp_path, capsys):
        hierarchy, rules = paths
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "run",
                hierarchy,
                rules,
                "--target",
                "hammer_config",
                "--steps",
                "5",
                "--seed",
                "0",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # final hierarchy on stdout
        lines = trace.read_text().strip().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["rule"] for line in lines)


class TestRootTarget:
    """The root has no typing chain above it, so no META pattern matches there."""

    @pytest.mark.parametrize(
        "command, extra, code, out_line, err_line",
        [
            ("proliferate", [], 0, "4 MCMT rules -> 0 two-level rules", None),
            ("apply", ["--rule", "CreatePart"], 1, None, "no proliferated rule named 'CreatePart'"),
            ("run", ["--steps", "5", "--seed", "0"], 0, None, "0 step(s) applied"),
        ],
        ids=["proliferate", "apply", "run"],
    )
    def test_root_target_has_no_matches(self, paths, capsys, command, extra, code, out_line, err_line):
        hierarchy, rules = paths
        assert main([command, hierarchy, rules, "--target", "root", *extra]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.splitlines() == ([err_line] if err_line else [])
        if out_line:
            assert captured.out.splitlines()[-1] == out_line


class TestFmt:
    def test_formatting_is_idempotent(self, paths, capsys):
        hierarchy, rules = paths
        assert main(["fmt", rules]) == 0
        once = capsys.readouterr().out
        assert once == open(rules).read()


class TestUsage:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_option_exits_two(self, paths, capsys):
        hierarchy, rules = paths
        assert main(["proliferate", hierarchy, rules]) == 2

    def test_negative_step_count_exits_two(self, paths, capsys):
        hierarchy, rules = paths
        argv = ["run", hierarchy, rules, "--target", "hammer_config", "--steps", "-1", "--seed", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["usage error: --steps must be 0 or more, got -1"]
