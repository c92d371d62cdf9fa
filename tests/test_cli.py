import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest

import mlmt.hierarchy
from mlmt.cli import main
from mlmt.hierarchy import load_hierarchy, read_text, validate_hierarchy
from mlmt.rules import parse_rule_module, validate_rule

from support import child_env, two_arrow_root_document

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


# `x` is typed by `c = M -> P`, but its end `p` is typed `M`, whose type chain has no `P`
TYPING_INCOMPATIBLE = """rules X {
  rule Bad {
    meta {
      M : Machine mm1
      P : Part mm1
      c : creates mm1
      c = M -> P
    }
    from {
      m : M
      p : M
      x : c
      x = m -> p
    }
    to {
      m : M
      p : M
      x : c
      x = m -> p
    }
  }
}
"""


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

    def test_supertypes_on_an_arrow_record_exit_two(self, tmp_path, capsys):
        data = small_hierarchy()
        data["models"][1]["arrows"][0]["supertypes"] = ["nonsense"]
        path = tmp_path / "h.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: models[1].arrows[0].supertypes: only nodes inherit\n"

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

    @pytest.mark.parametrize(
        "name, parent",
        [
            # if the later model replaced the earlier one, these would read as
            # a parent cycle and as a root without its node types
            ("m1", "m1"),
            ("root", "root"),
        ],
    )
    def test_repeated_model_name_is_reported_as_such(
        self, tmp_path, capsys, name, parent
    ):
        data = small_hierarchy()
        data["models"].append({"name": name, "parent": parent, "nodes": []})
        path = tmp_path / "h.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: duplicate model name {name!r}\n"

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


class TestUnusablePaths:
    """A path that cannot be read or written ends in one line and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{dir}"],
            ["rules", "check", "{dir}"],
            ["proliferate", "{dir}", "{rules}", "--target", "hammer_config"],
            ["run", "{hierarchy}", "{dir}", "--target", "hammer_config", "--steps", "1", "--seed", "0"],
        ],
        ids=["validate", "rules-check", "proliferate-hierarchy", "run-rules"],
    )
    def test_directory_as_input(self, paths, tmp_path, capsys, argv):
        hierarchy, rules = paths
        argv = [a.format(dir=tmp_path, hierarchy=hierarchy, rules=rules) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"cannot read {tmp_path}: Is a directory"]

    def test_unreadable_input(self, paths, monkeypatch, capsys):
        hierarchy, _ = paths

        def denied(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        # file modes do not stop a superuser, so the refusal is simulated
        monkeypatch.setattr(mlmt.hierarchy, "open", denied, raising=False)
        assert main(["validate", hierarchy]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"cannot read {hierarchy}: Permission denied"]

    def test_output_in_a_missing_directory(self, paths, tmp_path, capsys):
        hierarchy, rules = paths
        out = tmp_path / "missing" / "rules.json"
        argv = ["proliferate", hierarchy, rules, "--target", "hammer_config", "-o", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"cannot write {out}: No such file or directory"]
        assert not out.exists()

    def test_directory_as_trace(self, paths, tmp_path, capsys):
        hierarchy, rules = paths
        argv = ["run", hierarchy, rules, "--target", "hammer_config", "--steps", "3", "--seed", "0"]
        assert main([*argv, "--trace", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"cannot write {tmp_path}: Is a directory"]


def _run_cli(argv, stdout):
    """Run `python -m mlmt.cli` in a child process with `stdout` as its standard output."""
    return subprocess.run(
        [sys.executable, "-m", "mlmt.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=child_env(),
        text=True,
        timeout=120,
    )


class TestStdoutFailures:
    """A stdout that cannot take the output ends in exit 2 and one line, at any output size."""

    def test_closed_pipe(self, paths):
        hierarchy, rules = paths
        read_end, write_end = os.pipe()
        os.close(read_end)  # as `| head -c 10` does once it has its bytes
        try:
            argv = ["run", hierarchy, rules, "--target", "hammer_config", "--steps", "400", "--seed", "0"]
            proc = _run_cli(argv, write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["cannot write stdout: Broken pipe"]

    def test_in_process_call_leaks_no_descriptor(self, paths, monkeypatch, capsys):
        # a stand-in stdout that takes the text but cannot flush it, over a temporary file's
        # descriptor, which `main` points at the null device
        class BrokenStdout(io.StringIO):
            def __init__(self, fd):
                super().__init__()
                self.fd = fd

            def flush(self):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

            def fileno(self):
                return self.fd

        opened, closed = [], []
        real_open, real_close = os.open, os.close

        def tracking_open(*args):
            opened.append(real_open(*args))
            return opened[-1]

        def tracking_close(fd):
            closed.append(fd)
            real_close(fd)

        with tempfile.TemporaryFile() as fh:
            monkeypatch.setattr(sys, "stdout", BrokenStdout(fh.fileno()))
            monkeypatch.setattr(os, "open", tracking_open)
            monkeypatch.setattr(os, "close", tracking_close)
            code = main(["fmt", paths[1]])
            monkeypatch.undo()
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"cannot write stdout: {os.strerror(errno.EPIPE)}"]
        assert len(opened) == 1 and closed == opened

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_full_device(self, paths):
        hierarchy, rules = paths
        with open("/dev/full", "w") as full:
            argv = ["run", hierarchy, rules, "--target", "hammer_config", "--steps", "5", "--seed", "0"]
            proc = _run_cli(argv, full)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["cannot write stdout: No space left on device"]


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

    def test_meta_only_syntax_in_a_pattern_exits_one(self, paths, tmp_path, capsys):
        extra = tmp_path / "extra.mcmt"
        extra.write_text(pattern_with_meta_syntax(paths[1]))
        assert main(["rules", "check", str(extra)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"{extra}: SyntaxError: 10:14: a META level, '$' or potency belongs in the meta block"
        ]

    def test_rule_declared_twice_exits_one(self, paths, tmp_path, capsys):
        with open(paths[1], encoding="utf-8") as fh:
            text = fh.read()
        first = text.index("  rule CreatePart")
        end = text.index("  rule ", first + 1)
        twice = tmp_path / "twice.mcmt"
        twice.write_text(text[:end] + text[first:end] + text[end:])
        assert main(["rules", "check", str(twice)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: PlantBehaviour: rule 'CreatePart' declared twice (line 19, first at line 2)"
        ]

    @pytest.mark.parametrize("with_hierarchy", [False, True])
    def test_empty_meta_block_has_one_message(self, paths, tmp_path, capsys, with_hierarchy):
        rules = tmp_path / "empty.mcmt"
        rules.write_text("rules X {\n  rule A {\n    meta {\n    }\n    from {\n    }\n    to {\n    }\n  }\n}\n")
        argv = ["rules", "check", str(rules)] + (["--hierarchy", paths[0]] if with_hierarchy else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "1 rule(s), 1 problem(s)\n"
        assert captured.err.splitlines() == ["A: MetaEmpty — the meta block must contain a pattern"]

    @pytest.mark.parametrize("with_hierarchy", [False, True])
    def test_arrow_end_typed_off_its_meta_arrow_is_reported(self, paths, tmp_path, capsys, with_hierarchy):
        # only the root names of level-0 types need the hierarchy, and this rule has none
        rules = tmp_path / "ends.mcmt"
        rules.write_text(TYPING_INCOMPATIBLE)
        want = [
            f"Bad/{which}: TypingIncompatibility — endpoint 'p' of 'x' is typed 'M', but 'c' expects 'P'"
            for which in ("from", "to")
        ]
        hierarchy = load_hierarchy(paths[0])
        (rule,) = parse_rule_module(TYPING_INCOMPATIBLE).rules
        root = hierarchy.model(hierarchy.root).graph if with_hierarchy else None
        assert validate_rule(rule, root) == want
        argv = ["rules", "check", str(rules)] + (["--hierarchy", paths[0]] if with_hierarchy else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "1 rule(s), 2 problem(s)\n"
        assert captured.err.splitlines() == want

    def test_label_of_several_root_arrows_fails_the_check(self, paths, tmp_path, capsys):
        # the hierarchy is valid, but proliferation finds no single root arrow `Arrow`
        hierarchy = tmp_path / "two_arrows.json"
        hierarchy.write_text(json.dumps(two_arrow_root_document(paths[0])))
        assert main(["validate", str(hierarchy)]) == 0
        capsys.readouterr()
        assert main(["rules", "check", paths[1], "--hierarchy", str(hierarchy)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "4 rule(s), 8 problem(s)\n"
        assert captured.err.splitlines()[:2] == [
            f"SendPartOut: {name!r} references root arrow type 'Arrow', which labels 2 root arrows"
            for name in ("out", "contains")
        ]

    @pytest.mark.parametrize(
        "argv, last",
        [
            (["rules", "check", "{rules}", "--hierarchy", "{hierarchy}"], ["1 rule(s), 2 problem(s)"]),
            (["rules", "check", "{rules}"], ["1 rule(s), 2 problem(s)"]),
            (["proliferate", "{hierarchy}", "{rules}", "--target", "hammer_config"], []),
        ],
    )
    def test_meta_type_cycle_rejected_without_hanging(self, paths, argv, last):
        # the META arrow `a` is typed by itself at its own level; its type chain
        # ends there instead of following it forever; each command runs in a
        # child process with a timeout and a bounded address space, so that a
        # walk around the cycle fails here instead of hanging or filling memory
        hierarchy = paths[0]
        rules = os.path.join(FIXTURES, "meta_type_cycle.mcmt")
        code = """if True:
            import sys
            try:
                import resource
                resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            except (ImportError, OSError, ValueError):
                pass
            from mlmt.cli import main
            sys.exit(main(sys.argv[1:]))
        """
        args = [a.format(rules=rules, hierarchy=hierarchy) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-c", code, *args], capture_output=True, env=child_env(), text=True, timeout=20
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "r: 'X' (node) typed by 'a' (arrow)",
            "r: 'a' typed at level 1, not above its own level 1",
        ]
        assert proc.stdout.splitlines() == last


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

    @pytest.mark.parametrize(
        "rule, match, message",
        [
            ("CreatePart", "99", "match index 99 out of range (0..1)"),
            ("CreatePart", "-1", "match index -1 out of range (0..1)"),
            ("Assemble", None, "no applicable match"),
        ],
    )
    def test_no_successor_exits_one(self, paths, capsys, rule, match, message):
        hierarchy, rules = paths
        argv = ["apply", hierarchy, rules, "--target", "hammer_config", "--rule", rule]
        if match is not None:
            argv += ["--match", match]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    def test_every_match_dangling_reports_each_skip(self, paths, capsys):
        hierarchy, _ = paths
        scrap = os.path.join(FIXTURES, "scrap_machine.mcmt")
        argv = ["apply", hierarchy, scrap, "--target", "hammer_config", "--rule", "ScrapMachine"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        skip = "skipped match, deleting a node would orphan surviving arrow"
        assert captured.err.splitlines() == [
            f"ScrapMachine_0: {skip} ('asm', 'in', 't1')",
            f"ScrapMachine_1: {skip} ('ghandle', 'out', 'cv1')",
            f"ScrapMachine_2: {skip} ('ghead', 'out', 'cv2')",
            "no applicable match",
        ]


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

    def test_run_writes_the_benchmark_golden_bytes(self, paths, tmp_path, capsys):
        # stdout and the trace file of a 50-step run hash to the digests the
        # benchmark checks its seed-0 run against
        hierarchy, rules = paths
        trace = tmp_path / "trace.jsonl"
        argv = ["run", hierarchy, rules, "--target", "hammer_config", "--steps", "50", "--seed", "0"]
        assert main([*argv, "--trace", str(trace)]) == 0
        golden = os.path.join(os.path.dirname(__file__), "..", "perfbench", "golden.json")
        with open(golden, encoding="utf-8") as fh:
            want = json.load(fh)["0"]
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want["final"]
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == want["trace"]

    @pytest.mark.parametrize("level", [None, "info"])
    def test_stop_reason_is_logged_at_info(self, paths, monkeypatch, level):
        _set_log(monkeypatch, level)
        proc = _run_cli(scrap_run(paths[0], 10), subprocess.PIPE)
        assert proc.returncode == 0
        logged = ["INFO mlmt: run stopped: all-matches-dangling"] if level else []
        assert proc.stderr.splitlines() == [*logged, "0 step(s) applied"]


ROOT_NOT_A_LEAF = "usage error: --target 'root' is not a leaf model of {}"


class TestRootTarget:
    """The root has no typing chain above it, so no META pattern matches there; it has child
    models, so `run` and `apply`, which rewrite their target, refuse it."""

    @pytest.mark.parametrize(
        "command, extra, code, out_line, err_line",
        [
            ("proliferate", [], 0, "4 MCMT rules -> 0 two-level rules", None),
            ("apply", ["--rule", "CreatePart"], 2, None, ROOT_NOT_A_LEAF),
            ("run", ["--steps", "5", "--seed", "0"], 2, None, ROOT_NOT_A_LEAF),
        ],
        ids=["proliferate", "apply", "run"],
    )
    def test_root_target_has_no_matches(self, paths, capsys, command, extra, code, out_line, err_line):
        hierarchy, rules = paths
        assert main([command, hierarchy, rules, "--target", "root", *extra]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.splitlines() == ([err_line.format(hierarchy)] if err_line else [])
        if out_line:
            assert captured.out.splitlines()[-1] == out_line


# deletes the hammer plant's machines, which type the elements of `hammer_config`
DROP_MACHINE = """rules P {
  rule DropMachine {
    meta { Machine : Node$ mm0 }
    from { m : Machine }
    to { }
  }
}
"""


class TestNonLeafTarget:
    """A step deletes and creates elements of its target, which the elements of its child models
    may be typed by, so `run` and `apply` rewrite only a leaf model; `proliferate`, which
    rewrites nothing, compiles onto any model."""

    def test_the_rule_passes_the_checks_and_proliferates(self, paths, tmp_path, capsys):
        hierarchy, _ = paths
        rules = tmp_path / "drop.mcmt"
        rules.write_text(DROP_MACHINE)
        assert main(["rules", "check", str(rules), "--hierarchy", hierarchy]) == 0
        assert main(["proliferate", hierarchy, str(rules), "--target", "hammer_plant"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "1 MCMT rules -> 1 two-level rules"

    @pytest.mark.parametrize(
        "command, extra",
        [("apply", ["--rule", "DropMachine"]), ("run", ["--steps", "1", "--seed", "0"])],
        ids=["apply", "run"],
    )
    def test_a_target_with_child_models_exits_two(self, paths, tmp_path, capsys, command, extra):
        hierarchy, _ = paths
        rules = tmp_path / "drop.mcmt"
        rules.write_text(DROP_MACHINE)
        assert main([command, hierarchy, str(rules), "--target", "hammer_plant", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"usage error: --target 'hammer_plant' is not a leaf model of {hierarchy}"
        ]


class TestFmt:
    def test_formatting_is_idempotent(self, paths, capsys):
        hierarchy, rules = paths
        assert main(["fmt", rules]) == 0
        once = capsys.readouterr().out
        with open(rules, encoding="utf-8") as fh:
            assert once == fh.read()

    def test_meta_only_syntax_in_a_pattern_exits_two(self, paths, tmp_path, capsys):
        # printing the module back would drop the extras, so fmt refuses it
        extra = tmp_path / "extra.mcmt"
        extra.write_text(pattern_with_meta_syntax(paths[1]))
        assert main(["fmt", str(extra)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "parse error: 10:14: a META level, '$' or potency belongs in the meta block"
        ]


def pattern_with_meta_syntax(rules_path: str) -> str:
    """The PLS rules with `$ mm7 @2-5` after the first FROM declaration, at line 10."""
    with open(rules_path, encoding="utf-8") as fh:
        text = fh.read()
    return text.replace("      m1 : M1\n    }\n    to {", "      m1 : M1$ mm7 @2-5\n    }\n    to {", 1)


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

    @pytest.mark.parametrize(
        "command, extra",
        [("proliferate", []), ("apply", ["--rule", "CreatePart"]), ("run", ["--steps", "5", "--seed", "0"])],
        ids=["proliferate", "apply", "run"],
    )
    def test_unknown_target_exits_two(self, paths, capsys, command, extra):
        hierarchy, rules = paths
        assert main([command, hierarchy, rules, "--target", "nosuch", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"usage error: --target 'nosuch' is not a model of {hierarchy}"]


DOCUMENTED = [None, "", "error", "warn", "info", "debug", "DEBUG"]
UNKNOWN_LEVEL = "warning: MLM_LOG='trace' is not one of error, warn, info, debug; logging at warn"


class TestLogLevel:
    """`MLM_LOG` names one of four levels; another value is named on stderr
    before the command runs, which then logs at `warn`."""

    def validate(self, paths, monkeypatch, value):
        _set_log(monkeypatch, value)
        return _run_cli(["validate", paths[0]], subprocess.PIPE)

    @pytest.mark.parametrize("value", DOCUMENTED)
    def test_a_documented_level_adds_no_line(self, paths, monkeypatch, value):
        proc = self.validate(paths, monkeypatch, value)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"0 violation(s) in {paths[0]}\n"

    def test_an_unknown_level_is_named(self, paths, monkeypatch):
        unset = self.validate(paths, monkeypatch, None)
        proc = self.validate(paths, monkeypatch, "trace")
        assert (proc.returncode, proc.stdout) == (unset.returncode, unset.stdout)
        assert proc.stderr.splitlines() == [UNKNOWN_LEVEL]

    @pytest.mark.parametrize("value", [*DOCUMENTED, "trace"])
    def test_each_level_in_this_process(self, paths, monkeypatch, capsys, tmp_path, value):
        # what the child processes above show, through `main` in this process, where the
        # host may have set up `logging` itself; a run's stop reason and a written rule file
        # are the info lines
        _set_log(monkeypatch, value)
        warned = [UNKNOWN_LEVEL] if value == "trace" else []
        info = value in ("info", "debug", "DEBUG")
        assert main(["validate", paths[0]]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err.splitlines()) == (f"0 violation(s) in {paths[0]}\n", warned)
        assert main(scrap_run(paths[0], 3)) == 0
        logged = ["INFO mlmt: run stopped: all-matches-dangling"] if info else []
        assert capsys.readouterr().err.splitlines() == [*warned, *logged, "0 step(s) applied"]
        out = tmp_path / "rules.json"
        assert main(["proliferate", *paths, "--target", "hammer_config", "-o", str(out)]) == 0
        logged = [f"INFO mlmt: wrote 21 rules to {out}"] if info else []
        assert capsys.readouterr().err.splitlines() == [*warned, *logged]
        assert main(scrap_run(paths[0], 3)[:-2]) == 2  # no --seed: the warning comes first
        err = capsys.readouterr().err.splitlines()
        assert err[: len(warned)] == warned and err[len(warned)].startswith("usage: mlmt run ")
        assert err[-1] == "mlmt run: error: the following arguments are required: --seed"

    @pytest.mark.parametrize("second", [None, "error"])
    def test_each_call_logs_at_its_own_level(self, paths, monkeypatch, second):
        # each call reads MLM_LOG afresh and writes to the stderr it finds; the first call's
        # stream is closed before the second runs, so a write to it would fail there
        def stderr_of(value):
            _set_log(monkeypatch, value)
            with io.StringIO() as err:
                with contextlib.redirect_stderr(err):
                    assert main(scrap_run(paths[0], 3)) == 0
                return err.getvalue()

        assert stderr_of("info") == "INFO mlmt: run stopped: all-matches-dangling\n0 step(s) applied\n"
        assert stderr_of(second) == "0 step(s) applied\n"


def _set_log(monkeypatch, value):
    """Set MLM_LOG to `value`, or unset it for None."""
    monkeypatch.delenv("MLM_LOG", raising=False)
    if value is not None:
        monkeypatch.setenv("MLM_LOG", value)


def scrap_run(hierarchy: str, steps: int) -> list:
    """The argv of a seed-0 `run` of `scrap_machine.mcmt` on `hammer_config`, which stops at
    once: every match of its rules would leave a dangling arrow."""
    rules = os.path.join(FIXTURES, "scrap_machine.mcmt")
    return ["run", hierarchy, rules, "--target", "hammer_config", "--steps", str(steps), "--seed", "0"]
