"""Command-line front end.

Subcommands: validate, rules check, proliferate, apply, run, fmt.
Exit codes: 0 success, 1 validation/application failure, 2 usage, parse
or input errors and paths that cannot be read or written.  Each call of
`main` reads the log level from the MLM_LOG environment variable; at info or
debug, `proliferate -o` and `run` print one `INFO mlmt:` line each to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .engine import apply_two_level_rule, run as run_engine
from .errors import InputError, MlmtError, ParseError
from .hierarchy import (
    hierarchy_to_json,
    load_hierarchy,
    read_text,
    validate_hierarchy,
)
from .matching import proliferate_all, rule_set_to_json
from .rules import parse_rule_module, print_rule_module, validate_rule

_LOG_LEVELS = ("error", "warn", "info", "debug")


def _info_admitted() -> bool:
    """Whether the level MLM_LOG names admits info lines, which the commands print to stderr
    themselves.  Unset, the level is warn; another value is named on stderr and logs at warn."""
    name = os.environ.get("MLM_LOG", "")
    if name and name.lower() not in _LOG_LEVELS:
        print(f"warning: MLM_LOG={name!r} is not one of {', '.join(_LOG_LEVELS)}; logging at warn",
              file=sys.stderr)
    return name.lower() in ("info", "debug")


def _write(path: str, text: str) -> bool:
    """Write `text` to `path`; False, once the reason is printed, if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        print(f"cannot write {path}: {err.strerror}", file=sys.stderr)
        return False
    return True


def _load_inputs(args, leaf: bool = False):
    """The hierarchy and rule module of a command, or its exit code once the reason is printed:
    2 for a target that is not a model, or, where the command rewrites it (`leaf`), a model with
    child models; 1 for every problem that validation finds in them."""
    h, module = load_hierarchy(args.hierarchy), parse_rule_module(read_text(args.rules))
    if args.target not in h.models:
        print(f"usage error: --target {args.target!r} is not a model of {args.hierarchy}", file=sys.stderr)
        return 2
    if leaf and any(m.parent == args.target for m in h.models.values()):
        print(f"usage error: --target {args.target!r} is not a leaf model of {args.hierarchy}",
              file=sys.stderr)
        return 2
    problems = [str(i) for i in validate_hierarchy(h)]
    root_graph = h.model(h.root).graph
    for rule in module.rules:
        problems.extend(validate_rule(rule, root_graph))
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else (h, module)


def cmd_validate(args) -> int:
    h = load_hierarchy(args.hierarchy)
    issues = validate_hierarchy(h)
    for issue in issues:
        print(str(issue), file=sys.stderr)
    print(f"{len(issues)} violation(s) in {args.hierarchy}")
    return 0 if not issues else 1


def cmd_rules_check(args) -> int:
    try:
        module = parse_rule_module(read_text(args.rules))
    except ParseError as err:
        print(f"{args.rules}: SyntaxError: {err}", file=sys.stderr)
        return 1
    root_graph = None
    if args.hierarchy:  # only the root names of level-0 types need it
        h = load_hierarchy(args.hierarchy)
        root_graph = h.model(h.root).graph
    problems = [p for rule in module.rules for p in validate_rule(rule, root_graph)]
    for p in problems:
        print(p, file=sys.stderr)
    print(f"{len(module.rules)} rule(s), {len(problems)} problem(s)")
    return 0 if not problems else 1


def cmd_proliferate(args) -> int:
    inputs = _load_inputs(args)
    if isinstance(inputs, int):
        return inputs
    h, module = inputs
    per_rule = proliferate_all(module.rules, h, args.target)
    total = 0
    all_rules = []
    for name, rules in per_rule.items():
        print(f"  {name}: {len(rules)} two-level rule(s)")
        total += len(rules)
        all_rules.extend(rules)
    print(f"{len(module.rules)} MCMT rules -> {total} two-level rules")
    if args.output:
        if not _write(args.output, json.dumps(rule_set_to_json(all_rules), indent=2) + "\n"):
            return 2
        if args.info:
            print(f"INFO mlmt: wrote {total} rules to {args.output}", file=sys.stderr)
    return 0


def cmd_apply(args) -> int:
    inputs = _load_inputs(args, leaf=True)
    if isinstance(inputs, int):
        return inputs
    h, module = inputs
    per_rule = proliferate_all(module.rules, h, args.target)
    candidates = [r for rules in per_rule.values() for r in rules]
    chosen = [r for r in candidates if r.name == args.rule or r.source_rule == args.rule]
    if not chosen:
        print(f"no proliferated rule named {args.rule!r}", file=sys.stderr)
        return 1
    model = h.model(args.target)
    successors = []
    for tl_rule in chosen:
        results, skipped = apply_two_level_rule(tl_rule, model, h)
        for s in skipped:
            print(s, file=sys.stderr)
        successors.extend(results)
    if not successors:
        print("no applicable match", file=sys.stderr)
        return 1
    index = args.match if args.match is not None else 0
    if not 0 <= index < len(successors):
        print(
            f"match index {index} out of range (0..{len(successors) - 1})",
            file=sys.stderr,
        )
        return 1
    result = successors[index]
    out = hierarchy_to_json(h.with_model(result.model))
    sys.stdout.write(json.dumps(out, indent=2))  # one write, not one per encoder chunk
    print()
    return 0


def cmd_run(args) -> int:
    if args.steps < 0:
        print(f"usage error: --steps must be 0 or more, got {args.steps}", file=sys.stderr)
        return 2
    inputs = _load_inputs(args, leaf=True)
    if isinstance(inputs, int):
        return inputs
    h, module = inputs
    trace = run_engine(list(module.rules), h, args.target, args.steps, args.seed)
    if args.info:
        print(f"INFO mlmt: run stopped: {trace.stop}", file=sys.stderr)
    if args.trace and not _write(args.trace, trace.to_json_lines()):
        return 2
    sys.stdout.write(json.dumps(hierarchy_to_json(trace.final), indent=2))
    print(flush=True)
    print(f"{len(trace.steps)} step(s) applied", file=sys.stderr)
    return 0


def cmd_fmt(args) -> int:
    module = parse_rule_module(read_text(args.rules))
    sys.stdout.write(print_rule_module(module))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlmt", description="Multilevel model transformation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a hierarchy file")
    p.add_argument("hierarchy")
    p.set_defaults(func=cmd_validate)

    p_rules = sub.add_parser("rules", help="rule file operations")
    rules_sub = p_rules.add_subparsers(dest="rules_command", required=True)
    p = rules_sub.add_parser("check", help="parse and validate rules")
    p.add_argument("rules")
    p.add_argument("--hierarchy", help="hierarchy providing the root graph")
    p.set_defaults(func=cmd_rules_check)

    p = sub.add_parser("proliferate", help="compile MCMTs to two-level rules")
    p.add_argument("hierarchy")
    p.add_argument("rules")
    p.add_argument("--target", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_proliferate)

    p = sub.add_parser("apply", help="apply one rule once")
    p.add_argument("hierarchy")
    p.add_argument("rules")
    p.add_argument("--target", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--match", type=int)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("run", help="seeded bounded execution")
    p.add_argument("hierarchy")
    p.add_argument("rules")
    p.add_argument("--target", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("fmt", help="canonical rule formatting")
    p.add_argument("rules")
    p.set_defaults(func=cmd_fmt)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    info = _info_admitted()  # before parsing, so the warning comes before a usage error
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    args.info = info
    try:
        code = args.func(args)
        sys.stdout.flush()  # a stdout that cannot take the output fails here, not at exit
        return code
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # an input path that is missing, a directory or unreadable
        if err.filename is None:  # not a path: stdout closed early or its device full
            print(f"cannot write stdout: {err.strerror}", file=sys.stderr)
            # the interpreter flushes stdout again at exit; send what is left nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 2
        print(f"cannot read {err.filename}: {err.strerror}", file=sys.stderr)
        return 2
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except MlmtError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
