"""The package's modules form layers: each imports only modules below it,
and from outside the package only the standard library.

Read from the source with `ast`, so an import made inside a function counts too.
"""

import ast
import os
import subprocess
import sys

import mlmt

from support import child_env

# bottom first; `__init__` re-exports every layer and is not one
LAYERS = ["errors", "graphs", "hierarchy", "chains", "rules", "matching", "engine", "cli"]
PACKAGE = os.path.dirname(mlmt.__file__)


def parsed(name: str) -> ast.Module:
    with open(os.path.join(PACKAGE, name + ".py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def relative_imports(name: str) -> set:
    """The sibling modules that the module `name` imports, by relative import."""
    found = set()
    for node in ast.walk(parsed(name)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_every_module_is_in_a_layer():
    modules = {f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py")}
    assert modules == set(LAYERS) | {"__init__"}


def test_each_module_imports_only_modules_below_it():
    for i, name in enumerate(LAYERS):
        above = relative_imports(name) - set(LAYERS[:i])
        assert not above, f"{name} imports {sorted(above)}"


# the standard library modules the package imports; the package depends on
# nothing else, so a third-party import (a faster JSON or regular expression
# parser, say) fails here until this list is changed on purpose
STDLIB = {
    "__future__", "argparse", "bisect", "functools", "itertools", "json",
    "operator", "os", "random", "re", "sys", "typing",
}


def absolute_imports(name: str) -> set:
    """The modules that the module `name` imports by absolute import."""
    found = set()
    for node in ast.walk(parsed(name)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    return found


def test_the_package_imports_only_the_standard_library():
    outside = {name: sorted(absolute_imports(name) - STDLIB) for name in LAYERS + ["__init__"]}
    assert outside == {name: [] for name in LAYERS + ["__init__"]}


def test_importing_the_cli_loads_no_dataclasses_inspect_or_logging():
    # importing is most of a short `mlmt run`, in time and memory; the CLI prints
    # its info lines itself, and the records need no `dataclasses`, which would
    # bring `inspect` with it
    env = child_env()
    env.pop("MLM_LOG", None)
    code = (
        "import sys; before = set(sys.modules); import mlmt.cli; "
        "print(sorted({'dataclasses', 'inspect', 'logging'} & set(sys.modules) - before))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_a_run_that_logs_at_info_loads_no_logging():
    # the info lines go straight to stderr, so no level of MLM_LOG brings `logging` in
    tests = os.path.dirname(os.path.abspath(__file__))
    hierarchy = os.path.join(tests, "..", "fixtures", "pls.json")
    rules = os.path.join(tests, "fixtures", "scrap_machine.mcmt")
    argv = ["run", hierarchy, rules, "--target", "hammer_config", "--steps", "3", "--seed", "0"]
    code = (
        "import sys; from mlmt.cli import main; code = main(sys.argv[1:]); "
        "print('logging' in sys.modules, code, file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], env={**child_env(), "MLM_LOG": "info"},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        "INFO mlmt: run stopped: all-matches-dangling", "0 step(s) applied", "False 0"
    ]


def unused_imports(name: str) -> list:
    """The names that the module `name` imports and never reads; `__future__`
    features are not names."""
    tree = parsed(name)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_each_module_uses_what_it_imports():
    # `__init__` imports to re-export, so it is not checked
    unused = {name: unused_imports(name) for name in LAYERS}
    assert unused == {name: [] for name in LAYERS}


# the top-level definitions that no other code of the package reads, each with why it stays
UNREAD = {"engine.apply_mcmt": "the direct-route oracle that the tests check the compiled route by"}


def unreferenced_definitions() -> list:
    """`module.name` of each top-level `def` or `class` of the package whose name no code of
    the package reads outside that definition; `__init__` only re-exports, so it does not
    count as a reader.  A relative import reads the name it imports, as `run as run_engine`
    does: `test_each_module_uses_what_it_imports` checks that the import is read in turn."""
    trees = {name: parsed(name) for name in LAYERS}
    read = {}  # name -> the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                read.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    read.setdefault(alias.name, []).append(node)
    found = []
    for module, tree in trees.items():
        for d in tree.body:
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                inside = {id(n) for n in ast.walk(d)}
                if all(id(n) in inside for n in read.get(d.name, ())):
                    found.append(f"{module}.{d.name}")
    return sorted(found)


def test_every_definition_is_read_by_the_package():
    assert unreferenced_definitions() == sorted(UNREAD)
