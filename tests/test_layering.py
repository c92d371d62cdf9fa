"""The package's modules form layers: each imports only modules below it.

Read from the source with `ast`, so an import made inside a function counts too.
"""

import ast
import os

import mlmt

# bottom first; `__init__` re-exports every layer and is not one
LAYERS = ["errors", "graphs", "hierarchy", "chains", "rules", "matching", "engine", "cli"]
PACKAGE = os.path.dirname(mlmt.__file__)


def relative_imports(name: str) -> set:
    """The sibling modules that the module `name` imports, by relative import."""
    with open(os.path.join(PACKAGE, name + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
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
