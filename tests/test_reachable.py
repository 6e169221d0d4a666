"""Every top-level definition of the package is reached from the command
line, a paper criterion or a named oracle.

A top-level definition of ``src/fiberline/*.py`` reaches every top-level
definition its code names: in its own module, through a relative import, or
as an attribute of an imported module.  The roots are ``cli.main``, every
name ``tests/test_acceptance.py`` imports, and ``ORACLES``.  A definition
that no root reaches, a private helper or constant as much as a name in
``__all__``, has no caller that runs an experiment, and fails the guard.
The package itself binds only its submodules, so no top-level alias is a
second copy of a public name.
"""
import __future__
import ast
import pathlib
import types

import fiberline

SRC = pathlib.Path(fiberline.__file__).resolve().parent
ACCEPTANCE = pathlib.Path(__file__).resolve().parent / "test_acceptance.py"
ORACLES = {
    ("linespace", "lines_to_records"),  # the byte oracle of test_writer.py
    ("linespace", "point_at"),  # the chord march oracle of test_geometry.py
    ("randkit", "uniform01"),  # the scalar draws, public stream API
    ("randkit", "gaussian"),
}


def _module(source: str) -> tuple[dict, dict]:
    """The top-level definitions of a module, name -> syntax nodes, and its
    relative imports, local name -> (module, name), with name None for a
    module imported whole."""
    tree = ast.parse(source)
    defs, imports = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.setdefault(node.name, []).append(node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs.setdefault(name.id, []).append(node)
    # imports inside functions count too, as the lazy ones in cli do
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                target = (node.module, alias.name) if node.module else (alias.name, None)
                imports[alias.asname or alias.name] = target
    return defs, imports


def _unreached(sources: dict[str, str], roots: set[tuple[str, str]]) -> list[str]:
    """``module.name`` of each top-level definition but ``__all__`` in
    ``sources`` (module name -> source text) that ``roots`` do not reach."""
    modules = {mod: _module(src) for mod, src in sources.items()}

    def resolve(mod, name):
        # follow re-exports to the module that defines the name
        while name not in modules[mod][0]:
            if name not in modules[mod][1]:
                return None
            mod, name = modules[mod][1][name]
            if name is None:  # a submodule, or a name the package defines
                if mod in modules:
                    return None
                mod, name = "__init__", mod
        return mod, name

    def mentions(mod, node):
        imports = modules[mod][1]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve(mod, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = imports.get(sub.value.id)
                if target and target[1] is None:  # a module imported whole
                    yield resolve(target[0], sub.attr)

    pending = []
    for mod, name in roots:
        found = resolve(mod, name)
        assert found is not None, f"root {mod}.{name} is not defined"
        pending.append(found)
    reached = set()
    while pending:
        key = pending.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        for node in modules[key[0]][0][key[1]]:
            pending.extend(mentions(key[0], node))

    return [f"{mod}.{name}" for mod, (defs, _) in sorted(modules.items())
            for name in sorted(defs)
            if name != "__all__" and (mod, name) not in reached]


def _acceptance_roots() -> set[tuple[str, str]]:
    """(module, name) of each name the paper criteria import from the package."""
    roots = set()
    for node in ast.walk(ast.parse(ACCEPTANCE.read_text())):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("fiberline."):
            mod = node.module.split(".", 1)[1]
            roots.update((mod, alias.name) for alias in node.names)
    return roots


def test_package_binds_only_its_submodules():
    # each public name lives in its submodule alone; a top-level alias would
    # be a second copy that the graph above does not read
    submodules = {"errors", "randkit", "haar", "linespace", "bundle",
                  "geometry", "stats"}
    assert sorted(fiberline.__all__) == sorted({"__version__"} | submodules)
    aliases = [name for name, value in vars(fiberline).items()
               if not name.startswith("_") and value is not __future__.annotations
               and not isinstance(value, types.ModuleType)]
    assert aliases == []


def test_every_definition_is_reached():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    roots = {("cli", "main")} | _acceptance_roots() | ORACLES
    assert _unreached(sources, roots) == []


_TOY = {
    "__init__": "from . import cli, core\n\n__version__ = '1'\n\n"
                "__all__ = ['__version__', 'cli', 'core']\n",
    "cli": "from . import core, __version__\nfrom .util import helper\n\n"
           "def main():\n    return core.used() + helper() + __version__\n",
    "core": "__all__ = ['used', 'Kept', 'dead', 'only_dead_calls_me']\n"
            "_SCALE = 2\n\n"
            "def used():\n    return Kept() * _SCALE\n\n"
            "class Kept:\n    pass\n\n"
            "def _orphan():\n    return 0\n\n"
            "def dead():\n    return only_dead_calls_me()\n\n"
            "def only_dead_calls_me():\n    return 0\n",
    "util": "__all__ = ['helper']\n\ndef helper():\n    return 1\n",
}


def test_reachability_guard_sees_an_unreached_function():
    # reached: through a module attribute, an imported name, a class, a
    # constant and a name the package defines; a name that only an
    # unreached function mentions is unreached too, and so is a private one
    main = ("cli", "main")
    assert _unreached(_TOY, {main}) == [
        "core._orphan", "core.dead", "core.only_dead_calls_me"]
    assert _unreached(_TOY, {main, ("core", "dead")}) == ["core._orphan"]
