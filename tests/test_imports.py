"""Every import of the package is used, and each entry point imports only
what it runs.

A name that a module imports and never reads is dead weight at best and a
second home for a name at worst (a re-export that callers start to rely
on).  A module that means to re-export a name lists it in `__all__`.  A
name that a function imports is read in that function.

`import swsos` loads no submodule, `import swsos.cli` loads the modules of
the simulation and oracle half, and only the commands that certify load
the certify stack (certify, sos, backend).

Every function, class and method the package defines is read by the
package or by perfbench: a name that only tests read is code kept for its
tests, and each such name that stays on purpose is listed with its reason.
certify and oracle take a region's vertex fields from the one list of the
theorem's conditions, `SwitchedSystem.conditions`; the functions that read
them on their own are listed with their reasons too.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swsos"


def _imports_of(scope) -> dict:
    """Names the imports of one scope bind -> line: the statements of a
    module or a function, not those of a function or class inside it."""
    bound, todo = {}, list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
            todo[:0] = ast.iter_child_nodes(node)
    return bound


def _unread_imports(source: str) -> list:
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    unread = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef)))]:
        read = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(line, name) for name, line in _imports_of(scope).items()
                   if name not in read
                   and not (scope is tree and name in exported)]
    return [f"line {line}: {name}"
            for line, name in sorted(unread, key=lambda u: u[0])]


def test_the_check_sees_an_unread_import():
    assert _unread_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"]
    assert _unread_imports("from a import b\n__all__ = ['b']\n") == []
    # a function's import is read in that function, not elsewhere
    assert _unread_imports(
        "import os\ndef f():\n    import os\n    if 1:\n"
        "        from a import b, c\n    c()\nos.sep\n") == [
        "line 3: os", "line 5: b"]
    assert _unread_imports(
        "def f():\n    from a import b\n    def g():\n        return b\n"
        "    return g\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_level_imports_are_read(module):
    assert _unread_imports((PACKAGE / module).read_text()) == []


# -- every package name has a reader -------------------------------------------

ROOT = PACKAGE.parent.parent
# names that neither the package nor perfbench reads, each kept on purpose
UNREAD_ON_PURPOSE = {
    "system_to_dict": "tests pin parse_system against its documents",
    "vertex_convexity_check": "acceptance criterion 9 calls it",
    "sos_decompose": "acceptance criterion 5 calls it",
    "extract_sos_split": "acceptance criterion 5 calls it",
}


def _defined_names(source: str) -> dict:
    """Module-level functions and classes and their non-dunder methods,
    name -> line."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, defs):
            names[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            names.update((item.name, item.lineno) for item in node.body
                         if isinstance(item, defs)
                         and not (item.name.startswith("__") and item.name.endswith("__")))
    return names


def _read_names(source: str) -> set:
    """Names read as a Name or an Attribute, imported under an alias, or
    spelled out by a string constant that is a dotted name (as perfbench
    names its tracer targets); prose such as a docstring is not a reader."""
    read = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read.add(n.attr)
        elif isinstance(n, ast.alias):
            read.update(n.name.split("."))
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", n.value)):
            read.update(n.value.split("."))
    return read


def _unread_names(defined: dict, readers) -> list:
    read = set().union(*(_read_names(s) for s in readers))
    return sorted(f"{module}:{line}: {name}"
                  for module, names in defined.items()
                  for name, line in names.items() if name not in read)


def test_the_check_sees_a_name_only_tests_read():
    defined = {"m.py": _defined_names(
        "def used(): pass\ndef unread(): pass\n"
        "class C:\n    def __init__(self): pass\n    def meth(self): pass\n"
        "def traced(): pass\n")}
    readers = ["used()\nC().other\n", "TARGETS = ['m.traced']\n",
               "'''unread is named in this docstring only'''\n"]
    assert _unread_names(defined, readers) == ["m.py:2: unread", "m.py:5: meth"]


def test_every_package_name_is_read_by_the_package_or_perfbench():
    defined = {p.name: _defined_names(p.read_text()) for p in PACKAGE.glob("*.py")}
    readers = [p.read_text() for p in [*(ROOT / "src").rglob("*.py"),
                                       *(ROOT / "perfbench").rglob("*.py")]
               if not p.name.startswith("test_")]
    unread = _unread_names(defined, readers)
    assert [u for u in unread if u.split(": ")[-1] not in UNREAD_ON_PURPOSE] == []
    # every allowlisted name is still defined and still unread
    assert sorted(u.split(": ")[-1] for u in unread) == sorted(UNREAD_ON_PURPOSE)


# -- the theorem's conditions have one list ------------------------------------

# functions of certify.py and oracle.py that read a region's vertex fields
# themselves instead of taking them from SwitchedSystem.conditions
READS_VERTICES_ON_PURPOSE = {
    "check_attractivity": "ROADMAP item 20 replaces it with entries of the list",
    "vertex_convexity_check": "acceptance criterion 9 checks the vertex-only "
                              "argument itself",
}


def _vertex_readers(source: str) -> set:
    """The top-level functions and classes that read an attribute named
    vertices, and "<module>" for a read outside them."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name if isinstance(node, defs) else "<module>"
            for node in ast.parse(source).body
            if any(isinstance(n, ast.Attribute) and n.attr == "vertices"
                   and isinstance(n.ctx, ast.Load) for n in ast.walk(node))}


def test_the_check_sees_a_vertices_read():
    assert _vertex_readers(
        "def f(r):\n    return [v for v in r.vertices]\n"
        "def g(c):\n    return c.field\n"
        "class C:\n    def m(self):\n        return self.vertices\n"
        "x = s.vertices\n") == {"f", "C", "<module>"}


def test_certify_and_oracle_take_vertex_fields_from_the_conditions():
    readers = set().union(*(_vertex_readers((PACKAGE / m).read_text())
                            for m in ("certify.py", "oracle.py")))
    assert readers == set(READS_VERTICES_ON_PURPOSE)


# -- each entry point loads only its modules -----------------------------------

CLI_MODULES = {"cli", "oracle", "poly", "sim", "system", "_kernels"}
CERTIFY_STACK = {"certify", "sos", "backend"}


def _loaded_after(code: str, cwd: Path) -> set:
    """The swsos submodules, and logging, that a fresh interpreter holds
    after it runs code."""
    probe = code + (
        "\nimport sys\nprint('loaded:', *(m.removeprefix('swsos.') for m in"
        " sys.modules if m.startswith('swsos.') or m == 'logging'))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(out.rpartition("loaded:")[2].split())


def _main(*argv) -> str:
    return f"from swsos import cli\ncli.main({list(argv)!r})"


@pytest.mark.parametrize("code, modules", [
    ("import swsos", set()),
    ("import swsos.cli", CLI_MODULES),
    (_main("--out-dir", "{out}", "verify", "{systems}/quadrant-cubic.sys",
           "{systems}/quadrant-cubic-V.lyap"), CLI_MODULES),
    (_main("--out-dir", "{out}", "simulate", "{systems}/quadrant-cubic.sys",
           "--x0", "1,1", "--t-end", "0.1"), CLI_MODULES),
    (_main("--out-dir", "{out}", "certify", "{systems}/unstable-scalar.sys",
           "--degree", "2"), CLI_MODULES | CERTIFY_STACK | {"logging"}),
], ids=["package", "cli", "verify", "simulate", "certify"])
def test_each_entry_point_loads_only_its_modules(code, modules, tmp_path):
    code = code.format(out=tmp_path, systems=ROOT / "systems")
    assert _loaded_after(code, tmp_path) == modules
