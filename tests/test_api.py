"""The public names: each module's ``__all__`` is the one list of them."""

import ast
import functools
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hvnet


def test_all_names_are_defined_and_the_package_root_holds_only_the_version():
    modules = [
        importlib.import_module(f"hvnet.{info.name}")
        for info in pkgutil.iter_modules(hvnet.__path__)
    ]
    assert len(modules) >= 9
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], module.__name__
    # Importing the submodules binds them on the package; nothing else may be there.
    library = [
        name for name, value in vars(hvnet).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    ]
    assert library == []
    assert isinstance(hvnet.__version__, str)


def test_the_light_modules_load_neither_scipy_nor_the_harness():
    # The README's promise: these modules need numpy alone.
    code = (
        "import json, sys\n"
        "import hvnet.data, hvnet.hdc, hvnet.encoding, hvnet.errors\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    src = str(Path(hvnet.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=120, check=True)
    loaded = json.loads(done.stdout)
    assert "hvnet.data" in loaded
    heavy = [
        name for name in loaded
        if name.startswith(("scipy", "click")) or name in ("hvnet.classifiers", "hvnet.harness")
    ]
    assert heavy == []



REPO = Path(__file__).resolve().parent.parent


def _imported_from(node):
    """The absolute module an ``ast.ImportFrom`` imports from; relative ones lie in hvnet."""
    if not node.level:
        return node.module
    return ".".join(filter(None, ["hvnet", node.module]))


def _dotted(node):
    """``a.b.c`` for a chain of attribute lookups on a bare name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _loads_outside_own_definition(tree):
    """Bare names loaded anywhere except inside the definition of that same name."""
    names = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in inside:
            names.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return names


def _references(tree, own_module=None):
    """The (module, name) pairs that one parsed file refers to.

    A reference is an import of the name from its module, or an attribute
    lookup on the module object itself (``hvnet.harness.run_version``, not
    ``int.from_bytes``).  In ``own_module``, a bare name loaded outside its
    own definition counts too.
    """
    modules = {}  # local name -> the module it is bound to
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                modules[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = _imported_from(node)
            for alias in node.names:
                modules[alias.asname or alias.name] = f"{base}.{alias.name}"
                found.add((base, alias.name))
    for node in ast.walk(tree):
        owner = _dotted(node.value) if isinstance(node, ast.Attribute) else None
        if owner is not None:
            head, _, rest = owner.partition(".")
            found.add((".".join(filter(None, [modules.get(head, head), rest])), node.attr))
    if own_module is not None:
        found.update((own_module, name) for name in _loads_outside_own_definition(tree))
    return found


def _public_names(path):
    """The names in the ``__all__`` of one parsed library file, or None without one."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


LIBRARY = sorted((REPO / "src" / "hvnet").glob("*.py"))
PUBLIC = {
    f"hvnet.{path.stem}": names
    for path in LIBRARY if (names := _public_names(path)) is not None
}


@functools.lru_cache(maxsize=1)
def _users():
    """Every (module, name) pair that the library, the benchmark or the acceptance tests use."""
    users = set()
    for path in LIBRARY:
        users |= _references(ast.parse(path.read_text(encoding="utf-8")), f"hvnet.{path.stem}")
    for path in [*sorted((REPO / "perfbench").glob("*.py")), REPO / "tests" / "test_acceptance.py"]:
        users |= _references(ast.parse(path.read_text(encoding="utf-8")))
    return users


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_every_public_name_has_a_user(module):
    # Users are the library itself, the benchmark and the acceptance tests;
    # a name that only its own unit tests call is not part of the program.
    assert len(PUBLIC) >= 7
    unused = sorted(name for name in PUBLIC[module] if (module, name) not in _users())
    assert unused == []


@pytest.mark.parametrize("source, own_module, pair", [
    ("from hvnet.hdc import clip", None, ("hvnet.hdc", "clip")),
    ("from .hdc import clip", None, ("hvnet.hdc", "clip")),
    ("from . import hdc\nhdc.clip", None, ("hvnet.hdc", "clip")),
    ("import hvnet.harness\nhvnet.harness.run_version", None, ("hvnet.harness", "run_version")),
    ("import hvnet.network as net\nnet.compress", None, ("hvnet.network", "compress")),
    ("def f():\n    return g\ndef g():\n    pass", "hvnet.m", ("hvnet.m", "g")),
], ids=["absolute-import", "relative-import", "package-import", "dotted-lookup",
        "aliased-lookup", "call-from-another-function"])
def test_a_reference_is_an_import_or_a_use_of_the_name(source, own_module, pair):
    assert pair in _references(ast.parse(source), own_module)


@pytest.mark.parametrize("source, own_module, pair", [
    ("int.from_bytes(b'', 'little')", None, ("hvnet.compression", "from_bytes")),
    ("def cosine(x):\n    return cosine(x)", "hvnet.hdc", ("hvnet.hdc", "cosine")),
    ("class KeySet:\n    def copy(self):\n        return KeySet()", "hvnet.compression",
     ("hvnet.compression", "KeySet")),
    ("MAGIC = b'HRRC'", "hvnet.compression", ("hvnet.compression", "MAGIC")),
], ids=["lookup-on-another-object", "own-function", "own-class", "assignment"])
def test_lookups_on_other_objects_and_self_references_are_not_uses(source, own_module, pair):
    assert pair not in _references(ast.parse(source), own_module)


def _unloaded_imports(tree):
    """The names that one parsed file's imports bind and that it never loads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
    return sorted(bound - _loads_outside_own_definition(tree))


@pytest.mark.parametrize("source, unloaded", [
    ("import os\nfrom hvnet.hdc import clip, superpose\nclip()", ["os", "superpose"]),
    ("import hvnet.network\nhvnet.network.run_version", []),
    ("from hypothesis import strategies as st\n@st.composite\ndef f(draw):\n    pass", []),
], ids=["unused", "dotted-module", "alias-in-decorator"])
def test_an_import_is_unused_when_its_name_is_never_loaded(source, unloaded):
    assert _unloaded_imports(ast.parse(source)) == unloaded


# test_acceptance.py is exempt: no change edits it, and the reach check counts
# its imports as users of the names they bind.
@pytest.mark.parametrize("path", [
    path for path in sorted((REPO / "tests").glob("*.py")) if path.name != "test_acceptance.py"
], ids=lambda path: path.name)
def test_test_files_load_every_name_they_import(path):
    assert _unloaded_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
