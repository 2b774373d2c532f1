"""Every import in the library is from the standard library or declared,
every exported name resolves, and every definition is named somewhere
in the library or listed with the reason it stays."""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0].lower() for d in deps}


def imported_packages(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "etmass" if node.level else node.module.split(".")[0]


def test_imports_are_stdlib_or_declared():
    allowed = set(sys.stdlib_module_names) | {"etmass"} | declared_dependencies()
    sources = sorted((ROOT / "src" / "etmass").glob("*.py"))
    assert sources
    undeclared = {
        (path.name, name)
        for path in sources
        for name in imported_packages(path)
        if name.lower() not in allowed
    }
    assert not undeclared


@pytest.mark.parametrize("module", ["etmass", "etmass.massquartic"])
def test_all_exports_resolve(module):
    # a deleted function must not leave a stale name that breaks
    # ``from module import *``
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def unused_imports(path):
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_every_import_is_used():
    # a deletion must not leave behind the imports only it needed
    sources = sorted((ROOT / "src" / "etmass").glob("*.py"))
    assert sources
    assert {(path.name, name) for path in sources for name in unused_imports(path)} == set()


def imported_modules(path):
    """Dotted names of the modules a file imports, relative imports of
    etmass written out as ``etmass.<name>``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "etmass" if node.level else node.module
            if node.level and node.module:
                base += "." + node.module
            if node.level and not node.module:
                yield from (f"{base}.{alias.name}" for alias in node.names)
            else:
                yield base


def test_oracles_consult_no_formula_and_the_library_no_test():
    # the oracles check the mass formulas, so they may not import them;
    # and the test-side references stay outside the library
    src = ROOT / "src" / "etmass"
    formulas = {f"etmass.{m}" for m in ("massquartic", "massprime", "density")}
    assert set(imported_modules(src / "oracle.py")) & formulas == set()
    test_modules = {"tests"} | {path.stem for path in (ROOT / "tests").glob("*.py")}
    assert "omega_reference" in test_modules
    assert {
        (path.name, name)
        for path in sorted(src.glob("*.py"))
        for name in imported_modules(path)
        if name.split(".")[0] in test_modules
    } == set()


FRACTION_SLOTS = {"_numerator", "_denominator"}


def fraction_slot_writes(path):
    """(function, slot) for each write of a ``Fraction`` slot in a file:
    an assignment to ``x._numerator`` or ``x._denominator``, or a
    ``setattr`` naming one."""

    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                yield from targets(elt)
        elif isinstance(node, ast.Starred):
            yield from targets(node.value)
        else:
            yield node

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Assign):
            written = [t for target in node.targets for t in targets(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            written = list(targets(node.target))
        else:
            written = []
        for t in written:
            if isinstance(t, ast.Attribute) and t.attr in FRACTION_SLOTS:
                yield func, t.attr
        if isinstance(node, ast.Call) and len(node.args) > 1:
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            slot = node.args[1]
            if (
                name in ("setattr", "__setattr__")
                and isinstance(slot, ast.Constant)
                and slot.value in FRACTION_SLOTS
            ):
                yield func, slot.value
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), None)


def test_fraction_slots_are_set_in_one_helper():
    # a Fraction built around its constructor skips the reduction; only
    # the helper the tests check against Fraction() may do it
    writes = {
        (path.name, func, slot)
        for path in sorted((ROOT / "src" / "etmass").glob("*.py"))
        for func, slot in fraction_slot_writes(path)
    }
    assert writes == {
        ("density.py", "_fraction_from_coprime", "_numerator"),
        ("density.py", "_fraction_from_coprime", "_denominator"),
    }


def named_in(node):
    """Every name a syntax tree mentions: variables, attributes and
    imported names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (a.name for a in n.names)


def registered(node):
    """Whether a decorator registers the function, as ``@main.command()``
    registers a click command."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def unnamed_definitions():
    """The top-level functions and classes of the library, and their
    methods, whose name the library never mentions outside their own
    body.  Exempt: the package's ``__all__``, registered functions, and
    dunder methods, which Python calls by protocol."""
    src = ROOT / "src" / "etmass"
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(src.glob("*.py"))}
    named = Counter(name for tree in trees.values() for name in named_in(tree))
    exported = set(importlib.import_module("etmass").__all__)
    defs = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{mod}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{mod}.{node.name}.{m.name}", m) for m in node.body if isinstance(m, ast.FunctionDef)]
    return {
        qual
        for qual, node in defs
        if node.name not in exported
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not registered(node)
        and named[node.name] == Counter(named_in(node))[node.name]
    }


# every library definition that no library code names, with the reason
# it stays
UNNAMED_ALLOWED = {
    "fplinalg.backend_name": "perfbench/worker.py records it with each run",
    "massprime.closed_form_alpha": "ROADMAP item 4 must settle it (tests call it)",
    "massquartic.hilbert2": "ROADMAP item 4 must settle it; perfbench's tracer names it",
    "oracle.enum_tame": "ROADMAP item 4 must settle it (tests call it)",
}


def test_no_unnamed_library_code():
    # new library code that nothing in the library calls fails here; a
    # name that stays must be listed above with its reason
    assert unnamed_definitions() == set(UNNAMED_ALLOWED)
