"""Every private module-level function, class and constant of ``ccmm`` has
a reader.

Code that nothing calls any more is deleted, not kept.  The check parses
each module of ``src/ccmm`` with ``ast`` and, for every top-level ``def``,
``class`` or assigned name that has one leading underscore, looks for a
reference to that name anywhere in the package outside its own definition:
a use of the name, an attribute of that name, or an import of it.

Every blocked kernel also sizes its blocks from one byte budget,
``quasimetric._ROW_BUDGET``: no other module defines a ``*_BUDGET`` name.

The package holds no ``assert`` statement: ``python -O`` strips them, so a
condition the code relies on at run time raises instead.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ccmm"


def referenced_names(node):
    """Every name the subtree of ``node`` uses, reads as an attribute or imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def defined_names(node):
    """The names a top-level statement defines: a function's or class's, or
    the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def orphans(src=SRC):
    """(module, name) of every private top-level function, class or
    constant of the package at ``src`` that nothing outside its own
    definition refers to."""
    tops = [(path.name, node) for path in sorted(src.glob("*.py"))
            for node in ast.parse(path.read_text()).body]
    used = [set(referenced_names(node)) for _, node in tops]
    return [(module, name) for i, (module, node) in enumerate(tops)
            for name in defined_names(node)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in names for j, names in enumerate(used) if j != i)]


def budgets(src=SRC):
    """(module, name) of every top-level name of the package at ``src``
    that ends in ``_BUDGET``."""
    return [(path.name, name) for path in sorted(src.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            for name in defined_names(node) if name.endswith("_BUDGET")]


def asserts(src=SRC):
    """(module, line) of every ``assert`` statement of the package at ``src``."""
    return [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)]


def test_every_private_function_and_class_has_a_reference():
    assert orphans() == []


def test_an_unreferenced_helper_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _self_only():\n    return _self_only()\n\n\n"
        "class _Imported:\n    pass\n\n\n"
        "_READ = 2\n_UNREAD: int = 3\n__dunder__ = 4\nPUBLIC = 5\n\n\n"
        "def public():\n    return _used() + _READ\n")
    (tmp_path / "b.py").write_text("from .a import _Imported\n")
    assert orphans(tmp_path) == [("a.py", "_self_only"), ("a.py", "_UNREAD")]


def test_one_block_budget():
    assert budgets() == [("quasimetric.py", "_ROW_BUDGET")]


def test_a_second_budget_is_reported(tmp_path):
    (tmp_path / "quasimetric.py").write_text("_ROW_BUDGET = 8 << 20\n")
    (tmp_path / "spectrum.py").write_text(
        "from .quasimetric import _ROW_BUDGET\n\n"
        "_SCRATCH_BUDGET: int = 32 << 20\n_BUDGETS = 1\n")
    assert budgets(tmp_path) == [("quasimetric.py", "_ROW_BUDGET"),
                                 ("spectrum.py", "_SCRATCH_BUDGET")]


def test_no_assert_statement():
    assert asserts() == []


def test_an_assert_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x):\n    # assert x, in a comment\n    if x:\n        assert x > 0\n"
        "    return 'assert'\n")
    (tmp_path / "b.py").write_text("assert True\n")
    assert asserts(tmp_path) == [("a.py", 4), ("b.py", 1)]
