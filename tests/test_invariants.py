"""Source invariants of the library, checked on its syntax tree.

Postconditions must survive `python -O`, which strips assert statements, the
runtime depends on the standard library only, and the arithmetic is exact:
no float literal and no use of the name `float`.  Memory stays per request:
no process-wide memo (`functools.cache`, `functools.lru_cache`).  Fractions
are built through their public constructor only: the private `_normalize`
argument is gone in Python 3.12.  Every value class derives from
`errors.Value`, whose `__init__` is the one writer of a slot: no dataclass,
and no `cached_property` (a constructor computes what its value derives).
"""

import ast
import sys
from pathlib import Path

import conicbundle

PACKAGE = Path(conicbundle.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _trees():
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_are_found():
    assert {"cli.py", "projline.py", "twist.py", "delpezzo.py"} <= {p.name for p in SOURCES}


def test_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _imported_roots(node):
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []  # a relative import stays inside the package


def test_imports_are_stdlib_or_package():
    allowed = set(sys.stdlib_module_names) | {"__future__", "conicbundle"}
    found = [f"{name}:{node.lineno} {root}" for name, tree in _trees()
             for node in ast.walk(tree) for root in _imported_roots(node)
             if root not in allowed]
    assert found == []


def _is_float(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    return isinstance(node, ast.Name) and node.id == "float"


def test_no_floats():
    found = [f"{name}:{node.lineno}" for name, tree in _trees()
             for node in ast.walk(tree) if _is_float(node)]
    assert found == []


_MEMOS = {"cache", "lru_cache"}


def _is_memo(node):
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name in _MEMOS for alias in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in _MEMOS
            and isinstance(node.value, ast.Name) and node.value.id == "functools")


def test_no_process_wide_memo():
    found = [f"{name}:{node.lineno}" for name, tree in _trees()
             for node in ast.walk(tree) if _is_memo(node)]
    assert found == []


def test_no_private_fraction_argument():
    found = [f"{name}:{node.value.lineno}" for name, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.keyword) and node.arg == "_normalize"]
    assert found == []


def _writes_a_slot(fn):
    return any(isinstance(n, ast.Attribute) and n.attr == "__setattr__"
               and isinstance(n.value, ast.Name) and n.value.id == "object"
               for n in ast.walk(fn))


def test_values_have_one_writer():
    found = [f"{name}:{node.lineno}" for name, tree in _trees() for node in ast.walk(tree)
             if "dataclasses" in _imported_roots(node)
             or isinstance(node, ast.Name) and node.id == "cached_property"
             or isinstance(node, ast.Attribute) and node.attr == "cached_property"]
    writers = [f"{name}:{fn.name}" for name, tree in _trees() for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and _writes_a_slot(fn)]
    assert found == [] and writers == ["errors.py:__init__"]
