"""Every numerical tolerance of mesq is an entry of the one table in core.

The table is the first run of module-level assignments in ``mesq/core.py``
whose values hold a float literal below 1e-3 or an earlier entry. No other
statement in the package writes such a literal or defines a module-level float
constant, and no public function takes a tolerance that no caller sets.
"""

import ast
import inspect
import pathlib

import pytest

import mesq
from mesq import bipartite, core, fourqubit, nnls, resource
from mesq import tripartite as tri

SRC = pathlib.Path(mesq.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
MAX_ENTRIES = 20


def _small_floats(node):
    return [n for n in ast.walk(node) if isinstance(n, ast.Constant)
            and type(n.value) is float and 0 < abs(n.value) < 1e-3]


def _target(stmt):
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        return getattr(stmt.targets[0], "id", None)
    if isinstance(stmt, ast.AnnAssign):
        return getattr(stmt.target, "id", None)
    return None


def _parse(path):
    return ast.parse(path.read_text())


def _table(core_tree):
    """The table's statements in core, by entry name."""
    entries = {}
    for stmt in core_tree.body:
        name = _target(stmt)
        reads = {n.id for n in ast.walk(stmt.value) if isinstance(n, ast.Name)} if name else ()
        if name and (_small_floats(stmt.value) or entries.keys() & reads):
            assert name not in entries, f"core.{name} is assigned twice"
            entries[name] = stmt
        elif entries:
            break
    return entries


def _is_float_constant(stmt):
    if _target(stmt) is None:
        return False
    value = stmt.value.operand if isinstance(stmt.value, ast.UnaryOp) else stmt.value
    return isinstance(value, ast.Constant) and type(value.value) is float


def test_table_is_small_and_every_entry_is_read():
    table = _table(_parse(SRC / "core.py"))
    assert 0 < len(table) <= MAX_ENTRIES
    reads = {n.id for path in MODULES for n in ast.walk(_parse(path))
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert set(table) <= reads, f"never read: {sorted(set(table) - reads)}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_tolerance_outside_the_table(path):
    tree = _parse(path)
    table = _table(tree).values() if path.name == "core.py" else ()
    literals, constants = [], []
    for stmt in tree.body:
        if any(stmt is entry for entry in table):
            continue
        literals += [f"line {n.lineno}: {n.value!r}" for n in _small_floats(stmt)]
        if _is_float_constant(stmt):
            constants.append(f"line {stmt.lineno}: {_target(stmt)}")
    assert literals == [], f"{path.name}: tolerance literals outside core's table"
    assert constants == [], f"{path.name}: float constants outside core's table"


def test_tolerances_read_by_tests_stay_importable():
    assert core.PHASE_EQUAL_TOL == 1e-9
    assert tri.HYPERDET_THRESHOLD is core.HYPERDET_THRESHOLD


@pytest.mark.parametrize("fn", [
    core.lu_equivalent, core.random_invertible, core.random_product_invertible, nnls.nnls,
    fourqubit.is_generic, fourqubit.classify_factor, bipartite.majorizes,
    tri.ghz_standard_form, tri.extract_ghz_form, tri.w_standard_form, tri.extract_w_form,
    resource.verify_rep_determinism,
], ids=lambda fn: fn.__name__)
def test_no_tolerance_keyword_that_no_caller_sets(fn):
    knobs = {"tol", "restarts", "iters", "max_iter", "s_min", "s_max"}
    assert knobs.isdisjoint(inspect.signature(fn).parameters)
