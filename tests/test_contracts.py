"""Package-wide contracts: deadlines, the canonical polynomial key, exports,
and static checks on the source (stdlib-only imports, a float-free kernel)."""

from __future__ import annotations

import ast
import importlib
import json
import pkgutil
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cadlab
from cadlab.cadbuild import build_cad, evaluate_formula_on_cells
from cadlab.errors import ComputeTimeout, Deadline, checkpoint
from cadlab.formulas import Atom, BoolOp, identify_ecs
from cadlab.heuristics import order_by_fulldim, order_by_ndrr, order_by_sotd
from cadlab.ordering import VarOrdering
from cadlab.polys import Poly, _poly_sort_key
from cadlab.problem import Problem


def P(terms):
    return Poly(2, terms)


XY = VarOrdering((0, 1))
CIRCLE = P({(2, 0): 1, (0, 2): 1, (0, 0): -1})
CIRCLE2 = P({(2, 0): 1, (1, 0): -2, (0, 2): 1})


def _evaluate(deadline, atom=Atom(CIRCLE, "<")):
    tree = build_cad([CIRCLE, CIRCLE2], XY)
    return evaluate_formula_on_cells(tree, atom, deadline=deadline)


# the five entry points that take ``deadline=``, each reduced to a comparable answer
ENTRY_POINTS = {
    "order_by_sotd": lambda dl: order_by_sotd([CIRCLE, CIRCLE2], 2, deadline=dl).scores,
    "order_by_sotd_greedy": lambda dl: order_by_sotd(
        [CIRCLE, CIRCLE2], 2, strategy="greedy", deadline=dl
    ).scores,
    "order_by_ndrr": lambda dl: order_by_ndrr([CIRCLE, CIRCLE2], 2, deadline=dl).scores,
    "order_by_fulldim": lambda dl: order_by_fulldim([CIRCLE, CIRCLE2], 2, deadline=dl).scores,
    "build_cad": lambda dl: build_cad([CIRCLE, CIRCLE2], XY, deadline=dl).counts,
    "evaluate_formula_on_cells": _evaluate,
    # a sign-mode tree's zero sets decide this atom on every leaf, so no
    # sign is computed and only the per-leaf check can see the budget
    "evaluate_formula_on_cells_zero_sets": lambda dl: _evaluate(dl, Atom(CIRCLE, "=")),
}


class TestDeadlineContract:
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_expired_deadline_raises_and_scope_is_restored(self, name):
        with pytest.raises(ComputeTimeout):
            ENTRY_POINTS[name](Deadline(time.monotonic() - 1.0))
        checkpoint()  # no scoped deadline is left behind

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_no_deadline_runs_to_completion(self, name):
        assert ENTRY_POINTS[name](None) == ENTRY_POINTS[name](Deadline.after_ms(60_000))

    @pytest.mark.parametrize("ms", [float("nan"), -1, -0.5])
    def test_a_nan_or_negative_budget_is_refused(self, ms):
        # nan compares false with every time, so its deadline would never expire
        with pytest.raises(ValueError, match="non-negative"):
            Deadline.after_ms(ms)

    def test_a_zero_budget_is_spent_and_a_past_deadline_is_expired(self):
        zero = Deadline.after_ms(0)
        time.sleep(0.001)
        for deadline in (zero, Deadline(time.monotonic() - 1.0)):
            with pytest.raises(ComputeTimeout):
                deadline.check()



class TestCanonicalKey:
    def test_fraction_and_int_coefficients_are_one_key(self):
        a = P({(1, 0): Fraction(2), (0, 0): Fraction(-2)})
        b = P({(1, 0): 2, (0, 0): -2})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_input_polys_keeps_one_copy_of_rational_multiples(self):
        two_x_minus_two = Poly(1, {(1,): 2, (0,): -2})
        x_minus_one = Poly(1, {(1,): 1, (0,): -1})
        problem = Problem("dup", ("x",), polys=(two_x_minus_two, Poly.const(1, 5), x_minus_one))
        assert problem.input_polys() == [x_minus_one]

    def test_identify_ecs_sorted_by_poly_sort_key(self):
        line = P({(1, 0): 1, (0, 1): -1})
        formula = BoolOp("and", (Atom(CIRCLE, "="), Atom(CIRCLE2, "<"), Atom(line, "="),
                                 Atom(P({(0, 1): 3}), "=")))
        ecs = identify_ecs(formula)
        assert all(isinstance(p, Poly) for p in ecs)
        assert ecs == sorted(ecs, key=_poly_sort_key)
        assert set(ecs) == {CIRCLE, line, P({(0, 1): 1})}


MODULES = ["cadlab"] + [f"cadlab.{m.name}" for m in pkgutil.iter_modules(cadlab.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


# perfbench's tracer wraps these names by attribute lookup; a rename or a
# removal here would break its install() (the file is only read)
SPEC = Path(__file__).resolve().parent.parent / "perfbench" / "spec.json"
TRACED = [
    (layer["module"], fn)
    for layer in (json.loads(SPEC.read_text(encoding="utf-8"))["layers"] if SPEC.exists() else [])
    for fn in layer["functions"]
]


@pytest.mark.parametrize("module,fn", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_functions_are_callable(module, fn):
    assert callable(getattr(importlib.import_module(f"cadlab.{module}"), fn, None))


SRC = Path(cadlab.__file__).resolve().parent


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_cadlab(path):
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert roots - set(sys.stdlib_module_names) - {"cadlab"} == set()


@pytest.mark.parametrize("module", ["dense", "polys", "realroots", "algpoints"])
def test_kernel_has_no_floats(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    # AlgebraicNumber.approx is the one sanctioned exit to floating point
    allowed = {
        id(n)
        for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "AlgebraicNumber"
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "approx"
        for n in ast.walk(fn)
    }
    found = [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in allowed and (
            (isinstance(node, ast.Constant) and isinstance(node.value, float))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float")
        )
    ]
    assert found == []


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)


TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    "path", sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]), ids=lambda p: p.name
)
def test_trusted_constructor_stays_inside_polys(path):
    # polys._adopt skips validation: only polys' own results may use it
    if path == SRC / "polys.py":
        return
    assert "_adopt" not in set(_names(ast.parse(path.read_text(encoding="utf-8"))))


@pytest.mark.parametrize("module", ["projection", "formulas"])
def test_projection_layer_takes_no_ordering(module):
    # the layer works in lifting coordinates only: callers relabel first
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert "VarOrdering" not in set(_names(tree))


class TestPublicConstructorValidates:
    def test_float_coefficient(self):
        with pytest.raises(TypeError, match="rational"):
            Poly(2, {(1, 0): 0.5})

    def test_wrong_length_exponent_tuple(self):
        with pytest.raises(ValueError, match="exponent"):
            Poly(2, {(1, 0, 0): 1})

    def test_negative_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            Poly(2, {(1, -1): 1})

    @pytest.mark.parametrize("exps", [(1.5,), (True,), (2.0,)])
    def test_non_integer_exponent(self, exps):
        with pytest.raises(ValueError, match="exponent"):
            Poly(1, {exps: 1})

    @pytest.mark.parametrize("coeff", [True, False])
    def test_bool_coefficient(self, coeff):
        with pytest.raises(TypeError, match="rational"):
            Poly(1, {(1,): coeff})


# Fraction's private slots and constructors differ between the Python
# versions CI runs (3.10 and 3.13)
PRIVATE_FRACTION_API = {"_numerator", "_denominator", "_from_coprime_ints"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_fraction_api(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
               and isinstance(n.value, str)}
    assert PRIVATE_FRACTION_API & (set(_names(tree)) | strings) == set()


# module-level containers that hold constants, never results
CONSTANT_CONTAINERS = {
    ("formulas", "_NEGATED"), ("formulas", "_FLIPPED"),
    ("heuristics", "ORDERING_HEURISTICS"),
    ("smtlib", "_IGNORED_COMMANDS"), ("smtlib", "_RELATIONS"),
}
_CONTAINER_NODES = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
_CONTAINER_CALLS = {"dict", "set", "list", "defaultdict", "OrderedDict", "Counter"}


def _is_container(node) -> bool:
    if isinstance(node, _CONTAINER_NODES):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in _CONTAINER_CALLS
    return False


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_process_wide_cache(path):
    # work is shared through memos that a build level or a call owns, so a
    # result never outlives the computation that made it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert {"cache", "lru_cache"} & set(_names(tree)) == set()
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if _is_container(value):
            bound += [t.id for t in targets if isinstance(t, ast.Name)]
    allowed = {"__all__"} | {name for module, name in CONSTANT_CONTAINERS if module == path.stem}
    assert set(bound) - allowed == set()
