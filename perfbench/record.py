"""Pin the reference answer of every benchmark task, cross-checked independently.

    python3 perfbench/record.py [workload ...]

Each task runs once in a worker under a generous budget (``RECORD_BUDGET_MS``)
and its answer is written to ``perfbench/reference/<workload>.json``.  A task
that is still running at that budget is pinned as undecided, so a later
answer to it counts as unverified rather than ok.

Before writing, every tree behind an ``ok`` answer is rebuilt and checked
with code that does not call cadlab's root isolation or lifting:

1. the base level has 2r+1 cells, where r is the number of distinct real
   roots of the level-1 projection polynomials as counted by sympy;
2. the formula, evaluated with plain ``Fraction`` arithmetic at every leaf
   whose sample is all-rational, agrees with the leaf's truth value.

sympy is needed here only; the timed benchmark does not use it.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

RECORD_BUDGET_MS = 30000


def _sympy_base_cells(level1, nvars: int) -> int:
    """2r+1 for the distinct real roots r of the level-1 polynomials (variable 0)."""
    import sympy

    x = sympy.Symbol("x")
    total = sympy.Poly(1, x, domain="QQ")
    for p in level1:
        if any(any(e[1:]) for e in p.terms):
            raise AssertionError(f"level-1 polynomial {p} is not univariate in the base variable")
        q = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * x ** e[0]
                           for e, c in p.terms.items()), x, domain="QQ")
        if q.degree() > 0:
            total = total.lcm(q)
    if total.degree() <= 0:
        return 1
    return 2 * total.sqf_part().count_roots() + 1


def _truth(formula, point: dict[int, Fraction]) -> bool:
    """The formula at a rational point, by direct evaluation of each atom."""
    from cadlab.formulas import Atom, BoolOp, Const

    if isinstance(formula, Const):
        return formula.value
    if isinstance(formula, Atom):
        value = Fraction(0)
        for exps, c in formula.poly.terms.items():
            term = Fraction(c)
            for v, e in enumerate(exps):
                term *= point[v] ** e
            value += term
        s = (value > 0) - (value < 0)
        return {"=": s == 0, "!=": s != 0, "<": s < 0, "<=": s <= 0,
                ">": s > 0, ">=": s >= 0}[formula.rel]
    if not isinstance(formula, BoolOp):
        raise TypeError(f"unexpected formula node {formula!r}")
    if formula.op == "not":
        return not _truth(formula.args[0], point)
    values = (_truth(a, point) for a in formula.args)
    return all(values) if formula.op == "and" else any(values)


def cross_check(text: str, answer: dict, mode: str, stats: dict) -> None:
    """Rebuild the tree behind an ok answer and run both independent checks."""
    from cadlab.cadbuild import build_cad, evaluate_formula_on_cells
    from cadlab.probjson import parse_json

    problem = parse_json(text)
    ordering = problem.parse_ordering(answer["ordering"])
    tree = build_cad(problem, ordering, mode=mode)
    got = (tree.cell_count, tree.fulldim_leaf_count(), tree.designation_label)
    if got != (answer["cells"], answer["fulldim"], answer["designation"]):
        raise AssertionError(f"rebuilt tree {got} differs from the worker's answer {answer}")
    expected = _sympy_base_cells(tree.projection.level(1), problem.nvars)
    if len(tree.levels[0]) != expected:
        raise AssertionError(f"base level has {len(tree.levels[0])} cells, sympy says {expected}")
    stats["base_levels"] += 1
    truths, true_count = evaluate_formula_on_cells(tree, problem.formula)
    if answer["true_leaves"] is not None and true_count != answer["true_leaves"]:
        raise AssertionError(f"true leaves {true_count} != {answer['true_leaves']}")
    for leaf, truth in zip(tree.leaves(), truths):
        if not all(c.is_rational for c in leaf.sample):
            continue
        point = {ordering.order[j]: c.rational_value for j, c in enumerate(leaf.sample)}
        if _truth(problem.formula, point) != truth:
            raise AssertionError(f"leaf {leaf.index}: formula disagrees with the leaf's truth")
        stats["rational_leaves"] += 1


def record(workload: str) -> None:
    import run
    import workloads

    texts = workloads.generate(workload)
    tasks = workloads.tasks(workload, texts)
    mode = workloads.workload(workload)["mode"]
    slow = [dict(t, budget_ms=RECORD_BUDGET_MS) for t in tasks]
    records, _ = run.run_pass(slow, trace=False, killed={})
    pinned: dict[str, dict] = {}
    stats = {"base_levels": 0, "rational_leaves": 0}
    checked: set[tuple[str, str]] = set()
    for task, rec in zip(tasks, records):
        answer = {k: v for k, v in rec["answer"].items() if k != "error"}
        pinned[task["id"]] = answer
        if answer["status"] == "ok":
            key = (task["text"], answer["ordering"])
            if key not in checked:
                cross_check(task["text"], answer, mode, stats)
                checked.add(key)
        if answer["status"] not in run.DECIDED:
            print(f"  {workload} {task['id']}: {rec['answer']['status']} "
                  f"after {rec['ms']:.0f} ms {rec['answer'].get('error', '')}")
    counts: dict[str, int] = {}
    for a in pinned.values():
        counts[a["status"]] = counts.get(a["status"], 0) + 1
    doc = {
        "workload": workload,
        "record_budget_ms": RECORD_BUDGET_MS,
        "statuses": counts,
        "cross_checks": dict(stats, trees=len(checked)),
        "tasks": pinned,
    }
    out = HERE / "reference" / f"{workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{workload}: {counts}; cross-checked {doc['cross_checks']}")


def main(argv: list[str]) -> int:
    import workloads

    for workload in argv or workloads.names():
        record(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
