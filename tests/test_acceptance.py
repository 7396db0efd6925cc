"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance here is exact.
"""

from __future__ import annotations

import io
import shutil
import time
from collections import defaultdict
from pathlib import Path

from cadlab.bench import BenchConfig, run_bench, write_csv
from cadlab.cadbuild import build_cad, evaluate_formula_on_cells
from cadlab.cli import main
from cadlab.formulas import identify_ecs
from cadlab.heuristics import (
    brown_order,
    gb_precondition_decision,
    order_by_fulldim,
    order_by_ndrr,
    order_by_sotd,
)
from cadlab.ordering import VarOrdering
from cadlab.bench import load_problem_file
from cadlab.probjson import emit_json
from cadlab.problem import Problem

CORPUS = Path(__file__).parent.parent / "src" / "cadlab" / "corpus"
# the criterion-8 corpus's --stable CSVs; after a change that is meant to
# alter an answer, write the test's report over the file with
# ``cadlab.bench.write_csv`` and state the change
GOLDEN_BENCH = Path(__file__).parent / "golden" / "bench"
XY = VarOrdering((0, 1))
YX = VarOrdering((1, 0))

# sample signs of x^2+y^2-1 in the 13-cell tree, one entry per cell index
CIRCLE_TREE_SIGNS = {
    (1, 1): 1,
    (2, 1): 1, (2, 2): 0, (2, 3): 1,
    (3, 1): 1, (3, 2): 0, (3, 3): -1, (3, 4): 0, (3, 5): 1,
    (4, 1): 1, (4, 2): 0, (4, 3): 1,
    (5, 1): 1,
}
CIRCLE_TREE_SAMPLES = {
    (1, 1): (-2, 0),
    (2, 1): (-1, -1), (2, 2): (-1, 0), (2, 3): (-1, 1),
    (3, 1): (0, -2), (3, 2): (0, -1), (3, 3): (0, 0), (3, 4): (0, 1), (3, 5): (0, 2),
    (4, 1): (1, -1), (4, 2): (1, 0), (4, 3): (1, 1),
    (5, 1): (2, 0),
}


def test_criterion_1_circle_pin(capsys):
    start = time.monotonic()
    code = main(["cad", str(CORPUS / "circle.json"), "--order", "x,y"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "cell count: 13" in out
    assert "stack sizes: 1,3,5,3,1" in out
    problem = load_problem_file(CORPUS / "circle.json")
    tree = build_cad(problem, XY)
    assert tree.cell_count == 13
    assert tree.stack_sizes() == [1, 3, 5, 3, 1]
    for leaf in tree.leaves():
        assert tree.leaf_signs(leaf)[0] == CIRCLE_TREE_SIGNS[leaf.index]
        expected = CIRCLE_TREE_SAMPLES[leaf.index]
        for coord, value in zip(leaf.sample, expected):
            assert coord.is_rational and coord.rational_value == value
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print("\nACCEPTANCE 1 (circle 13-cell pin, tree shape, signs, <1s): PASS")


def test_criterion_2_two_circles_pin():
    start = time.monotonic()
    problem = load_problem_file(CORPUS / "two_circles.json")
    tree = build_cad(problem, XY)
    assert tree.cell_count == 55
    _, true_count = evaluate_formula_on_cells(tree, problem.formula)
    assert true_count == 2
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    print("ACCEPTANCE 2 (two circles: 55 cells, 2 true leaves, <2s): PASS")


def test_criterion_3_ordering_blowup():
    start = time.monotonic()
    problem = load_problem_file(CORPUS / "blowup.json")
    # pinned values hand-verified by stack counting before freezing: x first
    # gives level-1 {y^2+1, y^2+2} (no real roots) so 1 base cell x 3 cells;
    # y first gives level-1 roots {1, 2} so stacks 1+1+5+3+1 = 11
    cells_x_first = build_cad(problem, YX).cell_count
    cells_y_first = build_cad(problem, XY).cell_count
    assert cells_x_first == 3
    assert cells_y_first == 11
    assert cells_y_first / cells_x_first > 2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print("ACCEPTANCE 3 (blow-up 3 vs 11 cells, ratio > 2, <1s): PASS")


def test_criterion_4_heuristic_agreement():
    problem = load_problem_file(CORPUS / "blowup.json")
    polys = problem.input_polys()
    reports = [
        brown_order(polys, problem.nvars),
        order_by_sotd(polys, problem.nvars, strategy="exhaustive"),
        order_by_sotd(polys, problem.nvars, strategy="greedy"),
        order_by_ndrr(polys, problem.nvars),
        order_by_fulldim(polys, problem.nvars),
    ]
    for rep in reports:
        assert rep.chosen == YX, f"{rep.heuristic} chose {rep.chosen}"
    print("ACCEPTANCE 4 (brown/sotd/greedy-sotd/ndrr/fulldim all pick 3-cell order): PASS")


def test_criterion_5_gb_preconditioning():
    start = time.monotonic()
    problem = load_problem_file(CORPUS / "two_circles.json")
    equalities = identify_ecs(problem.formula)
    decision = gb_precondition_decision(equalities)
    assert decision.before == 4
    assert decision.after == 2
    assert decision.use_gb is True
    names = problem.var_names
    assert sorted(g.to_string(names) for g in decision.basis) == ["x-1/2", "y^2-3/4"]
    basis_problem = Problem("basis", names, polys=decision.basis)
    tree = build_cad(basis_problem, XY)
    assert tree.cell_count == 15
    assert tree.cell_count < 55
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print("ACCEPTANCE 5 (TNoI 4->2, use_gb, basis CAD 15 < 55 cells, <1s): PASS")


def test_criterion_6_ec_reduction():
    problem = load_problem_file(CORPUS / "two_circles.json")
    tree = build_cad(problem, XY, mode="ec")
    assert tree.cell_count < 55
    _, true_count = evaluate_formula_on_cells(tree, problem.formula)
    assert true_count == 2
    print(
        f"ACCEPTANCE 6 (ec-reduced {tree.cell_count} < 55 cells, same 2 true leaves): PASS"
    )


def test_criterion_7_property_suites():
    # the seeded property suites live with their modules; re-run them here so
    # the acceptance gate is self-contained
    from test_realroots import test_sturm_oracle_agreement_seeded
    from test_cadbuild import TestInvariants
    from test_groebner import TestProperties

    test_sturm_oracle_agreement_seeded()
    inv = TestInvariants()
    inv.test_univariate_oracle_seeded()
    inv.test_cylindricity_and_interleaving_seeded()
    props = TestProperties()
    props.test_idempotence_and_membership_seeded()
    print(
        "ACCEPTANCE 7 (500 Sturm-oracle, 200 univariate-oracle, 100 stack/cylindricity, "
        "100 GB idempotence+membership): PASS"
    )


def _seeded_corpus(root: Path, problems: list[Problem]) -> Path:
    corpus = root / "random-corpus"
    corpus.mkdir()
    for p in problems:
        (corpus / f"{p.name}.json").write_text(emit_json(p), encoding="utf-8")
    return corpus


def test_criterion_8_no_dominant_heuristic(tmp_path, criterion_8_problems):
    corpus = _seeded_corpus(tmp_path, criterion_8_problems)
    assert len(list(corpus.glob("*.json"))) == 200
    report = run_bench(corpus, BenchConfig(timeout_ms=5000, stable=True))
    by_problem: dict[str, dict[str, int]] = defaultdict(dict)
    for row in report.rows:
        if row.status == "ok" and row.cells is not None:
            by_problem[row.problem][row.heuristic] = row.cells
    unique_wins: dict[str, int] = defaultdict(int)
    for cells in by_problem.values():
        if len(cells) < 2:
            continue
        best = min(cells.values())
        winners = [h for h, c in cells.items() if c == best]
        if len(winners) == 1:
            unique_wins[winners[0]] += 1
    heuristics_with_wins = [h for h, n in unique_wins.items() if n >= 1]
    assert len(heuristics_with_wins) >= 2, f"unique wins: {dict(unique_wins)}"
    assert _csv(report) == (GOLDEN_BENCH / "criterion8.sign.csv").read_text(encoding="utf-8")
    print(
        f"ACCEPTANCE 8 (no dominant heuristic on 200-problem corpus; "
        f"unique wins {dict(sorted(unique_wins.items()))}): PASS"
    )


def test_criterion_8_ec_all_orders_csv_is_pinned(tmp_path, criterion_8_problems):
    corpus = _seeded_corpus(tmp_path, criterion_8_problems)
    report = run_bench(corpus, BenchConfig(timeout_ms=5000, stable=True, mode="ec",
                                           all_orders=True))
    expected = (GOLDEN_BENCH / "criterion8.ec-all-orders.csv").read_text(encoding="utf-8")
    assert _csv(report) == expected


def _csv(report) -> str:
    out = io.StringIO()
    write_csv(report, out)
    return out.getvalue()


def test_criterion_9_bench_determinism(tmp_path):
    work = tmp_path / "corpus"
    work.mkdir()
    for name in ("circle.json", "two_circles.json", "blowup.json", "phi1.json",
                 "phi2.json", "circle.smt2"):
        shutil.copy(CORPUS / name, work)
    outputs = []
    for i in range(2):
        out = tmp_path / f"report-{i}.csv"
        code = main(["bench", str(work), "--out", str(out), "--jobs", "1",
                     "--seed", "42", "--stable"])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    print("ACCEPTANCE 9 (bench --jobs 1 --seed 42 --stable byte-identical): PASS")
