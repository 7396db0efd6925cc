"""Command-line interface.

Exit codes: 0 ok, 1 usage error, 2 parse error, 3 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

from .bench import (
    BenchConfig,
    HEURISTIC_NAMES,
    load_problem_file,
    run_bench,
    write_csv,
    write_json,
)
from .cadbuild import build_cad, evaluate_formula_on_cells
from .errors import CadError, NotWellOrientedError, ParseError
from .formulas import identify_ecs
from .groebner import MonomialOrder
from .heuristics import ORDERING_HEURISTICS, gb_precondition_decision
from .ordering import VarOrdering, admissible_orderings
from .probjson import emit_json
from .problem import Problem
from .randgen import RandomProfile, random_problems

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cadlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a problem file and echo canonical JSON")
    p.add_argument("file", type=Path)

    p = sub.add_parser("analyze", help="run ordering heuristics and print their choices")
    p.add_argument("file", type=Path)
    p.add_argument(
        "--heuristic",
        default="all",
        choices=HEURISTIC_NAMES + ("all",),
    )

    p = sub.add_parser("cad", help="build a CAD and print cell counts")
    p.add_argument("file", type=Path)
    p.add_argument("--order", help="comma-separated variable names, base first")
    p.add_argument("--mode", default="sign", choices=("sign", "ec"))
    p.add_argument(
        "--designation",
        default="auto",
        help="'auto' or the index of the equational constraint to designate",
    )
    p.add_argument("--tree", action="store_true", help="print every leaf cell")
    p.add_argument("--evaluate", action="store_true",
                   help="also evaluate the problem formula on the leaves")

    p = sub.add_parser("compare", help="cell counts per admissible ordering")
    p.add_argument("file", type=Path)
    p.add_argument("--mode", default="sign", choices=("sign", "ec"))

    p = sub.add_parser("gb-check", help="Groebner preconditioning decision (TNoI gate)")
    p.add_argument("file", type=Path)
    p.add_argument("--gb-order", default="lex", choices=("lex", "grlex"))

    p = sub.add_parser("gen", help="generate seeded random problems")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--profile", type=Path, help="JSON file with profile bounds")
    p.add_argument("--out", type=Path, default=Path("generated"))

    p = sub.add_parser("bench", help="run heuristics and CAD builds over a corpus")
    p.add_argument("corpus", type=Path)
    p.add_argument("--out", type=Path, required=True, help="CSV report path")
    p.add_argument("--json-out", type=Path, help="also write a JSON report")
    p.add_argument("--timeout", type=float, help="per-task timeout in milliseconds")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("--stable", action="store_true", help="blank timing columns")
    p.add_argument("--heuristics", default=",".join(HEURISTIC_NAMES))
    p.add_argument("--all-orders", action="store_true")
    p.add_argument("--mode", default="sign", choices=("sign", "ec"))
    p.add_argument("--no-build", action="store_true", help="skip CAD construction")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "bench":
            if args.timeout is not None and not args.timeout > 0:  # nan too
                parser.error("--timeout must be a positive number of milliseconds")
            if args.jobs < 1:
                parser.error("--jobs must be at least 1")
        if args.command == "gen" and args.count < 0:
            parser.error("--count must be at least 0")
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _dispatch(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (CadError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # a path that cannot be opened is a usage error
        path = Path(str(e.filename))
        outputs = {getattr(args, "out", None), getattr(args, "json_out", None)}
        verb = "write" if outputs & {path, *path.parents} else "read"
        print(f"error: cannot {verb} {e.filename}: {e.strerror}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "parse":
        problem = load_problem_file(args.file)
        sys.stdout.write(emit_json(problem))
        return 0
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "cad":
        return _cmd_cad(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "gb-check":
        return _cmd_gb_check(args)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "bench":
        return _cmd_bench(args)
    raise AssertionError(f"unhandled command {args.command}")


def _cmd_analyze(args) -> int:
    problem = load_problem_file(args.file)
    polys = problem.input_polys()
    names = problem.var_names
    wanted = HEURISTIC_NAMES if args.heuristic == "all" else (args.heuristic,)
    for h in wanted:
        rep = ORDERING_HEURISTICS[h](polys, problem.nvars, problem.blocks)
        print(f"{h}: {rep.chosen.to_names(names)}")
        for key, score in rep.scores:
            label = key.to_names(names) if isinstance(key, VarOrdering) else rep.row_prefix + names[key]
            print(f"  {label}: {score}")
        if rep.ties:
            print(f"  ties: {'; '.join(t.to_names(names) for t in rep.ties)}")
    return 0


def _resolve_order(problem: Problem, spec: str | None) -> VarOrdering:
    if spec is None:
        return VarOrdering(tuple(range(problem.nvars)))
    return problem.parse_ordering(spec)


def _cmd_cad(args) -> int:
    problem = load_problem_file(args.file)
    ordering = _resolve_order(problem, args.order)
    designation = None
    if args.designation != "auto":
        try:
            designation = int(args.designation)
        except ValueError:
            raise CadError(f"designation must be 'auto' or an index, got {args.designation!r}")
    start = time.monotonic()
    tree = build_cad(problem, ordering, mode=args.mode, designation=designation)
    elapsed = (time.monotonic() - start) * 1000.0
    names = problem.var_names
    print(f"problem: {problem.name}")
    print(f"ordering: {ordering.to_names(names)}")
    print(f"mode: {args.mode}  designation: {tree.designation_label}")
    print(f"cells per level: {','.join(str(c) for c in tree.counts)}")
    print(f"stack sizes: {','.join(str(s) for s in tree.stack_sizes())}")
    print(f"cell count: {tree.cell_count}")
    print(f"time_ms: {elapsed:.1f}")
    if args.tree:
        for leaf in tree.leaves():
            idx = ",".join(map(str, leaf.index))
            sample = ", ".join(_show_coord(c) for c in leaf.sample)
            signs = ",".join(_show_sign(s) for s in tree.leaf_signs(leaf))
            print(f"  cell ({idx}) sample ({sample}) signs ({signs})")
    if args.evaluate:
        if problem.formula is None:
            raise CadError("problem has no formula to evaluate")
        _, true_count = evaluate_formula_on_cells(tree, problem.formula)
        print(f"true leaves: {true_count}")
    return 0


def _show_coord(c) -> str:
    if c.is_rational:
        return str(c.rational_value)
    return f"~{c.approx():.4f}"


def _show_sign(s: int) -> str:
    return {-1: "-", 0: "0", 1: "+"}[s]


def _cmd_compare(args) -> int:
    problem = load_problem_file(args.file)
    names = problem.var_names
    print(f"problem: {problem.name}")
    for ordering in admissible_orderings(problem.nvars, problem.blocks):
        try:
            tree = build_cad(problem, ordering, mode=args.mode)
            answer = f"{tree.cell_count} cells ({tree.fulldim_leaf_count()} full-dimensional)"
        except NotWellOrientedError:  # this ordering has no answer; the others may
            answer = "not_well_oriented"
        print(f"  {ordering.to_names(names)}: {answer}")
    return 0


def _cmd_gb_check(args) -> int:
    problem = load_problem_file(args.file)
    if problem.formula is not None:
        equalities = identify_ecs(problem.formula)
    else:
        equalities = problem.input_polys()
    if not equalities:
        raise CadError("no equational constraints in the problem")
    kind = args.gb_order
    order = (
        MonomialOrder.lex(tuple(range(problem.nvars)))
        if kind == "lex"
        else MonomialOrder.grlex(tuple(range(problem.nvars)))
    )
    decision = gb_precondition_decision(equalities, order)
    names = problem.var_names
    print(f"problem: {problem.name}")
    print(f"tnoi before: {decision.before}")
    print(f"tnoi after: {decision.after}")
    print(f"use_gb: {'true' if decision.use_gb else 'false'}")
    for g in decision.basis:
        print(f"  basis: {g.to_string(names)}")
    return 0


def _cmd_gen(args) -> int:
    profile = RandomProfile()
    if args.profile is not None:
        doc = json.loads(args.profile.read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise CadError("profile must be a JSON object")
        unknown = sorted(set(doc) - {f.name for f in fields(RandomProfile)})
        if unknown:
            raise CadError(f"unknown profile field(s): {', '.join(unknown)}")
        profile = RandomProfile(**doc)
    problems = random_problems(args.seed, args.count, profile)
    args.out.mkdir(parents=True, exist_ok=True)
    for p in problems:
        (args.out / f"{p.name}.json").write_text(emit_json(p), encoding="utf-8")
    print(f"wrote {len(problems)} problems to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    heuristics = tuple(h.strip() for h in args.heuristics.split(",") if h.strip())
    for h in heuristics:
        if h not in HEURISTIC_NAMES:
            raise CadError(f"unknown heuristic {h!r}")
    config = BenchConfig(
        heuristics=heuristics,
        all_orders=args.all_orders,
        mode=args.mode,
        build=not args.no_build,
        timeout_ms=args.timeout,
        jobs=args.jobs,
        seed=args.seed,
        stable=args.stable,
    )
    report = run_bench(args.corpus, config)
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        write_csv(report, f)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            write_json(report, f)
    ok = sum(1 for r in report.rows if r.status == "ok")
    print(f"{len(report.rows)} rows ({ok} ok) -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
