"""Corpus runner: heuristics + CAD builds per problem, CSV/JSON reports.

Each (problem x configuration) task runs under an optional cooperative
deadline; failures are recorded per row and never abort the run.  Rows are
sorted after execution, so reports are byte-deterministic for a fixed corpus
regardless of the worker count and of the seed, which only shuffles the order
the tasks run in (timing columns are blanked by the ``stable`` flag).
"""

from __future__ import annotations

import csv
import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from .cadbuild import build_cad
from .errors import (
    CadError,
    ComputeTimeout,
    Deadline,
    NotWellOrientedError,
    ParseError,
    scoped_deadline,
)
from .heuristics import ORDERING_HEURISTICS
from .ordering import VarOrdering, admissible_orderings
from .probjson import parse_json
from .problem import Problem
from .smtlib import parse_smtlib

__all__ = ["BenchConfig", "BenchRow", "BenchReport", "run_bench", "write_csv", "write_json",
           "load_problem_file", "HEURISTIC_NAMES"]

HEURISTIC_NAMES = tuple(ORDERING_HEURISTICS)

CSV_COLUMNS = (
    "problem",
    "heuristic",
    "ordering",
    "designation",
    "mode",
    "cells",
    "fulldim_cells",
    "time_ms",
    "status",
)


@dataclass(frozen=True)
class BenchConfig:
    heuristics: tuple[str, ...] = HEURISTIC_NAMES
    all_orders: bool = False
    mode: str = "sign"
    build: bool = True
    timeout_ms: float | None = None
    jobs: int = 1
    seed: int | None = None
    stable: bool = False


@dataclass
class BenchRow:
    problem: str
    heuristic: str
    ordering: str
    designation: str
    mode: str
    cells: int | None
    fulldim_cells: int | None
    time_ms: float | None
    status: str
    error: str | None = None  # "<Class>: <message>" of an error row; JSON report only

    def sort_key(self):
        return (self.problem, self.heuristic, self.ordering, self.designation, self.mode)

    def as_record(self, stable: bool) -> dict:
        return {
            "problem": self.problem,
            "heuristic": self.heuristic,
            "ordering": self.ordering,
            "designation": self.designation,
            "mode": self.mode,
            "cells": "" if self.cells is None else self.cells,
            "fulldim_cells": "" if self.fulldim_cells is None else self.fulldim_cells,
            "time_ms": "" if (stable or self.time_ms is None) else f"{self.time_ms:.1f}",
            "status": self.status,
        }

    def as_json_record(self, stable: bool) -> dict:
        record = self.as_record(stable)
        if self.error:
            record["error"] = self.error
        return record


@dataclass
class BenchReport:
    config: BenchConfig
    rows: list[BenchRow] = field(default_factory=list)


def load_problem_file(path: Path) -> Problem:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".smt2":
        return parse_smtlib(text, name=path.stem)
    return parse_json(text, name=path.stem)


def _cause(e: BaseException) -> str:
    return f"{type(e).__name__}: {e}"


def _run_task(
    problem: Problem, config: BenchConfig, heuristic: str, ordering: VarOrdering | None = None
) -> BenchRow:
    """One row: the CAD under the ordering ``heuristic`` chooses, or under ``ordering``.

    The whole task runs under one deadline.  A given ordering is always built;
    a failure becomes the row's status.
    """
    build = config.build or ordering is not None
    row = BenchRow(problem.name, heuristic, "-", "-", config.mode, None, None, None, "ok")
    deadline = None if config.timeout_ms is None else Deadline.after_ms(config.timeout_ms)
    start = time.monotonic()
    try:
        with scoped_deadline(deadline):
            if ordering is None:
                polys = problem.input_polys()
                if not polys:
                    raise CadError("no nonconstant polynomials")
                chooser = ORDERING_HEURISTICS[heuristic]
                ordering = chooser(polys, problem.nvars, list(problem.blocks)).chosen
            row.ordering = ordering.to_names(problem.var_names)
            if build:
                tree = build_cad(problem, ordering, mode=config.mode)
                row.cells, row.fulldim_cells = tree.cell_count, tree.fulldim_leaf_count()
                row.designation = tree.designation_label
        row.time_ms = (time.monotonic() - start) * 1000.0
    except ComputeTimeout:
        row.status = "timeout"
    except NotWellOrientedError:
        row.status = "not_well_oriented"
    except Exception as e:
        row.status, row.error = "error", _cause(e)
    return row


def run_bench(corpus: Path | str, config: BenchConfig) -> BenchReport:
    """Run every requested configuration against every problem file in a directory."""
    corpus = Path(corpus)
    files = sorted(
        [p for p in corpus.iterdir() if p.suffix in (".json", ".smt2")],
        key=lambda p: p.name,
    )
    report = BenchReport(config)
    tasks: list[Callable[[], BenchRow]] = []
    for path in files:
        try:
            problem = load_problem_file(path)
        except (ParseError, OSError) as e:
            report.rows.append(BenchRow(path.stem, "-", "-", "-", config.mode,
                                        None, None, None, "error", _cause(e)))
            continue
        if config.all_orders:
            try:
                orderings = admissible_orderings(problem.nvars, problem.blocks)
            except CadError as e:
                report.rows.append(BenchRow(problem.name, "order", "-", "-", config.mode,
                                            None, None, None, "error", _cause(e)))
                continue
            for ordering in orderings:
                tasks.append(lambda p=problem, o=ordering: _run_task(p, config, "order", o))
        for heuristic in config.heuristics:
            tasks.append(lambda p=problem, h=heuristic: _run_task(p, config, h))
    if config.seed is not None:
        # a seed permutes the run order only: the rows are sorted below
        random.Random(config.seed).shuffle(tasks)
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            report.rows.extend(pool.map(lambda t: t(), tasks))
    else:
        report.rows.extend(t() for t in tasks)
    report.rows.sort(key=BenchRow.sort_key)
    return report


def write_csv(report: BenchReport, out) -> None:
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in report.rows:
        writer.writerow(row.as_record(report.config.stable))


def write_json(report: BenchReport, out) -> None:
    """The CSV rows plus the run configuration; error rows also carry their cause."""
    doc = {
        "config": asdict(report.config),
        "rows": [row.as_json_record(report.config.stable) for row in report.rows],
    }
    json.dump(doc, out, indent=2)
    out.write("\n")
