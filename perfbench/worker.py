"""The worker child: runs one task at a time as ``cadlab`` users make requests.

A task parses the problem's JSON text, takes or chooses an ordering, builds
the CAD and, where the workload says so, evaluates the formula on the cells
and runs the Groebner preconditioning gate on the formula's equational
constraints.  The whole task runs under a cooperative ``Deadline``; ``run.py``
enforces a hard cap by killing this process.

Calls go through module attributes (``cadbuild.build_cad``) so that wrappers
installed by the tracer are seen.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path


def _choose(heuristics, problem, name: str, deadline):
    polys = problem.input_polys()
    nv, blocks = problem.nvars, list(problem.blocks)
    if name == "brown":
        return heuristics.brown_order(polys, nv, blocks)
    if name == "sotd":
        return heuristics.order_by_sotd(polys, nv, blocks, strategy="exhaustive", deadline=deadline)
    if name == "greedy-sotd":
        return heuristics.order_by_sotd(polys, nv, blocks, strategy="greedy", deadline=deadline)
    if name == "ndrr":
        return heuristics.order_by_ndrr(polys, nv, blocks, deadline=deadline)
    if name == "fulldim":
        return heuristics.order_by_fulldim(polys, nv, blocks, deadline=deadline)
    raise ValueError(f"unknown heuristic {name!r}")


def run_task(task: dict) -> dict:
    """The task's answer: status plus the fields the reference pins."""
    from cadlab import cadbuild, formulas, heuristics, probjson
    from cadlab.errors import ComputeTimeout, Deadline, NotWellOrientedError

    deadline = Deadline.after_ms(task["budget_ms"])
    answer = {"status": "ok", "ordering": "-", "cells": None, "fulldim": None,
              "designation": "-", "true_leaves": None, "gb": None}
    try:
        problem = probjson.parse_json(task["text"])
        if task["heuristic"] is not None:
            ordering = _choose(heuristics, problem, task["heuristic"], deadline).chosen
        else:
            ordering = problem.parse_ordering(task["order"])
        answer["ordering"] = ordering.to_names(problem.var_names)
        tree = cadbuild.build_cad(problem, ordering, mode=task["mode"], deadline=deadline)
        answer["cells"] = tree.cell_count
        answer["fulldim"] = tree.fulldim_leaf_count()
        answer["designation"] = tree.designation_label
        if task["evaluate"]:
            _, answer["true_leaves"] = cadbuild.evaluate_formula_on_cells(
                tree, problem.formula, deadline=deadline
            )
        if task["gb"]:
            ecs = formulas.identify_ecs(problem.formula)
            if ecs:
                decision = heuristics.gb_precondition_decision(ecs)
                answer["gb"] = [decision.before, decision.after, decision.use_gb]
    except ComputeTimeout:
        answer["status"] = "timeout"
    except NotWellOrientedError:
        answer["status"] = "not_well_oriented"
    except Exception as e:  # a task's failure is its answer; the run goes on
        answer["status"] = "error"
        answer["error"] = f"{type(e).__name__}: {e}"
    return answer


def serve(inbox, outbox, trace: bool) -> None:
    """Answer requests from ``inbox`` on ``outbox`` until a ``None`` request.

    A request is ``("corpus", workload)`` or ``("task", task)``.  A task reply
    is ``(answer, spans, peak_rss_kb)``; ``spans`` is ``None`` when untraced.
    """
    import cadlab  # noqa: F401  (import cost belongs to worker start-up)

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    outbox.send("ready")
    while True:
        msg = inbox.recv()
        if msg is None:
            break
        kind, payload = msg
        if kind == "corpus":
            from workloads import generate

            outbox.send(generate(payload))
            continue
        answer = run_task(payload)
        spans = tracer.take() if tracer is not None else None
        outbox.send((answer, spans, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))


if __name__ == "__main__":
    # started by run.Worker: worker.py <inbox fd> <outbox fd> <trace 0|1>
    from multiprocessing.connection import Connection

    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    with Connection(int(sys.argv[1]), writable=False) as inbox, \
            Connection(int(sys.argv[2]), readable=False) as outbox:
        serve(inbox, outbox, sys.argv[3] == "1")
