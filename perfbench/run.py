"""cadlab benchmark: run one workload's tasks serially in one worker child.

    python3 perfbench/run.py --workload mixed2d --seed 1 --seconds 60 --trace 0

``run.py`` times every task from outside, checks each answer against the
reference pinned in ``perfbench/reference/``, and kills and restarts the
worker when a task runs past its budget plus a grace period.

A run makes whole passes over the workload's tasks, at least ``MIN_PASSES``
and more while another one fits in ``--seconds``; each pass starts a fresh
worker, so nothing cached in one pass serves the next.  The metrics pool
every attempt of every pass.  A task killed at the hard cap in one pass is not
run again in the same run: later passes count it as killed again, with the
time it took, since it would only burn the cap again.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it makes one untraced and one traced pass and prints the per-layer metrics.
The last line of standard output is one JSON object.  ``--workload all``
runs every workload in turn and prints each one's table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

GRACE_MS = 500  # hard cap = budget + grace; a task past it is killed
MIN_PASSES = 2  # every task is timed at least twice in a run
SETUPS_PER_STEP = 2  # set-ups before the first pass and after each pass
WORKER_START_S = 120  # a worker that is not ready by then is broken


class Worker:
    """One ``worker.py`` child on a pair of pipes; killed and replaced on a hard cap."""

    def __init__(self, trace: bool):
        child_in, parent_out = os.pipe()
        parent_in, child_out = os.pipe()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(child_in), str(child_out),
             "1" if trace else "0"],
            pass_fds=(child_in, child_out),
        )
        os.close(child_in)
        os.close(child_out)
        self.outbox = Connection(parent_out, readable=False)
        self.inbox = Connection(parent_in, writable=False)
        if self.request(None, WORKER_START_S) != "ready":
            self.kill()
            raise RuntimeError("worker did not start")

    def request(self, msg, timeout_s: float):
        """Send ``msg`` (unless None) and wait for the reply.

        Returns "timeout" when no reply came within ``timeout_s`` and
        "crashed" when the child ended without replying.
        """
        try:
            if msg is not None:
                self.outbox.send(msg)
            if not self.inbox.poll(timeout_s):
                return "timeout"
            return self.inbox.recv()
        except (EOFError, OSError):
            return "crashed"

    def kill(self) -> None:
        self.proc.kill()
        self._reap()

    def close(self) -> None:
        try:
            self.outbox.send(None)
        except OSError:
            pass
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        self.proc.wait()
        self.outbox.close()
        self.inbox.close()


def setups(workload: str, texts: list[str] | None = None) -> tuple[list[float], list[str]]:
    """Start a worker and generate the corpus in it, ``SETUPS_PER_STEP`` times.

    Returns the seconds each took and the corpus, checked to be the same each
    time (and equal to ``texts`` when given).
    """
    times: list[float] = []
    for _ in range(SETUPS_PER_STEP):
        start = time.perf_counter()
        worker = Worker(trace=False)
        got = worker.request(("corpus", workload), WORKER_START_S)
        times.append(time.perf_counter() - start)
        worker.close()
        if not isinstance(got, list) or (texts is not None and got != texts):
            raise RuntimeError("corpus generation failed or is not reproducible")
        texts = got
    return times, texts


def run_pass(tasks: list[dict], trace: bool, killed: dict[str, dict]) -> tuple[list[dict], float]:
    """Run every task once in a fresh worker; per-task records and the pass's seconds.

    Tasks in ``killed`` are not run again: their earlier record stands in,
    and its time is added to the pass's seconds.  Tasks killed in this pass
    are added to ``killed``.
    """
    records: list[dict] = []
    carried_ms = 0.0
    worker = Worker(trace)
    try:
        start_pass = time.perf_counter()
        for task in tasks:
            if task["id"] in killed:
                records.append(killed[task["id"]])
                carried_ms += killed[task["id"]]["ms"]
                continue
            cap_s = (task["budget_ms"] + GRACE_MS) / 1000.0
            start = time.perf_counter()
            reply = worker.request(("task", task), cap_s)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            record = {"id": task["id"], "ms": elapsed_ms, "budget_ms": task["budget_ms"],
                      "spans": None, "rss_kb": 0}
            if reply in ("timeout", "crashed"):
                worker.kill()
                worker = Worker(trace)
                record["answer"] = {"status": "killed" if reply == "timeout" else "crashed"}
                if reply == "timeout":
                    killed[task["id"]] = record
            else:
                record["answer"], record["spans"], record["rss_kb"] = reply
            records.append(record)
        wall_s = time.perf_counter() - start_pass
    except BaseException:
        worker.kill()  # it may be deep in a task; do not wait for it
        raise
    worker.close()
    return records, wall_s + carried_ms / 1000.0


DECIDED = ("ok", "not_well_oriented")


def classify(record: dict, reference: dict) -> str:
    """ok | not_well_oriented | unverified | mismatch | timeout | killed | crashed | error."""
    answer = record["answer"]
    status = answer["status"]
    if status not in DECIDED:
        return status
    ref = reference.get(record["id"])
    if ref is None or ref["status"] not in DECIDED:
        return "unverified"
    return status if answer == ref else "mismatch"


FAILED = ("mismatch", "timeout", "killed", "crashed", "error")
WRONG = ("mismatch", "crashed", "error")  # the program misbehaved, not just ran long


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(records: list[dict], walls: list[float], setup_s: float,
               reference: dict) -> dict:
    """End-to-end metrics over every task attempt of every pass."""
    classes = [classify(r, reference) for r in records]
    n = len(records)
    failed = sum(c in FAILED for c in classes)
    # a failed task counts as slower than any limit
    times = sorted(math.inf if c in FAILED else r["ms"] for r, c in zip(records, classes))
    p95 = nearest_rank(times, 0.95)
    overrun = max(r["ms"] - r["budget_ms"] for r in records)
    # as reported with each answer: a killed task's growth depends on how far it got
    rss_kb = max(r["rss_kb"] for r in records)
    return {
        "counts": {c: classes.count(c) for c in sorted(set(classes))},
        "beyond_p95": sum(t > p95 for t in times),
        "walls": walls,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "tasks_per_s": (n / sum(walls), "1/s"),
            "task_ms_p50": (nearest_rank(times, 0.50), "ms"),
            "task_ms_p95": (p95, "ms"),
            "ok_share": (classes.count("ok") / n, "ratio"),
            "fail_share": (failed / n, "ratio"),
            "overrun_ms_max": (max(0.0, overrun), "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        },
    }


def per_layer(records: list[dict], traced_wall_s: float, untraced_wall_s: float) -> dict:
    from tracing import self_times, span_names

    names = span_names()
    calls = [0] * len(names)
    own_ms = [0.0] * len(names)
    # mccallum_project input keys, grouped by the calling span
    projection_keys: dict[str, list[str]] = {}
    cells = 0
    for r in records:
        spans = r["spans"] or []
        for s, own in zip(spans, self_times(spans)):
            calls[s[0]] += 1
            own_ms[s[0]] += own * 1000.0
            if names[s[0]] == "projection.mccallum_project":
                caller = names[spans[s[3]][0]] if s[3] >= 0 else "-"
                projection_keys.setdefault(caller, []).append(s[4])
            elif names[s[0]] == "cadbuild.build_stack":
                cells += s[4]
    metrics: dict[str, tuple[float, str]] = {}
    for fid, name in enumerate(names):
        metrics[f"{name}.calls"] = (calls[fid], "count")
        metrics[f"{name}.self_ms"] = (own_ms[fid], "ms")
    by_caller = {c: (len(set(k)), len(k)) for c, k in sorted(projection_keys.items())}
    every = [k for keys in projection_keys.values() for k in keys]
    metrics["projection.mccallum_project.distinct_ratio"] = (
        len(set(every)) / len(every) if every else 0.0, "ratio")
    in_levels = projection_keys.get("projection.projection_levels", [])
    metrics["projection.mccallum_project.distinct_ratio_in_levels"] = (
        len(set(in_levels)) / len(in_levels) if in_levels else 0.0, "ratio")
    metrics["cadbuild.cells"] = (cells, "count")
    metrics["trace.overhead_ratio"] = (traced_wall_s / untraced_wall_s, "ratio")
    by_caller["all callers"] = (len(set(every)), len(every))
    return {"metrics": metrics, "mccallum_distinct": by_caller}


def write_spans(path: Path, records: list[dict]) -> None:
    from tracing import span_names

    names = span_names()
    path.parent.mkdir(exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for r in records:
            spans = [[names[s[0]], s[1], s[2], s[3]] for s in (r["spans"] or [])]
            out.write(json.dumps({"task": r["id"], "status": r["answer"]["status"],
                                  "spans": spans}) + "\n")


def load_reference(workload: str) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["tasks"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    setup_times, texts = setups(workload)
    tasks = workloads.shuffled(workloads.tasks(workload, texts), seed)
    reference = load_reference(workload)
    if trace:
        untraced, wall_s = run_pass(tasks, trace=False, killed={})
        setup_times += setups(workload, texts)[0]
        traced, traced_wall_s = run_pass(tasks, trace=True, killed={})
        write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl", traced)
        result = end_to_end(untraced, [wall_s], statistics.median(setup_times), reference)
        result["layers"] = per_layer(traced, traced_wall_s, wall_s)
        result["traced_counts"] = end_to_end(traced, [traced_wall_s], 0.0, reference)["counts"]
    else:
        records: list[dict] = []
        walls: list[float] = []
        killed: dict[str, dict] = {}
        start = time.perf_counter()
        last_s = 0.0
        while len(walls) < MIN_PASSES or time.perf_counter() - start + last_s <= seconds:
            started = time.perf_counter()
            more, wall_s = run_pass(tasks, trace=False, killed=killed)
            # set-ups spread over the run, so their median is not one moment's
            setup_times += setups(workload, texts)[0]
            last_s = time.perf_counter() - started
            records += more
            walls.append(wall_s)
        result = end_to_end(records, walls, statistics.median(setup_times), reference)
    result["tasks"] = len(tasks)
    return result


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(workload: str, result: dict, trace: bool) -> None:
    walls = ", ".join(f"{w:.2f}" for w in result["walls"])
    print(f"workload {workload}: {result['tasks']} tasks, {len(result['walls'])} pass(es) "
          f"of {walls} s; outcomes {result['counts']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<16} {_fmt(value):>14} {unit}")
    print(f"  ({result['beyond_p95']} samples beyond task_ms_p95)")
    if trace:
        layers = result["layers"]
        print(f"  traced pass outcomes {result['traced_counts']}")
        for caller, (distinct, calls) in layers["mccallum_distinct"].items():
            print(f"  mccallum_project distinct inputs / calls, {caller}: {distinct}/{calls}")
        for name, (value, unit) in layers["metrics"].items():
            print(f"  {name:<52} {_fmt(value):>14} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so the worker of the current pass is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "cadlab" / "__init__.py").is_file():
        print(f"error: cadlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    chosen = workloads.names() if args.workload == "all" else [args.workload]
    if any(w not in workloads.names() for w in chosen):
        parser.error(f"unknown workload {args.workload!r}")
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print_table(workload, result, bool(args.trace))
        metrics = result["layers"]["metrics"] if args.trace else result["metrics"]
        counts = [result["counts"]] + ([result["traced_counts"]] if args.trace else [])
        summary["correct"] &= not any(c.get(w) for c in counts for w in WRONG)
        summary["attempted"] += sum(result["counts"].values())
        summary["failed"] += sum(n for c, n in result["counts"].items() if c in FAILED)
        prefix = f"{workload}." if args.workload == "all" else ""
        for n in names:
            value, unit = metrics[n]
            summary["metrics"][prefix + n] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
