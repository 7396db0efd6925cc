"""Workload definitions: pinned corpora and the task list built over them.

The corpora are fixed by ``spec.json`` (randgen seeds and profiles), so every
task has a pinned reference answer.  The benchmark's ``--seed`` only permutes
the order in which tasks run.  ``generate`` needs cadlab and runs in the
worker; everything else is plain Python so ``run.py`` never imports cadlab.
"""

from __future__ import annotations

import functools
import json
import random
from itertools import permutations
from pathlib import Path


@functools.cache
def spec() -> dict:
    """``spec.json``: the workloads, the metrics' meanings and the traced layers."""
    return json.loads((Path(__file__).resolve().parent / "spec.json").read_text(encoding="utf-8"))


def names() -> list[str]:
    return [w["name"] for w in spec()["workloads"]]


def workload(name: str) -> dict:
    for w in spec()["workloads"]:
        if w["name"] == name:
            return w
    raise KeyError(f"unknown workload {name!r}")


def generate(name: str) -> list[str]:
    """JSON text of every problem in the workload's corpus, in corpus order."""
    from cadlab.probjson import emit_json
    from cadlab.randgen import RandomProfile, random_problems

    texts: list[str] = []
    for part in workload(name)["corpus"]:
        profile = RandomProfile(**part["profile"])
        texts.extend(emit_json(p) for p in random_problems(part["seed"], part["count"], profile))
    return texts


def tasks(name: str, texts: list[str]) -> list[dict]:
    """Every task of the workload, in corpus order; ``id`` keys the reference."""
    w = workload(name)
    base = {
        "mode": w["mode"],
        "evaluate": w["evaluate"],
        "gb": w["gb"],
        "budget_ms": w["budget_ms"],
    }
    out: list[dict] = []
    for i, text in enumerate(texts):
        if w["orderings"] == "all":
            names = json.loads(text)["vars"]
            for order in permutations(names):
                spec = ",".join(order)
                out.append(dict(base, id=f"{i}:{spec}", text=text, heuristic=None, order=spec))
        else:
            for h in w["heuristics"]:
                out.append(dict(base, id=f"{i}:{h}", text=text, heuristic=h, order=None))
    return out


def shuffled(items: list, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out
