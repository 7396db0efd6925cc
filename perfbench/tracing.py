"""Spans around cadlab's public functions, installed from outside the program.

Each listed function is wrapped once, and the wrapper replaces the original in
every ``cadlab`` module namespace that binds it (``projection.resultant`` as
well as ``polys.resultant``), so calls between modules are seen too.  Private
helpers stay unwrapped.  Spans are kept in memory per task and handed to
``run.py`` with the task's answer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time

import workloads


@functools.cache
def span_names() -> tuple[str, ...]:
    """``<module>.<function>`` for every wrapped function, from spec.json's "layers"."""
    return tuple(
        f"{layer['module']}.{fn}"
        for layer in workloads.spec()["layers"]
        for fn in layer["functions"]
    )


def _projection_input_key(args, kwargs, result) -> str:
    """Digest of (input polynomial set, eliminated variable), stable across processes."""
    polys = args[0] if args else kwargs["A"]
    v = args[1] if len(args) > 1 else kwargs["v"]
    canon = sorted({tuple(sorted(p.normalized().terms.items())) for p in polys})
    return hashlib.blake2b(repr((canon, v)).encode(), digest_size=8).hexdigest()


def _stack_cells(args, kwargs, result) -> int:
    return 0 if result is None else len(result.cells)


# extra per-span data, also for a call that raised: the input key of a
# projection, the size of a stack
EXTRAS = {
    "projection.mccallum_project": _projection_input_key,
    "cadbuild.build_stack": _stack_cells,
}


class Tracer:
    """In-memory span store: ``[name_index, start, end, parent, extra]`` per span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        self._stack.clear()
        return spans

    def wrap(self, fid: int, fn, extra=None):
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            rec = [fid, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if extra is not None:
                    rec[4] = extra(args, kwargs, result)

        return traced

    def install(self) -> None:
        """Replace every binding of each listed function in the loaded cadlab modules."""
        for mod in ("cadlab.bench", "cadlab.cli"):
            importlib.import_module(mod)
        modules = [m for n, m in sys.modules.items() if n == "cadlab" or n.startswith("cadlab.")]
        for fid, name in enumerate(span_names()):
            mod, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"cadlab.{mod}"), fn_name)
            wrapper = self.wrap(fid, original, EXTRAS.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
