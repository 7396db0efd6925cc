"""Golden ``cadlab cad --tree`` dumps of every shipped corpus JSON problem.

Each dump pins every printed leaf index, sample and sign, in sign and EC mode,
with the ``time_ms`` line left out.  After a change that is meant to alter an
answer, rewrite the dumps with ``PYTHONPATH=src python tests/test_cli_golden.py``
and state the change.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from cadlab.cli import main

CORPUS = Path(__file__).resolve().parents[1] / "src" / "cadlab" / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cad_tree"
PROBLEMS = ("circle", "two_circles", "blowup", "phi1", "phi2")
MODES = ("sign", "ec")


def _dump(name: str, mode: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cad", str(CORPUS / f"{name}.json"), "--mode", mode, "--tree"])
    assert code == 0
    return "".join(line for line in out.getvalue().splitlines(keepends=True)
                   if not line.startswith("time_ms:"))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", PROBLEMS)
def test_cad_tree_dump(name, mode):
    expected = (GOLDEN / f"{name}.{mode}.txt").read_text(encoding="utf-8")
    assert _dump(name, mode) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in PROBLEMS:
        for mode in MODES:
            (GOLDEN / f"{name}.{mode}.txt").write_text(_dump(name, mode), encoding="utf-8")
