"""Interpreters that the tests start import the package from this checkout,
as the test process does through pytest's ``pythonpath`` setting."""

import os
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def count_core_evaluations(monkeypatch):
    """Call it to start counting: it returns a list that receives (level, c,
    n, N) of every tail the scalar core evaluates from then on, in every
    module of the package that calls it, N the lot size (None for an
    infinite lot), whether the core was resolved at N or moved there.  A
    lot rule's level is exact at every lot: a defect count, or at an
    infinite lot the proportion as a Fraction.  A tail read back from a lot
    rule's memory is not an evaluation."""
    from midsampling import kernel

    core = kernel._lot_tails
    callers = [
        module for name, module in sys.modules.items()
        if name.startswith("midsampling") and getattr(module, "_lot_tails", None) is core
    ]

    def start() -> list:
        evaluations = []

        def counting(level, N):
            tail = core(level, N)

            def counted(c, n):
                evaluations.append((level, c, n, N))
                return tail(c, n)

            def move(lot):  # a finite core moves from lot to lot
                nonlocal N
                N = lot
                tail.move(lot)

            counted.move = move
            return counted

        for module in callers:
            monkeypatch.setattr(module, "_lot_tails", counting)
        return evaluations

    return start
