"""Tests for the CI performance gate's pass/fail decision.

``tools/perf_gate.py`` is a script, not a package module; it is loaded by
path, and only its pure :func:`verdict` is exercised (running the
benchmark itself takes tens of seconds per side).
"""

import importlib.util
from pathlib import Path

_path = Path(__file__).resolve().parent.parent / "tools" / "perf_gate.py"
_spec = importlib.util.spec_from_file_location("perf_gate", _path)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def result(wall, correct=True):
    return {"correct": correct, "metrics": {"wall_s": {"value": wall}}}


def test_parity_passes():
    assert gate.verdict([(result(10.0), result(10.5))]) == gate.PASS


def test_regression_in_every_attempt_fails():
    slow = (result(10.0), result(12.0))
    assert gate.verdict([slow]) == gate.RETRY
    assert gate.verdict([slow, slow]) == gate.RETRY
    assert gate.verdict([slow] * gate.ATTEMPTS) == gate.FAIL


def test_regression_in_one_attempt_passes():
    slow = (result(10.0), result(12.0))
    assert gate.verdict([slow, (result(10.0), result(10.2))]) == gate.PASS


def test_incorrect_head_fails():
    wrong = (result(10.0), result(9.0, correct=False))
    assert gate.verdict([wrong]) == gate.FAIL
    # An earlier attempt's wrong answer is not forgiven by a later one.
    slow_wrong = (result(10.0), result(12.0, correct=False))
    parity = (result(10.0), result(10.0))
    assert gate.verdict([slow_wrong, parity]) == gate.FAIL
