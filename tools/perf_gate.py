#!/usr/bin/env python
"""CI performance gate: a change's end-to-end benchmark run against its base.

    python3 tools/perf_gate.py BASE_DIR HEAD_DIR

Runs ``perfbench/run.py`` on the ``net_a4`` workload in both checkouts
and compares the last-line JSON results.  The gate fails (exit 1) when
HEAD reports ``correct: false`` in any attempt, or when HEAD's ``wall_s``
is more than :data:`THRESHOLD` times BASE's in every one of
:data:`ATTEMPTS` attempts: a real regression reproduces, a load burst on
a shared runner does not.  It passes at the first attempt that shows
neither.  The two sides alternate which runs first.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

WORKLOAD = "net_a4"
SEED = 164
SECONDS = 3
THRESHOLD = 1.10
ATTEMPTS = 3

PASS, FAIL, RETRY = "pass", "fail", "retry"


def verdict(pairs: List[Tuple[dict, dict]]) -> str:
    """Decide on the ``(base, head)`` results of the attempts so far:
    :data:`PASS`, :data:`FAIL`, or :data:`RETRY` for one more attempt."""
    if any(not head["correct"] for _, head in pairs):
        return FAIL
    base, head = pairs[-1]
    if wall_s(head) <= THRESHOLD * wall_s(base):
        return PASS
    return FAIL if len(pairs) >= ATTEMPTS else RETRY


def wall_s(result: dict) -> float:
    return result["metrics"]["wall_s"]["value"]


def run(checkout: Path) -> dict:
    """One benchmark run in ``checkout``; its last output line as JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{checkout}: no result (exit {proc.returncode})\n"
                         f"{proc.stderr}")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    base_dir, head_dir = (Path(arg).resolve() for arg in argv)
    pairs: List[Tuple[dict, dict]] = []
    while True:
        if len(pairs) % 2 == 0:
            base = run(base_dir)
            head = run(head_dir)
        else:
            head = run(head_dir)
            base = run(base_dir)
        pairs.append((base, head))
        outcome = verdict(pairs)
        print(f"attempt {len(pairs)}: base wall_s {wall_s(base):.3f}, "
              f"head wall_s {wall_s(head):.3f} "
              f"({wall_s(head) / wall_s(base):.3f}x), "
              f"head correct {head['correct']}: {outcome}")
        if outcome != RETRY:
            return 0 if outcome == PASS else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
