"""Set up one workload in a fresh interpreter and report when it is ready.

``python3 perfbench/setup_probe.py WORKLOAD SEED`` imports the simulator,
builds the workload's server (workloads and A4 manager attached) or, for
the pool workload, starts the process pool and warms its workers, then
prints one JSON line: the import and build split and ``ready``, the
``time.perf_counter()`` reading at the moment the first epoch would start.
``perf_counter`` is the system-wide monotonic clock on Linux, so the parent
subtracts its own reading taken just before it started this process.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    import perfbench

    perfbench.isolate_environment()
    perfbench.add_source_path()
    from perfbench import workloads

    name, seed = sys.argv[1], int(sys.argv[2])
    imported = time.perf_counter()
    workload = workloads.WORKLOADS[name]
    if isinstance(workload, workloads.PoolWorkload):
        workload.prepare()
        built = imported
    else:
        workload.build(seed)
        built = time.perf_counter()
    ready = time.perf_counter()
    print(json.dumps({
        "import_s": imported - STARTED,
        "build_server_s": built - imported,
        "pool_start_s": workload.pool_start_s,
        "ready": ready,
    }), flush=True)
    workload.close()


if __name__ == "__main__":
    main()
