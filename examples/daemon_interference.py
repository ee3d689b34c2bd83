#!/usr/bin/env python3
"""System daemons vs latency-critical services, with A4 adapting live.

KSM and zswap scan in bursts (phase in, phase out).  Watch A4 detect them
as non-I/O antagonists during a burst (pseudo LLC bypassing to the trash
way), then restore them when the burst ends — the §5.6 machinery — while
Fastclick and the cache-sensitive SPEC workloads keep their service levels.
Also exports the per-epoch CSV trace for plotting.

Run:  python examples/daemon_interference.py
"""

import os
import tempfile

from repro.experiments.scenarios import build_server, daemon_interference_workloads
from repro.telemetry import trace

EPOCHS = 30


def main() -> None:
    for scheme in ("default", "a4"):
        server = build_server(daemon_interference_workloads(), scheme=scheme)
        result = server.run(epochs=EPOCHS, warmup=5)
        fc = result.aggregate("fastclick")
        parest = result.aggregate("parest")
        print(f"\n=== scheme: {scheme} ===")
        print(
            f"fastclick: avg latency {fc.avg_latency:.0f} cyc, "
            f"p99 {fc.p99_latency:.0f}, throughput {fc.throughput:.4f} l/c"
        )
        print(f"parest:    IPC {parest.ipc:.3f}, LLC hit {parest.llc_hit_rate:.2f}")
        for daemon in ("ksm", "zswap"):
            agg = result.aggregate(daemon)
            print(f"{daemon:9s} IPC {agg.ipc:.3f} (bursty LPW)")
        if scheme == "a4":
            print("\nA4 events (detection <-> restoration cycle):")
            for event in server.manager.events:
                if "ksm" in event or "zswap" in event:
                    print(f"  - {event}")
            csv_text = trace.to_csv(
                result.samples, metrics=("ipc", "llc_hit_rate", "mlc_miss_rate")
            )
            path = os.path.join(
                tempfile.gettempdir(), "daemon_interference_trace.csv"
            )
            with open(path, "w") as handle:
                handle.write(csv_text)
            print(f"\nper-epoch trace written to {path} "
                  f"({len(csv_text.splitlines()) - 1} rows)")


if __name__ == "__main__":
    main()
