#!/usr/bin/env python3
"""Watch A4 carve up the LLC, way by way.

Runs the §7.1 microbenchmark mix under a chosen scheme and prints, each
epoch, an 11-column map of the LLC: which workload dominates each way, plus
A4's zone boundaries.  The DCA Zone (ways 0-1), the HP/LP split, and the
antagonists' trash way become visible as the controller converges.

Run:  python examples/llc_occupancy_map.py [default|isolate|a4]
"""

import sys

from repro.experiments.scenarios import build_server, microbenchmark_workloads

EPOCHS = 20
GLYPHS = "DNFX123456789"


def dominant_stream_per_way(server):
    """(stream, share) per way, by resident line counts."""
    per_way = {}
    for (stream, way), count in server.monitor.per_stream_and_way().items():
        bucket = per_way.setdefault(way, {})
        bucket[stream] = bucket.get(stream, 0) + count
    platform = server.platform
    result = {}
    for way in range(platform.llc_ways):
        bucket = per_way.get(way, {})
        if not bucket:
            result[way] = ("-", 0.0)
        else:
            stream = max(bucket, key=bucket.get)
            result[way] = (stream, bucket[stream] / platform.llc_way_lines)
    return result


def main() -> None:
    scheme = sys.argv[1] if len(sys.argv) > 1 else "a4"
    server = build_server(microbenchmark_workloads(), scheme=scheme)
    streams = [w.name for w in server.workloads]
    glyph = {name: GLYPHS[i] for i, name in enumerate(streams)}

    print(f"scheme: {scheme}")
    print("legend: " + "  ".join(f"{g}={n}" for n, g in glyph.items()))
    print("ways:   " + " ".join(f"{w:>3}" for w in range(server.platform.llc_ways)))

    def show_epoch(server, sample):
        owners = dominant_stream_per_way(server)
        cells = []
        for way in range(server.platform.llc_ways):
            stream, share = owners[way]
            mark = glyph.get(stream, "?") if share > 0.05 else "."
            cells.append(f"{mark}{int(share * 9)!s:>2}")
        note = ""
        if scheme.startswith("a4"):
            lp = server.manager.layout.lp_span()
            ants = ",".join(sorted(server.manager.antagonists)) or "-"
            note = f"  LPZ way[{lp[0]}:{lp[1]}] antagonists: {ants}"
        epoch = server.epochs_completed - 1
        print(f"e{epoch:>3}:   " + " ".join(cells) + note)

    server.run(epochs=EPOCHS, warmup=0, epoch_hook=show_epoch)

    print("\n(each cell: dominant workload glyph + occupancy 0-9 tenths)")


if __name__ == "__main__":
    main()
