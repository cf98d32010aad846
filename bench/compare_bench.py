#!/usr/bin/env python3
"""CI perf-regression gate for the machine-readable bench JSONs.

Compares a candidate run (written by a bench into its working directory)
against the committed baseline under ``bench/baselines/`` and fails —
exit 1 — if any gated row's throughput metric dropped more than
``--tolerance`` (default 30%) below the baseline. Two schemas are
understood, keyed by the JSON's top-level name:

``multi_shard_sweep`` (bench_serving_throughput)
    Rows keyed by (mode, shards, threadsPerShard, dispatchers); metric is
    warm-pool ``reqPerSec``. *Closed-loop* rows always gate: they are
    throughput-bound, so a slower build shows up directly as lower
    req/s. Open-loop rows are arrival-schedule-bound (req/s ~= the
    configured rate whenever the server keeps up), so they are checked
    for shape only and reported informationally; a capacity regression
    there surfaces as queue growth, not req/s. Any other row — the
    ``warm-edit`` / ``warm-edit-full`` latency rows and the ``traced``
    span-tracing row — gates iff the *baseline* row carries
    ``"gated": true``. The bench emits these rows with
    ``"gated": false`` (single-request latency is noisy on shared
    runners), so they stay informational until someone flips the flag in
    the committed baseline after a CI-artifact refresh shows them stable.

    When the candidate carries a ``traced`` row, an extra informational
    line reports the span-tracing overhead: traced req/s vs the
    candidate's own flag-off closed-loop row at the same configuration.
    The cost contract is within 5%; the line warns past that but only
    the baseline ``gated`` flag turns it into a hard gate.

``geom_kernels`` (bench_geom_kernels)
    Rows keyed by (kernel, size, variant); metric is ``opsPerSec``
    (input rects processed per second). Rows gate iff their own
    ``gated`` flag is true — the committed table gates both the SoA and
    scalar variants at 1e4/1e5 rects and leaves the 1e6 soa-only
    headroom rows informational.

``net_throughput`` (bench_net_throughput)
    Rows keyed by (mode, connections, dispatchers); metric is
    ``reqPerSec`` over real loopback sockets against a spawned server
    process. Rows gate iff the baseline row carries ``"gated": true``;
    the bench emits every row with ``"gated": false`` — TCP loopback
    throughput on shared CI runners mixes scheduler and network-stack
    noise into the number, so these rows stay informational (the
    byte-identity oracle inside the bench is the hard check, and it
    fails the bench itself). A row that disappears still fails: the
    sweep shrinking is a bench bug, not noise.

In both schemas a row present in the baseline but missing from the
candidate is a failure (the sweep shrank); extra candidate rows are
reported and ignored (refresh the baseline to start gating them).

Usage:
  compare_bench.py BASELINE.json CANDIDATE.json [--tolerance 0.30]

Exit codes: 0 ok, 1 regression (or missing row), 2 bad input.

To refresh a baseline after an intentional perf change, run the bench
and copy its JSON over bench/baselines/ (CI uploads every run's JSON as
an artifact, so a runner-generated file is always one download away).
"""

import argparse
import json
import sys


class Schema:
    """How to key, label, gate, and read the metric of one JSON shape."""

    def __init__(self, top, metric, key, fmt, gated):
        self.top = top        # top-level JSON key
        self.metric = metric  # row field holding the gated throughput
        self.key = key        # row -> hashable identity
        self.fmt = fmt        # key -> human label
        self.gated = gated    # row -> bool


SCHEMAS = [
    Schema(
        top="multi_shard_sweep",
        metric="reqPerSec",
        key=lambda r: (r["mode"], r["shards"], r["threadsPerShard"],
                       r.get("dispatchers", 1)),
        fmt=lambda k: f"{k[0]} shards={k[1]} thr/sh={k[2]} disp={k[3]}",
        gated=lambda r: r["mode"] == "closed" or bool(r.get("gated", False)),
    ),
    Schema(
        top="geom_kernels",
        metric="opsPerSec",
        key=lambda r: (r["kernel"], r["size"], r["variant"]),
        fmt=lambda k: f"{k[0]} n={k[1]} {k[2]}",
        gated=lambda r: bool(r.get("gated", True)),
    ),
    Schema(
        top="net_throughput",
        metric="reqPerSec",
        key=lambda r: (r["mode"], r["connections"], r.get("dispatchers", 1)),
        fmt=lambda k: f"{k[0]} conns={k[1]} disp={k[2]}",
        gated=lambda r: bool(r.get("gated", False)),
    ),
]


def load(path, schema=None):
    """Return (schema, {key: row}); the schema is sniffed from the
    top-level key on first load and pinned for the candidate load."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as ex:
        print(f"compare_bench: cannot read {path}: {ex}", file=sys.stderr)
        sys.exit(2)
    candidates = [schema] if schema else SCHEMAS
    for s in candidates:
        if s.top in doc:
            return s, {s.key(r): r for r in doc[s.top]}
    print(f"compare_bench: {path} has none of the known top-level keys "
          f"({', '.join(s.top for s in candidates)})", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional drop of the gated metric "
                         "(default 0.30)")
    args = ap.parse_args()

    schema, base = load(args.baseline)
    _, cand = load(args.candidate, schema)
    fmt, metric = schema.fmt, schema.metric

    failures = []
    print(f"{'row':<40} {'baseline':>12} {'candidate':>12} "
          f"{'ratio':>7}  verdict")
    for k, brow in sorted(base.items()):
        crow = cand.get(k)
        if crow is None:
            failures.append(f"missing row: {fmt(k)}")
            print(f"{fmt(k):<40} {brow[metric]:>12.1f} {'—':>12} "
                  f"{'—':>7}  MISSING")
            continue
        b, c = brow[metric], crow[metric]
        ratio = c / b if b > 0 else float("inf")
        gated = schema.gated(brow)
        ok = (not gated) or ratio >= 1.0 - args.tolerance
        verdict = ("ok" if ok else "REGRESSION") + ("" if gated else
                                                    " (informational)")
        print(f"{fmt(k):<40} {b:>12.1f} {c:>12.1f} {ratio:>6.2f}x  {verdict}")
        if not ok:
            failures.append(
                f"{fmt(k)}: {metric} {c:.1f} < {(1 - args.tolerance):.2f} * "
                f"baseline {b:.1f}")
    for k in sorted(set(cand) - set(base)):
        print(f"{fmt(k):<40} {'—':>12} {cand[k][metric]:>12.1f} "
              f"{'—':>7}  new (not gated)")

    # Tracing-overhead report: candidate-internal (traced vs flag-off
    # closed loop, same shard config), so it needs no baseline row.
    # Informational — the hard gate arrives when the committed baseline
    # flips the traced row to "gated": true.
    if schema.top == "multi_shard_sweep":
        for k in sorted(cand):
            row = cand[k]
            if row.get("mode") != "traced":
                continue
            off = cand.get(("closed",) + k[1:])
            if not off or off[metric] <= 0:
                continue
            delta = row[metric] / off[metric] - 1.0
            warn = ("" if delta >= -0.05 else
                    "  ** exceeds the 5% tracing-overhead contract **")
            print(f"\ntracing overhead (informational): shards={k[1]} "
                  f"thr/sh={k[2]}: traced {row[metric]:.1f} req/s vs "
                  f"flag-off {off[metric]:.1f} ({delta:+.1%}){warn}")

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed (gated {metric} within "
          f"{args.tolerance:.0%} of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
