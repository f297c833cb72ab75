#!/usr/bin/env python3
"""Validate a merged BENCH.json and compare it against the checked-in baseline.

Hard failures (exit 1) are reserved for a broken harness: missing file,
unparseable JSON, wrong schema, a bench document without the required
fields — a >10x ns/op regression versus ci/bench_baseline.json, which no
amount of runner noise explains, or a violated paper shape claim
(SHAPE_GATES and the Fig. 7 interior-peak gate, checked against the run
itself so no baseline refresh can absorb them). Smaller swings are *soft*:
CI runners are noisy shared VMs, so a >3x change only prints a warning (and
a ::warning:: annotation when running under GitHub Actions) and still exits
0.

Rows with ns_per_op <= 0 are structural (e.g. the Table 2 application
characterization rows) and are skipped by the comparison.

Usage:
  check_bench.py --bench build/BENCH.json --baseline ci/bench_baseline.json
  check_bench.py --bench build/BENCH.json --baseline ci/bench_baseline.json --update
"""

import argparse
import json
import sys

SCHEMA = "millipage-bench-v1"
# Ratio beyond which a row is flagged. Generous on purpose: smoke runs are
# short and CI machines are heterogeneous.
SWING = 3.0
# Ratio beyond which a *regression* fails the job: an order of magnitude is a
# broken code path (an accidental O(n^2), a backend silently falling back),
# not scheduler noise. Only slowdowns hard-fail; a 10x speedup is suspicious
# but legitimate (warned, and absorbed at the next --update).
HARD_SWING = 10.0

# The paper's shape claims, as (bench, lhs row, op, factor, rhs row, value):
# "lhs op factor * rhs" must hold on every run, comparing the rows' ns_per_op
# (value None) or the named entry of their values.
SHAPE_GATES = [
    # Section 4.2: write cost grows with the copyset it invalidates.
    ("bench_sec42_dsm_costs", "write fault invalidating 3 read copies", ">", 1.0,
     "write fault invalidating 1 read copies", None),
    # Section 4.2: an isolated write fault is a few message latencies, like a
    # read fault. Compared on the rows' p50s: their means over 20 --smoke
    # rounds move 10x with one multi-ms outlier.
    ("bench_sec42_dsm_costs", "write fault, 128-byte minipage (1 reader)", "<=", 3.0,
     "read fault, 128-byte minipage", "p50_ns"),
    # Table 1: a header message is cheaper than a data message, and a data
    # message's cost grows with its size.
    ("bench_table1_basic_costs", "in-proc: header message send/recv (32 bytes)", "<", 1.0,
     "in-proc: data message send/recv (4 KB)", None),
    ("bench_table1_basic_costs", "in-proc: data message send/recv (0.5 KB)", "<", 1.0,
     "in-proc: data message send/recv (4 KB)", None),
]
# Figure 7: chunking has an interior optimum. Within each host count, the
# lowest-time bench_fig7_chunking row must be some level > 1: neither no
# chunking (level=1) nor page-based sharing without false-sharing control
# (level=none).
FIG7_BENCH = "bench_fig7_chunking"
FIG7_EDGE_LEVELS = ("1", "none")
OPS = {
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


def fail(msg):
    print(f"check_bench: ERROR: {msg}", file=sys.stderr)
    sys.exit(1)


def warn(msg):
    print(f"check_bench: warning: {msg}", file=sys.stderr)
    # GitHub Actions annotation; harmless noise when run locally.
    print(f"::warning::{msg}")


def load_bench(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    benches = doc.get("benches")
    if not isinstance(benches, list) or not benches:
        fail(f"{path}: 'benches' must be a non-empty list")
    for b in benches:
        if not isinstance(b.get("bench"), str):
            fail(f"{path}: bench document missing 'bench' name: {b!r}")
        if not isinstance(b.get("results"), list):
            fail(f"{path}: bench {b['bench']!r} missing 'results' list")
        for r in b["results"]:
            for key in ("name", "params", "iterations", "ns_per_op"):
                if key not in r:
                    fail(f"{path}: bench {b['bench']!r} result missing {key!r}: {r!r}")
    return doc


def flatten(doc):
    """Map (bench, name, params) -> ns_per_op for comparable rows."""
    rows = {}
    for b in doc["benches"]:
        for r in b["results"]:
            ns = r["ns_per_op"]
            if not isinstance(ns, (int, float)) or ns <= 0:
                continue  # structural row: opted out of perf comparison
            rows[(b["bench"], r["name"], r["params"])] = float(ns)
    return rows


def check_shape(doc):
    """Fail on a violated SHAPE_GATES claim. A gate is skipped when its bench
    is absent; a present bench missing a gated row fails."""
    results = {b["bench"]: b["results"] for b in doc["benches"]}
    violated = []
    for bench, lhs, op, factor, rhs, value in SHAPE_GATES:
        if bench not in results:
            print(f"check_bench: {bench} absent; shape gate on {lhs!r} skipped")
            continue
        rows = {r["name"]: r for r in results[bench]}
        us = {}
        for name in (lhs, rhs):
            if name not in rows:
                fail(f"{bench}: shape-gate row {name!r} missing")
            ns = rows[name]["ns_per_op"] if value is None else rows[name].get("values", {}).get(value)
            if not isinstance(ns, (int, float)):
                fail(f"{bench}: shape-gate row {name!r} has no {value!r} value")
            us[name] = float(ns) / 1000.0
        holds = OPS[op](us[lhs], factor * us[rhs])
        unit = "us" if value is None else f"us {value.split('_')[0]}"
        claim = f"{lhs} ({us[lhs]:.3f} {unit}) {op} {factor:g} x {rhs} ({us[rhs]:.3f} {unit})"
        print(f"check_bench: shape {'ok' if holds else 'VIOLATED'}: {claim}")
        if not holds:
            violated.append(claim)
    if FIG7_BENCH in results:
        violated += check_fig7_peak(results[FIG7_BENCH])
    else:
        print(f"check_bench: {FIG7_BENCH} absent; interior-peak gate skipped")
    if violated:
        for claim in violated:
            print(f"::error::shape claim violated: {claim}")
        fail(f"{len(violated)} paper shape claim(s) violated")


def check_fig7_peak(rows):
    """Return the Fig. 7 interior-peak claims violated by `rows`, one per
    host count whose fastest row is an edge level."""
    groups = {}
    for r in rows:
        params = dict(kv.split("=", 1) for kv in r["params"].split())
        if "level" not in params:
            fail(f"{FIG7_BENCH}: row without a level: {r['params']!r}")
        level = params.pop("level")
        key = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
        groups.setdefault(key, {})[level] = float(r["ns_per_op"]) / 1e6
    violated = []
    for key, ms in sorted(groups.items()):
        for level in FIG7_EDGE_LEVELS:
            if level not in ms:
                fail(f"{FIG7_BENCH} [{key}]: shape-gate row level={level} missing")
        best = min(ms, key=ms.get)
        holds = best not in FIG7_EDGE_LEVELS
        edges = ", ".join(f"level={lv} {ms[lv]:.1f} ms" for lv in FIG7_EDGE_LEVELS)
        claim = f"{FIG7_BENCH} [{key}] fastest at level={best} ({ms[best]:.1f} ms; {edges})"
        print(f"check_bench: shape {'ok' if holds else 'VIOLATED'}: {claim}")
        if not holds:
            violated.append(claim)
    return violated


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True, help="merged BENCH.json from bench_smoke")
    ap.add_argument("--baseline", required=True, help="checked-in baseline JSON")
    ap.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from --bench instead of comparing",
    )
    args = ap.parse_args()

    doc = load_bench(args.bench)
    rows = flatten(doc)
    print(
        f"check_bench: {args.bench} OK "
        f"({len(doc['benches'])} benches, {len(rows)} comparable rows)"
    )
    check_shape(doc)

    if args.update:
        baseline = {
            "schema": SCHEMA,
            "note": "Regenerate with: ci/check_bench.py --bench build/BENCH.json "
            "--baseline ci/bench_baseline.json --update",
            "rows": [
                {"bench": b, "name": n, "params": p, "ns_per_op": ns}
                for (b, n, p), ns in sorted(rows.items())
            ],
        }
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
        print(f"check_bench: wrote {len(rows)} baseline rows to {args.baseline}")
        return

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except OSError:
        warn(f"no baseline at {args.baseline}; skipping comparison")
        return
    except json.JSONDecodeError as e:
        fail(f"{args.baseline} is not valid JSON: {e}")

    base_rows = {
        (r["bench"], r["name"], r["params"]): float(r["ns_per_op"])
        for r in baseline.get("rows", [])
        if r.get("ns_per_op", 0) > 0
    }

    swings = 0
    regressions = []
    for key, ns in sorted(rows.items()):
        base = base_rows.get(key)
        if base is None:
            continue  # new row: becomes part of the baseline on next --update
        ratio = ns / base
        bench, name, params = key
        if ratio > HARD_SWING:
            regressions.append(
                f"{bench} / {name} [{params}]: {ns:.1f} ns/op vs baseline "
                f"{base:.1f} ns/op ({ratio:.2f}x, hard limit {HARD_SWING}x)"
            )
        elif ratio > SWING or ratio < 1.0 / SWING:
            swings += 1
            warn(
                f"{bench} / {name} [{params}]: {ns:.1f} ns/op vs baseline "
                f"{base:.1f} ns/op ({ratio:.2f}x)"
            )
    missing = sorted(set(base_rows) - set(rows))
    for bench, name, params in missing:
        warn(f"baseline row disappeared: {bench} / {name} [{params}]")

    if swings or missing:
        print(
            f"check_bench: {swings} swing(s) beyond {SWING}x and "
            f"{len(missing)} missing row(s) — soft warning only (CI noise is real); "
            "refresh with --update if the change is intentional"
        )
    elif not regressions:
        print(f"check_bench: all {len(rows)} rows within {SWING}x of baseline")
    if regressions:
        for msg in regressions:
            print(f"::error::{msg}")
        fail(
            f"{len(regressions)} regression(s) beyond {HARD_SWING}x — this is a "
            "broken code path, not runner noise; fix it or regenerate the "
            "baseline with ci/update_baseline.py if the slowdown is intentional"
        )


if __name__ == "__main__":
    main()
