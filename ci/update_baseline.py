#!/usr/bin/env python3
"""Regenerate ci/bench_baseline.json from a BENCH.json artifact.

Typical flow: download the `bench-json` artifact from a green bench-smoke run
(or produce one locally with `./bench/bench_smoke --bench_json=BENCH.json`),
then:

  ci/update_baseline.py BENCH.json
  git diff ci/bench_baseline.json   # sanity-check the deltas
  git commit ...

This is a thin wrapper over check_bench.py's --update mode so the schema
validation, row flattening, and baseline format live in exactly one place.
It prints a per-row delta summary against the previous baseline before
overwriting it, because a baseline refresh is how a real regression gets
laundered into "expected".
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("bench_json", help="BENCH.json artifact from bench_smoke")
    ap.add_argument(
        "--baseline",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_baseline.json"),
        help="baseline file to rewrite (default: ci/bench_baseline.json)",
    )
    args = ap.parse_args()

    doc = check_bench.load_bench(args.bench_json)
    check_bench.check_shape(doc)  # never launder a shape violation into the baseline
    rows = check_bench.flatten(doc)

    old_rows = {}
    try:
        with open(args.baseline) as f:
            old = json.load(f)
        old_rows = {
            (r["bench"], r["name"], r["params"]): float(r["ns_per_op"])
            for r in old.get("rows", [])
            if r.get("ns_per_op", 0) > 0
        }
    except (OSError, json.JSONDecodeError, KeyError):
        print(f"update_baseline: no readable baseline at {args.baseline}; writing fresh")

    added = sorted(set(rows) - set(old_rows))
    removed = sorted(set(old_rows) - set(rows))
    moved = []
    for key in sorted(set(rows) & set(old_rows)):
        ratio = rows[key] / old_rows[key]
        if ratio > check_bench.SWING or ratio < 1.0 / check_bench.SWING:
            moved.append((key, old_rows[key], rows[key], ratio))

    for bench, name, params in added:
        print(f"update_baseline: + {bench} / {name} [{params}]")
    for bench, name, params in removed:
        print(f"update_baseline: - {bench} / {name} [{params}]")
    for (bench, name, params), old_ns, new_ns, ratio in moved:
        print(
            f"update_baseline: ~ {bench} / {name} [{params}]: "
            f"{old_ns:.1f} -> {new_ns:.1f} ns/op ({ratio:.2f}x)"
        )

    baseline = {
        "schema": check_bench.SCHEMA,
        "note": "Regenerate with: ci/update_baseline.py <BENCH.json artifact>",
        "rows": [
            {"bench": b, "name": n, "params": p, "ns_per_op": ns}
            for (b, n, p), ns in sorted(rows.items())
        ],
    }
    with open(args.baseline, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    print(
        f"update_baseline: wrote {len(rows)} rows to {args.baseline} "
        f"({len(added)} added, {len(removed)} removed, {len(moved)} moved >{check_bench.SWING}x)"
    )


if __name__ == "__main__":
    main()
