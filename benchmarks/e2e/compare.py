"""Compare two sets of benchmark runs, metric by metric, workload by workload.

    python3 benchmarks/e2e/compare.py A B [--exact]

A and B are ``run.py --out`` documents, or directories of them (several
runs of one side).  B is judged against A, the parent.  One row per
end-to-end metric x workload: both medians, the relative difference
(positive = worse; every metric here is lower-is-better), the metric's
bound from BENCHMARK.json, the run-to-run spread, and a status:

* ``ok``         not worse than A by more than the bound;
* ``worse``      worse by more than the bound;
* ``unresolved`` the spread is wider than the bound, so the runs cannot
  tell - unless every reading of B is below every reading of A (``ok``).

Exit code 1 on any ``worse`` row or a larger failed/attempted ratio.
``--exact`` is for two runs of one commit with one seed: bundle bytes
and every count-type layer metric must then agree exactly.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as _fh:
    END_TO_END = json.load(_fh)["end_to_end"]


def load_side(path: str) -> list[dict]:
    paths = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    if not paths:
        sys.exit(f"compare: no *.json under {path}")
    documents = []
    for item in paths:
        with open(item) as fh:
            documents.append(json.load(fh))
    return documents


def readings(documents: list[dict], workload: str, metric: str) -> list[float]:
    """One value per run; for a single run, its repetitions if it kept
    them."""
    entries = [doc["workloads"][workload]["metrics"][metric]
               for doc in documents
               if metric in doc["workloads"].get(workload, {}).get(
                   "metrics", {})]
    if len(entries) == 1:
        return entries[0].get("samples", [entries[0]["value"]])
    return [entry["value"] for entry in entries]


def spread(values: list[float]) -> float:
    """Inter-quartile range (or the full range, below four readings) as
    a share of the median."""
    if len(values) < 2:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    else:
        width = max(values) - min(values)
    return width / statistics.median(values)


def failure_ratio(documents: list[dict]) -> float:
    attempted = failed = 0
    for doc in documents:
        for result in doc["workloads"].values():
            attempted += result["ops_attempted"]
            failed += result["ops_failed"]
    return failed / attempted if attempted else 0.0


def exact_differences(a: dict, b: dict) -> list[str]:
    """Names that must agree exactly between two same-seed documents."""
    differing = []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        left, right = a["workloads"][workload], b["workloads"][workload]
        pairs = {
            name: (left["counts"].get(name), right["counts"].get(name))
            for name in left.get("counts", {})
        }
        if "bundle_bytes_per_req" in left["metrics"] \
                and "bundle_bytes_per_req" in right["metrics"]:
            pairs["bundle_bytes_per_req"] = (
                left["metrics"]["bundle_bytes_per_req"]["value"],
                right["metrics"]["bundle_bytes_per_req"]["value"],
            )
        differing.extend(
            f"{workload} {name}: {x} != {y}"
            for name, (x, y) in pairs.items() if x != y
        )
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("a", help="parent: --out file or directory of them")
    parser.add_argument("b", help="change: --out file or directory of them")
    parser.add_argument("--exact", action="store_true",
                        help="same commit, same seed: counts and bundle "
                             "bytes must agree exactly")
    args = parser.parse_args(argv)
    side_a, side_b = load_side(args.a), load_side(args.b)

    in_b = {name for doc in side_b for name in doc["workloads"]}
    workloads = list(dict.fromkeys(
        name for doc in side_a for name in doc["workloads"] if name in in_b))
    print(f"{'workload':<18} {'metric':<22} {'A':>12} {'B':>12} "
          f"{'diff':>8} {'bound':>6} {'spread':>7}  status")
    worse = 0
    for workload in workloads:
        for metric in END_TO_END:
            name, bound = metric["name"], metric["bound"]
            a = readings(side_a, workload, name)
            b = readings(side_b, workload, name)
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            diff = (median_b - median_a) / median_a
            width = max(spread(a), spread(b))
            if width > bound and not max(b) < min(a):
                status = "unresolved"
            elif diff > bound:
                status = "worse"
                worse += 1
            else:
                status = "ok"
            print(f"{workload:<18} {name:<22} {median_a:>12.3f} "
                  f"{median_b:>12.3f} {diff:>+8.2%} {bound:>6.0%} "
                  f"{width:>7.2%}  {status}")

    failed = 0
    ratio_a, ratio_b = failure_ratio(side_a), failure_ratio(side_b)
    print(f"ops failed/attempted: A {ratio_a:.4f}  B {ratio_b:.4f}")
    if ratio_b > ratio_a:
        print("B fails more operations than A")
        failed = 1
    if args.exact:
        differing = exact_differences(side_a[0], side_b[0])
        for line in differing:
            print(f"not exact: {line}")
        print(f"exact check: {len(differing)} name(s) differ")
        failed = failed or bool(differing)
    return 1 if worse or failed else 0


if __name__ == "__main__":
    sys.exit(main())
