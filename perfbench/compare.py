"""Compare two sets of benchmark results, refusing mismatched hosts.

Usage::

    python3 perfbench/compare.py --base perfbench/out/A*.json \\
        --change perfbench/out/B*.json

Each file is a report ``run.py`` wrote.  All of them must carry the same
host fingerprint (see ``fingerprint.py``) and the same workload and mode;
otherwise the comparison is refused with exit code 1.  Prints, per metric,
the median of each side and their ratio.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List

from fingerprint import FingerprintMismatch, check_comparable


def load(paths: List[str]) -> List[dict]:
    records = []
    for path in paths:
        with open(path) as handle:
            records.append(json.load(handle))
    return records


def medians(records: List[dict]) -> Dict[str, float]:
    names = records[0]["result"]["metrics"]
    return {name: statistics.median(r["result"]["metrics"][name]["value"]
                                    for r in records)
            for name in names}


def compare(base: List[dict], change: List[dict]) -> Dict[str, tuple]:
    """``{metric: (base median, change median)}``; raises on a mismatch."""
    first = base[0]
    for record in base + change:
        check_comparable(first["fingerprint"], record["fingerprint"])
        if (record["workload"], record["trace"]) != (first["workload"],
                                                     first["trace"]):
            raise FingerprintMismatch(
                "refusing to compare different workloads or modes: "
                f"{record['workload']}/trace{record['trace']} vs "
                f"{first['workload']}/trace{first['trace']}")
    base_medians, change_medians = medians(base), medians(change)
    return {name: (base_medians[name], change_medians[name])
            for name in base_medians}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        table = compare(load(args.base), load(args.change))
    except FingerprintMismatch as error:
        sys.stderr.write(f"error: {error}\n")
        return 1
    for name, (before, after) in table.items():
        ratio = after / before if before else float("nan")
        print(f"{name:28s} {before:12.6g} {after:12.6g} {ratio:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
