"""Summarise benchmark run records (perfbench/results/*.json) as Markdown.

    python3 perfbench/summarize.py perfbench/results/*.json

For each workload: every end-to-end metric's median, first and third
quartile and spread (IQR / median) over the untraced runs given, the
unscaled wall_s and the reference chunk's median time in the same
rounds (the machine's own drift), failed/attempted, and, when
traced runs are given too, the tracing overhead (median traced wall_s
minus median unscaled untraced wall_s).
"""

import json
import statistics
import sys
from collections import defaultdict

import run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def row(name, unit, values):
    q1, med, q3 = quartiles(values)
    return (f"| {name} | {unit} | {len(values)} | {med:.4g} | {q1:.4g} | {q3:.4g} "
            f"| {(q3 - q1) / med:.3f} |")


def main(paths):
    untraced = defaultdict(list)
    traced = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        (traced if record["args"]["trace"] else untraced)[record["args"]["workload"]].append(record)
    for workload in run.WORKLOADS:
        records = untraced.get(workload, [])
        if not records:
            continue
        print(f"\n**{workload}**\n")
        print("| metric | unit | runs | median | Q1 | Q3 | (Q3-Q1)/median |")
        print("|---|---|---|---|---|---|---|")
        for name, unit in run.END_TO_END:
            print(row(name, unit, [r["result"]["metrics"][name]["value"] for r in records]))
        raw = [statistics.median(rnd["raw_wall_s"] for rnd in r["rounds"]) for r in records]
        print(row("wall_s unscaled", "s", raw))
        refs = [statistics.median(rnd["ref_s"] for rnd in r["rounds"]) for r in records]
        print(row("reference chunk", "s", refs))
        failed = {(r["result"]["failed"], r["result"]["attempted"]) for r in records}
        correct = all(r["result"]["correct"] for r in records)
        print(f"\ncorrect in every run: {correct}; failed/attempted: {sorted(failed)}")
        if traced.get(workload):
            walls = [r["result"]["metrics"]["trace.wall_s"]["value"] for r in traced[workload]]
            # trace.wall_s is in plain seconds, so compare it with unscaled wall_s
            base = statistics.median(raw)
            over = statistics.median(walls) - base
            print(f"tracing overhead: {over:.2f} s ({over / base:.0%} of untraced wall_s, "
                  f"{len(walls)} traced runs)")


if __name__ == "__main__":
    main(sys.argv[1:])
