#!/usr/bin/env python3
"""Compares two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are JSON-lines files written by `run.py --out`, or
directories of them. For every workload and end-to-end metric the table gives
each side's median and quartiles over its untraced runs, the pairwise win
fraction of the change (runs paired by seed when both sides ran the same
seeds, else by order; ties count for neither side) and a verdict:

  improved    every change run beats every parent run, or the change wins at
              least 9 of 10 pairs and the medians differ by more than the
              parent's interquartile distance;
  unresolved  either side's interquartile distance, as a share of its median,
              is wider than the metric's bound;
  worse       the change's median is worse than the parent's by more than the
              bound (a share of the parent's median);
  no worse    otherwise.

Two rules guard the timing verdicts of a workload. If any run of either
side failed its output check (`"correct": false`), every row of the workload
reads "incorrect". A row per workload compares the failed-operation ratio
(`failed_ops_ratio` from each run's detail line, else failed / attempted):
a higher median on the change's side reads "worse" and withholds "improved"
from the workload's metrics, so a speedup bought with more failed
operations (say, more aborted ATPG targets) is not called an improvement.

The exit code is 1 when any verdict is "worse" or "incorrect".
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

WIN_FRACTION = 0.9


def load_records(path):
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for f in files:
        for line in f.read_text(encoding="utf-8").splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def untraced_runs(records, workload):
    """Every untraced run of `workload`, in file order."""
    return [r for r in records if r["meta"]["workload"] == workload and not r["meta"]["traced"]]


def values(runs, metric):
    """(seed, value) of `metric` in every run that reports it."""
    return [(r["meta"]["seed"], r["result"]["metrics"][metric]["value"])
            for r in runs if metric in r["result"]["metrics"]]


def failure_ratio(run):
    """The run's failed-operation ratio: the workload's own definition from
    the detail line when present, else failed / attempted."""
    ratio = run.get("detail", {}).get("failed_ops_ratio")
    if ratio is not None:
        return float(ratio)
    res = run["result"]
    return res["failed"] / max(res["attempted"], 1)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    """Pairs runs by seed when both sides ran the same seeds, else by order."""
    p_seeds, c_seeds = [s for s, _ in parent], [s for s, _ in change]
    if sorted(p_seeds) == sorted(c_seeds) and len(set(p_seeds)) == len(p_seeds):
        by_seed = dict(change)
        return [(v, by_seed[s]) for s, v in parent]
    return [(p, c) for (_, p), (_, c) in zip(parent, change)]


def win_fraction(paired, better):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    return wins / len(paired) if paired else 0.0


def verdict(parent, change, paired, better, bound):
    """The verdict for one metric; `parent` and `change` are value lists."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if all(sign * (c - p) > 0 for c in change for p in parent):
        return "improved"
    spread = max((p3 - p1) / abs(pm or 1e-300), (c3 - c1) / abs(cm or 1e-300))
    if spread > bound:
        return "unresolved"
    if win_fraction(paired, better) >= WIN_FRACTION and sign * (cm - pm) > (p3 - p1):
        return "improved"
    if sign * (pm - cm) / abs(pm or 1e-300) > bound:
        return "worse"
    return "no worse"


def failure_verdict(parent, change):
    """Verdict on the failed-operation ratios: any rise of the median is
    worse."""
    pm, cm = statistics.median(parent), statistics.median(change)
    if cm > pm:
        return "worse"
    return "improved" if cm < pm else "no worse"


def compare(benchmark, parent_records, change_records):
    """Rows of (workload, metric, unit, parent stats, change stats, win, verdict)."""
    rows = []
    for w in benchmark["workloads"]:
        p_runs = untraced_runs(parent_records, w["name"])
        c_runs = untraced_runs(change_records, w["name"])
        incorrect = any(r["result"]["correct"] is not True for r in p_runs + c_runs)
        failures = None
        if p_runs and c_runs:
            pf = [failure_ratio(r) for r in p_runs]
            cf = [failure_ratio(r) for r in c_runs]
            failures = (w["name"], "failed_ops_ratio", "ratio", quartiles(pf), quartiles(cf),
                        None, "incorrect" if incorrect else failure_verdict(pf, cf))
        for m in benchmark["end_to_end"]:
            p = values(p_runs, m["name"])
            c = values(c_runs, m["name"])
            if not p or not c:
                rows.append((w["name"], m["name"], m["unit"], None, None, None, "missing"))
                continue
            paired = pairs(p, c)
            pv, cv = [v for _, v in p], [v for _, v in c]
            v = verdict(pv, cv, paired, m["better"], m["bound"])
            if incorrect:
                v = "incorrect"
            elif v == "improved" and failures[-1] == "worse":
                v = "no worse"
            rows.append((
                w["name"], m["name"], m["unit"], quartiles(pv), quartiles(cv),
                win_fraction(paired, m["better"]), v,
            ))
        if failures:
            rows.append(failures)
    return rows


def fmt(q):
    return "-" if q is None else f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = ap.parse_args(argv)
    benchmark = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    rows = compare(benchmark, load_records(args.parent), load_records(args.change))
    print(f"{'workload':<20} {'metric':<18} {'unit':<6} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'wins':>5}  verdict")
    for w, m, unit, pq, cq, wins, v in rows:
        win = "-" if wins is None else f"{wins:.2f}"
        print(f"{w:<20} {m:<18} {unit:<6} {fmt(pq):<36} {fmt(cq):<36} {win:>5}  {v}")
    return 1 if any(r[-1] in ("worse", "incorrect") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
