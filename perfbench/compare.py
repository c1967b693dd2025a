#!/usr/bin/env python3
"""Compares benchmark runs from two commits, one row per workload x metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py RUN_DIR            # one side: spreads only

Each directory holds run logs (rbvc_perfbench's full stdout, one file per run,
as perfbench/sample.py writes them); a log's first line names its workload
and trace mode, its last line is the JSON result. For every workload and
metric the table gives each side's median and quartiles
(statistics.quantiles(n=4)), the ratio new/base with its base, and a
verdict:

  * end-to-end metrics (BENCHMARK.json "end_to_end"): "better"/"worse" when
    the medians differ by more than the bound, "unresolved" when either
    side's quartile spread (as a share of its median) exceeds the bound,
    else "same";
  * per-layer metrics: no bound; "moved" when the medians differ by more
    than both sides' quartile spreads. The module column names the layer
    (the metric's prefix before the first dot).
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    return e2e


def parse_log(text):
    """(workload, trace, result) of one run log, or None."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or not lines[0].startswith("# workload="):
        return None
    head = dict(kv.split("=", 1) for kv in lines[0][2:].split())
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return head["workload"], head["trace"], result


def load_dir(path):
    """{(workload, trace): {metric: [values]}} plus failure counts."""
    runs = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name)) as f:
            parsed = parse_log(f.read())
        if parsed is None:
            continue
        workload, trace, result = parsed
        per = runs.setdefault((workload, trace), {})
        for metric, m in result["metrics"].items():
            per.setdefault(metric, []).append(float(m["value"]))
        per.setdefault("(failed ops)", []).append(float(result["failed"]))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def fmt(x):
    return "%.5g" % x


def compare(base, new, e2e):
    keys = sorted(set(base) | set(new))
    print("%-12s %-5s %-40s %-26s %-26s %-18s %s" % (
        "workload", "trace", "metric", "base median [q1,q3]",
        "new median [q1,q3]", "new/base", "verdict"))
    for key in keys:
        b, n = base.get(key, {}), new.get(key, {})
        for metric in sorted(set(b) | set(n)):
            bv, nv = b.get(metric), n.get(metric)
            if not bv or not nv:
                continue
            bq, nq = quartiles(bv), quartiles(nv)
            ratio = nq[1] / bq[1] if bq[1] else float("nan")
            spec = e2e.get(metric)
            if spec and key[1] == "0":
                bound = spec["bound"]
                worse = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
                if spec["better"] == "higher":
                    worse = -worse
                if spread(bv) > bound or spread(nv) > bound:
                    verdict = "unresolved (spread > bound %.3g)" % bound
                elif worse > bound:
                    verdict = "worse (bound %.3g)" % bound
                elif -worse > bound:
                    verdict = "better (bound %.3g)" % bound
                else:
                    verdict = "same (bound %.3g)" % bound
            else:
                module = metric.split(".", 1)[0] if "." in metric else "-"
                gap = abs(nq[1] - bq[1])
                moved = gap > (bq[2] - bq[0]) and gap > (nq[2] - nq[0]) and gap > 0
                verdict = ("moved: %s" % module) if moved else "-"
            print("%-12s %-5s %-40s %-26s %-26s %-18s %s" % (
                key[0], key[1], metric,
                "%s [%s,%s]" % (fmt(bq[1]), fmt(bq[0]), fmt(bq[2])),
                "%s [%s,%s]" % (fmt(nq[1]), fmt(nq[0]), fmt(nq[2])),
                "%s (base %s)" % (fmt(ratio), fmt(bq[1])), verdict))


def spreads(runs, e2e):
    """One-side table: median, quartiles, spread vs bound. Returns the
    number of end-to-end metrics whose spread is over a third of the
    bound."""
    over = 0
    print("%-12s %-5s %-40s %4s %-26s %-8s %s" % (
        "workload", "trace", "metric", "runs", "median [q1,q3]", "spread",
        "bound"))
    for key in sorted(runs):
        for metric, values in sorted(runs[key].items()):
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            spec = e2e.get(metric) if key[1] == "0" else None
            note = ""
            if spec:
                note = "%.3g" % spec["bound"]
                if s > spec["bound"] / 3:
                    note += "  <-- over bound/3"
                    over += 1
            print("%-12s %-5s %-40s %4d %-26s %-8.4f %s" % (
                key[0], key[1], metric, len(values),
                "%s [%s,%s]" % (fmt(q2), fmt(q1), fmt(q3)), s, note))
    return over


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    e2e = load_spec()
    if len(argv) == 1:
        spreads(load_dir(argv[0]), e2e)
    else:
        compare(load_dir(argv[0]), load_dir(argv[1]), e2e)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
