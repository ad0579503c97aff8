#!/usr/bin/env python3
"""Same-host performance gate: perfbench on a parent and a change checkout.

Usage: scripts/perf_gate.py <parent-checkout> <change-checkout>

Runs `python3 perfbench/run.py --workload all --trace 0` in both checkouts
in 5 alternating pairs. Pair i (1..5) uses seed i on both sides and runs the
parent first when i is even. Each checkout builds into its own
CARGO_TARGET_DIR (<checkout>/.bench_build), and every run lasts the
parent's BENCHMARK.json `run_seconds`.

For every workload and every `end_to_end` metric, the medians of the two
sides are compared against the metric's `bound` and `better` direction: a
change median worse than the parent's by more than the bound fails. When
the parent's own spread (IQR/median) exceeds the bound, the difference
cannot be resolved; the row reads `unresolved` and fails only if every
change run is worse than every parent run (`ok` if every one is better). A
metric only the change reports is printed but not gated. The gate also
fails on a run that exits non-zero or prints no result, on `correct: false`,
and on a higher failed/attempted share than the parent's.

Prints the verdict table, then every row's parent/change values pair by
pair in pair order, and exits 0 (pass) or 1 (fail).
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
# Relative slack on the bound comparison, so a value exactly at the bound
# passes despite floating-point rounding.
EPS = 1e-9


def load_contract(parent, change):
    """run_seconds and {metric: spec} from the parent's BENCHMARK.json.

    Metrics only the change declares are added with the change's spec; the
    parent cannot report them, so they are shown but never gated.
    """
    with open(os.path.join(parent, "BENCHMARK.json")) as f:
        base = json.load(f)
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        new = json.load(f)
    metrics = {m["name"]: m for m in new["end_to_end"]}
    metrics.update({m["name"]: m for m in base["end_to_end"]})
    return base["run_seconds"], metrics


def run_once(checkout, seed, seconds):
    """One `--workload all` run; returns {"rc", "result"} (result may be None)."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True)
    result = None
    lines = proc.stdout.splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return {"rc": proc.returncode, "result": result}


def spread(values):
    """IQR/median of `values` (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


def metric_verdict(parent_vals, change_vals, better, bound):
    """Verdict for one (workload, metric) row.

    Returns (verdict, parent median, change median, ratio, parent spread);
    verdict is one of ok, FAIL, unresolved, UNRESOLVED-FAIL,
    missing-parent (not gated) and missing-change (fails).
    """
    if not parent_vals:
        cm = statistics.median(change_vals) if change_vals else None
        return "missing-parent", None, cm, None, None
    pm = statistics.median(parent_vals)
    sp = spread(parent_vals)
    if not change_vals:
        return "missing-change", pm, None, None, sp
    cm = statistics.median(change_vals)
    ratio = cm / pm
    higher = better == "higher"
    worse = (pm - cm) / pm if higher else (cm - pm) / pm
    if sp > bound:
        lo, hi = min(parent_vals), max(parent_vals)
        all_worse = max(change_vals) < lo if higher else min(change_vals) > hi
        all_better = min(change_vals) > hi if higher else max(change_vals) < lo
        verdict = ("UNRESOLVED-FAIL" if all_worse
                   else "ok" if all_better else "unresolved")
        return verdict, pm, cm, ratio, sp
    return ("FAIL" if worse > bound * (1 + EPS) else "ok"), pm, cm, ratio, sp


def failed_share(runs):
    attempted = sum(r["result"]["attempted"] for r in runs if r["result"])
    failed = sum(r["result"]["failed"] for r in runs if r["result"])
    return failed / attempted if attempted else 0.0


def gate(metrics, parent_runs, change_runs):
    """Hold the change's runs to the parent's.

    `metrics` maps each end_to_end metric name to its BENCHMARK.json spec;
    each run is {"rc": exit code, "result": run.py's last line or None}.
    Returns (rows, problems): one row tuple per (workload, metric) and a
    list of run-level failure messages. The gate passes when no row fails
    and `problems` is empty.
    """
    problems = []
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for i, run in enumerate(runs, 1):
            res = run["result"]
            if run["rc"] != 0 or res is None:
                problems.append(f"{side} run {i}: exit {run['rc']}"
                                + ("" if res else ", no result"))
            elif not res.get("correct", False):
                problems.append(f"{side} run {i}: correct is false")
    p_share, c_share = failed_share(parent_runs), failed_share(change_runs)
    if c_share > p_share:
        problems.append(f"failed share rose: {p_share:.4f} -> {c_share:.4f}")

    def values(runs):
        out = {}
        for run in runs:
            if run["result"] is None:
                continue
            for key, m in run["result"].get("metrics", {}).items():
                out.setdefault(key, []).append(m["value"])
        return out

    pv, cv = values(parent_runs), values(change_runs)
    workloads = []
    for key in list(pv) + list(cv):
        wl = key.split(".", 1)[0]
        if wl not in workloads:
            workloads.append(wl)
    rows = []
    for wl in workloads:
        for name, spec in metrics.items():
            key = f"{wl}.{name}"
            if key not in pv and key not in cv:
                continue
            verdict, pm, cm, ratio, sp = metric_verdict(
                pv.get(key, []), cv.get(key, []), spec["better"], spec["bound"])
            rows.append((wl, name, pm, cm, ratio, spec["bound"], sp, verdict))
    return rows, problems


def failing(verdict):
    return verdict in ("FAIL", "UNRESOLVED-FAIL", "missing-change")


def table(head, body):
    """Left-aligned columns, two spaces apart."""
    widths = [max(len(r[i]) for r in [head] + body) for i in range(len(head))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                     for r in [head] + body)


def num(v, fmt=".4g"):
    return "-" if v is None else format(v, fmt)


def render(rows):
    head = ("workload", "metric", "parent", "change", "ratio", "bound",
            "spread", "verdict")
    body = [(wl, name, num(pm), num(cm), num(ratio, ".3f"),
             num(bound, ".2f"), num(sp, ".3f"), verdict)
            for wl, name, pm, cm, ratio, bound, sp, verdict in rows]
    return table(head, body)


def pair_values(runs, key):
    """`key`'s value in each run, in run order; None where a run lacks it."""
    out = []
    for run in runs:
        m = (run["result"] or {}).get("metrics", {}).get(key)
        out.append(None if m is None else m["value"])
    return out


def render_pairs(rows, parent_runs, change_runs):
    """Each row's parent/change values pair by pair, so a median's move can
    be told apart from one outlying pair or a drift across the session."""
    pairs = max(len(parent_runs), len(change_runs))
    head = ("workload", "metric") + tuple(f"pair {i}" for i in
                                          range(1, pairs + 1))
    body = []
    for wl, name, *_ in rows:
        key = f"{wl}.{name}"
        p = pair_values(parent_runs, key) + [None] * pairs
        c = pair_values(change_runs, key) + [None] * pairs
        body.append((wl, name) + tuple(f"{num(p[i])}/{num(c[i])}"
                                       for i in range(pairs)))
    return table(head, body)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = (os.path.abspath(p) for p in argv[1:])
    for path in (parent, change):
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            print(f"perf_gate: no perfbench/run.py under {path}", file=sys.stderr)
            return 2
    seconds, metrics = load_contract(parent, change)
    runs = {"parent": [], "change": []}
    for i in range(1, PAIRS + 1):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            print(f"perf_gate: pair {i}/{PAIRS}, {side}, seed {i}",
                  file=sys.stderr, flush=True)
            checkout = parent if side == "parent" else change
            runs[side].append(run_once(checkout, i, seconds))
    rows, problems = gate(metrics, runs["parent"], runs["change"])
    print(render(rows))
    print("\nper pair, parent/change:")
    print(render_pairs(rows, runs["parent"], runs["change"]))
    for p in problems:
        print(f"perf_gate: {p}")
    failed = problems or any(failing(r[-1]) for r in rows)
    print(f"perf_gate: {'FAIL' if failed else 'pass'} ({PAIRS} pairs, "
          f"{seconds} s per run)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
