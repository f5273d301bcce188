#!/usr/bin/env python3
"""Compare two sets of benchmark runs, interleaved.

    python3 perfbench/compare.py --runs 10                      # this checkout, twice
    python3 perfbench/compare.py --runs 10 --baseline ../parent # baseline vs this checkout

Set A is the baseline (``--baseline``, default this checkout), set B is
this checkout; both must hold the same benchmark files.  Run ``i`` of
each set uses seed ``i + 1``; which set goes first alternates.  After
every run the command confirms that no Ray process (raylet, GCS,
default_worker.py) is left alive.  It prints each set's median and
quartiles per metric per workload and checks the bounds in
BENCHMARK.json: for every end-to-end metric, ``setup_s`` included, each
set's spread, (q3 - q1) / median, must stay within the bound, and set B's
median may not be worse than set A's by more than the bound.  It exits 1
if a check fails.  Spreads above STEADY are reported as unsteady, which
fails no check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RAY_PROCS = (b"raylet", b"gcs_server", b"default_worker.py", b"ray::")
#: run-to-run spread under which an end-to-end metric counts as steady
STEADY = 0.1


def ray_processes() -> list:
    pids = []
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/cmdline", "rb") as f:
                    cmd = f.read()
            except OSError:
                continue
            if any(k in cmd for k in RAY_PROCS) and int(d) != os.getpid():
                pids.append(int(d))
    return pids


def run_once(checkout: str, bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    left = ray_processes()
    if left:
        raise SystemExit(f"Ray processes alive after {workload} seed {seed} in {checkout}: {left}")
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} in {checkout} exited {p.returncode}:\n"
                         f"{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--baseline", default=ROOT, help="checkout for set A")
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", default="", help="write every run's result to this JSON file")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    sets = {"A": os.path.abspath(args.baseline), "B": ROOT}
    got = {(s, w): [] for s in sets for w in names}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in names:
            for s in order:
                r = run_once(sets[s], bench, w, i + 1, args.trace)
                got[(s, w)].append(r)
                print(f"run {i + 1} set {s} {w}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({f"{s}/{w}": runs for (s, w), runs in got.items()}, f)

    ok = True
    unsteady = []
    report = {}
    for w in names:
        print(f"\n{w}")
        print(f"  {'metric':22s} {'set':3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
        for s in sets:
            runs = got[(s, w)]
            shares = {r["failed"] / r["attempted"] for r in runs}
            if not all(r["correct"] for r in runs) or len(shares) != 1:
                ok = False
                print(f"  set {s}: incorrect output or unequal failed share {sorted(shares)}")
        fa = [r["failed"] / r["attempted"] for r in got[("A", w)]]
        fb = [r["failed"] / r["attempted"] for r in got[("B", w)]]
        if set(fa) != set(fb):
            ok = False
            print(f"  failed share differs: A {sorted(set(fa))} B {sorted(set(fb))}")
        for m in metrics:
            name = m["name"]
            stats = {s: spread([r["metrics"][name]["value"] for r in got[(s, w)]]) for s in sets}
            for s in sets:
                med, q1, q3, sp = stats[s]
                print(f"  {name:22s} {s:3s} {med:12.4f} {q1:12.4f} {q3:12.4f} {sp:7.3f}")
            report[f"{w}/{name}"] = {s: {"median": stats[s][0], "spread": stats[s][3]}
                                     for s in sets}
            bound = m.get("bound")
            if bound is None:
                continue
            worse = stats["B"][0] / stats["A"][0] - 1
            if m["better"] == "higher":
                worse = -worse
            verdicts = []
            if worse > bound:
                verdicts.append(f"B worse than A by {worse:.3f} > bound {bound}")
            for s in sets:
                if stats[s][3] > bound:
                    verdicts.append(f"set {s} spread {stats[s][3]:.3f} > bound {bound}")
                elif stats[s][3] > STEADY:
                    unsteady.append(f"{w}/{name} set {s} {stats[s][3]:.3f}")
            for v in verdicts:
                ok = False
                print(f"  FAIL {name}: {v}")
    if unsteady:
        print(f"\nspread above {STEADY}: " + ", ".join(unsteady))
    print(json.dumps({"ok": ok, "steady": not unsteady, "metrics": report}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
