#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs perfbench/run.py once per seed on each workload and prints, for
every metric, the median, the quartiles and the spread (third minus
first quartile, as a share of the median) next to the metric's bound in
BENCHMARK.json: "ok" below a third of the bound, "WITHIN BOUND" below
the bound, "OVER BOUND" above it. With --against, a set saved earlier
with --json, it also prints how far each median moved from that set's,
signed so that positive is worse, against the same bound. Run from the
repository root:

    python3 perfbench/spread.py --workloads replay,whatif --seeds 1-10 --json a.json
    python3 perfbench/spread.py --workloads replay,whatif --seeds 1-10 --against a.json
    python3 perfbench/spread.py --workloads replay --seeds 1-10 -- --shards 1

Arguments after "--" are passed to every run. Exits 1 when a run fails,
a check fails, or a spread or median shift exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    argv = sys.argv[1:]
    extra = []
    if "--" in argv:
        i = argv.index("--")
        argv, extra = argv[:i], argv[i + 1:]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="replay,whatif,datapath")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", help="also write the raw results here")
    ap.add_argument("--against", help="raw results of an earlier set (--json) to compare medians with")
    args = ap.parse_args(argv)
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    prev = json.load(open(args.against)) if args.against else {}
    raw = {}
    ok = True
    for w in args.workloads.split(","):
        vals = {}
        for seed in seeds_of(args.seeds):
            cmd = ["python3", "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", args.trace] + extra
            t0 = time.monotonic()
            p = subprocess.run(cmd, capture_output=True, text=True)
            took = time.monotonic() - t0
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}")
                ok = False
            raw.setdefault(w, []).append({"seed": seed, **res})
            for name, m in res["metrics"].items():
                vals.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed} ({took:.1f} s): " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()) if k in bounds), flush=True)
        for name, xs in sorted(vals.items()):
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(name)
            line = (f"  {w:9s} {name:34s} n={len(xs):2d} median={med:12.5g} q1={q1:12.5g} q3={q3:12.5g} "
                    f"spread={100 * spread:6.2f}%")
            if b is not None:
                flag = "ok" if spread <= b / 3 else ("WITHIN BOUND" if spread <= b else "OVER BOUND")
                ok = ok and spread <= b
                line += f" bound={100 * b:.0f}% {flag}"
            old = [r["metrics"][name]["value"] for r in prev.get(w, []) if name in r["metrics"]]
            if old:
                was = statistics.median(old)
                worse = (med - was) / was if was else 0.0
                if better.get(name) == "higher":
                    worse = -worse
                line += f" vs-before={100 * worse:+.2f}%"
                if b is not None:
                    ok = ok and worse <= b
                    line += " SHIFT OVER BOUND" if worse > b else ""
            print(line, flush=True)
    if args.json:
        json.dump(raw, open(args.json, "w"), indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
