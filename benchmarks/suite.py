"""Run every workload, print every metric, and check the benchmark's steadiness.

    python3 benchmarks/suite.py                          # one seed, one set
    python3 benchmarks/suite.py --seeds 10 --sets 2 --out benchmarks/baseline.json

Each run is a fresh ``run.py`` process.  For every set, every seed and every
workload there is one untraced run (end-to-end metrics); every set also makes
one traced run per workload on the first seed (per-layer metrics).  Runs are
interleaved across workloads so that slow spells of the host spread over all
of them.

Per workload and set it prints each end-to-end metric's median, quartiles and
spread (interquartile distance over the median) against the metric's bound,
and, with two or more sets, whether a later set's median is worse than the
first by more than the bound.  Count metrics must repeat exactly between
sets.  The exit status is 0 only when every run is correct and every check
holds; ``setup_s`` is exempt from the spread check, as in BENCHMARK.json's
contract, but not from the median comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import COUNT_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse_by(first: float, later: float, better: str) -> float:
    """Share of the first median by which the later median is worse."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=1, help="seeds 1..N per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="write all figures as JSON")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = list(range(1, args.seeds + 1))

    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    traced = {w: [] for w in workloads}
    ok = True
    for s in range(args.sets):
        for seed in seeds:
            for w in workloads:
                result = run_once(w, seed, args.seconds, 0)
                runs[w][s].append(result)
                ok &= result["correct"]
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                    flush=True)
        for w in workloads:
            result = run_once(w, seeds[0], args.seconds, 1)
            traced[w].append(result)
            ok &= result["correct"]

    report = {"environment": None, "run_seconds": args.seconds, "seeds": seeds,
              "workloads": {}}
    for w in workloads:
        print(f"\n== {w}")
        entry = {"end_to_end": {}, "per_layer": {}, "trace_log": []}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians, row = [], []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in runs[w][s]]
                med = statistics.median(values)
                medians.append(med)
                sp = spread(values) if len(values) > 1 else 0.0
                q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
                row.append({"median": med, "q1": q[0], "q3": q[2], "spread": sp,
                            "n": len(values), "values": values})
                flag = ""
                if name != "setup_s" and sp > bound:
                    flag, ok = "  SPREAD ABOVE BOUND", False
                print(f"  {name:14s} set {s + 1}: median {med:.6g} {m['unit']} "
                      f"(q1 {q[0]:.6g}, q3 {q[2]:.6g}, n {len(values)}) "
                      f"spread {sp:.4f} / bound {bound}{flag}")
            for s in range(1, args.sets):
                drift = worse_by(medians[0], medians[s], m["better"])
                flag = ""
                if drift > bound:
                    flag, ok = "  WORSE THAN BOUND", False
                print(f"  {name:14s} set {s + 1} vs set 1: worse by {drift:+.4f}{flag}")
            entry["end_to_end"][name] = {"unit": m["unit"], "bound": bound, "sets": row}
        for seed_runs in zip(*runs[w]):
            answered = {r["metrics"]["answered_frac"]["value"] for r in seed_runs}
            if len(answered) > 1:
                ok = False
                print(f"  answered_frac differs between sets: {sorted(answered)}")

        first = traced[w][0]["metrics"]
        for later in traced[w][1:]:
            for name in COUNT_METRICS:
                if later["metrics"][name]["value"] != first[name]["value"]:
                    ok = False
                    print(f"  count {name} differs between sets")
        print(f"  per-layer (traced run, seed {seeds[0]}, set 1):")
        for line in traced[w][0]["log"]:
            if line.startswith("  ") or line.startswith("traced passes"):
                print("  " + line)
                entry["trace_log"].append(line.strip())
            elif line.startswith("environment "):
                report["environment"] = json.loads(line[len("environment "):])
        for m in spec["per_layer"]:
            value = first[m["name"]]["value"]
            entry["per_layer"][m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"    {m['name']:46s} {value:.6g} {m['unit']}")
        report["workloads"][w] = entry

    print("\nsteadiness: " + ("all checks hold" if ok else "SOME CHECKS FAILED"))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
