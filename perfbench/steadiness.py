#!/usr/bin/env python3
"""Steadiness report: run every workload N times and print each metric's spread.

    python3 perfbench/steadiness.py --runs 10 [--seconds S] [--trace 0|1]
    python3 perfbench/steadiness.py --from FILE.jsonl [--against OLD.jsonl]

Run it from the root of a checkout. Round r runs the workloads of
BENCHMARK.json in an order rotated by r, with --seed 1000 + r, so slow drift
of the machine is spread over all workloads instead of landing on one. Every
result is appended, with its fingerprint, to .bench_build/steadiness.jsonl.

For each workload and metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, the interquartile spread and
the min-max spread as shares of the median, and the metric's bound from
BENCHMARK.json. A spread is "steady" below a third of the bound and "NOISY"
above the bound; setup_s's spread is not gated. With --against, it also
compares each median with the older file's median in the metric's "worse"
direction. Runs are compared only when their SIMD level and build type
agree; otherwise the script refuses and exits 2.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / ".bench_build" / "steadiness.jsonl"
# Fingerprint fields that must agree before two runs are compared.
COMPARABLE = ("simd", "build_type")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {r.returncode}\n{r.stderr}")
    lines = r.stdout.strip().splitlines()
    fingerprint = next(json.loads(l.split(" ", 1)[1]) for l in lines
                       if l.startswith("FINGERPRINT "))
    return {"workload": workload, "seed": seed, "trace": trace,
            "fingerprint": fingerprint, "result": json.loads(lines[-1])}


def load(path):
    return [json.loads(l) for l in Path(path).read_text().splitlines() if l]


def comparable_key(record):
    return tuple(record["fingerprint"].get(k) for k in COMPARABLE)


def refuse_mixed(records, what):
    keys = {comparable_key(r) for r in records}
    if len(keys) > 1:
        print(f"refusing to compare {what}: runs differ in "
              f"{'/'.join(COMPARABLE)}: {sorted(keys)}")
        sys.exit(2)


def summary(records):
    """{(workload, metric): [values]} plus per-workload failure counts."""
    values, failures = {}, {}
    for r in records:
        res = r["result"]
        w = r["workload"]
        failures.setdefault(w, [0, 0, True])
        failures[w][0] += res["failed"]
        failures[w][1] += res["attempted"]
        failures[w][2] &= res["correct"]
        for name, m in res["metrics"].items():
            values.setdefault((w, name), []).append(m["value"])
    return values, failures


def report(records, against=None):
    metrics = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    values, failures = summary(records)
    old = summary(against)[0] if against else {}
    header = (f"{'workload':14} {'metric':28} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'iqr/med':>8} {'range/med':>9} "
              f"{'bound':>6} verdict")
    if against:
        header += "  change-vs-old"
    print(header)
    for (w, name), vals in values.items():
        m = metrics.get(name, {})
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        iqr = (q3 - q1) / abs(med) if med else 0.0
        rng = (max(vals) - min(vals)) / abs(med) if med else 0.0
        bound = m.get("bound")
        if bound is None or name == "setup_s":
            verdict = "-"
        else:
            verdict = ("steady" if iqr < bound / 3 else
                       "ok" if iqr <= bound else "NOISY")
        line = (f"{w:14} {name:28} {len(vals):3d} {med:12.6g} {q1:12.6g} "
                f"{q3:12.6g} {iqr:8.4f} {rng:9.4f} "
                f"{bound if bound is not None else '-':>6} {verdict}")
        if against and (w, name) in old:
            base = statistics.median(old[(w, name)])
            worse = (med - base) if m.get("better") == "lower" else (base - med)
            share = worse / abs(base) if base else 0.0
            flag = ("" if bound is None else
                    "  REGRESSION" if share > bound else "  within bound")
            line += f"  {share:+.4f} worse{flag}"
        print(line)
    for w, (failed, attempted, correct) in failures.items():
        print(f"{w}: {failed} failed of {attempted} attempted, "
              f"outputs {'correct' if correct else 'INCORRECT'}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--from", dest="source",
                   help="report on an existing results file instead of running")
    p.add_argument("--against", help="older results file to compare with")
    args = p.parse_args()

    if args.source:
        records = load(args.source)
    else:
        workloads = [w["name"] for w in SPEC["workloads"]]
        out = OUT
        out.parent.mkdir(parents=True, exist_ok=True)
        records = []
        for r in range(args.runs):
            k = r % len(workloads)
            for w in workloads[k:] + workloads[:k]:
                rec = run_once(w, 1000 + r, args.seconds, args.trace)
                rec["round"] = r
                records.append(rec)
                with out.open("a") as f:
                    f.write(json.dumps(rec) + "\n")
                print(f"round {r} {w}: failed {rec['result']['failed']}",
                      file=sys.stderr)
    refuse_mixed(records, "these runs")
    against = None
    if args.against:
        against = load(args.against)
        refuse_mixed(records + against, "against the older file")
    report(records, against)


if __name__ == "__main__":
    main()
