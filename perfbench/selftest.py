#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Run it from the root of a checkout. For each workload in BENCHMARK.json it
asserts that
  * an untraced run prints every end_to_end metric, and a traced run every
    per_layer metric, with its declared unit and nothing else;
  * the fixed-seed counts repeat bit for bit across two invocations with
    different --seed values;
  * a normal tiny run passes every check, and a CI target that cannot be met
    is reported as a failed operation without marking the outputs incorrect.
It also checks that run.py fails without printing a result in a directory
that holds only BENCHMARK.json and perfbench/. Exits 1 on the first failure.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metrics whose values come only from the fixed-seed reference pass or from
# exact counters, so two invocations must print identical digits.
EXACT = {
    0: ["logical_error_rate", "ci_rel_halfwidth"],
    1: ["decode.defects_per_shot", "decode.cleared_frac", "ft.blocks",
        "ft.residual_frac", "estimate.replays", "estimate.accept_frac",
        "estimate.raw_k2", "estimate.raw_k3", "estimate.raw_k4",
        "estimate.n_eff"],
}


def run(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--size", "tiny", *extra]
    r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    return r


def result(workload, seed, trace, *extra):
    r = run(workload, seed, trace, *extra)
    expect(r.returncode == 0, f"{workload}: exit {r.returncode}\n{r.stderr}")
    out = json.loads(r.stdout.strip().splitlines()[-1])
    expect(sorted(out) == ["attempted", "correct", "failed", "metrics"],
           f"{workload}: result keys {sorted(out)}")
    expect(isinstance(out["attempted"], int) and out["attempted"] >= 1,
           f"{workload}: attempted {out['attempted']}")
    return out


def expect(ok, message):
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_declared(workload, out, trace):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    printed = {k: v["unit"] for k, v in out["metrics"].items()}
    expect(printed == units,
           f"{workload} trace={trace}: printed {printed}, declared {units}")


def main():
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            a = result(w, 1, trace)
            b = result(w, 2, trace)
            for out in (a, b):
                check_declared(w, out, trace)
                expect(out["correct"] and out["failed"] == 0,
                       f"{w} trace={trace}: {out['failed']} failed, "
                       f"correct={out['correct']}")
            for name in EXACT[trace]:
                expect(a["metrics"][name] == b["metrics"][name],
                       f"{w}: {name} differs across invocations: "
                       f"{a['metrics'][name]} vs {b['metrics'][name]}")
        c = result(w, 1, 0, "--ci-target", "1e-9")
        expect(c["failed"] >= 1 and c["correct"],
               f"{w}: unreachable CI target gave failed={c['failed']}, "
               f"correct={c['correct']}")
        print(f"ok  {w}")

    # Without the library sources the benchmark must fail, not report.
    bare = ROOT / ".bench_build" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    r = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
    shutil.rmtree(bare)
    expect(r.returncode != 0 and not r.stdout.strip(),
           f"bare directory: exit {r.returncode}, stdout {r.stdout!r}")
    print("ok  bare directory fails without a result")


if __name__ == "__main__":
    main()
