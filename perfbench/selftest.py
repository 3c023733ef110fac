#!/usr/bin/env python3
"""Self-test of perfbench.

    python3 perfbench/selftest.py

1. Runs every workload at --size tiny, untraced and traced, and checks that
   each run is correct, that every named metric prints with its unit, and
   that the JSON line holds exactly the metrics BENCHMARK.json names.
2. Corrupts one recorded digest and checks that the command then fails.
3. Runs all four workloads at full size once on the held-out seed 9001
   (the default seed is 1) and checks them against the recorded digests.

Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
HELD_OUT_SEED = "9001"

# Metrics each workload prints besides the BENCHMARK.json ones; a name
# ending in '@' is printed once per rate, task or ECR.
COMMON = ["tokens_per_host_s", "error_rate"]
PRINTED = {
    "sweep": ["sim_tok_per_s", "sim_tok_per_kj",
              "daop_over_fiddler", "fidelity.fig9.", "fidelity.table4."],
    "serve": ["sim_tok_per_s@", "sim_ttft_p50_s@",
              "sim_ttft_tail_s@", "sim_tpot_tail_s@", "sim_slo_attain@",
              "sim_goodput_rps"],
    "cluster-chaos": ["sim_tok_per_s", "sim_ttft_p50_s",
                      "sim_ttft_tail_s", "sim_tpot_tail_s", "sim_slo_attain",
                      "sim_recovery_tail_s"],
    "accuracy": ["token_agreement@", "exact_match@"],
}

failures = []


def check(ok, what):
    print(f"  [{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        failures.append(what)


def run(*args):
    p = subprocess.run(RUN + list(args), capture_output=True, text=True,
                       cwd=ROOT)
    results = [json.loads(line) for line in p.stdout.splitlines()
               if line.startswith('{"correct"')]
    return p, results


def printed_metrics(stdout):
    """name -> unit for every '  name value unit ...' report line."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            try:
                float(parts[1])
            except ValueError:
                continue
            out[parts[0]] = parts[2]
    return out


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    workloads = [w["name"] for w in bench["workloads"]]

    print("tiny runs of every workload:")
    for w in workloads:
        for trace in ("0", "1"):
            p, res = run("--workload", w, "--size", "tiny", "--seconds", "1",
                         "--trace", trace)
            tag = f"{w} --trace {trace}"
            check(p.returncode == 0 and len(res) == 1 and res[0]["correct"]
                  and res[0]["failed"] == 0 and res[0]["attempted"] >= 1,
                  f"{tag}: exit 0 and correct")
            if not res:
                continue
            metrics = res[0]["metrics"]
            check({k: v["unit"] for k, v in metrics.items()} == want[trace],
                  f"{tag}: JSON holds exactly the BENCHMARK.json metrics")
            printed = printed_metrics(p.stdout)
            names = list(want[trace]) + (COMMON + PRINTED[w]
                                         if trace == "0" else [])
            missing = [n for n in names
                       if not any(k == n or (n[-1] in "@." and k.startswith(n))
                                  for k in printed)]
            check(not missing, f"{tag}: every named metric printed with a "
                               f"unit {missing if missing else ''}")

    print("corrupted expected digest:")
    build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    lines = (BENCH_DIR / "expected.txt").read_text().splitlines()
    corrupted, hit = [], False
    for line in lines:
        parts = line.split()
        if parts[:3] == ["sweep", "tiny", "1"]:
            parts[3] = "%016x" % (int(parts[3], 16) ^ 1)
            line, hit = " ".join(parts), True
        corrupted.append(line)
    check(hit, "expected.txt records sweep tiny seed 1")
    bad = build / "expected-corrupted.txt"
    bad.write_text("\n".join(corrupted) + "\n")
    p, res = run("--workload", "sweep", "--size", "tiny", "--seconds", "1",
                 "--expected", str(bad))
    check(p.returncode != 0 and len(res) == 1 and not res[0]["correct"],
          "a corrupted digest makes the command fail")
    bad.unlink()

    print(f"held-out seed {HELD_OUT_SEED}, full size:")
    p, res = run("--workload", "all", "--seed", HELD_OUT_SEED,
                 "--seconds", "1")
    check(p.returncode == 0 and len(res) == len(workloads)
          and all(r["correct"] for r in res), "all workloads correct")
    check("no recorded digest" not in p.stdout,
          "every workload checked against its recorded digest")

    print("selftest " + ("PASSED" if not failures else
                         f"FAILED ({len(failures)} checks)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
