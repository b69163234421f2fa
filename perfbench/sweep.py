"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--seconds S] [--record]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
and prints for each end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to a third of the metric's bound in BENCHMARK.json.
The summary goes to perfbench/out/sweep-<time>.json.  With --record the
sweep also makes one traced run per workload (first seed) and appends the
summary, as one line, to perfbench/trajectory.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, trace: int, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"result-{workload}-{seed}-trace{trace}.json").read_text())
    return {"last": last, "record": record, "wall_s": wall}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    seeds = seeds_of(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, 0, args.seconds) for seed in seeds]
        entry = {
            "seeds": seeds,
            "attempted": [r["last"]["attempted"] for r in runs],
            "failed": [r["last"]["failed"] for r in runs],
            "digests": [r["record"]["digest"] for r in runs],
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "host_probe_ms": [round(r["record"]["host_probe_ms"], 3) for r in runs],
            "end_to_end": {},
        }
        print(f"== {workload}: attempted {entry['attempted']} failed {entry['failed']} wall {entry['wall_s']} "
              f"host probe ms {entry['host_probe_ms']}", flush=True)
        for name, bound in bounds.items():
            s = summarise([r["last"]["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            ok = name == "setup_s" or s["spread"] < bound / 3
            steady &= ok
            print(f"{name:16s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  "
                  f"spread {s['spread']:.3f}  (bound/3 {bound / 3:.3f}) {'ok' if ok else 'WIDE'}", flush=True)
        if args.record:
            traced = one_run(workload, seeds[0], 1, args.seconds)
            entry["trace_seed"] = seeds[0]
            entry["per_layer"] = traced["record"]["per_layer"]
            entry["traced_end_to_end"] = traced["record"]["end_to_end"]
        point["workloads"][workload] = entry
        context = runs[0]["record"]
    point.update({k: context[k] for k in ("commit", "python", "nproc", "cpu")})
    point["run_seconds"] = args.seconds or spec["run_seconds"]
    point["date"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    (HERE / "out" / f"sweep-{int(time.time())}.json").write_text(json.dumps(point, indent=1, sort_keys=True))
    if args.record:
        with open(HERE / "trajectory.jsonl", "a") as fh:
            fh.write(json.dumps(point, sort_keys=True) + "\n")
    print("steady" if steady else "NOT steady: some spread is at or above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
