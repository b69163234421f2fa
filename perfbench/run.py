"""Benchmark runner for the ars package.

    python3 perfbench/run.py --workload class_profile --seed 1 --seconds 25 --trace 0

Run from the repository root.  One closed-loop client in one process (no
threads; ``cli_calls`` runs one child process at a time) generates
seeded inputs, times each operation, checks every answer outside the timed
region, and prints each metric by name with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1).  A full result record, and with
--trace 1 the spans, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 3  # set-ups before the timed loop; one more every SETUP_EVERY_S in it
SETUP_EVERY_S = 2.0
DIGEST_OPS = 40  # the answer digest covers this many leading operations
BATCH = {"class_profile": 16, "matrix_flow": 8, "desk_sweep": 32, "cli_calls": 16}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def fresh_import():
    """Import ``ars`` from this checkout's src/, dropping any copy already
    imported, so each set-up pays the full import."""
    for name in [n for n in sys.modules if n == "ars" or n.startswith("ars.")]:
        del sys.modules[name]
    lib = importlib.import_module("ars")
    importlib.import_module("ars.counterexample")
    if Path(lib.__file__).resolve().parent != SRC / "ars":
        raise BenchError(f"imported ars from {lib.__file__}, not from {SRC}")
    return lib


def set_up(work, raw_batch: list, workdir: Path):
    """Import ars afresh, build the inputs of the first batch of operations
    and write the workload's files; returns (seconds, lib, inputs)."""
    t0 = time.perf_counter()
    lib = fresh_import()
    batch = [work.build(lib, raw) for raw in raw_batch]
    work.setup_files(lib, workdir)
    return time.perf_counter() - t0, lib, batch


def quantile(values, q: float) -> float:
    """Nearest-rank quantile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def run_oracle(jobs: list) -> list:
    """Answer the deferred max-flow questions in one scipy child process,
    so numpy and scipy never load into the measured process."""
    if not jobs:
        return []
    proc = subprocess.run(
        [sys.executable, str(HERE / "oracles.py")],
        input=json.dumps(jobs),
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise BenchError(f"oracle process failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout)


def host_context(seed: int, workload: str, params: dict, why: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "why": why,
        "params": params,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set up, loop operations for ``seconds``, check answers.
    Returns the result record (see ``main`` for what is printed)."""
    import workloads
    from hostspeed import DictProbe, StartupProbe
    from tracing import Tracer

    rng = random.Random(f"{name}:{seed}")
    work = workloads.make(name, workloads.PARAMS[name], rng, SRC)
    raw_batch = []
    try:
        while len(raw_batch) < BATCH[name]:
            raw_batch.append(work.generate(rng, len(raw_batch)))
    except workloads.InputsExhausted:
        pass
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"

    # set-up is repeated through the run, so its median covers the same
    # spells of machine load as the operations; each set-up is scaled by
    # a probe timed right after it.  The loop keeps the package and inputs
    # of the last set-up before it and discards later ones
    probe = DictProbe()
    setup_s, setup_probes = [], []
    for _ in range(SETUP_RUNS):
        dt, lib, batch = set_up(work, raw_batch, workdir)
        setup_s.append(dt)
        setup_probes.append(probe())

    op_probe = StartupProbe(work.env) if work.spawns_children else probe
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(lib)

    latencies, probes, traced = [], [], []
    problems: dict[int, list[str]] = {}
    jobs, expected = [], []
    digest = hashlib.sha256()
    commands: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds
    next_setup = time.perf_counter() + SETUP_EVERY_S
    k = 0
    exhausted = False
    try:
        while k == 0 or time.perf_counter() < deadline:
            if k < len(batch):
                inp = batch[k]
            else:
                try:
                    inp = work.build(lib, work.generate(rng, k))
                except workloads.InputsExhausted:
                    exhausted = True
                    break
            probes.append(op_probe())
            traced.append(tracer is not None and k % 2 == 1)
            span = tracer.begin_op(k) if traced[-1] else None
            t0 = time.perf_counter()
            try:
                ans = work.run(lib, inp)
            except Exception as exc:  # a raising operation is a failed one
                ans = None
                problems[k] = [f"raised {type(exc).__name__}: {exc}"]
            dt = time.perf_counter() - t0
            if span is not None:
                tracer.end_op(span)
            latencies.append(dt)
            if "command" in inp:
                commands.setdefault(inp["command"], []).append(k)
            if ans is not None:
                try:
                    found, deferred = work.check(lib, inp, ans)
                except Exception as exc:  # a checker tripping on the answer
                    found, deferred = [f"check raised {type(exc).__name__}: {exc}"], []
                if found:
                    problems[k] = found
                for job, want, label in deferred:
                    jobs.append(job)
                    expected.append((k, want, label))
                if k < DIGEST_OPS:
                    digest.update(json.dumps(work.canonical(ans), sort_keys=True).encode())
            if time.perf_counter() >= next_setup:
                setup_s.append(set_up(work, raw_batch, workdir)[0])
                setup_probes.append(probe())
                next_setup += SETUP_EVERY_S
            k += 1
    finally:
        for f in workdir.glob("*.txt"):
            f.unlink()
        if workdir.exists():
            workdir.rmdir()

    # read before the oracle child runs: for cli_calls the children are
    # the measured program
    rss_kb = resource.getrusage(
        resource.RUSAGE_CHILDREN if name == "cli_calls" else resource.RUSAGE_SELF
    ).ru_maxrss
    for (op, want, label), got in zip(expected, run_oracle(jobs)):
        if got != want:
            problems.setdefault(op, []).append(f"{label}: got {want}, scipy max flow says {got}")

    attempted = len(latencies)
    factors = op_probe.scale(probes)
    scaled = [dt * f for dt, f in zip(latencies, factors)]
    setup_scaled = [dt * probe.NOMINAL_S / p for dt, p in zip(setup_s, setup_probes)]
    end_to_end = {
        "norm_ops_per_s": attempted / sum(scaled),
        "norm_latency_p50_ms": 1e3 * statistics.median(scaled),
        "norm_latency_p90_ms": 1e3 * quantile(scaled, 0.9),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": rss_kb / 1024,
    }
    measured = {
        "ops_per_s": attempted / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * quantile(latencies, 0.9),
        "setup_s": statistics.median(setup_s),
    }
    record = {
        "attempted": attempted,
        "failed": len(problems),
        "failed_ratio": len(problems) / attempted,
        "samples_beyond_p90": sum(1 for x in scaled if 1e3 * x > end_to_end["norm_latency_p90_ms"]),
        "digest": digest.hexdigest(),
        "digest_ops": min(attempted, DIGEST_OPS),
        "inputs_exhausted": exhausted,
        "setup_runs_s": setup_s,
        "setup_probes_s": setup_probes,
        "host_probe_ms": 1e3 * statistics.median(probes),
        "host_probe_nominal_ms": 1e3 * op_probe.NOMINAL_S,
        "probes_s": probes,
        "latencies_s": latencies,
        "end_to_end": end_to_end,
        "unscaled": measured,
        "problems": {str(op): msgs for op, msgs in sorted(problems.items())[:20]},
    }
    layers = {}
    for cmd, ops in sorted(commands.items()):
        layers[f"cli.{cmd}.calls"] = len(ops)
        layers[f"cli.{cmd}.p50_ms"] = 1e3 * statistics.median(scaled[k] for k in ops)
    if tracer:
        layers.update(layer_metrics(
            tracer.summary(factors),
            [x for x, t in zip(scaled, traced) if t],
            [x for x, t in zip(scaled, traced) if not t],
        ))
        tracer.write(OUT / f"spans-{name}-{seed}.json")
    record["per_layer"] = layers
    return record


FUNCTION_STATS = {
    "structure.min_t_term_rank": ("calls", "busy_ms", "cold_ms", "warm_us", "op_share"),
    "structure.cover_exists": ("calls", "busy_ms"),
    "structure.psi": ("busy_ms",),
    "structure.uniform_minimizer_hypotheses": ("busy_ms",),
    "structure.structure_matrix": ("busy_ms",),
    "flow.t_term_rank": ("calls", "busy_ms", "mean_us", "units", "edges"),
    "flow.multi_cover_feasible": ("calls", "busy_ms", "feasible"),
    "flow.feasible_bounded": ("busy_ms", "units"),
    "oracle.enumerate_class": ("busy_ms", "matrices"),
    "oracle.find_uniform_minimizer": ("busy_ms", "scanned"),
    "construct.modified_ryser": ("busy_ms",),
    "construct.ryser_canonical": ("busy_ms",),
    "construct.interchange_path": ("busy_ms", "swaps"),
}


def layer_metrics(summary: dict, traced_lat: list, plain_lat: list) -> dict:
    """Per-op figures from the spans of the traced operations."""
    ops = max(summary["ops"], 1)
    op_s = summary["op_s"] or 1.0
    out = {}
    for name, stats in FUNCTION_STATS.items():
        agg = summary["functions"].get(name, {})
        calls, busy = agg.get("calls", 0), agg.get("busy_s", 0.0)
        values = {
            "calls": calls / ops,
            "busy_ms": 1e3 * busy / ops,
            "mean_us": 1e6 * busy / calls if calls else 0.0,
            "op_share": busy / op_s,
            "cold_ms": 1e3 * agg.get("cold_s", 0.0) / max(agg.get("cold_calls", 0), 1),
            "warm_us": 1e6 * agg.get("warm_s", 0.0) / max(agg.get("warm_calls", 0), 1),
            "units": agg.get("work", 0) / ops,
            "edges": agg.get("extra", 0) / ops,
            "feasible": agg.get("work", 0) / calls if calls else 0.0,
            "matrices": agg.get("work", 0) / ops,
            "scanned": agg.get("work", 0) / ops,
            "swaps": agg.get("work", 0) / ops,
        }
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat]
    for module in ("structure", "flow", "oracle", "construct", "bench"):
        out[f"{module}.self_share"] = summary["self_s"].get(module, 0.0) / op_s
    if traced_lat and plain_lat:
        extra = statistics.fmean(traced_lat) - statistics.fmean(plain_lat)
        out["trace.overhead_ms"] = 1e3 * extra
        out["trace.overhead_share"] = extra / statistics.fmean(plain_lat)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        whys = {w["name"]: w["why"] for w in spec["workloads"]}
        if args.workload not in whys:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")
        if not (SRC / "ars" / "__init__.py").is_file():
            raise BenchError(f"no ars package under {SRC}")
        sys.path.insert(0, str(SRC))
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        record = measure(args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, OSError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    import workloads

    record.update(host_context(args.seed, args.workload, workloads.PARAMS[args.workload], whys[args.workload]))
    record["trace"] = args.trace
    record["seconds"] = seconds
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {record['why']}")
    print(f"samples {record['attempted']} ({record['samples_beyond_p90']} beyond p90), "
          f"failed {record['failed']}, failed_ratio {record['failed_ratio']:.4f}")
    print(f"answer digest {record['digest']} over the first {record['digest_ops']} ops")
    print(f"host probe {record['host_probe_ms']:.3f} ms (median; {record['host_probe_nominal_ms']:g} ms "
          f"in a quiet spell, higher = slower host)")
    if record["inputs_exhausted"]:
        print("the run ended early: no unused class was left to draw")
    for op, msgs in record["problems"].items():
        print(f"FAILED op {op}: {'; '.join(msgs)}")
    for m in spec["end_to_end"] + (spec["per_layer"] if args.trace else []):
        value = record["end_to_end"].get(m["name"], record["per_layer"].get(m["name"], 0.0))
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    for key, value in record["per_layer"].items():
        if key not in metrics:
            print(f"{key} = {value:.6g}")
    for key, value in record["unscaled"].items():
        print(f"unscaled {key} = {value:.6g}")

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
