"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

TINY_DESK = {
    "rows": (3, 4),
    "cols": (3, 4),
    "density": (0.3, 0.7),
    "sweep_sizes": [(1, 20), (20, 120)],
    "brute_sample": 2,
}
TINY = {
    "class_profile": {"shapes": [(4, 5), (6, 4), (5, 7)], "density": (0.3, 0.6), "quads": 2},
    "matrix_flow": {"shapes": [(8, 10, 0.3, 6, 7), (12, 9, 0.2, 8, 6)], "weight_cap": 20},
    "desk_sweep": TINY_DESK,
    "cli_calls": dict(
        workloads.PARAMS["cli_calls"],
        phi_shape=(5, 6),
        rank_matrix=(8, 0.3),
        rank_files=2,
        cover_rows=(4, 6),
        desk=TINY_DESK,
    ),
}


OWN_LAYER = {"class_profile": "structure.", "matrix_flow": "flow.", "desk_sweep": "oracle.", "cli_calls": "cli."}


def bench(capsys, name: str, seed: int, seconds: float, trace: int = 0):
    assert run.main(["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(monkeypatch, capsys, name, trace):
    monkeypatch.setitem(workloads.PARAMS, name, TINY[name])
    lines, last = bench(capsys, name, 1, 0.5, trace)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert last["metrics"] == {
        m["name"]: {"value": last["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in listed
    }
    for m in SPEC["end_to_end"] + (SPEC["per_layer"] if trace else []):
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines), m
    values = {metric: v["value"] for metric, v in last["metrics"].items()}
    if trace:  # the workload's own layer was traced
        assert any(v > 0 for metric, v in values.items() if metric.startswith(OWN_LAYER[name])), values
    else:
        assert all(v > 0 for v in values.values()), values


def bump(value):
    """Every integer one larger and every flag flipped."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return [bump(v) for v in value]
    if isinstance(value, dict):
        return {k: bump(v) for k, v in value.items()}
    return value


def corrupt_cli(ans):
    doc = json.loads(ans["stdout"])
    return dict(ans, stdout=json.dumps({"status": doc["status"], "payload": bump(doc["payload"])}))


CORRUPT = {
    # the minimum 1-term rank one too high
    "class_profile": lambda ans: dict(ans, minima=[(ans["minima"][0][0] + 1, ans["minima"][0][1])] + ans["minima"][1:]),
    # caught only by the scipy max flow
    "matrix_flow": lambda ans: dict(ans, ranks=ans["ranks"][:2] + [ans["ranks"][2] + 1]),
    "desk_sweep": lambda ans: dict(ans, minima=[ans["minima"][0] + 1] + ans["minima"][1:]),
    "cli_calls": corrupt_cli,
}


@pytest.mark.parametrize("name", NAMES)
def test_wrong_answers_count_as_failed(monkeypatch, capsys, name):
    monkeypatch.setitem(workloads.PARAMS, name, TINY[name])
    cls = workloads.WORKLOADS[name]
    honest = cls.run
    monkeypatch.setattr(cls, "run", lambda self, lib, inp: CORRUPT[name](honest(self, lib, inp)))
    lines, last = bench(capsys, name, 1, 0.5)
    assert not last["correct"]
    assert last["failed"] == last["attempted"] >= 1
    assert any(line.startswith("FAILED op") for line in lines)


@pytest.mark.parametrize("name", NAMES)
def test_held_out_seed_passes_every_check(capsys, name):
    _, last = bench(capsys, name, 2, 2.0)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2


def test_same_seed_same_digest(monkeypatch, capsys):
    monkeypatch.setitem(workloads.PARAMS, "desk_sweep", TINY_DESK)
    digests = []
    for _ in range(2):
        lines, _ = bench(capsys, "desk_sweep", 3, 0.3)
        digests.append(next(line for line in lines if line.startswith("answer digest")))
    assert digests[0] == digests[1]


def test_one_jittery_probe_does_not_move_the_scale():
    probe = hostspeed.DictProbe()
    probes = [1e-3] * 3 + [9e-3] + [1e-3] * 3
    assert probe.scale(probes) == [probe.NOMINAL_S / 1e-3] * len(probes)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
