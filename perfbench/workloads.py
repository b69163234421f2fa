"""The four benchmark workloads.

Each workload turns a seeded random stream into operations on the ``ars``
package and checks every answer.  A workload provides:

- ``generate(rng, k)``: plain-Python raw data for operation k;
- ``build(lib, raw)``: the ``Partition``/``BinaryMatrix`` inputs (timed as
  set-up for the first batch of operations);
- ``run(lib, inp)``: the timed operation, calling the library only through
  its module attributes (``lib.flow.t_term_rank``) so tracing can wrap them;
- ``check(lib, inp, answer)``: a list of problems found at once, plus
  max-flow questions handed to the scipy oracle after the timed loop;
- ``canonical(answer)``: JSON-ready answer data for the answer digest.

Sizes follow a fixed cycle of shapes indexed by k (see ``shape``) and the
seed chooses the entries: every run sees the same mix of input sizes, so
run-to-run spread comes from the program, not from one seed drawing
larger inputs than another.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import oracles


def shape(k: int, shapes: list):
    """Operation k's entry in a fixed cycle of five shapes.

    Operations come in pairs that share a shape, so the traced and
    untraced halves of a traced run see the same mix.  The shapes are
    listed in increasing cost and each takes a fifth of the operations:
    the median latency falls in the middle of the third shape's
    operations and the 90th percentile in the middle of the fifth's,
    never on the step between two shapes, so both stay steady from run
    to run.
    """
    return shapes[k // 2 % len(shapes)]


def random_grid(rng, m: int, n: int, density: float) -> list[list[int]]:
    """A random m-by-n 0/1 grid with no empty row or column."""
    g = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
    for row in g:
        if not any(row):
            row[rng.randrange(n)] = 1
    for j in range(n):
        if not any(row[j] for row in g):
            g[rng.randrange(m)][j] = 1
    return g


def sorted_margins(g) -> tuple[list[int], list[int]]:
    r = sorted((sum(row) for row in g), reverse=True)
    s = sorted((sum(col) for col in zip(*g)), reverse=True)
    return r, s


def sort_grid(g) -> list[list[int]]:
    """Rows and columns permuted to nonincreasing sums (stable), so the
    grid is a member of the class of its sorted margins."""
    rows = sorted(g, key=lambda row: -sum(row))
    order = sorted(range(len(rows[0])), key=lambda j: -sum(row[j] for row in rows))
    return [[row[j] for j in order] for row in rows]


def rows_of(a) -> list[list[int]]:
    return [list(row) for row in a.rows]


def margins_problems(rows, r, s, label: str) -> list[str]:
    if [sum(row) for row in rows] != list(r) or [sum(col) for col in zip(*rows)] != list(s):
        return [f"{label}: margins differ from the class"]
    return []


def cover_problems(rows, covers, label: str) -> list[str]:
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v and not oracles.allowed(covers, i, j):
                return [f"{label}: a 1 at ({i},{j}) lies outside the covers {covers}"]
    return []


MAX_TRIES = 5000


class InputsExhausted(Exception):
    """No unused class was found in MAX_TRIES draws; the run ends early."""


@dataclass
class Workload:
    """Shared state of one run: the set of classes already used, so that
    no class repeats and no module-level cache of the package is hit for
    free."""

    params: dict
    seen: set = field(default_factory=set)
    spawns_children = False  # each op is a child process (timed against a start-up probe)

    def fresh(self, r, s) -> bool:
        key = (tuple(r), tuple(s))
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def setup_files(self, lib, workdir: Path) -> None:
        """Write the files the operations read; most workloads need none."""


class ClassProfile(Workload):
    name = "class_profile"

    def generate(self, rng, k):
        p = self.params
        for _ in range(MAX_TRIES):
            m, n = shape(k, p["shapes"])
            r, s = sorted_margins(random_grid(rng, m, n, rng.uniform(*p["density"])))
            if self.fresh(r, s):
                break
        else:
            raise InputsExhausted
        quads = []
        for _ in range(p["quads"]):
            a = rng.randrange(m)
            b = rng.randint(a + 1, m)
            c = rng.randrange(n)
            quads.append((a, b, c, rng.randint(c + 1, n)))
        return {"r": r, "s": s, "quads": quads, "probe": rng.randrange(3), "probe_e": rng.randint(0, m)}

    def build(self, lib, raw):
        return dict(raw, r=lib.Partition(raw["r"]), s=lib.Partition(raw["s"]))

    def run(self, lib, inp):
        st, cons = lib.structure, lib.construct
        r, s = inp["r"], inp["s"]
        m, n = len(r), len(s)
        table = st.structure_matrix(r, s)
        minima = [st.min_t_term_rank(r, s, t) for t in range(1, r[0] + 1)]
        covers = [[st.cover_exists(r, s, e, f) for f in range(n + 1)] for e in range(m + 1)]
        hyp = st.uniform_minimizer_hypotheses(r, s, r[0])
        two = [(st.psi(r, s, *q), st.two_cover_exists(r, s, *q)) for q in inp["quads"]]
        e, f = minima[0][1]
        modified = cons.modified_ryser(r, s, e, f)
        canonical = cons.ryser_canonical(r, s)
        path = cons.interchange_path(modified, canonical)
        return {
            "table": table.values,
            "minima": minima,
            "covers": covers,
            "hypotheses": tuple(hyp),
            "two": two,
            "modified": modified,
            "canonical": canonical,
            "path": path,
        }

    def check(self, lib, inp, ans):
        r, s = inp["r"].parts, inp["s"].parts
        m, n = len(r), len(s)
        out = []
        if [list(row) for row in ans["table"]] != oracles.structure_rows(r, s):
            out.append("structure table differs from its formula")
        covers = ans["covers"]
        if not covers[m][n]:
            out.append("the full cover (m, n) is reported infeasible")
        for e in range(m + 1):
            for f in range(n + 1):
                if covers[e][f] and ((e < m and not covers[e + 1][f]) or (f < n and not covers[e][f + 1])):
                    out.append(f"cover table is not upward closed at ({e},{f})")
        for t, (value, (e, f)) in enumerate(ans["minima"], 1):
            best = min(t * ee + ff for ee in range(m + 1) for ff in range(n + 1) if covers[ee][ff])
            if value != t * e + f or not covers[e][f] or value != best:
                out.append(f"min {t}-term rank {value} at {(e, f)} disagrees with the cover table")
        value, (e, f) = ans["minima"][0]
        a_rows = rows_of(ans["modified"])
        out += margins_problems(a_rows, r, s, "modified_ryser")
        out += cover_problems(a_rows, [(e, f)], "modified_ryser")
        out += margins_problems(rows_of(ans["canonical"]), r, s, "ryser_canonical")
        if lib.flow.t_term_rank(ans["modified"], 1) != value:
            out.append("modified_ryser matrix does not attain the minimum term rank")
        cur = ans["modified"]
        try:
            for i1, i2, j1, j2 in ans["path"]:
                cur = lib.apply_interchange(cur, i1, i2, j1, j2)
        except lib.errors.InvalidInterchange as exc:
            out.append(f"interchange path does not replay: {exc}")
        if cur != ans["canonical"]:
            out.append("interchange path does not end at the canonical matrix")
        # one max-flow probe per op: the first two-cover quad, or the
        # cover-table cell on or just before the frontier of row probe_e
        if inp["probe"] or not inp["quads"]:
            pe = inp["probe_e"]
            front = next(f for f in range(n + 1) if covers[pe][f])
            pf = max(0, front + 1 - inp["probe"])
            deferred = [(("cover", r, s, [(pe, pf)]), covers[pe][pf], f"cover_exists({pe},{pf})")]
        else:
            (a, b, c, d), (_, exists) = inp["quads"][0], ans["two"][0]
            deferred = [(("cover", r, s, [(b, c), (a, d)]), exists, f"two_cover_exists{(a, b, c, d)}")]
        return out, deferred

    def canonical(self, ans):
        return {
            "minima": ans["minima"],
            "covers": ans["covers"],
            "hypotheses": ans["hypotheses"],
            "two": ans["two"],
            "modified": rows_of(ans["modified"]),
            "canonical": rows_of(ans["canonical"]),
            "path": ans["path"],
        }


class MatrixFlow(Workload):
    name = "matrix_flow"

    def generate(self, rng, k):
        p = self.params
        m, n, density, fm, fn = shape(k, p["shapes"])
        grid = random_grid(rng, m, n, density)
        cap = p["weight_cap"]
        r, s = sorted_margins(random_grid(rng, fm, fn, min(0.5, cap / (fm * fn))))
        e = len(r) // 2
        f0 = least_plausible_f(r, s, e)
        # either side of a necessary bound, switching every five pairs:
        # below it every query is infeasible, at or above it most are
        # feasible
        if k // 10 % 2:
            f = max(0, f0 - 1 - rng.randint(0, 1))
        else:
            f = min(len(s), f0 + rng.randint(0, 2))
        return {"grid": grid, "r": r, "s": s, "covers": [(e, f)]}

    def build(self, lib, raw):
        return dict(raw, a=lib.BinaryMatrix(raw["grid"]), r=lib.Partition(raw["r"]), s=lib.Partition(raw["s"]))

    def run(self, lib, inp):
        fl = lib.flow
        ranks = [fl.t_term_rank(inp["a"], t) for t in (1, 2, 3)]
        witness = fl.multi_cover_feasible(inp["r"], inp["s"], inp["covers"])
        return {"ranks": ranks, "witness": witness}

    def check(self, lib, inp, ans):
        out = []
        ranks, grid = ans["ranks"], inp["grid"]
        if not ranks[0] <= ranks[1] <= ranks[2] <= len(grid[0]):
            out.append(f"rank profile {ranks} is not nondecreasing and bounded by n")
        deferred = [(("ranks", len(grid[0]), bitmasks(grid), (1, 2, 3)), ranks, "t_term_rank(t=1,2,3)")]
        r, s, covers = inp["r"].parts, inp["s"].parts, inp["covers"]
        if ans["witness"] is not None:
            rows = rows_of(ans["witness"])
            out += margins_problems(rows, r, s, "multi_cover_feasible witness")
            out += cover_problems(rows, covers, "multi_cover_feasible witness")
        deferred.append((("cover", r, s, covers), ans["witness"] is not None, f"multi_cover_feasible{covers}"))
        return out, deferred

    def canonical(self, ans):
        w = ans["witness"]
        return {"ranks": ans["ranks"], "witness": None if w is None else rows_of(w)}


def bitmasks(grid) -> list[int]:
    """Each row as an integer with bit j set for a 1 in column j: a
    compact form for the deferred flow checks."""
    return [sum(1 << j for j, v in enumerate(row) if v) for row in grid]


def least_plausible_f(r, s, e: int) -> int:
    """Least f passing two necessary conditions for the prefix cover
    (e, f): the rows below e fit in the first f columns, and every column
    from f on can be filled from the first e rows."""
    m = len(r)
    below = sum(r[e:])
    tall = sum(1 for v in s if v > e)
    room = 0
    for f, v in enumerate(s):
        if room >= below and f >= tall:
            return f
        room += min(v, m - e)
    return len(s)


class DeskSweep(Workload):
    name = "desk_sweep"

    def generate(self, rng, k):
        p = self.params
        lo, hi = shape(k, p["sweep_sizes"])
        for _ in range(MAX_TRIES):
            m, n = rng.randint(*p["rows"]), rng.randint(*p["cols"])
            r, s = sorted_margins(random_grid(rng, m, n, rng.uniform(*p["density"])))
            size = oracles.class_size(r, s)
            # the sweep makes size * R_1 flow-rank calls
            if lo <= size * r[0] <= hi and self.fresh(r, s):
                return {"r": r, "s": s, "size": size, "sample": rng.sample(range(size), min(size, p["brute_sample"]))}
        raise InputsExhausted

    def build(self, lib, raw):
        return dict(raw, r=lib.Partition(raw["r"]), s=lib.Partition(raw["s"]))

    def run(self, lib, inp):
        r, s = inp["r"], inp["s"]
        ts = range(1, r[0] + 1)
        members = list(lib.oracle.enumerate_class(r, s))
        ranks = [[lib.flow.t_term_rank(a, t) for t in ts] for a in members]
        sweep = [min(col) for col in zip(*ranks)]
        minima = [lib.structure.min_t_term_rank(r, s, t)[0] for t in ts]
        outcome = lib.oracle.find_uniform_minimizer(r, s)
        return {"members": members, "ranks": ranks, "sweep": sweep, "minima": minima, "outcome": outcome}

    def check(self, lib, inp, ans):
        out = []
        r, s = inp["r"].parts, inp["s"].parts
        members, ranks = ans["members"], ans["ranks"]
        if len(members) != inp["size"] or len(set(members)) != len(members):
            out.append(f"enumerated {len(members)} matrices (distinct: {len(set(members))}), class has {inp['size']}")
        for a in members:
            bad = margins_problems(rows_of(a), r, s, "enumerate_class member")
            if bad:
                out += bad
                break
        if ans["sweep"] != ans["minima"]:
            out.append(f"class minima {ans['minima']} differ from the sweep {ans['sweep']}")
        for idx in inp["sample"]:
            if idx < len(members):
                brute = [lib.oracle.brute_t_term_rank(members[idx], t) for t in range(1, r[0] + 1)]
                if brute != ranks[idx]:
                    out.append(f"member {idx}: flow ranks {ranks[idx]} differ from brute force {brute}")
        first = next((i for i, row in enumerate(ranks) if row == ans["minima"]), None)
        got = ans["outcome"]
        want = (None, True, len(members)) if first is None else (members[first], True, first + 1)
        if (got.matrix, got.complete, got.scanned) != want:
            out.append(f"find_uniform_minimizer gave {got}, the sweep expects member {first}")
        return out, []

    def canonical(self, ans):
        got = ans["outcome"]
        return {
            "count": len(ans["members"]),
            "ranks": ans["ranks"],
            "minima": ans["minima"],
            "outcome": [None if got.matrix is None else rows_of(got.matrix), got.complete, got.scanned],
        }


REFERENCE_R = "6,5,4,3,3,2,2,1,1"
REFERENCE_S = "7,3,3,2,2,1,1,1,1,1,1,1,1,1,1"
REFERENCE_MINIMA = {1: 6, 2: 9, 3: 11, 4: 13, 5: 14, 6: 15}
CHECK_NAMES = [
    "class-nonempty",
    "structure-table",
    "phi-table",
    "minimum-ranks",
    "witness-combinations-infeasible",
]


def text(parts) -> str:
    return ",".join(map(str, parts))


class CliCalls(Workload):
    name = "cli_calls"
    spawns_children = True

    def generate(self, rng, k):
        p = self.params
        mix = p["mix"]
        if k % len(mix) == 0:
            self.block = rng.sample(mix, len(mix))
        command = self.block[k % len(mix)]
        raw = {"command": command}
        if command == "nonempty":
            r, s = sorted_margins(random_grid(rng, rng.randint(4, 12), rng.randint(4, 12), 0.4))
            raw.update(r=r, s=s, argv=["nonempty", "-r", text(r), "-s", text(s)])
        elif command == "min-rank":
            t = rng.randint(1, 6)
            raw.update(t=t, argv=["min-rank", "-r", REFERENCE_R, "-s", REFERENCE_S, "-t", str(t)])
        elif command == "phi":
            r, s = sorted_margins(random_grid(rng, *p["phi_shape"], rng.uniform(0.2, 0.5)))
            raw.update(r=r, s=s, cells=[(rng.randint(0, len(r)), rng.randint(0, len(s))) for _ in range(4)],
                       argv=["phi", "-r", text(r), "-s", text(s)])
        elif command == "rank":
            i, t = rng.randrange(p["rank_files"]), rng.randint(1, 3)
            raw.update(file=i, t=t, argv=["rank", "-t", str(t), "--matrix", f"m{i}.txt"])
        elif command == "enumerate":
            desk = DeskSweep(self.params["desk"], self.seen).generate(rng, k // len(mix) * 2)
            raw.update(r=desk["r"], s=desk["s"], size=desk["size"],
                       argv=["enumerate", "--count", "-r", text(desk["r"]), "-s", text(desk["s"])])
        elif command == "construct-cover":
            g = sort_grid(random_grid(rng, rng.randint(*p["cover_rows"]), rng.randint(*p["cover_rows"]), 0.35))
            r, s = sorted_margins(g)
            e = rng.randint(0, len(r))
            f = max((j + 1 for row in g[e:] for j, v in enumerate(row) if v), default=0)
            raw.update(r=r, s=s, e=e, f=f,
                       argv=["construct-cover", "-r", text(r), "-s", text(s), "-e", str(e), "-f", str(f)])
        else:
            raw.update(argv=[command])
        return raw

    def setup_files(self, lib, workdir: Path) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        for i, grid in enumerate(self.rank_grids):
            (workdir / f"m{i}.txt").write_text(lib.BinaryMatrix(grid).to_text() + "\n")

    def build(self, lib, raw):
        return raw

    def run(self, lib, inp):
        proc = subprocess.run(
            [sys.executable, "-m", "ars", "--json", *inp["argv"]],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def check(self, lib, inp, ans):
        if ans["code"] != 0 or ans["stderr"]:
            return [f"exit code {ans['code']}, stderr {ans['stderr'][-200:]!r}"], []
        try:
            doc = json.loads(ans["stdout"])
        except ValueError:
            return [f"output is not JSON: {ans['stdout'][:200]!r}"], []
        if doc.get("status") != "ok":
            return [f"status {doc.get('status')!r}"], []
        got = doc["payload"]
        cmd = inp["command"]
        st = lib.structure
        if cmd == "nonempty":
            want = {"kind": "verdict", "nonempty": True, "gale_ryser": True, "structure_nonnegative": True, "weights_equal": True}
            ok = got == want and lib.partition.is_nonempty(lib.Partition(inp["r"]), lib.Partition(inp["s"]))
        elif cmd == "min-rank":
            t = inp["t"]
            ok = (
                got["value"] == REFERENCE_MINIMA[t] == lib.counterexample.MINIMA[t]
                and (got["witness"]["e"], got["witness"]["f"]) == lib.counterexample.WITNESSES[t]
            )
        elif cmd == "phi":
            r, s = inp["r"], inp["s"]
            values = got["table"]["values"]
            t = oracles.structure_rows(r, s)
            ok = (
                got["table"]["kind"] == "Phi"
                and values == [list(row) for row in st.phi_matrix(lib.Partition(r), lib.Partition(s)).values]
                and all(values[k][l] == oracles.phi_cell(t, k, l) for k, l in inp["cells"])
            )
        elif cmd == "rank":
            ok = got["value"] == self.rank_answer(lib, inp["file"], inp["t"]) and not got["cross_checked"]
        elif cmd == "enumerate":
            ok = got["count"] == inp["size"] and not got["truncated"]
        elif cmd == "construct-cover":
            rows = got["matrix"]["rows"]
            bad = margins_problems(rows, inp["r"], inp["s"], cmd) + cover_problems(rows, [(inp["e"], inp["f"])], cmd)
            lib_rows = rows_of(lib.construct.modified_ryser(lib.Partition(inp["r"]), lib.Partition(inp["s"]), inp["e"], inp["f"]))
            ok = not bad and rows == lib_rows
        else:  # verify-counterexample
            ok = (
                got["all_passed"]
                and [c["name"] for c in got["checks"]] == CHECK_NAMES
                and all(c["passed"] for c in got["checks"])
                and self.reference_ok(lib)
            )
        return ([] if ok else [f"{cmd}: payload disagrees with the library: {ans['stdout'][:200]}"]), []

    def rank_answer(self, lib, i: int, t: int) -> int:
        key = (i, t)
        if key not in self.rank_cache:
            self.rank_cache[key] = lib.flow.t_term_rank(lib.BinaryMatrix(self.rank_grids[i]), t)
        return self.rank_cache[key]

    def reference_ok(self, lib) -> bool:
        if self.reference is None:
            ce = lib.counterexample
            r, s = lib.Partition.from_text(REFERENCE_R), lib.Partition.from_text(REFERENCE_S)
            self.reference = ce.MINIMA == REFERENCE_MINIMA and all(
                lib.structure.min_t_term_rank(r, s, t) == (ce.MINIMA[t], ce.WITNESSES[t]) for t in ce.MINIMA
            )
        return self.reference

    def canonical(self, ans):
        return ans["stdout"]


def make(name: str, params: dict, seed_rng, src: Path):
    """A fresh workload instance for one run."""
    cls = WORKLOADS[name]
    w = cls(params)
    if cls is CliCalls:
        size, density = params["rank_matrix"]
        w.rank_grids = [random_grid(seed_rng, size, size, density) for _ in range(params["rank_files"])]
        w.rank_cache, w.reference = {}, None
        w.env = {k: v for k, v in os.environ.items() if k not in ("ARS_BUDGET", "PYTHONPATH")}
        w.env["PYTHONPATH"] = str(src)
    return w


WORKLOADS = {cls.name: cls for cls in (ClassProfile, MatrixFlow, DeskSweep, CliCalls)}

PARAMS = {
    "class_profile": {
        "shapes": [(12, 12), (15, 14), (19, 19), (23, 20), (27, 25)],  # (m, n)
        "density": (0.15, 0.5),
        "quads": 4,
    },
    "matrix_flow": {
        # (m, n, density) of the ranked matrix, (m, n) of the cover query's class
        "shapes": [
            (50, 60, 0.05, 40, 40),
            (70, 70, 0.06, 45, 50),
            (100, 100, 0.07, 55, 55),
            (140, 130, 0.09, 70, 70),
            (160, 160, 0.10, 80, 80),
        ],
        "weight_cap": 200,
    },
    "desk_sweep": {
        "rows": (3, 6),
        "cols": (3, 6),
        "density": (0.3, 0.7),
        # bands of class size times largest row sum
        "sweep_sizes": [(5, 10), (30, 60), (200, 300), (700, 1000), (2000, 3000)],
        "brute_sample": 4,
    },
    "cli_calls": {
        "mix": ["verify-counterexample", "min-rank", "phi", "rank", "enumerate", "construct-cover", "nonempty"],
        "phi_shape": (18, 20),
        "rank_matrix": (100, 0.06),
        "rank_files": 4,
        "cover_rows": (8, 12),
    },
}
PARAMS["cli_calls"]["desk"] = PARAMS["desk_sweep"]
