"""In-memory spans around the public functions of the ``ars`` layers.

The tracer replaces module attributes such as ``ars.flow.t_term_rank``
with timing wrappers.  The package calls across modules through those
attributes (``flow.t_term_rank(...)`` inside ``ars.oracle``), so a call
from one layer into another nests as a child span.  Spans live in flat
arrays while the run lasts and are written out when it ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from pathlib import Path

# the public functions the in-process workloads reach, directly or from
# another layer
LAYERS = {
    "structure": (
        "structure_matrix",
        "cover_exists",
        "min_t_term_rank",
        "psi",
        "two_cover_exists",
        "uniform_minimizer_hypotheses",
    ),
    "flow": ("t_term_rank", "feasible_bounded", "multi_cover_feasible"),
    "oracle": ("enumerate_class", "find_uniform_minimizer"),
    "construct": ("modified_ryser", "ryser_canonical", "interchange_path"),
}

# functions that read the cover table of their class: the first of them
# to see a class builds the table (cold), later ones reuse it (warm)
TABLE_USERS = {
    "structure.cover_exists",
    "structure.min_t_term_rank",
    "structure.uniform_minimizer_hypotheses",
}


def _work(name: str, args, result) -> int:
    """The work count recorded on a span, read from its call boundary."""
    if name == "flow.t_term_rank":
        return result  # units: one unit augmentation per selected 1
    if name == "flow.feasible_bounded":
        return args[0].weight  # units the network must route
    if name == "flow.multi_cover_feasible":
        return int(result is not None)
    if name == "oracle.find_uniform_minimizer":
        return result.scanned
    if name == "construct.interchange_path":
        return len(result)
    return 0


class Tracer:
    """Records spans (name, start, end, parent, op) while enabled."""

    def __init__(self):
        self.names: list[str] = ["op"]
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("q")
        self.extra = array("q")  # edges for flow.t_term_rank, cold flag for table users
        self.calls: Counter = Counter()
        self.tabled: set = set()
        self.stack: list[int] = []
        self.current_op = -1
        self.enabled = False

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.work.append(0)
        self.extra.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, k: int) -> int:
        self.current_op = k
        self.enabled = True
        return self.open(0)

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.enabled = False

    def install(self, lib) -> None:
        """Wrap every function of LAYERS on its module."""
        for module_name, functions in LAYERS.items():
            module = getattr(lib, module_name)
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                self.names.append(name)
                wrap = self._wrap_generator if fn_name == "enumerate_class" else self._wrap
                setattr(module, fn_name, wrap(name, len(self.names) - 1, getattr(module, fn_name)))

    def _wrap(self, name: str, name_id: int, fn):
        tracer = self
        table_user = name in TABLE_USERS
        edges = name == "flow.t_term_rank"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            cold = 0
            if table_user:
                key = (args[0], args[1])
                cold = int(key not in tracer.tabled)
                tracer.tabled.add(key)
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.work[idx] = _work(name, args, result)
            tracer.extra[idx] = sum(args[0].row_sums) if edges else cold
            return result

        return traced

    def _wrap_generator(self, name: str, name_id: int, fn):
        """One span per resumption, each with work 1 if it yielded."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.enabled:
                return gen
            tracer.calls[name] += 1
            return tracer._resumed(gen, name_id)

        return traced

    def _resumed(self, gen, name_id: int):
        while True:
            idx = self.open(name_id)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.close(idx)
            self.work[idx] = 1
            yield item

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name_id", "start", "end", "parent", "op", "work", "extra")
        doc = {"names": self.names, "columns": {c: list(getattr(self, c)) for c in columns}}
        path.write_text(json.dumps(doc, separators=(",", ":")))

    def summary(self, scale: list) -> dict:
        """Per-function and per-module totals over the traced ops.

        Every span's duration is multiplied by ``scale[op]``, the host
        speed factor of its op.  Returns ops (traced op count), op_s
        (their summed time) and, per function name, calls, busy_s
        (inclusive), work, extra, plus cold and warm totals for table
        users; and self_s per module, where a span's self time is its
        duration minus its children's.
        """
        n = len(self.start)
        duration = [(self.end[i] - self.start[i]) * scale[self.op[i]] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        fns: dict = {}
        self_s: Counter = Counter()
        ops = 0
        op_s = 0.0
        for i in range(n):
            dur = duration[i]
            name = self.names[self.name_id[i]]
            module = "bench" if name == "op" else name.split(".")[0]
            self_s[module] += dur - child[i]
            if name == "op":
                ops += 1
                op_s += dur
                continue
            agg = fns.setdefault(name, Counter())
            agg["busy_s"] += dur
            agg["work"] += self.work[i]
            agg["extra"] += self.extra[i]
            if name in TABLE_USERS:
                kind = "cold" if self.extra[i] else "warm"
                agg[f"{kind}_s"] += dur
                agg[f"{kind}_calls"] += 1
        for name, agg in fns.items():
            agg["calls"] = self.calls[name]
        return {"ops": ops, "op_s": op_s, "functions": fns, "self_s": self_s}
