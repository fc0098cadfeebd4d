"""Per-layer tracing of ellsurf from outside the program.

Each listed function is wrapped, and the wrapper is bound in place of
the original in every loaded `ellsurf` module that holds it, so calls
from inside the package are seen too.  Spans (name, start, end, parent
span, operation id) are kept in flat arrays in memory and written out
at the end; calls and self time (duration minus the time covered by
child spans) are totalled per function as spans close.  Nothing is
recorded outside an operation, so the benchmark's own untimed calls
into ellsurf are not counted.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

# (module, function) pairs whose calls and self time are reported.
LAYER_FUNCTIONS: Tuple[Tuple[str, str], ...] = tuple(
    (module, name)
    for module, names in (
        (
            "_intpoly",
            "gcd divmod_frac squarefree_part sturm_chain sturm_count isolate_real_roots "
            "refine_interval try_div_exact multiplicity_of_factor eval_int_sign",
        ),
        ("binform", "form_gcd"),
        (
            "roots",
            "irreducible_factors points_of_irreducible sign_at valuation_at points_equal "
            "circle_sort_key_refine sample_between",
        ),
        ("weierstrass", "validate discriminant classify_fibers normalize"),
        ("topology", "arc_decomposition betti"),
        ("oracle", "oracle_topology compare"),
        ("transforms", "search_extremal twist"),
        ("documents", "triple_from_document dump_json"),
    )
    for name in names.split()
)


def layer_name(module: str, function: str) -> str:
    """Metric prefix of a function; a metric name must start with a letter."""
    return f"{module.lstrip('_')}.{function}"


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # one entry per span, in order of opening
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self._open: List[int] = []
        self._child_ns: List[int] = []
        self.op_id: Optional[int] = None
        self._op_span = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def _open_span(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(0)
        self.span_end.append(0)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_op.append(self.op_id)
        self._open.append(idx)
        self._child_ns.append(0)
        self.span_start[idx] = perf_counter_ns()
        return idx

    def _close_span(self, idx: int) -> None:
        end = perf_counter_ns()
        self._open.pop()
        covered = self._child_ns.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.self_ns[nid] += duration - covered
        if self._child_ns:
            self._child_ns[-1] += duration

    def begin_op(self, op_id: int, name: str) -> None:
        self.op_id = op_id
        self._op_span = self._open_span(self._name_id(name))

    def end_op(self) -> None:
        self._close_span(self._op_span)
        self.op_id = None

    def wrap(self, name: str, fn):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            idx = self._open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close_span(idx)

        return traced

    def install(self) -> None:
        """Wrap every listed function that exists and rebind it across ellsurf."""
        for module, function in LAYER_FUNCTIONS:
            mod = importlib.import_module(f"ellsurf.{module}")
            orig = getattr(mod, function, None)
            if orig is None:
                continue  # removed by a later change: reported as 0 calls
            traced = self.wrap(layer_name(module, function), orig)
            for loaded in list(sys.modules.values()):
                name = getattr(loaded, "__name__", "")
                if name != "ellsurf" and not name.startswith("ellsurf."):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is orig:
                        setattr(loaded, attr, traced)

    def totals(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """All spans and the per-function totals as gzip-compressed JSON."""
        doc = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [
                list(row)
                for row in zip(
                    self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op
                )
            ],
            "totals": self.totals(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
