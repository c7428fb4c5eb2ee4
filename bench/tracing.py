"""In-memory tracing of ``mesq``'s public functions for the per-layer run.

Every traced function is replaced at every module binding that refers to it,
so the ``from .core import ...`` copies inside the package are traced too.
Class construction is traced through ``__post_init__`` (the validation each
``PureState`` and ``ProductOperator`` runs). A span's self time is its
duration minus the time spent in traced functions it called. Spans are kept
only while an operation runs and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

TRACED = {
    "core": ("PureState", "ProductOperator", "apply_on", "apply_product",
             "projective_measure", "ProductOperator.full_matrix", "reduced_density",
             "lu_equivalent", "psd_sqrt"),
    "tripartite": ("classify_slocc3", "ghz_standard_form", "w_standard_form", "in_mes3"),
    "fourqubit": ("is_generic", "classify_factor", "symmetry_group", "mes4_status"),
    "sep": ("solve_sep_weights", "verify_sep", "build_povm", "verify_conversion",
            "synthesize_reach_protocol_4q", "execute_protocol"),
    "nnls": ("nnls",),
    "resource": ("build_phi3", "simulate_rep", "target_state", "verify_rep_determinism",
                 "prepare_mixed3"),
    "bipartite": ("phi_plus_to_target", "prepare_mixed"),
}

NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)

# Spans of the first operations are kept in full; later ones only add to the
# per-function totals, so a long run does not grow without bound.
SPAN_LIMIT = 20000


class Tracer:
    def __init__(self):
        self.active = False
        self.kind = None
        self.op_index = -1
        self.totals = {name: [0, 0.0] for name in NAMES}
        self.by_kind = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self.spans = []
        self.next_id = 0
        self._stack = []

    def install(self):
        """Wrap every traced function in every loaded ``mesq`` module."""
        import mesq.bipartite, mesq.cli, mesq.core, mesq.fourqubit  # noqa: E401,F401
        import mesq.jsonio, mesq.nnls, mesq.resource, mesq.sep, mesq.tripartite  # noqa: E401,F401
        modules = [m for k, m in sys.modules.items() if k == "mesq" or k.startswith("mesq.")]
        for module, fns in TRACED.items():
            home = sys.modules[f"mesq.{module}"]
            for fn in fns:
                name = f"{module}.{fn}"
                if fn in ("PureState", "ProductOperator"):
                    cls = getattr(home, fn)
                    cls.__post_init__ = self._wrap(name, cls.__post_init__)
                elif "." in fn:
                    cls_name, method = fn.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, method, self._wrap(name, getattr(cls, method)))
                else:
                    original = getattr(home, fn)
                    wrapper = self._wrap(name, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.next_id += 1
            frame = [0.0, tracer.next_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(name, start, end, frame, stack[-1] if stack else None)

        return traced

    def _close(self, name, start, end, frame, parent):
        duration = end - start
        own = duration - frame[0]
        if parent is not None:
            parent[0] += duration
        total = self.totals[name]
        total[0] += 1
        total[1] += own
        per_kind = self.by_kind[self.kind][name]
        per_kind[0] += 1
        per_kind[1] += own
        if frame[1] <= SPAN_LIMIT:
            self.spans.append((frame[1], name, start, end,
                               None if parent is None else parent[1], self.op_index))

    def begin(self, kind: str, op_index: int):
        self.kind, self.op_index, self.active = kind, op_index, True

    def end(self):
        self.active = False

    def metrics(self, attempted: int) -> dict:
        out = {}
        for name, (calls, own) in self.totals.items():
            out[f"{name}.calls_per_op"] = {"value": calls / attempted, "unit": "count"}
            out[f"{name}.self_us_per_op"] = {"value": own * 1e6 / attempted, "unit": "us"}
        return out

    def write(self, path, kind_counts: dict, extra: dict):
        """Spans plus per-question-kind calls and self time, as JSON."""
        per_kind = {
            kind: {name: {"calls_per_op": c / kind_counts[kind],
                          "self_us_per_op": s * 1e6 / kind_counts[kind]}
                   for name, (c, s) in sorted(fns.items())}
            for kind, fns in self.by_kind.items()
        }
        doc = dict(extra, kind_counts=kind_counts, per_kind=per_kind,
                   span_fields=["id", "name", "start_s", "end_s", "parent", "op"],
                   spans=self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
