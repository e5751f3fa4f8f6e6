"""Spans around the public functions of the skeinlab layers.

``Tracer.install`` replaces each traced function or method with a wrapper
that records one span per call: (name, start, end, parent span, run id,
outermost-of-its-name flag, work count).  Spans stay in memory and are
written out once, after the timed phase.  No file of the package is
edited: the wrappers are bound into every ``skeinlab`` module and class
that holds the original object, because modules import these functions
by name (``wrt`` holds its own ``colored_bracket``, ``bracket`` calls
``bracket_tangle_sweep`` through its globals, ``CycloNum.__rmul__`` is
``__mul__``).

``LaurentPoly`` arithmetic is not wrapped: it is too hot, so its cost
lands in the self time of the span that calls it.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute path, what the layer metrics report)
# "self": calls and self time; "total": calls and inclusive time;
# "calls": calls only.
TARGETS = (
    ("algebra.evaluate_at", "skeinlab.algebra", "evaluate_at", "total"),
    ("algebra.CycloNum.mul", "skeinlab.algebra", "CycloNum.__mul__", "total"),
    ("algebra.CycloNum.inverse", "skeinlab.algebra", "CycloNum.inverse", "total"),
    ("algebra.poly_gcd", "skeinlab.algebra", "poly_gcd", "total"),
    ("diagrams.cable", "skeinlab.diagrams", "cable", "total"),
    ("diagrams.splice", "skeinlab.diagrams", "splice", "total"),
    ("diagrams.canonical_form", "skeinlab.diagrams", "canonical_form", "total"),
    ("tl.jones_wenzl", "skeinlab.tl", "jones_wenzl", "total"),
    ("tl.TLElement.mul", "skeinlab.tl", "TLElement.__mul__", "total"),
    ("bracket.bracket", "skeinlab.bracket", "bracket", "calls"),
    ("bracket.bracket_tangle_sweep", "skeinlab.bracket", "bracket_tangle_sweep", "self"),
    ("bracket.bracket_state_sum", "skeinlab.bracket", "bracket_state_sum", "self"),
    ("bracket.colored_bracket", "skeinlab.bracket", "colored_bracket", "self"),
    ("recoupling.meridian_series", "skeinlab.recoupling", "meridian_series", "self"),
    ("recoupling.omega_data", "skeinlab.recoupling", "omega_data", "self"),
    ("wrt.torus_invariant", "skeinlab.wrt", "torus_invariant", "self"),
)

# Work counted at the span boundary, from the call's arguments.
WORK = {
    "bracket.bracket_tangle_sweep": lambda diag, *_, **__: len(diag.crossings),
    "bracket.bracket_state_sum": lambda diag, *_, **__: 2 ** len(diag.crossings),
}

SPAN_FIELDS = ("name", "start", "end", "parent", "run_id", "outer", "work")


def _lookup(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _rebind(original, replacement) -> int:
    """Replace ``original`` wherever a skeinlab module or class holds it."""
    bound = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "skeinlab" and not mod_name.startswith("skeinlab."):
            continue
        for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, replacement)
                    bound += 1
    return bound


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self._stack: list = []
        self._active: dict = defaultdict(int)

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        work = WORK.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.run_id, active[name] == 0,
                    work(*args, **kwargs) if work else 0]
            spans.append(span)
            stack.append(idx)
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                span[2] = perf_counter()

        return traced

    def install(self):
        """Wrap every target; fails if one is not bound anywhere."""
        for name, module, path, _ in TARGETS:
            original = _lookup(module, path)
            if not _rebind(original, self._wrap(name, original)):
                raise RuntimeError(f"{module}.{path} is bound nowhere")

    def metrics(self) -> dict:
        """Per-layer counts and times of the recorded spans."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        work = defaultdict(int)
        for i, (name, start, end, _, _, outer, n) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child_s[i]
            if outer:
                total_s[name] += end - start
            work[name] += n
        out = {}
        for name, _, _, kind in TARGETS:
            out[f"{name}.calls"] = calls[name]
            if kind == "self":
                out[f"{name}.self_s"] = self_s[name]
            elif kind == "total":
                out[f"{name}.total_s"] = total_s[name]
        lookups = calls["bracket.bracket"]
        misses = sum(
            1 for name, _, _, parent, *_ in spans
            if name == "bracket.bracket_tangle_sweep" and parent >= 0
            and spans[parent][0] == "bracket.bracket"
        )
        # 0 when the workload makes no memo lookups at all
        out["bracket.memo_hit_ratio"] = 1 - misses / lookups if lookups else 0.0
        out["bracket.swept_crossings"] = work["bracket.bracket_tangle_sweep"]
        out["bracket.state_sum_states"] = work["bracket.bracket_state_sum"]
        return out

    def write(self, path):
        """Write every span as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)
