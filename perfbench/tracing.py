"""Spans around the calls into each layer of a freshly imported engine.

A span is (name, start, end, parent).  Every span is folded into per-name
totals as it closes: calls, and self time, which is its duration minus the
durations of its child spans.  The spans opened straight from the benchmark
and their children are also kept, up to a cap, for the trace file.

Counters are taken at the same boundaries:

* ``fusion_core.fuse.distinct_pairs``: calls of an instance fusion rule,
  i.e. fusion-table entries filled, whether lazily under ``fuse`` or by any
  other caller (an eager fill during datum build counts too);
* ``fusion_core.fcurve_intersect.leg_rank_calls``: ``rank_n`` calls whose
  nearest enclosing context is ``fcurve_intersect`` rather than ``degree_04``
  (the leg supports);
* ``fusion_core.divisor_class.rank_calls``: ``rank_n`` calls under
  ``divisor_class``;
* ``fusion_core.is_trivial.fcurves_visited``: ``fcurve_intersect`` calls made
  straight from ``is_trivial``;
* ``fusion_core.scan_f_positivity.degree_evals``: ``degree_04`` calls made
  straight from the scan kernel, and ``.multisets``, the ``tuples_examined``
  of the reports it returns;
* ``fusion_core.datum_build.labels``: labels of every datum built.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module attribute, span name); "Class.method" wraps a method in place.
TRACE_POINTS = {
    "fusion_core": [
        ("FusionDatum.__init__", "fusion_core.datum_build"),
        ("FusionDatum.fuse", "fusion_core.fuse"),
        ("FusionDatum.validate", "fusion_core.validate"),
        ("rank_n", "fusion_core.rank_n"),
        ("degree_04", "fusion_core.degree_04"),
        ("divisor_class", "fusion_core.divisor_class"),
        ("fcurve_intersect", "fusion_core.fcurve_intersect"),
        ("is_trivial", "fusion_core.is_trivial"),
        ("scan_f_positivity", "fusion_core.scan_f_positivity"),
        ("lambda_threshold", "fusion_core.lambda_threshold"),
    ],
    "parafermion_sl2": [
        ("parse_sl2_label", "parafermion_sl2.labels"),
        ("fuse", "parafermion_sl2.fusion_rule"),
        ("datum_sl2", "parafermion_sl2.datum"),
        ("subring_T", "parafermion_sl2.subring"),
        ("subring_S1", "parafermion_sl2.subring"),
        ("rank4_closed", "parafermion_sl2.closed_form"),
        ("degree04_closed", "parafermion_sl2.closed_form"),
        ("nontrivial_S1", "parafermion_sl2.closed_form"),
    ],
    "parafermion_slr": [
        ("parse_slr_label", "parafermion_slr.labels"),
        ("fuse_slr", "parafermion_slr.fusion_rule"),
        ("datum_slr", "parafermion_slr.datum"),
        ("negative_witness", "parafermion_slr.closed_form"),
    ],
    "affine_instances": [
        ("parse_affine_label", "affine_instances.labels"),
        ("parse_cyclic_label", "affine_instances.labels"),
        ("_fuse_affine", "affine_instances.fusion_rule"),
        ("_fuse_cyclic", "affine_instances.fusion_rule"),
        ("datum_affine_sl2", "affine_instances.datum"),
        ("datum_cyclic", "affine_instances.datum"),
        ("pairing_T_to_affine", "affine_instances.pairing"),
        ("pairing_S1_to_cyclic", "affine_instances.pairing"),
        ("verify_pairing", "affine_instances.verify_pairing"),
    ],
    "cli": [("main", "cli.main")],
}

# Spans that set the context in which nested rank_n / degree_04 calls are counted.
_CONTEXTS = {
    "fusion_core.fcurve_intersect",
    "fusion_core.degree_04",
    "fusion_core.divisor_class",
    "fusion_core.is_trivial",
    "fusion_core.scan_f_positivity",
}
_FUSION_RULES = {"parafermion_sl2.fusion_rule", "parafermion_slr.fusion_rule", "affine_instances.fusion_rule"}
SPAN_CAP = 50_000  # spans kept for the trace file; the totals count every span


class Tracer:
    """Collects spans while ``enabled``; one tracer serves every engine import of a run."""

    def __init__(self):
        self.enabled = False
        self.stack: list = []  # frames [name, start, child_time, context]
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.spans: list = []
        self.spans_dropped = 0
        self.op = -1  # index of the operation the spans serve; -1 during set-up
        self.missing: list = []

    def install(self, modules: dict) -> None:
        """Wrap every trace point of the engine modules in ``modules`` (name -> module).

        A function imported by name into another module of the package is
        replaced there too, so calls one layer makes into another are seen.
        """
        for short, points in TRACE_POINTS.items():
            module = modules.get(short)
            if module is None:
                continue
            for attr, span in points:
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, leaf, None)
                if original is None:
                    self.missing.append(f"{short}.{attr}")
                    continue
                wrapped = self._wrap(span, original)
                setattr(owner, leaf, wrapped)
                if owner_name:
                    continue
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapped)

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self.stack
        calls, self_s, counts = self.calls, self.self_s, self.counts
        is_context = name in _CONTEXTS
        is_rule = name in _FUSION_RULES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            ctx = parent[3] if parent else None
            if name == "fusion_core.rank_n":
                if ctx == "fusion_core.fcurve_intersect":
                    counts["fusion_core.fcurve_intersect.leg_rank_calls"] += 1
                elif ctx == "fusion_core.divisor_class":
                    counts["fusion_core.divisor_class.rank_calls"] += 1
            elif name == "fusion_core.fcurve_intersect":
                if parent and parent[0] == "fusion_core.is_trivial":
                    counts["fusion_core.is_trivial.fcurves_visited"] += 1
            elif name == "fusion_core.degree_04":
                if parent and parent[0] == "fusion_core.scan_f_positivity":
                    counts["fusion_core.scan_f_positivity.degree_evals"] += 1
            elif is_rule:
                counts["fusion_core.fuse.distinct_pairs"] += 1
            frame = [name, 0.0, 0.0, name if is_context else ctx]
            stack.append(frame)
            start = frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if len(stack) <= 1:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((name, start, end, parent[0] if parent else None, tracer.op))
                    else:
                        tracer.spans_dropped += 1
            if name == "fusion_core.scan_f_positivity":
                counts["fusion_core.scan_f_positivity.multisets"] += result.tuples_examined
            elif name == "fusion_core.datum_build":
                counts["fusion_core.datum_build.labels"] += len(args[0].labels)
            return result

        return traced

    def per_layer(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
        out = {}
        for layer in (
            "fusion_core.datum_build",
            "fusion_core.fuse",
            "fusion_core.degree_04",
            "fusion_core.rank_n",
            "fusion_core.fcurve_intersect",
            "fusion_core.is_trivial",
            "fusion_core.divisor_class",
            "cli.main",
        ):
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        for layer in (
            "fusion_core.datum_build",
            "fusion_core.fuse",
            "fusion_core.scan_f_positivity",
            "fusion_core.degree_04",
            "fusion_core.rank_n",
            "fusion_core.fcurve_intersect",
            "fusion_core.is_trivial",
            "fusion_core.divisor_class",
            "fusion_core.validate",
            "fusion_core.lambda_threshold",
            "affine_instances.verify_pairing",
            "cli.main",
        ):
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        for counter in (
            "fusion_core.datum_build.labels",
            "fusion_core.fuse.distinct_pairs",
            "fusion_core.scan_f_positivity.multisets",
            "fusion_core.scan_f_positivity.degree_evals",
            "fusion_core.fcurve_intersect.leg_rank_calls",
            "fusion_core.is_trivial.fcurves_visited",
            "fusion_core.divisor_class.rank_calls",
        ):
            out[counter] = (self.counts[counter], "count")
        multisets = self.counts["fusion_core.scan_f_positivity.multisets"]
        ratio = self.counts["fusion_core.scan_f_positivity.degree_evals"] / multisets if multisets else 0.0
        out["fusion_core.scan_f_positivity.useful_ratio"] = (ratio, "ratio")
        return out

    def report(self) -> dict:
        """Everything the trace file holds."""
        return {
            "layers": {
                name: {"calls": self.calls[name], "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "missing_trace_points": self.missing,
            "spans_kept": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": op} for n, s, e, p, op in self.spans
            ],
        }


def warn_missing(tracer: Tracer) -> None:
    if tracer.missing:
        print("trace points not found: " + ", ".join(sorted(set(tracer.missing))), file=sys.stderr)
