"""In-memory spans and counts recorded around the program's layer boundaries.

The program itself carries no instrumentation.  A :class:`Tracer` replaces
module attributes with wrappers at the place where each caller looks the
function up (``cgabp.solver.compute_next_points`` is what the search calls,
``cgabp.conformal.gp`` is what the versor construction calls), records a
span ``(request id, name, start, end, parent)`` per wrapped call, and puts
the originals back when the ``installed()`` block ends.  Spans stay in
memory until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from cgabp import conformal, dmdgp, ga, solver

GP_MACS = ga.DIM * ga.DIM  # multiply-accumulates of one dense geometric product


# (module, attribute, span name, {count name: tally(args, result)})
SPAN_POINTS = (
    (dmdgp, "parse_instance", "dmdgp.parse", {"dmdgp.edges": lambda a, r: len(r.edges)}),
    (solver, "solve", "solver.solve", {}),
    (dmdgp, "format_points", "dmdgp.format", {"dmdgp.output_bytes": lambda a, r: len(r)}),
    (solver, "validate_instance", "dmdgp.validate", {}),
    (solver, "internal_coordinates", "dmdgp.internal_coords", {}),
    (solver, "compute_next_points", "conformal.place", {}),
    (solver, "prune_check", "solver.prune_check",
     {"solver.prune_check.accepted": lambda a, r: int(bool(r))}),
    (solver, "verify_realization", "geometry.verify",
     {"geometry.verify.edges_checked": lambda a, r: len(a[0].edges)}),
    (solver, "expand_by_symmetry", "solver.expand",
     {"solver.expand.paths": lambda a, r: len(a[1]), "solver.expand.yield": lambda a, r: len(r)}),
    (solver, "reflect_suffix", "solver.reflect_suffix", {}),
    (solver, "reflect_in_plane", "conformal.reflect", {}),
)

# Dense products are called tens of thousands of times per request: count
# them without a span so the trace stays cheap enough to run whole requests.
COUNT_POINTS = (
    (conformal, "gp", "ga.gp"),
    (ga, "geometric_product", "ga.gp"),
    (conformal, "op", "ga.op"),
    (ga, "outer_product", "ga.op"),
)


class Tracer:
    """Spans and counts of the requests run inside ``installed()`` blocks."""

    def __init__(self):
        self.spans: list = []          # [rid, name, start, end, parent index]
        self.counts: Counter = Counter()  # (rid, name) -> count
        self.rid = None
        self._stack: list[int] = []

    def _span(self, name, fn, tallies):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [self.rid, name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            for count_name, tally in tallies.items():
                counts[self.rid, count_name] += tally(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self.rid, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, rid):
        """Run one request with every wrapper in place, under a root span."""
        originals = []
        try:
            for module, attr, name, tallies in SPAN_POINTS:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._span(name, fn, tallies))
            for module, attr, name in COUNT_POINTS:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._counter(name, fn))
            self.rid = rid
            root = [rid, "request", perf_counter(), 0.0, -1]
            self.spans.append(root)
            self._stack.append(len(self.spans) - 1)
            try:
                yield
            finally:
                root[3] = perf_counter()
                self._stack.pop()
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
            self.rid = None

    def per_request(self):
        """{rid: {"time": {name: s}, "self": {name: s}, "calls": {name: n},
        "counts": {name: n}}} over every recorded request."""
        child_time = defaultdict(float)
        for rid, name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"time": Counter(), "self": Counter(),
                                   "calls": Counter(), "counts": Counter()})
        for idx, (rid, name, start, end, parent) in enumerate(self.spans):
            rec = out[rid]
            rec["time"][name] += end - start
            rec["self"][name] += end - start - child_time[idx]
            rec["calls"][name] += 1
        for (rid, name), value in self.counts.items():
            out[rid]["counts"][name] += value
        return dict(out)

    def write(self, path):
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"rid": rid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def layer_metrics(records) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from :meth:`Tracer.per_request` records.

    Per-request quantities are medians over requests; ratios and shares
    are taken over the sums of all requests so a rare layer still counts.
    """
    recs = list(records.values())

    def med(fn):
        return statistics.median(fn(r) for r in recs)

    def total(kind, name):
        return sum(r[kind][name] for r in recs)

    def per_call_us(name):
        return med(lambda r: r["time"][name] / max(r["calls"][name], 1)) * 1e6

    def share(name):
        return total("time", name) / total("time", "solver.solve")

    tested = total("calls", "solver.prune_check")
    paths = total("counts", "solver.expand.paths")
    return {
        "solver.search_self_s": (med(lambda r: r["self"]["solver.solve"]), "s"),
        "solver.nodes": (med(lambda r: r["calls"]["solver.prune_check"]), "count"),
        "solver.prune_check_us": (per_call_us("solver.prune_check"), "us"),
        "solver.prune_accept_ratio": (
            total("counts", "solver.prune_check.accepted") / tested, "ratio"),
        "solver.reflect_suffix.calls": (med(lambda r: r["calls"]["solver.reflect_suffix"]), "count"),
        "solver.reflect_suffix_share": (share("solver.reflect_suffix"), "frac"),
        "solver.expand_share": (share("solver.expand"), "frac"),
        "solver.expand_yield": (
            total("counts", "solver.expand.yield") / paths if paths else 0.0, "ratio"),
        "conformal.place.calls": (med(lambda r: r["calls"]["conformal.place"]), "count"),
        "conformal.place_us": (per_call_us("conformal.place"), "us"),
        "conformal.place_share": (share("conformal.place"), "frac"),
        "conformal.reflect_share": (share("conformal.reflect"), "frac"),
        "ga.gp.calls": (med(lambda r: r["counts"]["ga.gp"]), "count"),
        "ga.op.calls": (med(lambda r: r["counts"]["ga.op"]), "count"),
        "ga.gp.macs_computed": (med(lambda r: r["counts"]["ga.gp"]) * GP_MACS, "count"),
        "geometry.verify.calls": (med(lambda r: r["calls"]["geometry.verify"]), "count"),
        "geometry.verify_s": (med(lambda r: r["time"]["geometry.verify"]), "s"),
        "geometry.verify.edges_checked": (
            med(lambda r: r["counts"]["geometry.verify.edges_checked"]), "count"),
        "dmdgp.parse_s": (med(lambda r: r["time"]["dmdgp.parse"]), "s"),
        "dmdgp.validate_s": (med(lambda r: r["time"]["dmdgp.validate"]), "s"),
        "dmdgp.internal_coords_s": (med(lambda r: r["time"]["dmdgp.internal_coords"]), "s"),
        "dmdgp.edges": (med(lambda r: r["counts"]["dmdgp.edges"]), "count"),
        "dmdgp.format_s": (med(lambda r: r["time"]["dmdgp.format"]), "s"),
        "dmdgp.output_bytes": (med(lambda r: r["counts"]["dmdgp.output_bytes"]), "B"),
    }
