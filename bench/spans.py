"""Span recorder and layer counters for the traced benchmark run.

``Tracer.install`` wraps public functions of the ``sftdga`` package from
outside.  Each wrapper replaces the function under every name that refers
to it in every loaded ``sftdga`` module, because a module that did
``from .algebra import mul_weyl`` holds its own reference, and
``Element.__mul__`` reaches ``mul_weyl`` through ``algebra``'s globals.

Every call records a span (name, start, end, parent span, job id).  A
span's self time is its duration minus the time its child spans cover; the
child coverage includes the wrappers' own bookkeeping, so counting work
never shows up as a layer's self time.  Counters run after the span ends
and look only at arguments and results.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

perf_counter = time.perf_counter

# (module, function) pairs the traced run wraps
WRAPPED = (
    ("algebra", "mul_weyl"),
    ("algebra", "mul_super"),
    ("algebra", "normalize"),
    ("differential", "apply_d"),
    ("differential", "validate_structure"),
    ("differential", "check_d_squared"),
    ("indexcalc", "degree_drop_check"),
    ("vanishing", "classify"),
    ("vanishing", "search_unit_primitive"),
    ("vanishing", "formal_inverse"),
    ("vanishing", "lift_primitive"),
    ("linsolve", "solve_exact"),
    ("io", "differential_from_data"),
    ("io", "classify_report_to_data"),
    ("io", "canonical_bytes"),
)

SHARED_BUCKETS = ("1", "2", "3", "4plus")
MAX_SPANS = 2_000_000  # spans kept in memory; later ones are only counted

# per-layer metrics of the traced run: (name, unit, better)
PER_LAYER = [
    ("algebra.mul_weyl.calls", "count", "lower"),
    ("algebra.mul_weyl.self_s", "s", "lower"),
    ("algebra.mul_weyl.term_pairs", "count", "lower"),
    ("algebra.mul_weyl.out_terms", "count", "lower"),
    ("algebra.mul_weyl.contract_frac", "ratio", "lower"),
] + [
    ("algebra.mul_weyl.shared_%s" % b, "count", "lower") for b in SHARED_BUCKETS
] + [
    ("algebra.normalize.calls", "count", "lower"),
    ("algebra.normalize.self_s", "s", "lower"),
    ("algebra.normalize.letters", "count", "lower"),
    ("algebra.mul_super.calls", "count", "lower"),
    ("algebra.mul_super.self_s", "s", "lower"),
    ("algebra.mul_super.term_pairs", "count", "lower"),
    ("differential.apply_d.calls", "count", "lower"),
    ("differential.apply_d.self_s", "s", "lower"),
    ("differential.apply_d.total_s", "s", "lower"),
    ("differential.apply_d.in_terms", "count", "lower"),
    ("differential.apply_d.out_terms", "count", "lower"),
    ("differential.validate_structure.calls", "count", "lower"),
    ("differential.validate_structure.self_s", "s", "lower"),
    ("differential.check_d_squared.calls", "count", "lower"),
    ("differential.check_d_squared.total_s", "s", "lower"),
    ("indexcalc.degree_drop_check.calls", "count", "lower"),
    ("indexcalc.degree_drop_check.self_s", "s", "lower"),
    ("vanishing.search_unit_primitive.calls", "count", "lower"),
    ("vanishing.search_unit_primitive.self_s", "s", "lower"),
    ("vanishing.search_unit_primitive.candidates", "count", "lower"),
    ("vanishing.search_unit_primitive.rows", "count", "lower"),
    ("vanishing.search_unit_primitive.hit_frac", "ratio", "higher"),
    ("linsolve.solve_exact.calls", "count", "lower"),
    ("linsolve.solve_exact.self_s", "s", "lower"),
    ("linsolve.solve_exact.rows", "count", "lower"),
    ("linsolve.solve_exact.cols", "count", "lower"),
    ("linsolve.solve_exact.nnz", "count", "lower"),
    ("vanishing.formal_inverse.calls", "count", "lower"),
    ("vanishing.formal_inverse.self_s", "s", "lower"),
    ("vanishing.formal_inverse.total_s", "s", "lower"),
    ("vanishing.formal_inverse.order", "count", "lower"),
    ("vanishing.formal_inverse.out_terms", "count", "lower"),
    ("vanishing.lift_primitive.calls", "count", "lower"),
    ("vanishing.lift_primitive.total_s", "s", "lower"),
    ("vanishing.lift_primitive.verified_frac", "ratio", "higher"),
    ("vanishing.lift_primitive.out_terms", "count", "lower"),
] + [
    ("io.%s.%s" % (fn, stat), unit, "lower")
    for fn in ("differential_from_data", "classify_report_to_data", "canonical_bytes")
    for stat, unit in (("calls", "count"), ("self_s", "s"), ("bytes", "bytes"))
] + [
    ("trace.overhead_frac", "ratio", "lower"),
]


class Layer:
    """Aggregates of one wrapped function."""

    __slots__ = ("calls", "self_s", "total_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counts = Counter()


def _shared_exponents(a, b):
    """Per pair of terms (m1 of a, m2 of b), how many p_x of m1 can contract
    with a q_x of m2: the sum over orbits x of min(exp p_x in m1, exp q_x in
    m2).  Returns a Counter {shared exponent: number of term pairs}."""
    left = Counter(m.p for m in a.terms)
    right = Counter(m.q for m in b.terms)
    out = Counter()
    for p, n1 in left.items():
        pd = dict(p)
        for q, n2 in right.items():
            shared = sum(min(e, pd[v]) for v, e in q if v in pd)
            out[shared] += n1 * n2
    return out


def _count_mul_weyl(c, args, kwargs, res):
    a, b = args
    c["term_pairs"] += len(a.terms) * len(b.terms)
    c["out_terms"] += len(res.terms)
    for shared, n in _shared_exponents(a, b).items():
        if shared:
            c["contract_pairs"] += n
            c["shared_%s" % (shared if shared < 4 else "4plus")] += n
            c["shared_max"] = max(c["shared_max"], shared)


def _count_mul_super(c, args, kwargs, res):
    a, b = args
    c["term_pairs"] += len(a.terms) * len(b.terms)


def _count_normalize(c, args, kwargs, res):
    word = args[2] if len(args) > 2 else kwargs["word"]
    c["letters"] += len(word)


def _count_apply_d(c, args, kwargs, res):
    c["in_terms"] += len(args[1].terms)
    c["out_terms"] += len(res.terms)


def _count_search(c, args, kwargs, res):
    c["candidates"] += res.candidates
    c["rows"] += res.constraints
    c["hits"] += res.certificate is not None


def _count_solve(c, args, kwargs, res):
    rows, ncols = args[0], args[1]
    c["rows"] += len(rows)
    c["cols"] += ncols
    c["nnz"] += sum(len(r) for r in rows)


def _count_lift(c, args, kwargs, res):
    c["verified"] += bool(res.verified)
    c["out_terms"] += len(res.primitive.terms)


class Tracer:
    """Records spans and per-layer aggregates while installed."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.job = array("q")
        self.dropped = 0
        self.layers = {}
        self._stack = []      # [span id, child coverage] of open spans
        self._job_id = -1
        self._restore = []    # (module, attribute, original)
        self._job_name = self._intern("bench.job")

    # -- spans ------------------------------------------------------------

    def _open(self, name_id, t0):
        sid = len(self.start)
        if sid >= MAX_SPANS:
            self.dropped += 1
            sid = -1
        else:
            self.start.append(t0)
            self.end.append(t0)  # both set again when the span closes
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.name.append(name_id)
            self.job.append(self._job_id)
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, t0, t1):
        self._stack.pop()
        if frame[0] >= 0:
            self.start[frame[0]] = t0
            self.end[frame[0]] = t1

    def _intern(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def job_span(self, job_id):
        """Context manager for the root span of one job."""
        tracer = self

        class _Job:
            def __enter__(self):
                tracer._job_id = job_id
                self.t0 = perf_counter()
                self.frame = tracer._open(tracer._job_name, self.t0)

            def __exit__(self, *exc):
                tracer._close(self.frame, self.t0, perf_counter())
                tracer._job_id = -1
                return False

        return _Job()

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, counter=None):
        layer = self.layers.setdefault(name, Layer())
        name_id = self._intern(name)
        stack = self._stack

        def traced(*args, **kwargs):
            outer0 = perf_counter()
            frame = self._open(name_id, outer0)
            done = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = perf_counter()
                self._close(frame, t0, t1)
                layer.calls += 1
                layer.total_s += t1 - t0
                layer.self_s += t1 - t0 - frame[1]
                if done and counter is not None:
                    counter(layer.counts, args, kwargs, result)
                if stack:
                    stack[-1][1] += perf_counter() - outer0
            return result

        return traced

    def install(self, sd):
        """Wrap every function in WRAPPED under all its names in sd's modules."""
        import sys

        io = sd.io
        raw_bytes = io.canonical_bytes
        policy_weight_bound = sd.vanishing.policy_weight_bound

        def count_inverse(c, args, kwargs, res):
            g = args[0]
            order = args[1] if len(args) > 1 else kwargs.get("order")
            if order is None:
                order = policy_weight_bound(g.flavor, g.policy)
            c["order"] = max(c["order"], order)
            c["out_terms"] += len(res.terms)

        def count_from_data(c, args, kwargs, res):
            c["bytes"] += len(raw_bytes(args[0]))

        def count_report(c, args, kwargs, res):
            c["bytes"] += len(raw_bytes(res))

        def count_bytes(c, args, kwargs, res):
            c["bytes"] += len(res)

        counters = {
            "algebra.mul_weyl": _count_mul_weyl,
            "algebra.mul_super": _count_mul_super,
            "algebra.normalize": _count_normalize,
            "differential.apply_d": _count_apply_d,
            "vanishing.search_unit_primitive": _count_search,
            "vanishing.formal_inverse": count_inverse,
            "vanishing.lift_primitive": _count_lift,
            "linsolve.solve_exact": _count_solve,
            "io.differential_from_data": count_from_data,
            "io.classify_report_to_data": count_report,
            "io.canonical_bytes": count_bytes,
        }
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == sd.__name__
                                         or n.startswith(sd.__name__ + "."))]
        for modname, fname in WRAPPED:
            name = "%s.%s" % (modname, fname)
            original = getattr(getattr(sd, modname), fname)
            wrapper = self.wrap(name, original, counters.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def metrics(self, overhead_frac):
        """Values of every PER_LAYER metric."""
        out = {"trace.overhead_frac": overhead_frac}
        for name, layer in self.layers.items():
            out[name + ".calls"] = layer.calls
            out[name + ".self_s"] = layer.self_s
            out[name + ".total_s"] = layer.total_s
            for stat, value in layer.counts.items():
                out["%s.%s" % (name, stat)] = value
        weyl = self.layers["algebra.mul_weyl"].counts
        out["algebra.mul_weyl.contract_frac"] = (
            weyl["contract_pairs"] / weyl["term_pairs"] if weyl["term_pairs"] else 0.0)
        search = self.layers["vanishing.search_unit_primitive"]
        out["vanishing.search_unit_primitive.hit_frac"] = (
            search.counts["hits"] / search.calls if search.calls else 0.0)
        lift = self.layers["vanishing.lift_primitive"]
        out["vanishing.lift_primitive.verified_frac"] = (
            lift.counts["verified"] / lift.calls if lift.calls else 0.0)
        return {name: out.get(name, 0) for name, _, _ in PER_LAYER}

    def summary(self):
        """Per-layer aggregates plus the shared-exponent histogram."""
        weyl = self.layers["algebra.mul_weyl"].counts
        hist = {k[len("shared_"):]: v for k, v in sorted(weyl.items())
                if k.startswith("shared_") and k != "shared_max"}
        return {
            "layers": {name: {"calls": l.calls, "self_s": l.self_s,
                              "total_s": l.total_s, **dict(l.counts)}
                       for name, l in sorted(self.layers.items())},
            "mul_weyl_shared_exponent_histogram": hist,
            "mul_weyl_shared_exponent_max": weyl["shared_max"],
            "spans": len(self.start),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path):
        """One line per span: id, parent, job, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,job,name,start,end\n")
            for i in range(len(self.start)):
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % (
                    i, self.parent[i], self.job[i], self.names[self.name[i]],
                    self.start[i], self.end[i]))
