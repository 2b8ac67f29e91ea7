"""Span tracer for gtrep that works from outside the package.

`install` replaces public functions of the gtrep modules with wrappers
that record a span (name, start, end, parent) per call, plus a few
counters, and leaves the package source untouched. Each wrapper is bound
where the caller looks the name up: `enumerate_patterns_b` as imported
into `gtrep.sorep`, `nullspace` as imported into `gtrep.checks`, and so
on. A wrapped name that no longer exists raises `TraceError` at install
time, so a refactor shows up as a loud failure rather than a silent zero.

Spans are kept in memory and written out once, at the end, by the traced
child (`trace_child.py`); `layer_metrics` turns them into the per-layer
metrics the benchmark reports.
"""

import importlib
import time
import types


class TraceError(Exception):
    """The tracer's wrap table no longer matches the gtrep package."""


# (module, attribute, span name): plain timing wrappers.
SPANS = [
    ("gtrep.glrep", "enumerate_patterns_a", "patterns.enumerate"),
    ("gtrep.sorep", "enumerate_patterns_b", "patterns.enumerate"),
    ("gtrep.cli", "enumerate_patterns_a", "patterns.enumerate"),
    ("gtrep.cli", "enumerate_patterns_b", "patterns.enumerate"),
    ("gtrep.cli", "build_gl", "glrep.build"),
    ("gtrep.sorep", "build_f_lower", "sorep.lower"),
    ("gtrep.sorep", "build_f_raise", "sorep.raise"),
    ("gtrep.sorep", "rf_limit_at", "exact.limit"),
    ("gtrep.sorep", "close_generators", "sorep.closure"),
    ("gtrep.sorep", "rref", "sorep.span_rank"),
    ("gtrep.linalg", "Operator.__matmul__", "linalg.matmul"),
    ("gtrep.glrep", "nullspace", "linalg.nullspace"),
    ("gtrep.checks", "nullspace", "linalg.nullspace"),
    ("gtrep.checks", "rank_of", "linalg.nullspace"),
    ("gtrep.cli", "_rep_json", "cli.serialize"),
    ("gtrep.cli", "_rep_csv", "cli.serialize"),
]

# Verification check names, as passed to VerificationReport.add, mapped to
# the short names of the checks.*_s metrics. The time since the previous
# add (or since run_verification began) is charged to the check added.
CHECKS = {
    "all generator commutators match the bracket table": "structure",
    "basis size equals the Weyl dimension formula": "dim",
    "basis vectors are weight vectors and the top one is highest": "weights",
    "subalgebra highest-vector counts match the interval counts":
        "branching",
    "branching dimensions sum to the module dimension": "branching",
    "Casimir sum is the scalar dictated by the top weight": "casimir",
    "weight histogram matches the Freudenthal recursion": "freudenthal",
    "determinant central element acts by the expected scalar": "capelli",
    "contravariant form is diagonal and nondegenerate": "form",
    "quadratic form of the primed-lowering operator matches its "
    "definition": "phi",
}

CHECK_NAMES = tuple(dict.fromkeys(CHECKS.values()))


class Tracer:
    """In-memory spans, verification phases and counters of one process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.phases = []  # [short check name, start, end]
        self.phase_mark = None
        self.counts = {}

    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def to_json(self):
        return {"spans": self.spans, "phases": self.phases,
                "counts": self.counts}


def _resolve(module, attr):
    try:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, leaf)
    except (ImportError, AttributeError) as e:
        raise TraceError("cannot wrap %s.%s: %s" % (module, attr, e)) from e
    if not callable(fn):
        raise TraceError("%s.%s is not callable" % (module, attr))
    return owner, leaf, fn


def _timed(tracer, name, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


def _raise_column(tracer, fn):
    # one call per source column; ctx.deformed tells the two routes apart,
    # and a plain attempt that raises is redone on the deformed route
    def wrapper(basis, k, pat, ctx):
        route = "deformed" if ctx.deformed else "plain"
        idx = tracer.begin("sorep.raise." + route)
        try:
            out = fn(basis, k, pat, ctx)
        finally:
            tracer.end(idx)
        if route == "plain":
            tracer.count("sorep.raise.plain_hits")
        return out
    return wrapper


def _commutator(tracer, fn):
    def wrapper(self, other):
        if tracer.inside("checks.verify"):
            tracer.count("checks.commutator_calls")
        return fn(self, other)
    return wrapper


def _verify(tracer, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.begin("checks.verify")
        tracer.phase_mark = tracer.spans[idx][1]
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
            tracer.phase_mark = None
    return wrapper


def _report_add(tracer, fn):
    def wrapper(self, name, ok, witness=None):
        if tracer.phase_mark is not None:
            if name not in CHECKS:
                raise TraceError("verification check %r has no metric name"
                                 % (name,))
            now = tracer.clock()
            tracer.phases.append([CHECKS[name], tracer.phase_mark, now])
            tracer.phase_mark = now
        return fn(self, name, ok, witness)
    return wrapper


SPECIAL = [
    ("gtrep.sorep", "raise_column_terms", _raise_column),
    ("gtrep.linalg", "Operator.commutator", _commutator),
    ("gtrep.cli", "run_verification", _verify),
    ("gtrep.checks", "VerificationReport.add", _report_add),
]


def install(tracer):
    """Wrap every entry of SPANS and SPECIAL; returns an undo function.

    Every target is resolved before any is replaced, so a stale entry
    leaves the package unchanged."""
    plan = []
    for module, attr, name in SPANS:
        owner, leaf, fn = _resolve(module, attr)
        plan.append((owner, leaf, fn, _timed(tracer, name, fn)))
    for module, attr, make in SPECIAL:
        owner, leaf, fn = _resolve(module, attr)
        plan.append((owner, leaf, fn, make(tracer, fn)))
    # json.dumps as called by the CLI: wrapped on a private copy of the
    # json module, so no other caller of json.dumps is timed
    real_json, _, dumps = _resolve("gtrep.cli", "json.dumps")
    proxy = types.ModuleType("json")
    proxy.__dict__.update(real_json.__dict__)
    proxy.dumps = _timed(tracer, "cli.serialize", dumps)
    plan.append((importlib.import_module("gtrep.cli"), "json", real_json,
                 proxy))

    for owner, leaf, _, wrap in plan:
        setattr(owner, leaf, wrap)

    def undo():
        for owner, leaf, fn, _ in reversed(plan):
            setattr(owner, leaf, fn)
    return undo


# ----------------------------------------------------------- aggregation


TIME_METRICS = {
    # metric: (span name, "incl" or "self")
    "patterns.enumerate_s": ("patterns.enumerate", "incl"),
    "glrep.build_s": ("glrep.build", "self"),
    "sorep.lower_s": ("sorep.lower", "incl"),
    "sorep.raise_s": ("sorep.raise", "incl"),
    "sorep.raise.plain_s": ("sorep.raise.plain", "incl"),
    "sorep.raise.deformed_s": ("sorep.raise.deformed", "incl"),
    "exact.limit_s": ("exact.limit", "incl"),
    "sorep.closure_s": ("sorep.closure", "incl"),
    "sorep.span_rank_s": ("sorep.span_rank", "incl"),
    "linalg.matmul_s": ("linalg.matmul", "incl"),
    "linalg.nullspace_s": ("linalg.nullspace", "incl"),
    "cli.serialize_s": ("cli.serialize", "incl"),
}

CALL_METRICS = {
    "sorep.raise.plain_cols": "sorep.raise.plain",
    "sorep.raise.deformed_cols": "sorep.raise.deformed",
    "exact.limit_calls": "exact.limit",
    "linalg.matmul_calls": "linalg.matmul",
}


def span_totals(spans):
    """Per span name: (calls, inclusive seconds, self seconds). Self time
    is a span's duration minus the durations of its direct children;
    spans nest, so children never overlap one another."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, incl, self_ = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, incl + end - start,
                     self_ + end - start - child[i])
    return out


def layer_metrics(trace):
    """Per-layer metrics of one traced request, from the document
    trace_child.py writes: `Tracer.to_json()` plus output_bytes."""
    totals = span_totals(trace["spans"])
    m = {}
    for metric, (name, kind) in TIME_METRICS.items():
        calls, incl, self_ = totals.get(name, (0, 0.0, 0.0))
        m[metric] = incl if kind == "incl" else self_
    for metric, name in CALL_METRICS.items():
        m[metric] = totals.get(name, (0,))[0]
    m["sorep.raise.plain_hits"] = trace["counts"].get(
        "sorep.raise.plain_hits", 0)
    m["checks.commutator_calls"] = trace["counts"].get(
        "checks.commutator_calls", 0)
    for short in CHECK_NAMES:
        m["checks.%s_s" % short] = 0.0
    for short, start, end in trace["phases"]:
        m["checks.%s_s" % short] += end - start
    m["cli.output_bytes"] = trace["output_bytes"]
    return m


def sum_metrics(per_request):
    """Sum per-request metrics over a pass and derive the hit ratio."""
    out = {}
    for m in per_request:
        for k, v in m.items():
            out[k] = out.get(k, 0) + v
    hits = out.pop("sorep.raise.plain_hits", 0)
    tried = out.get("sorep.raise.plain_cols", 0)
    out["sorep.raise.plain_hit_ratio"] = hits / tried if tried else 1.0
    return out
