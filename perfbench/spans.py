"""Timing spans around modchar's public functions, for the traced run.

`install()` replaces each function below at every module attribute and
class attribute that binds it (so `verify`'s `from .chi import chi_basic`
is wrapped too).  A span records its calls, its total time and its self
time: the total minus the time its direct child spans cover.  Spans nest
through a stack, so each span's parent is the span below it.

Counters recorded at the same boundaries:
  ff.field_mul.calls              calls of FieldCtx.mul (counted, no span)
  coalg.coproduct.terms           terms returned by coproduct
  dickson.polymul.term_products   len(a) * len(b) per MultiPoly.mul
  chi.kept_terms / chi.inner_coproduct_terms
                                  terms in chi_basic's result, and the
                                  coproduct terms produced inside it
"""

from __future__ import annotations

import importlib
import sys
import time

# span name -> (module, qualified attribute)
SPANS = {
    "ff.rank": ("modchar.ff", "MatrixFF.rank"),
    "ff.kernel": ("modchar.ff", "kernel"),
    "ff.intersect": ("modchar.ff", "intersect"),
    "ff.preimage": ("modchar.ff", "preimage"),
    "ff.matmul": ("modchar.ff", "MatrixFF.mul"),
    "ff.inverse": ("modchar.ff", "MatrixFF.inverse"),
    "ff.subspace": ("modchar.ff", "Subspace.from_vectors"),
    "reps.validate": ("modchar.reps", "validate"),
    "reps.socle": ("modchar.reps", "socle_filtration"),
    "reps.socle_quot": ("modchar.reps", "socle_filtration_by_quotients"),
    "reps.socle_ann": ("modchar.reps", "socle_filtration_by_annihilators"),
    "reps.classify": ("modchar.reps", "classify"),
    "reps.iso": ("modchar.reps", "iso_to_basic"),
    "reps.chi_of_rep": ("modchar.reps", "chi_of_rep"),
    "mono.basis": ("modchar.mono", "enumerate_invariant_basis"),
    "coalg.coproduct": ("modchar.coalg", "coproduct"),
    "coalg.iterated": ("modchar.coalg", "iterated_coproduct"),
    "chi.chi_basic": ("modchar.chi", "chi_basic"),
    "chi.search": ("modchar.chi", "is_chi_nonzero"),
    "chi.table": ("modchar.chi", "universal_table"),
    "chi.tuples": ("modchar.chi", "indecomposable_tuples"),
    "dickson.power_sum": ("modchar.dickson", "power_sum"),
    "dickson.total": ("modchar.dickson", "dickson_total"),
    "dickson.newton": ("modchar.dickson", "newton_check"),
    "dickson.inverse": ("modchar.dickson", "chi_total_from_inverse"),
    "dickson.product": ("modchar.dickson", "product_identity_check"),
    "dickson.polymul": ("modchar.dickson", "MultiPoly.mul"),
}

COUNTERS = (
    "ff.field_mul.calls",
    "coalg.coproduct.terms",
    "dickson.polymul.term_products",
    "chi.kept_terms",
    "chi.inner_coproduct_terms",
)


class Recorder:
    """Per-process span totals: name -> [calls, seconds, self seconds]."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.child_time = []  # per open span: seconds its children took

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.stats.items()}, "counts": dict(self.counts)}


REC = Recorder()


def _span(name, fn):
    perf = time.perf_counter

    def wrapped(*args, **kwargs):
        open_spans = REC.child_time
        open_spans.append(0.0)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf() - start
            inner = open_spans.pop()
            s = REC.stats[name]
            s[0] += 1
            s[1] += dur
            s[2] += dur - inner
            if open_spans:
                open_spans[-1] += dur

    wrapped.__name__ = getattr(fn, "__name__", name)
    wrapped.__doc__ = getattr(fn, "__doc__", None)
    wrapped.traced = True
    return wrapped


def _with_counter(name, fn):
    """Extra counting at a span boundary, wrapped inside the span."""
    counts = REC  # its dicts are replaced on reset, so look them up per call

    if name == "coalg.coproduct":

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts.counts["coalg.coproduct.terms"] += len(out)
            return out

    elif name == "dickson.polymul":

        def counted(self, other):
            counts.counts["dickson.polymul.term_products"] += len(self.terms) * len(other.terms)
            return fn(self, other)

    elif name == "chi.chi_basic":

        def counted(*args, **kwargs):
            before = counts.counts["coalg.coproduct.terms"]
            out = fn(*args, **kwargs)
            counts.counts["chi.inner_coproduct_terms"] += counts.counts["coalg.coproduct.terms"] - before
            counts.counts["chi.kept_terms"] += len(out.terms)
            return out

    else:
        return fn
    return counted


def _field_mul_counter(fn):
    def counted(self, a, b):
        REC.counts["ff.field_mul.calls"] += 1
        return fn(self, a, b)

    counted.traced = True
    return counted


def _modchar_modules():
    return [m for name, m in list(sys.modules.items()) if name == "modchar" or name.startswith("modchar.")]


def install() -> None:
    """Wrap every SPANS function at every binding; idempotent per process."""
    for name in ("modchar.cli", "modchar.verify"):
        importlib.import_module(name)
    modules = _modchar_modules()
    for span_name, (mod_name, attr) in SPANS.items():
        owner = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if getattr(getattr(raw, "__func__", raw), "traced", False):
                continue
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(_span(span_name, _with_counter(span_name, raw.__func__))))
            else:
                setattr(cls, meth, _span(span_name, _with_counter(span_name, raw)))
            continue
        original = getattr(owner, attr)
        if getattr(original, "traced", False):
            continue
        wrapped = _span(span_name, _with_counter(span_name, original))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    ff = importlib.import_module("modchar.ff")
    if not getattr(ff.FieldCtx.mul, "traced", False):
        ff.FieldCtx.mul = _field_mul_counter(ff.FieldCtx.mul)


def metrics_from(spans: dict, counts: dict) -> dict:
    """Per-layer metric values from summed span totals and counters."""
    out = {}
    for name in SPANS:
        calls, total, self_s = spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = total
        out[f"{name}.self_s"] = self_s
    out["ff.field_mul.calls"] = counts.get("ff.field_mul.calls", 0)
    out["coalg.coproduct.terms"] = counts.get("coalg.coproduct.terms", 0)
    out["dickson.polymul.term_products"] = counts.get("dickson.polymul.term_products", 0)
    inner = counts.get("chi.inner_coproduct_terms", 0)
    out["coalg.kept_ratio"] = counts.get("chi.kept_terms", 0) / inner if inner else 0.0
    return out


def add_into(total: dict, part: dict) -> None:
    """Sum one process's snapshot into a running total."""
    spans = total.setdefault("spans", {})
    for name, (calls, s, self_s) in part["spans"].items():
        cur = spans.setdefault(name, [0, 0.0, 0.0])
        cur[0] += calls
        cur[1] += s
        cur[2] += self_s
    counts = total.setdefault("counts", {})
    for name, value in part["counts"].items():
        counts[name] = counts.get(name, 0) + value
