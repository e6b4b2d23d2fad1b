"""Per-layer tracing of cliffbundle from outside the program.

``Tracer.install()`` replaces public entry points of each module with
timing wrappers.  A function is replaced in every cliffbundle module that
holds it, so calls made through ``from ... import`` bindings are recorded
too; methods are replaced on their class.  Each recorded call is a span
(id, name, start, end, parent id, operation id) on the CPU clock, kept in
memory and written out by ``dump``.  A span's self time is its length
minus the recorded spans nested in it, so self times add up to the time
spent under recorded calls.  A call nested directly in a span of the
same name is part of that span.

Scalar arithmetic and context comparisons are too fine for a span each:
Scalar operations and constructions are counted, and the context
``__eq__``/``__hash__`` calls are timed into totals without span records.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (metric name, module, attribute) of the spanned entry points; an
# attribute "Class.method" is replaced on the class.
ENTRIES = [
    ("cli.main", "cli", "main"),
    ("cli.build_parser", "cli", "build_parser"),
    ("scalars.parse", "scalars", "Field.parse"),
    ("forms.quad_of_bilinear", "forms", "quad_of_bilinear"),
    ("forms.pfaffian", "forms", "pfaffian"),
    ("forms.triangular_bilinear", "forms", "triangular_bilinear"),
    ("clifford.mul", "clifford", "CliffElt.__mul__"),
    ("clifford.deform", "clifford", "deform"),
    ("clifford.deform_apply", "clifford", "deform_apply"),
    ("clifford.twisted_mul", "clifford", "twisted_mul"),
    ("clifford.contract", "clifford", "contract"),
    ("clifford.exp_contract", "clifford", "exp_contract"),
    ("clifford.symbol", "clifford", "symbol"),
    ("clifford.quantize", "clifford", "quantize"),
    ("clifford.quotient_map", "clifford", "quotient_map"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.det", "linalg", "det"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.solve", "linalg", "solve_matrix"),
    ("linalg.mat_mul", "linalg", "mat_mul"),
    ("linalg.row_space_basis", "linalg", "row_space_basis"),
    ("tensor.deform", "tensor", "deform"),
    ("tensor.deform_apply", "tensor", "deform_apply"),
    ("tensor.contract", "tensor", "contract"),
    ("tensor.divided_power", "tensor", "divided_power"),
    ("repcheck.rho_matrix", "repcheck", "rho_matrix"),
    ("repcheck.twist_matrix", "repcheck", "twist_matrix"),
    ("repcheck.check_equivalence", "repcheck", "check_equivalence"),
    ("repcheck.invariant_probe", "repcheck", "invariant_probe"),
    ("repcheck.endo_mul", "repcheck", "EndoMatrix.__mul__"),
    ("repcheck.restrict_matrices", "repcheck", "restrict_matrices"),
    ("checks.run_check", "checks", "run_check"),
]

# cli.parse and cli.emit: the JSON boundary of every program type
PARSE_CLASSES = [("clifford", "CliffordContext"), ("clifford", "CliffElt"),
                 ("forms", "QuadraticForm"), ("forms", "BilinearForm"),
                 ("forms", "DualTwoForm"), ("tensor", "TensorElt")]
EMIT_CLASSES = PARSE_CLASSES + [("repcheck", "EndoMatrix"), ("repcheck", "ProbeReport"),
                                ("repcheck", "EquivalenceReport"), ("checks", "CheckResult")]

CONTEXT_CLASSES = [("clifford", "CliffordContext"), ("forms", "QuadraticForm"),
                   ("forms", "AlgebraContext")]

SCALAR_OPS = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
              "__eq__", "__bool__"]

MODULES = ["cli", "scalars", "forms", "linalg", "tensor", "clifford",
           "repcheck", "checks", "sampling"]

# span names reported per layer; every one gets .calls and .self_s
SPANNED = sorted({name for name, _, _ in ENTRIES} | {"cli.parse", "cli.emit"})
COUNTS = ["scalars.ops", "scalars.created", "clifford.mul.term_pairs",
          "clifford.mul.terms_out", "linalg.rref.cells", "linalg.mat_mul.madds",
          "repcheck.invariant_probe.subspaces", "checks.samples"]
AGGREGATED = ["clifford.context_compare", "sampling"]


def metric_names():
    """Every per-layer metric a trace summary reports, in a fixed order."""
    names = ["cli.import_s"]
    for span in SPANNED + AGGREGATED:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += COUNTS
    names += [f"{m}.self_s" for m in MODULES if m != "sampling"]
    return names


def _counts(name, args, result):
    """Work counters recorded at a span boundary."""
    if name == "clifford.mul":
        return {"clifford.mul.term_pairs": len(args[0].terms) * len(args[1].terms),
                "clifford.mul.terms_out": len(result.terms)}
    if name == "linalg.rref":
        rows = args[0]
        return {"linalg.rref.cells": len(rows) * (len(rows[0]) if rows else 0)}
    if name == "linalg.mat_mul":
        a, b = args
        return {"linalg.mat_mul.madds": len(a) * len(b) * len(b[0])}
    if name == "repcheck.invariant_probe":
        return {"repcheck.invariant_probe.subspaces": len(result.bases)}
    if name == "checks.run_check":
        return {"checks.samples": result.samples}
    return None


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []
        self.stack = []          # [span id, name, child time] of open spans
        self.next_id = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn, keep=True, when=None):
        tracer = self
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if (not tracer.active or (stack and stack[-1][1] == name)
                    or (when is not None and not when(args))):
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[2]
                if keep:
                    tracer.spans.append((sid, name, t0, t1,
                                         parent[0] if parent else None, tracer.op))
            extra = _counts(name, args, result)
            if extra:
                tracer.counts.update(extra)
            return result
        return wrapper

    def _counting(self, key, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.active:
                counts[key] += 1
            return fn(*args)
        return wrapper

    # ------------------------------------------------------------ install

    def install(self):
        import cliffbundle.cli  # noqa: F401  (the package loads the other modules)
        mods = {m: sys.modules[f"cliffbundle.{m}"] for m in MODULES}

        def replace_function(orig, wrapped):
            for name, mod in list(sys.modules.items()):
                if name == "cliffbundle" or name.startswith("cliffbundle."):
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)

        for name, mod, attr in ENTRIES:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name)
                when = None
                if name == "clifford.mul":
                    elt = cls
                    when = lambda args, elt=elt: isinstance(args[1], elt)  # noqa: E731
                setattr(cls, meth, self._span(name, cls.__dict__[meth], when=when))
            else:
                orig = getattr(mods[mod], attr)
                replace_function(orig, self._span(name, orig))

        for label, classes, meth in (("cli.parse", PARSE_CLASSES, "from_json"),
                                     ("cli.emit", EMIT_CLASSES, "to_json")):
            for mod, cls_name in classes:
                cls = getattr(mods[mod], cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._span(label, raw.__func__)))
                else:
                    setattr(cls, meth, self._span(label, raw))

        for mod, cls_name in CONTEXT_CLASSES:
            cls = getattr(mods[mod], cls_name)
            for meth in ("__eq__", "__hash__"):
                setattr(cls, meth, self._span("clifford.context_compare",
                                              cls.__dict__[meth], keep=False))

        scalar = mods["scalars"].Scalar
        for meth in SCALAR_OPS:
            setattr(scalar, meth, self._counting("scalars.ops", scalar.__dict__[meth]))
        scalar.__init__ = self._counting("scalars.created", scalar.__dict__["__init__"])

        sampling = mods["sampling"]
        for attr, value in list(vars(sampling).items()):
            if attr.startswith("rand_") and callable(value):
                replace_function(value, self._span("sampling", value))

    # ------------------------------------------------------------ output

    def summary(self) -> dict:
        """calls, self seconds and counts by metric name (import time apart)."""
        out = {}
        for span in SPANNED + AGGREGATED:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        out.update({k: self.counts[k] for k in COUNTS})
        for m in MODULES:
            if m != "sampling":
                out[f"{m}.self_s"] = sum(v for k, v in self.self_s.items()
                                         if k.split(".")[0] == m)
        return out

    def dump(self, path, meta: dict):
        """Write the spans as JSON lines, after one header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(meta, spans=len(self.spans),
                                     fields=["id", "name", "start", "end", "parent", "op"]))
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def merge(summaries):
    """Sum per-process summaries."""
    total = Counter()
    for s in summaries:
        total.update(s)
    return dict(total)
