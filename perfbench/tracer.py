"""Span tracer for the syzex layers, installed from outside the package.

`install()` wraps every public function of the layer modules, plus
`Matrix.mul` and `ClassRegistry.intern` on their classes.  syzex modules
import names directly (`from .linalg import rref`), so a wrapper replaces the
original in every `syzex.*` namespace that binds it, not only in the module
that defines it.

Each call records a span (name, parent span, job id, start, end) in flat
arrays, and per-name call counts and self time (span minus child spans) as
it closes.  A few wrappers also count work from their arguments or return
values (`EXTRAS`).
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("linalg", "algebra", "corpus", "rep", "homology", "extdim", "reports", "cli")

# The layer functions reported as metrics, by "<layer>.<function>".
REPORTED = (
    "linalg.rref", "linalg.kernel_basis", "linalg.solve_matrix", "linalg.mul",
    "algebra.build_algebra",
    "corpus.load_corpus",
    "rep.hom_space", "rep.is_iso", "rep.decompose", "rep.module_doc",
    "homology.projective_cover", "homology.syzygy", "homology.cosyzygy",
    "homology.ext1_space", "homology.enumerate_ext_classes",
    "homology.extension_middle", "homology.tilting_check",
    "extdim.generate_universe", "extdim.bullet", "extdim.layer",
    "extdim.syzygy_finiteness_probe", "extdim.rep_type_certificate",
    "extdim.ed_report", "extdim.ClassRegistry.intern",
    "reports.render_text", "reports.render_json",
    "cli.build_parser", "cli.run",
)


def _rref_cells(args, kwargs, out):
    m = args[0]
    return {"linalg.rref.cells": m.nrows * m.ncols}


def _mul_cells(args, kwargs, out):
    a, b = args[0], args[1]
    return {"linalg.mul.cells": a.nrows * a.ncols * b.ncols}


def _hom_unknowns(args, kwargs, out):
    m, n = args[0], args[1]
    return {"rep.hom_space.unknowns": sum(x * y for x, y in zip(m.dim, n.dim))}


def _iso_verdict(args, kwargs, out):
    return {"rep.is_iso." + {True: "true", False: "false"}.get(out, "none"): 1}


def _summands(args, kwargs, out):
    return {"rep.decompose.summands": sum(mult for _, mult in out.factors)}


def _members(args, kwargs, out):
    return {"extdim.generate_universe.members": len(out.members)}


def _interned_new(args, kwargs, out):
    return {"extdim.ClassRegistry.intern.new": int(out[1])}


EXTRAS = {
    "linalg.rref": _rref_cells,
    "linalg.mul": _mul_cells,
    "rep.hom_space": _hom_unknowns,
    "rep.is_iso": _iso_verdict,
    "rep.decompose": _summands,
    "extdim.generate_universe": _members,
    "extdim.ClassRegistry.intern": _interned_new,
}

EXTRA_NAMES = (
    "linalg.rref.cells", "linalg.mul.cells", "rep.hom_space.unknowns",
    "rep.is_iso.true", "rep.is_iso.false", "rep.is_iso.none",
    "rep.decompose.summands", "extdim.generate_universe.members",
    "extdim.ClassRegistry.intern.new",
)


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = Counter()
        self.self_s = Counter()
        self.extra = Counter()
        self.job = -1
        # one entry per span; parent is a span index or -1
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, child seconds] per open span
        self._installed = []

    def wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        extra = EXTRAS.get(name)
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.extra
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            jobs.append(self.job)
            frame = [idx, 0.0]
            stack.append(frame)
            ends.append(0.0)  # filled in when the span closes, after its children
            start = clock()
            starts.append(start)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if extra is not None:
                counts.update(extra(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap the layer functions in every syzex namespace that binds them."""
        import syzex.cli  # noqa: F401  (imports every layer)
        from syzex import extdim, linalg

        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules["syzex." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = self.wrap("%s.%s" % (layer, attr), obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "syzex" and not mod_name.startswith("syzex."):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for cls, meth, name in (
            (linalg.Matrix, "mul", "linalg.mul"),
            (extdim.ClassRegistry, "intern", "extdim.ClassRegistry.intern"),
        ):
            orig = cls.__dict__[meth]
            self._installed.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    def metrics(self) -> dict:
        """name -> (value, unit) for every reported function and extra."""
        out = {}
        layer_self = Counter()
        for name, secs in self.self_s.items():
            layer_self[name.split(".", 1)[0]] += secs
        for name in REPORTED:
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".self_s"] = (float(self.self_s[name]), "s")
        for name in EXTRA_NAMES:
            out[name] = (self.extra[name], "count")
        for layer in LAYERS:
            out[layer + ".self_s"] = (float(layer_self[layer]), "s")
        out["trace.spans"] = (len(self.span_start), "count")
        return out

    def dump(self, path):
        """Write the spans: a JSON header line, then the five raw arrays."""
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "spans": len(self.span_start),
                "arrays": ["name:i", "parent:q", "job:i", "start:d", "end:d"],
            }
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_job,
                        self.span_start, self.span_end):
                arr.tofile(fh)
