"""Per-module tracing of the bosefredholm package from outside the package.

The tracer replaces every public function of the package at every module
attribute that refers to it (modules import names with ``from ... import``,
so ``kernels.pv_fresnel_hilbert`` and ``special_integrals.pv_fresnel_hilbert``
are separate references), plus the public methods of the package's classes.
A module's time is attributed by a stack of frames: a frame's self time is
its duration minus the time of the wrapped frames it called.

Only calls that cross into a module from another module (or from the
benchmark) open a frame; a call inside the same module runs unwrapped,
because its time belongs to that module either way.  The exceptions are the
functions in ``TRACKED``, which always open a frame because the benchmark
reports their own counts or inclusive times.

The first ``SPAN_CAP`` frames of a function within one item are recorded as
spans (name, start, end, parent, item); further calls of that function in
the item only update the counters, so the hot scalar boundaries cost a
counter each, not a span each.  Spans stay in memory until ``write_spans``.
"""

import functools
import json
import math
import time
import types

import numpy as np

MODULES = ("special_integrals", "kernels", "fredholm", "correlators",
           "nls_system", "bethe_oracle", "validate", "cli")

TRACKED = frozenset((
    "nls_system.build_b",
    "nls_system.build_E_vectors",
    "nls_system.build_M_operator",
    "nls_system.build_Q",
    "special_integrals.graded_line_grid",
    "bethe_oracle.finite_L_correlation",
))

# dense O(n^3) linear algebra, counted as fredholm.factorizations while a
# fredholm frame is open: numpy.linalg functions, and the scipy.linalg
# names that fredholm imports (lu_solve is O(n^2) and not counted)
LAPACK_NUMPY = ("slogdet", "det", "cond", "svd", "solve", "inv")
LAPACK_SCIPY = ("lu_factor", "solve", "det", "inv", "svd")

SPAN_CAP = 64


def _size(args, kwargs):
    """Number of elements of the broadcast array arguments of a call."""
    shapes = [a.shape for a in (*args, *kwargs.values())
              if isinstance(a, np.ndarray) and a.ndim]
    if not shapes:
        return 1
    if len(shapes) == 1:
        return math.prod(shapes[0])
    try:
        return math.prod(np.broadcast_shapes(*shapes))
    except ValueError:
        return max(math.prod(s) for s in shapes)


class Tracer:
    """Counters, self times and spans of the package modules."""

    def __init__(self):
        self.active = False
        self.stack = []              # frames: [module, name, start, child_s, span_id]
        self.fredholm_open = 0
        self.calls = {m: 0 for m in MODULES}
        self.errors = {m: 0 for m in MODULES}
        self.self_s = {m: 0.0 for m in MODULES}
        self.points = {m: 0 for m in MODULES}
        self.inclusive_s = {}
        self.e_vectors_in_m_s = 0.0
        self.factorizations = 0
        self.build_b_calls = 0
        self.line_nodes = 0
        self.states = 0
        self.spans = []
        self.item = -1
        self.item_s = 0.0
        self._span_counts = {}
        self._next_span = 0
        self._item_span = None
        self._installed = []

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap the public functions of every package module in place."""
        modules = {m: getattr(package, m) for m in MODULES}
        wrappers = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if owner not in self.calls:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, owner, f"{owner}.{obj.__name__}")
                self._replace(mod, attr, obj, wrappers[obj])
            for cls in vars(mod).values():
                if isinstance(cls, type) and cls.__module__ == mod.__name__:
                    self._wrap_methods(cls, mod.__name__.rpartition(".")[2])
        for name in LAPACK_NUMPY:
            self._replace(np.linalg, name, getattr(np.linalg, name),
                          self._wrap_lapack(getattr(np.linalg, name)))
        fred = modules["fredholm"]
        for name in LAPACK_SCIPY:
            if name in vars(fred):
                self._replace(fred, name, getattr(fred, name),
                              self._wrap_lapack(getattr(fred, name)))

    def _wrap_methods(self, cls, owner):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, classmethod):
                fn = obj.__func__
                wrapped = classmethod(self._wrap(fn, owner, f"{owner}.{cls.__name__}.{attr}"))
            elif isinstance(obj, types.FunctionType):
                wrapped = self._wrap(obj, owner, f"{owner}.{cls.__name__}.{attr}")
            else:
                continue
            self._replace(cls, attr, obj, wrapped)

    def _replace(self, holder, attr, old, new):
        setattr(holder, attr, new)
        self._installed.append((holder, attr, old))

    def uninstall(self):
        for holder, attr, old in reversed(self._installed):
            setattr(holder, attr, old)
        self._installed.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, owner, name):
        tracer = self
        tracked = name in TRACKED
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not tracer.active or (stack and stack[-1][0] == owner and not tracked):
                return fn(*args, **kwargs)
            entering = not stack or stack[-1][0] != owner
            if entering:
                tracer.calls[owner] += 1
                tracer.points[owner] += _size(args, kwargs)
            frame = [owner, name, 0.0, 0.0, tracer._open_span(name)]
            stack.append(frame)
            if owner == "fredholm":
                tracer.fredholm_open += 1
            frame[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if entering:
                    tracer.errors[owner] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                if owner == "fredholm":
                    tracer.fredholm_open -= 1
                dur = end - start
                tracer.self_s[owner] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                if frame[4] is not None:
                    tracer.spans.append((tracer.item, frame[4],
                                         tracer._parent_span(), name, start, end))
                if tracked:
                    tracer._account(name, dur)
            if tracked:
                tracer._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _wrap_lapack(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active and tracer.fredholm_open:
                tracer.factorizations += 1
            return fn(*args, **kwargs)

        return wrapper

    def _open_span(self, name):
        count = self._span_counts.get(name, 0)
        self._span_counts[name] = count + 1
        if count >= SPAN_CAP:
            return None
        self._next_span += 1
        return self._next_span

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[4] is not None:
                return frame[4]
        return self._item_span

    def _account(self, name, dur):
        self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + dur
        if name == "nls_system.build_E_vectors" and any(
                f[1] == "nls_system.build_M_operator" for f in self.stack):
            self.e_vectors_in_m_s += dur

    def _observe(self, name, args, kwargs, result):
        if name == "nls_system.build_b":
            self.build_b_calls += 1
        elif name == "special_integrals.graded_line_grid":
            self.line_nodes += len(result[0])
        elif name == "bethe_oracle.finite_L_correlation":
            self.states += _finite_box_states(*args, **kwargs)

    # -- items ------------------------------------------------------------

    def begin_item(self, label):
        self.item += 1
        self._span_counts = {}
        self._next_span += 1
        self._item_span = self._next_span
        self._item_label = label
        self._item_start = time.perf_counter()
        self.active = True

    def end_item(self):
        self.active = False
        end = time.perf_counter()
        self.item_s += end - self._item_start
        self.spans.append((self.item, self._item_span, None, f"item:{self._item_label}",
                           self._item_start, end))

    # -- output -----------------------------------------------------------

    def metrics(self, items):
        """Per-item counters and self times of every module.  Dividing once
        keeps a count per item bit-identical for any number of whole cycles."""
        out = {}
        for m in MODULES:
            out[f"{m}.calls"] = self.calls[m] / items
            out[f"{m}.self_s"] = self.self_s[m] / items
            out[f"{m}.errors"] = self.errors[m] / items
        out["special_integrals.points"] = self.points["special_integrals"] / items
        out["kernels.entries"] = self.points["kernels"] / items
        out["fredholm.factorizations"] = self.factorizations / items
        incl = self.inclusive_s
        out["nls_system.build_b_calls"] = self.build_b_calls / items
        out["nls_system.line_nodes"] = self.line_nodes / items
        out["nls_system.e_vectors_s"] = incl.get("nls_system.build_E_vectors", 0.0) / items
        out["nls_system.m_operator_s"] = (incl.get("nls_system.build_M_operator", 0.0)
                                          - self.e_vectors_in_m_s) / items
        out["nls_system.q_s"] = incl.get("nls_system.build_Q", 0.0) / items
        out["bethe_oracle.states"] = self.states / items
        out["traced.item_s"] = self.item_s / items
        out["bench.self_s"] = (self.item_s - sum(self.self_s.values())) / items
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for item, span, parent, name, start, end in self.spans:
                fh.write(json.dumps({"item": item, "span": span, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def _finite_box_states(system, x1, x2, t, lam_max, *args, **kwargs):
    """Intermediate states enumerated by bethe_oracle.finite_L_correlation."""
    base = 0 if system.kind.eps > 0 else 1
    modes = int(lam_max * system.L / math.pi) - base + 1
    return math.comb(max(modes, 0), system.N + 1)
