"""In-memory span tracer for the benchmark's traced run.

The tracer replaces every public function of the ``dgpuq`` modules (the
names in each module's ``__all__``) with a timing wrapper, in every module
of the package that binds it, so calls made through ``from .x import f``
are seen as well.  Nested calls become child spans of the call that made
them; the stage the benchmark is running is the root span.  Spans stay in
memory until the run ends.  Nothing under ``src/`` is modified on disk, and
:meth:`Tracer.uninstall` restores every original binding.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import pkgutil
import time

import numpy as np


def package_modules():
    """The package itself followed by each of its modules, imported."""
    pkg = importlib.import_module("dgpuq")
    return [pkg] + [importlib.import_module(f"dgpuq.{info.name}")
                    for info in pkgutil.iter_modules(pkg.__path__)]


class Span:
    __slots__ = ("id", "parent", "root", "name", "caller", "t0", "t1", "info")

    def __init__(self, id, parent, root, name, caller, t0):
        self.id, self.parent, self.root = id, parent, root
        self.name, self.caller, self.t0 = name, caller, t0
        self.t1 = None
        self.info = None

    @property
    def duration(self):
        return self.t1 - self.t0


class Tracer:
    """Collects spans; ``install`` wraps the package, ``stage`` opens a root."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name, caller):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), None if parent is None else parent.id,
                    None if parent is None else parent.root, name, caller,
                    time.perf_counter())
        if parent is None:
            span.root = span.id
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.t1 = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def stage(self, name):
        """Root span around one CLI stage or one direct library call."""
        span = self._open(name, None)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrapping -------------------------------------------------------------

    def _wrapper(self, fn, name, caller):
        annotate = _ANNOTATORS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name, caller)
            try:
                if annotate is not None:
                    return annotate(span, fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        modules = package_modules()
        for mod in modules[1:]:
            short = mod.__name__.split(".")[-1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                for binder in modules:
                    if binder.__dict__.get(attr) is fn:
                        caller = binder.__name__.split(".")[-1]
                        wrapped = self._wrapper(fn, f"{short}.{attr}", caller)
                        self._patches.append((binder, attr, fn))
                        setattr(binder, attr, wrapped)
        return self

    def uninstall(self):
        for binder, attr, fn in reversed(self._patches):
            setattr(binder, attr, fn)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        child = np.zeros(len(self.spans))
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return np.array([s.duration for s in self.spans]) - child

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "root": s.root,
                    "name": s.name, "caller": s.caller, "start": s.t0,
                    "end": s.t1, "self_s": float(self_s), "info": s.info,
                }) + "\n")


# Counts recorded at the boundary of particular functions.

def _annotate_ascend(span, fn, args, kwargs):
    counts = {"value_evals": 0, "grad_evals": 0}
    value_and_grad = args[0]

    def counted(x, need_grad=True):
        counts["grad_evals" if need_grad else "value_evals"] += 1
        return value_and_grad(x, need_grad)

    x, trace = fn(counted, *args[1:], **kwargs)
    counts["accepted"] = len(trace) - 1
    span.info = counts
    return x, trace


def _annotate_chol_psd(span, fn, args, kwargs):
    L, jitter = fn(*args, **kwargs)
    span.info = {"jitter": float(jitter)}
    return L, jitter


def _annotate_write_matrix(span, fn, args, kwargs):
    out = fn(*args, **kwargs)
    arr = args[1] if len(args) > 1 else kwargs["arr"]
    span.info = {"bytes": int(np.size(arr)) * 8}
    return out


_ANNOTATORS = {
    "optimize.ascend": _annotate_ascend,
    "kernels.chol_psd": _annotate_chol_psd,
    "io.write_matrix": _annotate_write_matrix,
}
