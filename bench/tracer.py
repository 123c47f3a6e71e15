"""Span tracing around the package's public functions, from outside.

``Tracer.install`` wraps each target function and rebinds every module
attribute of the ``tcat`` package that refers to it, so calls through
``E.tensor``, ``from .center import ...`` names and the package's own
re-exports all pass through the wrapper.  NumPy's linear-algebra entry
points are rebound on ``numpy.linalg`` only, which counts the calls the
package makes and not the ones NumPy makes internally (``matrix_rank``,
``cond``).  ``uninstall`` restores every original binding.

Each wrapped call appends one span ``(name, start, end, parent)``; spans
stay in memory until ``take`` folds them into per-name call counts
and self times (a span's duration minus the durations of its children).
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

#: (module, function) pairs wrapped inside the package.
TCAT_TARGETS = [
    ("category", "loads_category"), ("category", "validate"),
    ("modularity", "s_matrix"), ("modularity", "muger_center"),
    ("center", "tube_algebra"), ("center", "center_simples"),
    ("center", "center_hom_dim"), ("center", "coupling_gamma"),
    ("center", "transform_d"), ("center", "transform_q"),
    ("center", "transform_b"), ("center", "transform_p"),
    ("center", "verify_center_object"), ("center", "invertibility_report"),
    ("engine", "tensor"), ("engine", "compose"), ("engine", "braiding"),
    ("engine", "cup_cap"), ("engine", "omega_loop"),
    ("engine", "quantum_trace"), ("engine", "hom_basis"),
    ("engine", "identity"),
    ("deligne", "deligne_compose"), ("deligne", "pair_morphism"),
]

#: functions wrapped on ``numpy.linalg``.
LINALG_TARGETS = ["svd", "eig", "lstsq", "inv"]


class Tracer:
    def __init__(self):
        self.spans = []
        self.max_svd_bytes = 0
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
        return traced

    def _wrap_svd(self, fn):
        traced = self._wrap("linalg.svd", fn)

        @functools.wraps(fn)
        def svd(a, *args, **kwargs):
            self.max_svd_bytes = max(self.max_svd_bytes, getattr(a, "nbytes", 0))
            return traced(a, *args, **kwargs)
        return svd

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "tcat" or name.startswith("tcat.")]
        for mod_name, attr in TCAT_TARGETS:
            orig = getattr(sys.modules["tcat." + mod_name], attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, orig))
        for attr in LINALG_TARGETS:
            orig = getattr(np.linalg, attr)
            wrapped = (self._wrap_svd(orig) if attr == "svd"
                       else self._wrap(f"linalg.{attr}", orig))
            setattr(np.linalg, attr, wrapped)
            self._restore.append((np.linalg, attr, orig))

    def uninstall(self):
        for m, key, orig in reversed(self._restore):
            setattr(m, key, orig)
        self._restore.clear()

    def take(self) -> tuple:
        """Fold and clear the recorded spans.

        Returns ``({name: [calls, self seconds]}, largest svd operand in
        bytes)`` for the calls made since the previous ``take``.
        """
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += (end - start) - child[idx]
        max_svd = self.max_svd_bytes
        self.spans.clear()
        self.max_svd_bytes = 0
        return out, max_svd
