"""Per-layer spans and counts for the traced benchmark run.

The package is instrumented from outside: :meth:`Tracer.install` wraps public
functions of the h2mor modules and rebinds each wrapper in every h2mor
namespace that holds the original, so calls between modules are seen too.
A span is ``[name, start, end, parent]``; spans are kept in memory and
written out when the run ends.  Counts are taken at the same boundaries and
only for calls that return.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.full_n = None      # order of the model the current job reduces
        self._stack = []
        self._undo = []

    # -- recording ------------------------------------------------------------

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def wrap(self, fn, label, after=None):
        """``fn`` recorded as a span; ``label`` is a name or a function of the call."""
        def wrapper(*args, **kwargs):
            name = label(*args, **kwargs) if callable(label) else label
            with self.span(name):
                out = fn(*args, **kwargs)
            self.counts[name] += 1
            if after is not None:
                after(out, *args, **kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- instrumentation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self):
        # The package attributes h2mor.irka and h2mor.cirka are the functions,
        # so the modules are taken from sys.modules.
        mods = {name: m for name, m in sys.modules.items()
                if name == "h2mor" or name.startswith("h2mor.")}
        linalg, model = mods["h2mor.linalg"], mods["h2mor.model"]
        irka_mod, cirka_mod = mods["h2mor.irka"], mods["h2mor.cirka"]
        interp, metrics, mmio = (mods["h2mor.interpolation"], mods["h2mor.metrics"],
                                 mods["h2mor.mmio"])

        # splu gets one wrapper per module: linalg's factorizations are the
        # ones CostCounters counts, model's (eval_transfer) are not.
        self._set(linalg, "splu", self.wrap(linalg.splu, self._lu_label, self._after_lu))
        self._set(model, "splu", self.wrap(model.splu, "model.eval_lu"))
        self._set(linalg.ShiftedSolver, "solve",
                  self.wrap(linalg.ShiftedSolver.solve, self._solve_label))
        self._set(interp.InterpolationData, "perturbed",
                  self.wrap(interp.InterpolationData.perturbed, "interpolation.shift_retry"))

        functions = [
            (linalg.generalized_eig, "linalg.eig", None),
            (linalg.orthonormalize_real, "linalg.qr", self._after_qr),
            (linalg.solve_generalized_lyapunov, "linalg.lyap", None),
            (linalg.stable_part, "linalg.stable_part", None),
            (model.make_model, "model.make_model", None),
            (model.project, "model.project", None),
            (model.pole_residue, "model.pole_residue", None),
            (interp.hermite_reduce, "interpolation.hermite_reduce", None),
            (interp.primitive_basis, "interpolation.primitive_basis", None),
            (irka_mod.irka, self._irka_label, self._after_irka),
            (irka_mod.update_interpolation_data, "irka.update", None),
            (cirka_mod.cirka, "cirka.cirka", None),
            (cirka_mod.init_model_function, "cirka.mf_update", None),
            (cirka_mod.update_model_function, "cirka.mf_update", None),
            (cirka_mod.verify_h2_optimality, "cirka.verify", None),
            (cirka_mod.estimate_error, "cirka.estimate", None),
            (metrics.h2_error, self._h2_error_label, None),
            (mmio.load_matrix_market, "mmio.read", self._after_read),
        ]
        for original, label, after in functions:
            self._rebind_everywhere(mods.values(), original, self.wrap(original, label, after))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _lu_label(self, M, *args, **kwargs):
        return "linalg.lu_full" if M.shape[0] == self.full_n else "linalg.lu_small"

    def _after_lu(self, lu, M, *args, **kwargs):
        # ShiftedSolver casts every shifted matrix to complex; a zero imaginary
        # part means the shift was real.
        if M.shape[0] == self.full_n and not np.any(M.data.imag):
            self.counts["linalg.lu_full_real"] += 1

    def _solve_label(self, solver, *args, **kwargs):
        return "linalg.solve_full" if solver.model.n == self.full_n else "linalg.solve_small"

    def _after_qr(self, Q, Vprim, *args, **kwargs):
        self.counts["linalg.qr_cols_dropped"] += np.shape(Vprim)[1] - Q.shape[1]

    def _irka_label(self, *args, **kwargs):
        return "cirka.inner" if self.parent_name() == "cirka.cirka" else "irka.irka"

    def _after_irka(self, result, *args, **kwargs):
        self.counts["irka.unconverged_runs"] += not result.converged
        self.counts["irka.reflected_n"] += len(result.reflected_iterations)

    def _h2_error_label(self, *args, **kwargs):
        # estimate_error calls h2_error on the surrogate; only the oracle's
        # calls are the metrics layer's own time.
        return "metrics.h2_error" if self.parent_name() == "job.oracle" else "cirka.estimate_h2"

    def _after_read(self, matrix, path, *args, **kwargs):
        self.counts["mmio.bytes_read"] += os.path.getsize(path)

    # -- analysis ---------------------------------------------------------------

    def times(self, lo, hi):
        """Self and inclusive seconds per span name over ``spans[lo:hi]``.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it because the run is single-threaded.
        """
        child = defaultdict(float)
        for _, t0, t1, parent in self.spans[lo:hi]:
            if parent >= lo:
                child[parent] += t1 - t0
        self_s, incl_s = defaultdict(float), defaultdict(float)
        for i in range(lo, hi):
            name, t0, t1, _ = self.spans[i]
            self_s[name] += t1 - t0 - child[i]
            incl_s[name] += t1 - t0
        return self_s, incl_s

    def write(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")
