"""Span tracing of eqcohom's layers from outside the package.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span around the call.  Functions are replaced at every
module binding that holds them, because several modules bind their
imports with ``from .linalg import ...``: a wrapper installed only in the
defining module would lose those calls into the caller's span.

A layer's self time is its spans' durations minus the time covered by
their child spans.  A call into a layer from inside the same layer opens
no new span, so recursion and internal helpers stay in one span.  Each
operation is a root span; its self time, time spent outside every traced
layer, is reported as ``trace.unattributed_s``.
"""

import functools
import sys
import time

# layer name -> public callables, as (module, attribute) or (module, class, method)
LAYERS = {
    "linalg.rank_q": [("eqcohom.linalg", "rank_q")],
    "linalg.reduce_complex": [("eqcohom.linalg", "reduce_complex")],
    "linalg.snf": [("eqcohom.linalg", "smith_normal_form"),
                   ("eqcohom.linalg", "kernel_basis"),
                   ("eqcohom.linalg", "solve_int")],
    "linalg.dense_q": [("eqcohom.linalg", name) for name in
                       ("q_rank", "q_nullspace", "q_rref", "q_solve", "q_inverse")],
    "linalg.cohomology_at": [("eqcohom.linalg", "cohomology_at")],
    "simplicial.bar_levels": [("eqcohom.simplicial", "BarLevels", "__init__")],
    "simplicial.verify_identities": [
        ("eqcohom.simplicial", "BarLevels", "verify_simplicial_identities")],
    "simplicial.cochain_matrices": [("eqcohom.simplicial", "BarLevels", "vertical_matrix"),
                                    ("eqcohom.simplicial", "BarLevels", "horizontal_matrix")],
    "simplicial.total_window": [("eqcohom.simplicial", "total_window")],
    "simplicial.equivariant_cohomology": [("eqcohom.simplicial", "equivariant_cohomology")],
    "complexes.cohomology": [("eqcohom.complexes", "IntCochainComplex", "cohomology"),
                             ("eqcohom.complexes", "IntCochainComplex", "cohomology_q_dim")],
    "complexes.bockstein": [("eqcohom.complexes", name) for name in
                            ("bockstein_image_matches_torsion", "bockstein_image",
                             "bockstein_apply", "qz_torsion_cocycles")],
    "deligne.hexagon": [("eqcohom.deligne", "hexagon")],
    "deligne.diffcoh": [("eqcohom.deligne", "differential_cohomology_zero_dim")],
    "deligne.build_mixed": [("eqcohom.deligne", "build_deligne_mixed")],
    "deligne.mixed_validate": [("eqcohom.deligne", "MixedComplex", "validate")],
    "deligne.mixed_cohomology": [("eqcohom.deligne", "MixedComplex", "cohomology")],
    "cartan.truncated": [("eqcohom.cartan", "cartan_cohomology_truncated")],
    "cartan.cartan_d": [("eqcohom.cartan", "cartan_d")],
    "chern.transgression": [("eqcohom.chern", "transgression")],
    "chern.whitney": [("eqcohom.chern", "whitney_check")],
    "chern.char_form": [("eqcohom.chern", "equivariant_characteristic_form")],
}


SUMS = ("linalg.rank_q.nnz_in", "linalg.reduce_complex.cells_in",
        "linalg.reduce_complex.cells_out", "simplicial.verify_identities.tuples",
        "simplicial.cochain_matrices.nnz", "simplicial.total_window.cells")


def _sizes(layer, args, result):
    """Sizes recorded at the layer boundary and added up over calls."""
    if layer == "linalg.rank_q":
        return {"nnz_in": len(args[0].entries)}
    if layer == "linalg.reduce_complex":
        return {"cells_in": sum(args[0]), "cells_out": sum(result.ranks)}
    if layer == "simplicial.verify_identities":
        return {"tuples": sum(args[0].tuple_counts)}
    if layer == "simplicial.cochain_matrices":
        return {"nnz": len(result.entries)}
    if layer == "simplicial.total_window":
        return {"cells": sum(result[0].values())}
    return {}


class Tracer:
    """Spans kept in memory; per-layer totals accumulated as spans close."""

    def __init__(self):
        self.enabled = False
        self.spans = []          # (op, layer, start, end, parent span index or -1)
        self._stack = []         # open spans: [layer, start, child time, span index]
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.sums = {key: 0 for key in SUMS}
        self.largest_rank_q = (0, 0, 0)  # (nnz, rows, cols) of the call with most nonzeros
        self.unattributed_s = 0.0
        self.routes = {"direct": 0, "structural": 0}
        self.builds_in_hexagon = 0
        self._op = -1
        self._installed = []

    # -- installation

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "eqcohom" or name.startswith("eqcohom.")
                                         or name == "workloads")]
        for layer, targets in LAYERS.items():
            for target in targets:
                owner = sys.modules[target[0]]
                if len(target) == 3:
                    cls = getattr(owner, target[1])
                    original = cls.__dict__[target[2]]
                    self._replace(cls, target[2], original, self._wrap(layer, original))
                    continue
                original = getattr(owner, target[1])
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, attr, original, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    def _replace(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._installed.append((holder, attr, original))

    def _wrap(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not tracer.enabled or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            if layer == "deligne.diffcoh":
                builds = tracer.calls["deligne.build_mixed"]
            elif layer == "simplicial.bar_levels" and any(
                    frame[0] == "deligne.hexagon" for frame in stack):
                tracer.builds_in_hexagon += 1
            tracer.calls[layer] += 1
            tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            for name, value in _sizes(layer, args, result).items():
                tracer.sums[f"{layer}.{name}"] += value
            if layer == "linalg.rank_q":
                a = args[0]
                tracer.largest_rank_q = max(tracer.largest_rank_q,
                                            (len(a.entries), a.rows, a.cols))
            elif layer == "deligne.diffcoh":
                direct = tracer.calls["deligne.build_mixed"] > builds
                tracer.routes["direct" if direct else "structural"] += 1
            return result
        return wrapper

    # -- spans

    def _open(self, layer):
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((self._op, layer, time.perf_counter(), None, parent))
        self._stack.append([layer, self.spans[-1][2], 0.0, len(self.spans) - 1])

    def _close(self):
        end = time.perf_counter()
        layer, start, child, index = self._stack.pop()
        duration = end - start
        op, _, _, _, parent = self.spans[index]
        self.spans[index] = (op, layer, start, end, parent)
        if self._stack:
            self._stack[-1][2] += duration
        if layer is None:
            self.unattributed_s += duration - child
        else:
            self.self_s[layer] += duration - child

    # -- totals

    def report(self, n_ops):
        """Per-layer metrics of the traced operations, by BENCHMARK.json name."""
        wall = sum(end - start for _, layer, start, end, _ in self.spans if layer is None)
        closure = sum(self.self_s.values()) + self.unattributed_s
        if abs(closure - wall) > 1e-6 * max(wall, 1.0):
            raise ValueError(f"trace does not close: layer self times + unattributed = "
                             f"{closure}, traced wall = {wall}")
        out = {"trace.wall_s": wall, "trace.unattributed_s": self.unattributed_s,
               "trace.unattributed_frac": self.unattributed_s / wall if wall else 0.0}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out.update(self.sums)
        nnz, rows, cols = self.largest_rank_q
        out.update({"linalg.rank_q.max_nnz": nnz, "linalg.rank_q.max_rows": rows,
                    "linalg.rank_q.max_cols": cols})
        cells_in = self.sums["linalg.reduce_complex.cells_in"]
        out["linalg.reduce_complex.kept_frac"] = (
            self.sums["linalg.reduce_complex.cells_out"] / cells_in if cells_in else 0.0)
        builds = out.pop("simplicial.bar_levels.calls")
        hexagons = self.calls["deligne.hexagon"]
        out["simplicial.bar_levels.builds"] = builds
        out["simplicial.bar_levels.builds_per_op"] = builds / n_ops
        out["simplicial.bar_levels.builds_per_hexagon"] = (
            self.builds_in_hexagon / hexagons if hexagons else 0.0)
        out["deligne.route_direct"] = self.routes["direct"]
        out["deligne.route_structural"] = self.routes["structural"]
        return out

    def run_op(self, op_index, fn):
        """Run one operation as a root span and return its result."""
        self._op = op_index
        self.enabled = True
        self._open(None)
        try:
            return fn()
        finally:
            self._close()
            self.enabled = False
