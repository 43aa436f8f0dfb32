"""In-memory spans recorded around calls into intlab.

The benchmark never patches intlab.  It hands integrate_flow copies of
each HamiltonianSystem whose callbacks are wrapped (dataclasses.replace),
and it calls every other public entry point through an `Api` object.
The plain Api calls the functions directly; the traced Api records one
span per call: name, start, end, parent span and item id.
"""

import dataclasses
import sys

import intlab.calogero as calogero
import intlab.dynamics as dynamics
import intlab.linalg as linalg
import intlab.sutherland as sutherland

# Public entry points the workloads call, keyed by the span name they get.
ENTRY_POINTS = {
    "dynamics.integrate_flow": dynamics.integrate_flow,
    "dynamics.extract_scattering": dynamics.extract_scattering,
    "sutherland.lax_Y": sutherland.lax_Y,
    "sutherland.dual_lax_local": sutherland.dual_lax_local,
    "sutherland.dual_lax_global": sutherland.dual_lax_global,
    "sutherland.chart_gauge": sutherland.chart_gauge,
    "sutherland.family_eval": sutherland.family_eval,
    "sutherland.family_lax": sutherland.family_lax,
    "calogero.lax_LQ": calogero.lax_LQ,
    "calogero.sklyanin_coords": calogero.sklyanin_coords,
    "linalg.char_poly": linalg.char_poly,
    "linalg.hermitian_eigen": linalg.hermitian_eigen,
}

# Suffix for Hamiltonian calls made by HamiltonianSystem.energy (the energy
# audit of every stored sample), as opposed to calls from a gradient stencil.
AUDIT = ":audit"


class Api:
    """Direct calls, no tracing."""

    def __init__(self):
        for fn in ENTRY_POINTS.values():
            setattr(self, fn.__name__, fn)

    def system(self, sys_, layer, hamiltonian_name):
        return sys_

    def callback(self, name, fn):
        return fn


class Tracer(Api):
    """Records spans as tuples (name_id, start, end, parent, item).

    now() is the time source; the benchmark passes one that stands still
    while its own speed calibration runs.
    """

    def __init__(self, now):
        self.now = now
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = []
        self._item = -1
        # Hamiltonian span name -> dimension, for systems whose right-hand
        # side is the 4n-call central-difference stencil of dynamics.
        self.fd_dims = {}
        for span_name, fn in ENTRY_POINTS.items():
            setattr(self, fn.__name__, self.callback(span_name, fn))

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _leave(self, idx, nid, parent, start):
        end = self.now()
        self._stack.pop()
        self.spans[idx] = (nid, start, end, parent, self._item)

    def callback(self, name, fn):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx, parent = self._enter()
            start = self.now()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(idx, nid, parent, start)

        return traced

    def _hamiltonian(self, name, fn):
        plain = self.name_id(name)
        audit = self.name_id(name + AUDIT)

        def traced(x):
            nid = audit if sys._getframe(1).f_code.co_name == "energy" else plain
            idx, parent = self._enter()
            start = self.now()
            try:
                return fn(x)
            finally:
                self._leave(idx, nid, parent, start)

        return traced

    def system(self, sys_, layer, hamiltonian_name):
        """Copy of sys_ whose callbacks record spans."""
        if sys_.grad is None:
            self.fd_dims[hamiltonian_name] = sys_.dim
        wrapped = {"hamiltonian": self._hamiltonian(hamiltonian_name, sys_.hamiltonian)}
        for field, name in (
            ("grad", f"{layer}.grad"),
            ("domain_check", f"{layer}.domain_check"),
            ("boundary_margin", "dynamics.boundary_margin"),
        ):
            fn = getattr(sys_, field)
            if fn is not None:
                wrapped[field] = self.callback(name, fn)
        return dataclasses.replace(sys_, **wrapped)

    def item(self, item_id):
        return _ItemSpan(self, item_id)


class _ItemSpan:
    def __init__(self, tracer, item_id):
        self.tracer = tracer
        self.item_id = item_id

    def __enter__(self):
        self.tracer._item = self.item_id
        self.idx, self.parent = self.tracer._enter()
        self.start = self.tracer.now()
        return self

    def __exit__(self, *exc):
        self.tracer._leave(self.idx, self.tracer.name_id("bench.item"), self.parent, self.start)
        self.tracer._item = -1
        return False


def summarize(tracer, item_scale):
    """Per span name: calls, total seconds, and self seconds (total minus
    the time covered by direct children).  Durations are multiplied by
    item_scale[item], the item's scaled-to-wall time ratio."""
    n = len(tracer.names)
    calls = [0] * n
    total = [0.0] * n
    child = [0.0] * len(tracer.spans)
    durations = [
        (end - start) * item_scale.get(item, 1.0) for _, start, end, _, item in tracer.spans
    ]
    for (nid, _, _, parent, _), dur in zip(tracer.spans, durations):
        calls[nid] += 1
        total[nid] += dur
        if parent >= 0:
            child[parent] += dur
    self_time = [0.0] * n
    for k, ((nid, _, _, _, _), dur) in enumerate(zip(tracer.spans, durations)):
        self_time[nid] += dur - child[k]
    return {
        name: {"calls": calls[i], "total_s": total[i], "self_s": self_time[i]}
        for i, name in enumerate(tracer.names)
    }


def span_columns(tracer):
    """Spans as JSON-ready columns, for writing out after the run."""
    cols = list(zip(*tracer.spans)) if tracer.spans else [()] * 5
    return {
        "names": tracer.names,
        "name_id": list(cols[0]),
        "start": list(cols[1]),
        "end": list(cols[2]),
        "parent": list(cols[3]),
        "item": list(cols[4]),
    }
