"""The benchmark's call surface: one item of each perfbench workload.

perfbench/ calls intlab's public entry points by name and reads fields of
what they return (for instance `dual_lax_global(z).lax`).  A change there
breaks the benchmark without failing a unit test, so this runs slot 0 of
every workload (seed 0, the generator perfbench/run.py builds) through the
untraced Api and through the traced one, and requires every gated residual
to pass.  The traced Api wraps the HamiltonianSystem callbacks (grad,
domain_check, boundary_margin) with dataclasses.replace, so a change to
those fields breaks only the traced run.  The traced flows must also call
the wrapped gradient once per right-hand side: a flow routed around the
grad field would zero the benchmark's dynamics.rhs_evals without failing.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import Api, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_api():
    return Tracer(time.perf_counter)


@pytest.mark.parametrize(
    "name, make_api",
    [pytest.param(name, Api, id=name) for name in sorted(WORKLOADS)]
    + [pytest.param(name, traced_api, id=f"{name}-traced") for name in sorted(WORKLOADS)],
)
def test_slot_zero_passes_its_checks(name, make_api):
    workload = WORKLOADS[name]
    rng = np.random.default_rng([0, sorted(WORKLOADS).index(name)])
    api = make_api()
    ctx = workload.context(api)
    inp = workload.make_inputs(rng)[0]
    out = workload.run(ctx, inp)
    for label, err, tol in workload.check(ctx, inp, out):
        assert np.isfinite(err), label
        if tol is not None:
            assert err <= tol, (label, err, tol)
    if isinstance(api, Tracer):
        assert api.spans and None not in api.spans  # every span was closed


@pytest.mark.parametrize(
    "name, layer, flows",
    [
        pytest.param("direct-flow", "sutherland", lambda traj: [traj], id="direct-flow"),
        pytest.param("dual-flow", "sutherland", lambda traj: [traj], id="dual-flow"),
        # an item's output starts with the forward and the backward flow
        pytest.param("cm-scattering", "calogero", lambda out: out[:2], id="cm-scattering"),
    ],
)
def test_traced_flow_counts_every_gradient(name, layer, flows):
    workload = WORKLOADS[name]
    rng = np.random.default_rng([0, sorted(WORKLOADS).index(name)])
    api = traced_api()
    ctx = workload.context(api)
    out = workload.run(ctx, workload.make_inputs(rng)[0])
    grad = api.names.index(f"{layer}.grad")
    spans = sum(1 for span in api.spans if span[0] == grad)
    assert spans == sum(traj.diagnostics["nfev"] for traj in flows(out)) > 0
