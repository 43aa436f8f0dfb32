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
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import AUDIT, Api, Tracer  # noqa: E402
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


# The flow workloads: the layer of their gradient, the span name of their
# Hamiltonian, and the flows among an item's outputs.
FLOWS = [
    pytest.param(
        "direct-flow", "sutherland", "sutherland.hamiltonian", lambda traj: [traj], id="direct-flow"
    ),
    pytest.param(
        "dual-flow", "sutherland", "sutherland.dual_hamiltonian", lambda traj: [traj], id="dual-flow"
    ),
    # an item's output starts with the forward and the backward flow
    pytest.param(
        "cm-scattering", "calogero", "calogero.hamiltonian", lambda out: out[:2], id="cm-scattering"
    ),
]


def traced_slot_zero(name):
    """The traced Api and the outputs of slot 0 of a workload run through it."""
    workload = WORKLOADS[name]
    rng = np.random.default_rng([0, sorted(WORKLOADS).index(name)])
    api = traced_api()
    ctx = workload.context(api)
    return api, workload.run(ctx, workload.make_inputs(rng)[0])


@pytest.mark.parametrize("name, layer, hamiltonian, flows", FLOWS)
def test_traced_flow_counts_every_gradient(name, layer, hamiltonian, flows):
    api, out = traced_slot_zero(name)
    grad = api.names.index(f"{layer}.grad")
    spans = sum(1 for span in api.spans if span[0] == grad)
    assert spans == sum(traj.diagnostics["nfev"] for traj in flows(out)) > 0


@pytest.mark.parametrize("name, layer, hamiltonian, flows", FLOWS)
def test_traced_flow_audits_its_samples_in_one_call(name, layer, hamiltonian, flows):
    # per completed flow: two energy calls, x0's check and the block of
    # samples, and no other Hamiltonian call; accepted + 3 margin calls, for
    # x0's check, the start of the steps, each accepted step and the block
    api, out = traced_slot_zero(name)
    counts = Counter(api.names[span[0]] for span in api.spans)
    trajs = flows(out)
    assert all(traj.status == "completed" for traj in trajs)
    assert counts[hamiltonian + AUDIT] == 2 * len(trajs)
    assert counts[hamiltonian] == 0
    margins = sum(traj.diagnostics["accepted"] + 3 for traj in trajs)
    assert counts["dynamics.boundary_margin"] == margins
