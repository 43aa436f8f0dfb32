"""Contract: a bad number at a public entry point raises a typed intlab error.

Every public callable of dynamics, linalg, calogero and sutherland is listed
in TABLE, with one call per float argument, or in EXEMPT, with the reason it
has nothing to check.  Each call is tried with nan, inf and -inf in that
argument, and the scalar couplings also at 1e200, whose square overflows;
mu also at 1e-200, whose square underflows to 0 where the product-form
energies divide by it.  Anything but an IntlabError fails, and the project's
warning filter turns a leaked numpy RuntimeWarning into an error too.  Huge
state magnitudes are tried where a square, a sum of squares or a product
overflows: the momenta of sutherland_H, calogero.hamiltonian and
integrate_flow's start (a pair system's energy) at p = 1e200,
hermitian_eigen's matrix, whose norm overflows there, moser_B's positions
and the lam of dual_h_matrix, family_lax and family_eval at 1e200, and
acd_functions at z = +-1e200.  Other entry points at huge states are
outside the contract so far.
"""

import numpy as np
import pytest

from intlab import calogero, dynamics, linalg, sutherland
from intlab.calogero import RatCMPoint
from intlab.dynamics import PhasePoint, Trajectory
from intlab.errors import IntlabError
from intlab.sutherland import BCnCouplings, DualPoint, SutherlandPoint

NON_FINITE = (np.nan, np.inf, -np.inf)
HUGE = 1e200
TINY = 1e-200


def put(values, v, k=0):
    """values as a list with entry k replaced by v."""
    out = list(values)
    out[k] = v
    return out


# An argument is (valid value, {label: (spoil, extra)}): spoil(v) is the
# argument with the bad number v in it, and extra lists the finite values that
# must break it too: 1e200 for a scalar coupling or a state whose energy, norm
# or products overflow, and 1e-200 for mu.
def vec(values, name):
    return values, {name: (lambda v: put(values, v), ())}


def scalar(value, name, coupling=False):
    return value, {name: (lambda v: v, (HUGE,) if coupling else ())}


def fixed(value):
    return value, {}


def also(arg, values, *labels):
    """arg with its labels also tried at the finite values."""
    value, spoilers = arg
    return value, {
        k: (spoil, extra + values if k in labels else extra) for k, (spoil, extra) in spoilers.items()
    }


def huge(arg, *labels):
    """arg with its labels also tried at 1e200."""
    return also(arg, (HUGE,), *labels)


Q, P, G = [0.9, -0.2], [0.4, 0.1], 1.0  # rational CM, ordered
SQ, SP = [1.0, 0.4], [0.3, -0.2]  # inside the alcove
LAM, THETA = [3.5, 1.2], [0.3, -0.1]  # inside the dual chamber of COUP
Z = [0.5 + 0.1j, 0.3j]
COUP = (0.8, 0.7, 0.25)
C = BCnCouplings(*COUP)

CM_X = RatCMPoint(Q, P, G), {
    "x.q": (lambda v: RatCMPoint(put(Q, v), P, G), ()),
    "x.p": (lambda v: RatCMPoint(Q, put(P, v), G), ()),
    "x.g": (lambda v: RatCMPoint(Q, P, v), (HUGE,)),
}
BC_C = also((C, {
    f"c.{name}": (lambda v, k=k: BCnCouplings(*put(COUP, v, k)), (HUGE,))
    for k, name in enumerate(("mu", "nu", "kappa"))
}), (TINY,), "c.mu")
DIRECT_X = SutherlandPoint(SQ, SP), {
    "x.q": (lambda v: SutherlandPoint(put(SQ, v), SP), ()),
    "x.p": (lambda v: SutherlandPoint(SQ, put(SP, v)), ()),
}
DUAL_D = DualPoint(LAM, THETA), {
    "d.lam": (lambda v: DualPoint(put(LAM, v), THETA), ()),
    "d.theta": (lambda v: DualPoint(LAM, put(THETA, v)), ()),
}
Z_ARG = Z, {
    "Re z": (lambda v: put(Z, v), ()),
    "Im z": (lambda v: put(Z, complex(0.0, v), 1), ()),
}
KAPPA = 0.25, {
    "kappa": (lambda v: v, (HUGE,)),
    "i kappa": (lambda v: complex(0.0, v), (HUGE,)),
}
N_ARG = scalar(2, "n")
M_ARG = np.eye(2), {"M": (lambda v: np.array([[v, 0.0], [0.0, 1.0]]), ())}


def calls(fn, *args):
    """{label: (call, extra, valid)}: call(v) is fn on the valid values with
    one argument spoiled by v, and valid() is fn on the valid values."""
    valid_values = [value for value, _ in args]
    out = {}
    for slot, (_, spoilers) in enumerate(args):
        for label, (spoil, extra) in spoilers.items():
            def call(v, slot=slot, spoil=spoil):
                given = list(valid_values)
                given[slot] = spoil(v)
                return fn(*given)

            out[label] = (call, extra, lambda: fn(*valid_values))
    return out


def free_trajectory(edge=None, at_end=True):
    """Free two-particle flow sampled on [10, 20]; edge, if given, replaces
    q_1 of its outermost sample (the last, or the first)."""
    times = np.linspace(10.0, 20.0, 8)
    states = [PhasePoint([1.0 + 0.5 * t, -0.5 * t], [0.5, -0.5]) for t in times]
    if edge is not None:
        k = -1 if at_end else 0
        states[k] = PhasePoint(put(states[k].q, edge), states[k].p)
    return Trajectory(times, states)


def first_q(x):
    return x.q[0]


def first_p(x):
    return x.p[0]


CM_SYS = calogero.make_system(2, G)
DUAL_SYS = sutherland.make_dual_system(2, C)
SPAN = (0.0, 0.1)

TABLE = {
    "intlab.dynamics": {
        "pair_system": calls(
            dynamics.pair_system,
            (np.array([[1.0, -1.0]]), {"T": (lambda v: np.array([[v, -1.0]]), ())}),
            vec(np.array([1.0]), "w"),
            fixed(calogero._order_margin),
            fixed("pair"),
        ),
        "Trajectory": calls(
            Trajectory,
            ([0.0, 1.0], {"times": (lambda v: [0.0, v], ())}),
            fixed((PhasePoint(Q, P),) * 2),
        ),
        "integrate_flow": {
            **calls(
                dynamics.integrate_flow,
                fixed(CM_SYS),
                (PhasePoint(Q, P), {
                    "x0.q": (lambda v: PhasePoint(put(Q, v), P), ()),
                    "x0.p": (lambda v: PhasePoint(Q, put(P, v)), (HUGE,)),
                }),
                (SPAN, {
                    "t0": (lambda v: put(SPAN, v), ()),
                    "t1": (lambda v: put(SPAN, v, 1), ()),
                }),
                scalar(1e-8, "tol"),
            ),
            **calls(
                dynamics.integrate_flow,
                fixed(DUAL_SYS),
                (PhasePoint(LAM, THETA), {
                    "dual x0.lam": (lambda v: PhasePoint(put(LAM, v), THETA), ()),
                    "dual x0.theta": (lambda v: PhasePoint(LAM, put(THETA, v)), ()),
                }),
                fixed(SPAN),
                fixed(1e-8),
            ),
        },
        "poisson_bracket_fd": calls(
            dynamics.poisson_bracket_fd,
            fixed(first_q),
            fixed(first_p),
            (PhasePoint(Q, P), {
                "x.q": (lambda v: PhasePoint(put(Q, v), P), ()),
                "x.p": (lambda v: PhasePoint(Q, put(P, v)), ()),
            }),
        ),
        "extract_scattering": calls(
            dynamics.extract_scattering,
            (free_trajectory(), {"forward edge": (lambda v: free_trajectory(v), ())}),
            (free_trajectory(), {"backward edge": (lambda v: free_trajectory(v, False), ())}),
        ),
        "invariant_drift": calls(
            dynamics.invariant_drift,
            (free_trajectory(), {"invariant": (
                lambda v: Trajectory(
                    [0.0, 1.0], (PhasePoint(Q, P),) * 2, {"I": np.array([1.0, v])}
                ),
                (),
            )}),
        ),
    },
    "intlab.linalg": {
        "hermitian_eigen": calls(linalg.hermitian_eigen, huge(M_ARG, "M")),
        "char_poly": calls(linalg.char_poly, M_ARG),
    },
    "intlab.calogero": {
        "RatCMPoint": calls(RatCMPoint, vec(Q, "q"), vec(P, "p"), scalar(G, "g", True)),
        "lax_LQ": calls(calogero.lax_LQ, CM_X),
        "moser_B": calls(calogero.moser_B, huge(CM_X, "x.q")),
        "acd_functions": calls(
            calogero.acd_functions, CM_X, also(scalar(0.3, "z"), (HUGE, -HUGE), "z")
        ),
        "sklyanin_coords": calls(calogero.sklyanin_coords, CM_X),
        "hamiltonian": calls(calogero.hamiltonian, huge(CM_X, "x.p")),
        "make_system": calls(calogero.make_system, N_ARG, scalar(G, "g", True)),
    },
    "intlab.sutherland": {
        "BCnCouplings": calls(
            BCnCouplings,
            also(scalar(COUP[0], "mu", True), (TINY,), "mu"),
            *(scalar(v, name, True) for v, name in zip(COUP[1:], ("nu", "kappa"))),
        ),
        "SutherlandPoint": calls(SutherlandPoint, vec(SQ, "q"), vec(SP, "p")),
        "DualPoint": calls(DualPoint, vec(LAM, "lam"), vec(THETA, "theta")),
        "sutherland_H": calls(sutherland.sutherland_H, huge(DIRECT_X, "x.p"), BC_C),
        "lax_Y": calls(sutherland.lax_Y, DIRECT_X, BC_C),
        "make_system": calls(sutherland.make_system, N_ARG, BC_C),
        "dual_h_matrix": calls(sutherland.dual_h_matrix, huge(vec(LAM, "lam"), "lam"), KAPPA),
        "dual_hamiltonian": calls(sutherland.dual_hamiltonian, DUAL_D, BC_C),
        "lambda_of_z": calls(sutherland.lambda_of_z, Z_ARG, BC_C),
        "dual_lax_global": calls(sutherland.dual_lax_global, Z_ARG, BC_C),
        "alcove_q": calls(sutherland.alcove_q, Z_ARG, BC_C),
        "transported_family": calls(sutherland.transported_family, Z_ARG, BC_C),
        "chart_gauge": calls(sutherland.chart_gauge, Z_ARG),
        "dual_lax_local": calls(sutherland.dual_lax_local, DUAL_D, BC_C),
        "make_dual_system": calls(sutherland.make_dual_system, N_ARG, BC_C),
        "family_lax": calls(
            sutherland.family_lax, huge(vec(LAM, "lam"), "lam"), vec(THETA, "theta"), BC_C
        ),
        "family_eval": calls(
            sutherland.family_eval, huge(vec(LAM, "lam"), "lam"), vec(THETA, "theta"), BC_C
        ),
        "family_matrices": calls(sutherland.family_matrices, N_ARG),
        "family_relation": calls(sutherland.family_relation, vec([0.8, -0.3], "q")),
    },
}

RECORD = "a result record: the entry point that returns it has checked its numbers"
EXEMPT = {
    "intlab.dynamics": {
        "PhasePoint": "holds any floats, nan included; integrate_flow and "
        "poisson_bracket_fd check the points they are given",
        "HamiltonianSystem": "takes callables and an integer dimension, no float",
        "ScatteringData": RECORD,
    },
    "intlab.linalg": {"HermitianSpectrum": RECORD, "CharPoly": RECORD},
    "intlab.calogero": {"SpectralCoords": RECORD},
    "intlab.sutherland": {
        "DualGlobal": RECORD,
        "FamilyTable": RECORD,
        "FamilyMatrices": RECORD,
        "FamilyRelation": RECORD,
    },
}

CASES = [
    pytest.param(module, name, label, v, id=f"{module[7:]}.{name}[{label}={v}]")
    for module, entries in TABLE.items()
    for name, table in entries.items()
    for label, (_, extra, _) in table.items()
    for v in NON_FINITE + extra
]


@pytest.mark.parametrize("module, name, label, value", CASES)
def test_bad_number_raises_a_typed_error(module, name, label, value):
    call, _, _ = TABLE[module][name][label]
    with pytest.raises(IntlabError):
        call(value)


@pytest.mark.parametrize("module, name", [(m, n) for m, e in TABLE.items() for n in e])
def test_valid_arguments_go_through(module, name):
    # so that each spoiled argument, not a bad valid one, is what raises above
    for _, _, valid in TABLE[module][name].values():
        valid()


@pytest.mark.parametrize(
    "module", [dynamics, linalg, calogero, sutherland], ids=lambda m: m.__name__
)
def test_every_public_callable_is_listed(module):
    public = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and getattr(obj, "__module__", None) == module.__name__
    }
    listed, exempt = set(TABLE[module.__name__]), set(EXEMPT[module.__name__])
    assert public == listed | exempt
    assert not listed & exempt
