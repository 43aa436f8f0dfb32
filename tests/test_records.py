"""The record contract every public record type of intlab keeps.

The checked types (points, couplings, trajectories) are __slots__ classes
on one immutable base, the result records are NamedTuples, and
HamiltonianSystem is a frozen dataclass.  Whatever the implementation,
each type is built positionally or by keyword with its defaults, is
immutable field by field, copies, and has a repr that names its fields.
"""

import copy

import numpy as np
import pytest

from intlab.calogero import RatCMPoint, SpectralCoords
from intlab.dynamics import HamiltonianSystem, PhasePoint, ScatteringData, Trajectory
from intlab.linalg import CharPoly, HermitianSpectrum
from intlab.sutherland import (
    BCnCouplings,
    DualGlobal,
    DualPoint,
    FamilyMatrices,
    FamilyTable,
    SutherlandPoint,
)
from hamilton import energy, everywhere, kinetic

H, GRAD = energy(lambda q: 0.0), kinetic(np.zeros_like)
BLOCK = PhasePoint([[0.0], [1.0]], [[1.0], [1.0]])
V = np.array([2.0, 1.0])

# (type, fields in order with keyword values, defaults of the fields left
# out, whether equal values compare and hash equal)
RECORDS = [
    (PhasePoint, dict(q=[1.0], p=[0.0]), {}, False),
    (
        Trajectory,
        dict(times=[0.0, 1.0], states=BLOCK),
        dict(invariants={}, status="completed", diagnostics={}),
        False,
    ),
    (ScatteringData, dict(theta_plus=V, theta_minus=-V, lambda_plus=V), {}, False),
    (
        HamiltonianSystem,
        dict(dim=1, hamiltonian=H, grad=GRAD, boundary_margin=everywhere),
        dict(name="system"),
        True,
    ),
    (HermitianSpectrum, dict(eigenvalues=V, basis=np.eye(2), near_degenerate=False), {}, False),
    (CharPoly, dict(coefficients=np.array([1.0, -3.0, 2.0])), {}, False),
    (RatCMPoint, dict(q=[1.0, 0.0], p=[0.0, 0.5], g=1.0), {}, False),
    (SpectralCoords, dict(lam=V, theta=V, mu=V, f=1j * V), {}, False),
    (BCnCouplings, dict(mu=0.8, nu=0.7), dict(kappa=0.0), True),
    (SutherlandPoint, dict(q=[0.5], p=[0.0]), {}, False),
    (DualPoint, dict(lam=[2.0, 1.0], theta=[0.0, 0.3]), {}, False),
    (DualGlobal, dict(lam=V, lax=np.eye(4)), {}, False),
    (
        FamilyTable,
        dict(subset_values=V, energy=1.5, char_coefficients=np.array([1.0, -2.0, 1.0])),
        {},
        False,
    ),
    (FamilyMatrices, dict(subset_from_char=np.eye(2), char_from_subset=np.eye(2)), {}, False),
]


def same(a, b):
    return a is b or np.array_equal(a, b)


@pytest.mark.parametrize(
    "cls, values, defaults, by_value", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)
def test_a_record_keeps_its_contract(cls, values, defaults, by_value):
    x, y = cls(**values), cls(*values.values())
    fields = {**values, **defaults}
    for name, value in fields.items():
        for z in (x, y, copy.copy(x)):
            assert same(getattr(z, name), value)
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
        if isinstance(value, dict):  # a default container is never shared
            assert getattr(x, name) is not getattr(y, name)
    text = repr(x)
    assert text.startswith(f"{cls.__name__}(")
    places = [text.index(f"{name}=") for name in fields]
    assert places == sorted(places)  # every field, in order
    if by_value:
        assert x == y and hash(x) == hash(y)
