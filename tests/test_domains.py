"""One predicate per domain: membership, margins and point checks agree.

Each domain writes its inequalities once, as a slack vector: a point is
inside when every entry is positive, and the smallest entry is the
boundary margin that drives the integrator's event.  The draws put
points exactly on the boundary (q_1 = pi/2, q_n = 0, equal neighbours, a
dual gap of exactly 2*mu and one ulp either side, lam_n = nu + 1e-17),
where a second, differently written predicate would disagree first.  The
reference predicates and margins below are the chained comparisons the
domains are defined by.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intlab.calogero import RatCMPoint
from intlab.calogero import make_system as cm_system
from intlab.dynamics import PhasePoint
from intlab.errors import DomainError
from intlab.sutherland import (
    BCnCouplings,
    DualPoint,
    SutherlandPoint,
    lambda_of_z,
    make_dual_system,
    make_system,
)
from intlab.sutherland import _chamber_slack

COUP = BCnCouplings(mu=0.8, nu=0.7, kappa=0.25)
GAP = 2 * COUP.mu
SIZES = (1, 2, 5)
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def chains(draw, start, steps, last=()):
    """x_1 from `start`, then x_(j+1) = x_j - step, each entry possibly one
    ulp off; the last entry may be replaced by one of `last`."""
    n = draw(st.sampled_from(SIZES))
    x = [draw(start)]
    for _ in range(n - 1):
        nxt = x[-1] - draw(steps)
        ulps = (nxt, np.nextafter(nxt, np.inf), np.nextafter(nxt, -np.inf))
        x.append(draw(st.sampled_from(ulps)))
    if last and draw(st.booleans()):
        x[-1] = draw(st.sampled_from(last))
    return np.array(x)


alcove_q = chains(
    st.one_of(st.floats(0.0, 1.7), st.sampled_from((np.pi / 2, np.nextafter(np.pi / 2, 0.0)))),
    st.one_of(st.just(0.0), st.floats(-0.2, 0.6)),
    last=(0.0, -0.0, 5e-324, -5e-324),
)
chamber_lam = chains(
    st.one_of(st.floats(0.0, 12.0), st.just(COUP.nu)),
    st.one_of(st.just(GAP), st.floats(GAP - 0.5, GAP + 2.0)),
    last=(COUP.nu, COUP.nu + 1e-17, COUP.nu - 1e-17, np.nextafter(COUP.nu, np.inf)),
)
positive_lam = chains(
    st.floats(-0.5, 6.0),
    st.one_of(st.just(0.0), st.floats(-0.5, 2.0)),
    last=(0.0, -0.0, 5e-324),
)
line_q = chains(st.floats(-3.0, 3.0), st.one_of(st.just(0.0), st.floats(-0.5, 2.0)))


def ref_alcove(q):
    inside = q[0] < np.pi / 2 and q[-1] > 0 and all(q[:-1] > q[1:])
    return inside, min([np.pi / 2 - q[0], q[-1], *(q[:-1] - q[1:])])


def ref_chamber(lam, gap, floor):
    inside = lam[-1] > floor and all(lam[:-1] - lam[1:] > gap)
    return inside, min([lam[-1] - floor, *(lam[:-1] - lam[1:] - gap)])


def ref_line(q):
    return all(q[:-1] > q[1:]), min(q[:-1] - q[1:], default=1.0)


def accepts(point_type, *args):
    try:
        point_type(*args)
    except DomainError:
        return False
    return True


def check_system(sys, x, ref):
    point = PhasePoint(x, np.zeros_like(x))
    margin = sys.boundary_margin(x)
    assert sys.contains(point) == (margin > 0) == ref[0]
    assert margin == ref[1]


def test_builders_read_membership_off_the_margin():
    for sys in (make_system(3, COUP), make_dual_system(3, COUP), cm_system(3, 1.0)):
        assert sys.domain_check is None and sys.boundary_margin is not None


@PROPERTY
@given(alcove_q)
def test_alcove(q):
    ref = ref_alcove(q)
    check_system(make_system(q.size, COUP), q, ref)
    assert accepts(SutherlandPoint, q, np.zeros_like(q)) == ref[0]


@PROPERTY
@given(chamber_lam)
def test_dual_chamber(lam):
    check_system(make_dual_system(lam.size, COUP), lam, ref_chamber(lam, GAP, COUP.nu))


@PROPERTY
@given(positive_lam)
def test_dual_point_chamber(lam):
    assert accepts(DualPoint, lam, np.zeros_like(lam)) == ref_chamber(lam, 0.0, 0.0)[0]


@PROPERTY
@given(line_q)
def test_ordered_line(q):
    ref = ref_line(q)
    check_system(cm_system(q.size, 1.0), q, ref)
    assert accepts(RatCMPoint, q, np.zeros_like(q), 1.0) == ref[0]


@st.composite
def global_points(draw):
    n = draw(st.sampled_from(SIZES))
    mods = draw(st.lists(st.floats(1e-4, 3.0), min_size=n, max_size=n))
    args = draw(st.lists(st.floats(-np.pi, np.pi), min_size=n, max_size=n))
    return np.array(mods) * np.exp(1j * np.array(args))


@PROPERTY
@given(global_points())
def test_margin_is_smallest_modulus_squared(z):
    # lambda_of_z inverts the dual-chamber slack: the margin is min |z_j|^2
    lam = lambda_of_z(z, COUP)
    margin = make_dual_system(z.size, COUP).boundary_margin(lam)
    assert margin == pytest.approx(np.min(np.abs(z) ** 2), rel=0, abs=1e-13 * lam[0])


@PROPERTY
@given(chamber_lam, st.sampled_from(((GAP, COUP.nu), (0.0, 0.0))), st.booleans())
def test_chamber_slack_is_the_concatenated_form(lam, gap_floor, poison):
    # the slack is written in place; it must keep the rounding, and the
    # signed zeros, of the concatenated form, and a nan must stay a nan,
    # so that no chamber contains the point
    gap, floor = gap_floor
    if poison:
        lam = lam.copy()
        lam[lam.size // 2] = np.nan
    slack = _chamber_slack(lam, gap, floor)
    ref = np.concatenate([lam[:-1] - lam[1:] - gap, [lam[-1] - floor]])
    assert slack.dtype == ref.dtype and slack.tobytes() == ref.tobytes()
    assert np.isnan(slack).any() == poison
    if poison:
        assert not make_dual_system(lam.size, COUP).contains(PhasePoint(lam, np.zeros(lam.size)))
