"""The four workloads: seeded inputs, one item of work, and its checks.

Each workload draws a fixed number of input slots from the seed.  Slot k
sits on a ladder of deliberately different cost (step k of the ladder is
the same for every seed); the seed moves the inputs within the step.
That keeps the cost mix of a run alike across seeds while no two seeds
share an input.

An item returns its outputs; `check` compares them with references that
do not come from the function under test and returns residuals
(name, relative error, tolerance).  A residual with tolerance None is
measured but does not fail the item: those are the known defects listed
in KNOWN_DEFECTS, which would otherwise fail every spectral item.
"""

import numpy as np

from intlab.calogero import RatCMPoint
from intlab.calogero import make_system as calogero_system
from intlab.dynamics import PhasePoint
from intlab.sutherland import (
    BCnCouplings,
    DualPoint,
    SutherlandPoint,
    family_lax,
    family_matrices,
    make_dual_system,
)
from intlab.sutherland import make_system as sutherland_system

# Couplings of the frozen test values in tests/test_sutherland.py.
COUP = BCnCouplings(mu=0.8, nu=0.7, kappa=0.25)
CM_G = 1.0

# Residuals that intlab currently fails at the sizes below, where the
# Faddeev-LeVerrier recursion loses its digits.  They enter the accuracy
# metric and the per-layer errors.
KNOWN_DEFECTS = {
    "calogero.sklyanin_identity_err": "sklyanin_coords, n = 20: Faddeev-LeVerrier adjugate",
    "linalg.char_poly_rel_err": "char_poly, N = 16: Faddeev-LeVerrier recursion",
    "sutherland.family_palindrome_err": "family_eval, n = 5: char_poly at N = 10",
}


def _ladder(k, count, lo, hi):
    return lo + (hi - lo) * k / max(count - 1, 1)


def _rel(err, scale):
    return float(err) / max(1.0, float(scale))


def _cm_lax_reference(q, p, g):
    """Hermitian Lax matrix L_jj = p_j, L_jk = i g / (q_j - q_k)."""
    diff = q[:, None] - q[None, :]
    np.fill_diagonal(diff, 1.0)
    L = 1j * g / diff
    np.fill_diagonal(L, p)
    return L


def _cm_point(rng, n):
    gaps = 0.35 + rng.uniform(0.0, 1.0, size=n - 1)
    q = np.concatenate([[0.0], -np.cumsum(gaps)]) + rng.normal()
    return q, rng.normal(size=n)


def _family_point(rng, n):
    gaps = rng.uniform(0.3, 1.2, size=n)
    lam = 0.1 + np.cumsum(gaps)[::-1]
    return lam, rng.uniform(-1.0, 1.0, size=n)


def _drift(values, scale):
    values = np.asarray(values, dtype=float)
    return float(np.max(np.abs(values - values[0]) / scale))


class Workload:
    name = ""
    slots = 1  # inputs per pass in an untraced run
    trace_slots = 1  # inputs per pass in a traced run

    def make_inputs(self, rng):
        raise NotImplementedError

    def context(self, api):
        """Systems and callbacks, built through api so they can be traced."""
        raise NotImplementedError

    def run(self, ctx, inp, warmup=False):
        raise NotImplementedError

    def check(self, ctx, inp, out):
        raise NotImplementedError


class DirectFlow(Workload):
    name = "direct-flow"
    n, span, tol = 8, 0.5, 1e-9
    slots, trace_slots = 8, 2

    def make_inputs(self, rng):
        n = self.n
        grid = (np.pi / 2) * np.arange(n, 0, -1) / (n + 1)
        gap = grid[0] - grid[1]
        inputs = []
        for k in range(self.slots):
            jitter = _ladder(k, self.slots, 0.1, 0.2) * gap
            speed = _ladder(k, self.slots, 0.5, 1.5)
            u = rng.normal(size=n)
            inputs.append(
                {
                    "q": grid + rng.uniform(-jitter, jitter, size=n),
                    "p": speed * np.sqrt(n) * u / np.linalg.norm(u),
                }
            )
        return inputs

    def context(self, api):
        sys_ = api.system(
            sutherland_system(self.n, COUP), "sutherland", "sutherland.hamiltonian"
        )

        def lax_family(x):
            return api.lax_Y(SutherlandPoint(x.q, x.p), COUP)[1]

        return {
            "api": api,
            "system": sys_,
            "family": {"lax": api.callback("dynamics.audit.lax_family", lax_family)},
        }

    def run(self, ctx, inp, warmup=False):
        span = self.span / 10 if warmup else self.span
        return ctx["api"].integrate_flow(
            ctx["system"],
            PhasePoint(inp["q"], inp["p"]),
            (0.0, span),
            self.tol,
            invariant_family=ctx["family"],
        )

    def check(self, ctx, inp, traj):
        energy = traj.invariants["energy"]
        family = traj.invariants["lax"]
        complete = traj.status == "completed" and abs(traj.times[-1] - self.span) < 1e-12
        return [
            ("flow.completed", 0.0 if complete else np.inf, 0.0),
            ("sutherland.energy_rel_drift", _drift(energy, abs(energy[0])), 1e-6),
            (
                "sutherland.lax_family_rel_drift",
                _drift(family, np.abs(family[0])),
                1e-5,
            ),
            # H_1 of the trace family is the energy: two separate routes.
            (
                "sutherland.trace_identity_err",
                float(np.max(np.abs(family[:, 0] - energy) / np.abs(energy))),
                1e-10,
            ),
        ]


class DualFlow(Workload):
    name = "dual-flow"
    n, span, tol = 6, 3.0, 1e-9
    slots, trace_slots = 13, 2

    def make_inputs(self, rng):
        inputs = []
        for k in range(self.slots):
            excess = _ladder(k, self.slots, 1.0, 0.4)
            angle = _ladder(k, self.slots, 0.3, 0.5)
            mods = excess * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=self.n))
            inputs.append(
                {"lam": self._lam(mods), "theta": rng.uniform(-angle, angle, size=self.n)}
            )
        return inputs

    def _lam(self, mods):
        # lam_k = nu + 2 mu (n - 1 - k) + sum_{j >= k} |z_j|^2
        n = self.n
        return COUP.nu + 2 * COUP.mu * np.arange(n - 1, -1, -1.0) + np.cumsum(mods[::-1])[::-1]

    def _z(self, lam, theta):
        # global chart: |z_j|^2 = chamber excess, arg z_j = theta_1 + ... + theta_j
        excess = np.append(-np.diff(lam) - 2 * COUP.mu, lam[-1] - COUP.nu)
        return np.sqrt(excess) * np.exp(1j * np.cumsum(theta))

    def context(self, api):
        sys_ = api.system(
            make_dual_system(self.n, COUP), "sutherland", "sutherland.dual_hamiltonian"
        )

        def charts(x):
            A, value = api.dual_lax_local(DualPoint(x.q, x.p), COUP)
            z = self._z(x.q, x.p)
            glob = api.dual_lax_global(z, COUP)
            gauge = api.chart_gauge(z)
            err = np.max(np.abs(glob.lax - gauge @ A @ np.linalg.inv(gauge)))
            return np.array([value, err])

        return {
            "api": api,
            "system": sys_,
            "family": {"charts": api.callback("dynamics.audit.dual_charts", charts)},
        }

    def run(self, ctx, inp, warmup=False):
        span = self.span / 10 if warmup else self.span
        return ctx["api"].integrate_flow(
            ctx["system"],
            PhasePoint(inp["lam"], inp["theta"]),
            (0.0, span),
            self.tol,
            invariant_family=ctx["family"],
        )

    def check(self, ctx, inp, traj):
        energy = traj.invariants["energy"]
        charts = traj.invariants["charts"]
        scale = np.maximum(1.0, np.abs(energy))
        complete = traj.status == "completed" and abs(traj.times[-1] - self.span) < 1e-12
        return [
            ("flow.completed", 0.0 if complete else np.inf, 0.0),
            ("sutherland.dual_energy_rel_drift", _drift(energy, scale[0]), 1e-4),
            # Re tr(h A h) / 2 of the local chart is the dual energy.
            (
                "sutherland.dual_trace_err",
                float(np.max(np.abs(charts[:, 0] - energy) / scale)),
                1e-10,
            ),
            # the dual matrices are unitary, so entries are O(1)
            ("sutherland.dual_chart_err", float(np.max(charts[:, 1])), 1e-10),
        ]


class CmScattering(Workload):
    name = "cm-scattering"
    # one n = 4 slot per two n = 8 slots, so the median item is an n = 8 one
    sizes, span, tol = (4, 8, 8), 500.0, 1e-10
    slots, trace_slots = 18, 3

    def make_inputs(self, rng):
        inputs = []
        for k in range(self.slots):
            q, p = _cm_point(rng, self.sizes[k % 3])
            inputs.append({"q": q, "p": p})
        return inputs

    def context(self, api):
        return {
            "api": api,
            "systems": {
                n: api.system(calogero_system(n, CM_G), "calogero", "calogero.hamiltonian")
                for n in set(self.sizes)
            },
        }

    def run(self, ctx, inp, warmup=False):
        api = ctx["api"]
        sys_ = ctx["systems"][len(inp["q"])]
        x0 = PhasePoint(inp["q"], inp["p"])
        fwd = api.integrate_flow(sys_, x0, (0.0, self.span), self.tol)
        bwd = api.integrate_flow(sys_, x0, (0.0, -self.span), self.tol)
        L, _, _ = api.lax_LQ(RatCMPoint(inp["q"], inp["p"], CM_G))
        return fwd, bwd, api.extract_scattering(fwd, bwd), api.hermitian_eigen(L)

    def check(self, ctx, inp, out):
        fwd, bwd, data, spec = out
        ref = np.linalg.eigvalsh(_cm_lax_reference(inp["q"], inp["p"], CM_G))
        scale = np.max(np.abs(ref))
        scatter = max(
            np.max(np.abs(data.theta_plus - ref[::-1])),
            np.max(np.abs(data.theta_minus - ref)),
        )
        drift = max(
            _drift(t.invariants["energy"], abs(t.invariants["energy"][0])) for t in (fwd, bwd)
        )
        complete = all(t.status == "completed" for t in (fwd, bwd))
        return [
            ("flow.completed", 0.0 if complete else np.inf, 0.0),
            ("calogero.energy_rel_drift", drift, 1e-6),
            # theta^+- are the Lax eigenvalues; the fit over the last quarter
            # of the span limits them to a few 1e-5
            ("calogero.scatter_err", _rel(scatter, scale), 1e-3),
            (
                "linalg.hermitian_eigen_err",
                _rel(np.max(np.abs(spec.eigenvalues - ref)), scale),
                1e-12,
            ),
        ]


class Spectral(Workload):
    name = "spectral"
    sk_n, fam_n, cp_n = 20, 5, 8
    slots, trace_slots = 40, 20

    def make_inputs(self, rng):
        inputs = []
        for _ in range(self.slots):
            q, p = _cm_point(rng, self.sk_n)
            lam5, th5 = _family_point(rng, self.fam_n)
            lam8, th8 = _family_point(rng, self.cp_n)
            inputs.append(
                {"q": q, "p": p, "lam5": lam5, "th5": th5, "lam8": lam8, "th8": th8}
            )
        return inputs

    def context(self, api):
        return {"api": api, "subset_from_char": family_matrices(self.fam_n).subset_from_char}

    def run(self, ctx, inp, warmup=False):
        api = ctx["api"]
        coords = api.sklyanin_coords(RatCMPoint(inp["q"], inp["p"], CM_G))
        table = api.family_eval(inp["lam5"], inp["th5"], COUP)
        L8 = api.family_lax(inp["lam8"], inp["th8"], COUP)
        return coords, table, L8, api.char_poly(L8)

    def check(self, ctx, inp, out):
        coords, table, L8, K8 = out
        n = self.fam_n
        lam_ref = np.linalg.eigvalsh(_cm_lax_reference(inp["q"], inp["p"], CM_G))
        identity = np.max(np.abs(coords.theta - coords.mu - coords.f))
        identity_scale = np.max(np.abs(coords.mu) + np.abs(coords.f))

        subset = table.subset_values
        K5 = table.char_coefficients
        K5_ref = np.poly(np.linalg.eigvalsh(family_lax(inp["lam5"], inp["th5"], COUP))).real
        signs = (-1.0) ** np.arange(n + 1)
        subset_scale = np.max(np.abs(subset))

        K8_ref = np.poly(np.linalg.eigvalsh(L8))
        return [
            (
                "calogero.sklyanin_lam_err",
                _rel(np.max(np.abs(coords.lam - lam_ref)), np.max(np.abs(lam_ref))),
                1e-12,
            ),
            ("calogero.sklyanin_identity_err", float(identity / identity_scale), None),
            (
                "sutherland.family_h1_err",
                _rel(abs(subset[1] - 2 * (table.energy - n)), abs(subset[1])),
                1e-10,
            ),
            (
                "sutherland.family_map_err",
                _rel(np.max(np.abs(signs * subset - ctx["subset_from_char"] @ K5_ref[: n + 1])), subset_scale),
                1e-8,
            ),
            (
                "sutherland.family_palindrome_err",
                float(np.max(np.abs(K5 - K5[::-1])) / np.max(np.abs(K5))),
                None,
            ),
            (
                "linalg.char_poly_rel_err",
                float(np.max(np.abs(K8.coefficients - K8_ref)) / np.max(np.abs(K8_ref))),
                None,
            ),
        ]


WORKLOADS = {w.name: w for w in (DirectFlow(), DualFlow(), CmScattering(), Spectral())}
