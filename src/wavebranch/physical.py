"""Inverse hodograph reconstruction, flow-force evaluation and invariant
checks, and same-Bernoulli-constant pair finding.

The flow force is evaluated per q-column directly in hodograph variables,

    S(q) = int_0^1 [ (1 - h_q^2) / (2 h_p^2) + Omega(1) - Omega(p) - h + R ] h_p dp,

which is the depth-integrated momentum flux after the exact change of
variables dY = h_p dp; constancy of S across q is an invariant of every
steady flow and is reported as flow_force_variation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .branch import Turning, _Spline
from .errors import PreconditionError, StagnationBreachError
from .roots import brentq
from .stream import depth as stream_depth, flow_force_of_theta
from .strip import StripField, node_derivatives
from .vorticity import VorticitySpec, eval_Omega

__all__ = [
    "WaveProfile",
    "WavePair",
    "reconstruct",
    "profile_csv",
    "verify_flow_force_selection",
    "find_pairs",
]

# Re-solved pair members must agree in R to this bound.
EQUAL_R_TOL = 1e-10


@dataclass(frozen=True)
class WaveProfile:
    """Physical-plane data of one strip solution."""

    X: np.ndarray
    xi: np.ndarray
    psi_y_surface: np.ndarray
    depth_far: float
    R: float
    theta: float  # the far stream's parameter, StripField.theta
    flow_force: float
    flow_force_variation: float
    mass_flux_defect: float
    surface_identity_defect: float


@dataclass(frozen=True)
class WavePair:
    """Two distinct solitary waves sharing one Bernoulli constant.

    Members are canonically ordered by arclength so that swapping the inputs
    yields an identical record.
    """

    t1: float
    t2: float
    R: float
    distance: float | None = None

    def __post_init__(self):
        if self.t2 < self.t1:
            lo, hi = self.t2, self.t1
            object.__setattr__(self, "t1", lo)
            object.__setattr__(self, "t2", hi)


def reconstruct(field: StripField, spec: VorticitySpec) -> WaveProfile:
    """Physical profile, surface velocity, flow force (mean and spread of the
    per-column values) and invariants."""
    grid = field.grid
    h = field.h
    R = field.R
    hq, hp = node_derivatives(field)
    if hp.min() <= 0.0:
        raise StagnationBreachError("h_p <= 0 in reconstruction")

    xi = h[:, -1].copy()
    psi_y_surface = 1.0 / hp[:, -1]

    om1 = eval_Omega(spec, 1.0)
    om = eval_Omega(spec, grid.p)
    integrand = ((1.0 - hq**2) / (2.0 * hp**2) + om1 - om[None, :] - h + R) * hp
    S_cols = integrand @ _simpson_weights(grid.np, grid.dp)
    flow_force = float(S_cols.mean())
    variation = float(np.abs(S_cols - flow_force).max())

    # mass flux per column: trapezoid of Psi_Y dY over the reconstructed samples
    Y = h
    psi_y = 1.0 / hp
    flux = np.sum(0.5 * (psi_y[:, 1:] + psi_y[:, :-1]) * np.diff(Y, axis=1), axis=1)
    mass_defect = float(np.abs(flux - 1.0).max())

    # surface Bernoulli identity: Psi_Y^2 (1 + xi'^2) = 2 (R - xi)
    xi_q = hq[:, -1]
    surf_defect = float(
        np.abs(psi_y_surface**2 * (1.0 + xi_q**2) - 2.0 * (R - xi)).max()
    )

    theta = field.theta
    d_far = stream_depth(spec, theta)
    return WaveProfile(
        X=grid.q.copy(),
        xi=xi,
        psi_y_surface=psi_y_surface,
        depth_far=float(d_far),
        R=R,
        theta=theta,
        flow_force=flow_force,
        flow_force_variation=variation,
        mass_flux_defect=mass_defect,
        surface_identity_defect=surf_defect,
    )


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights on n uniform nodes of spacing h.  For even n
    the last interval takes the three-point rule (-1, 8, 5) h/12 on the last
    three nodes, as scipy's `simpson` does."""
    m = n if n % 2 else n - 1
    w = np.zeros(n)
    w[:m:2] = 2.0
    w[1:m:2] = 4.0
    w[0] = w[m - 1] = 1.0
    w *= h / 3.0
    if m < n:
        w[-3:] += np.array([-1.0, 8.0, 5.0]) * (h / 12.0)
    return w


def profile_csv(profile: WaveProfile) -> str:
    """CSV of the plotting columns (X, xi, psi_y_surface)."""
    lines = ["X,xi,psi_y_surface"]
    for x, xi, py in zip(profile.X, profile.xi, profile.psi_y_surface):
        lines.append(f"{float(x)!r},{float(xi)!r},{float(py)!r}")
    return "\n".join(lines) + "\n"


def verify_flow_force_selection(profile: WaveProfile, spec: VorticitySpec) -> float:
    """|S(profile) - S_-(R)|: the solitary wave must carry the supercritical
    stream's flow force at its own Bernoulli constant.  S_- is taken at the
    field's own far stream, whose theta is the supercritical root of
    R(theta) = R."""
    return abs(profile.flow_force - flow_force_of_theta(spec, profile.theta))


def find_pairs(branch_summary, events, n_r: int = 10, resolve=None):
    """Locate pairs of distinct solutions sharing one Bernoulli constant.

    branch_summary: sequence of (t, R, checkpoint) triples along the branch
    (checkpoint may be any reference object, or None for synthetic traces).
    events: output of detect_events.

    Around each Turning at R*, n_r evenly spaced R values cover the side of
    R* the branch lies on, within the R range that both the pre-fold and the
    post-fold segment reach (each segment ends at the neighbouring Turning): at distance eps = 0.999 |R* - far end of the
    range| from R* down to max(eps / n_r, |R* - near end|), the near end
    being the extreme sample both segments reach.  Each R is inverted on
    both segments by `brentq` on the segment's cubic spline.  With
    `resolve(R, checkpoint)` given, both members are re-solved at exactly the
    shared R (to EQUAL_R_TOL) and the sup-norm distance of the fields is
    recorded.
    """
    summary = [(float(t), float(R), ref) for (t, R, ref) in branch_summary]
    summary.sort(key=lambda z: z[0])
    ts = np.array([z[0] for z in summary])
    Rs = np.array([z[1] for z in summary])
    pairs: list[WavePair] = []

    turnings = sorted((ev for ev in events if isinstance(ev, Turning)), key=lambda ev: ev.t)
    bounds = [-np.inf] + [ev.t for ev in turnings] + [np.inf]
    for k, ev in enumerate(turnings):
        R_star = ev.R
        left = (ts >= bounds[k]) & (ts <= ev.t)
        right = (ts >= ev.t) & (ts <= bounds[k + 2])
        if left.sum() < 2 or right.sum() < 2:
            continue
        seg_l_t, seg_l_R = ts[left], Rs[left]
        seg_r_t, seg_r_R = ts[right], Rs[right]
        # the R range [lo, hi] that both segments reach
        lo = max(seg_l_R.min(), seg_r_R.min())
        hi = min(seg_l_R.max(), seg_r_R.max())
        if seg_l_R[-1] >= seg_l_R[0]:
            eps = 0.999 * (R_star - lo)
            R_grid = R_star - np.linspace(eps, max(eps / n_r, R_star - hi), n_r)
        else:
            eps = 0.999 * (hi - R_star)
            R_grid = R_star + np.linspace(eps, max(eps / n_r, lo - R_star), n_r)
        if eps <= 0:
            continue
        inv_l = _monotone_inverse(seg_l_t, seg_l_R)
        inv_r = _monotone_inverse(seg_r_t, seg_r_R)
        for Rv in R_grid:
            t1 = inv_l(Rv)
            t2 = inv_r(Rv)
            if t1 is None or t2 is None:
                continue
            dist = None
            if resolve is not None:
                ref1 = summary[int(np.argmin(np.abs(ts - t1)))][2]
                ref2 = summary[int(np.argmin(np.abs(ts - t2)))][2]
                f1 = resolve(Rv, ref1)
                f2 = resolve(Rv, ref2)
                if abs(f1.R - f2.R) > EQUAL_R_TOL:
                    raise PreconditionError(
                        f"re-solved pair members differ in R by {abs(f1.R - f2.R):.3e}"
                    )
                dist = float(np.abs(f1.h - f2.h).max())
            pairs.append(WavePair(t1=float(t1), t2=float(t2), R=float(Rv), distance=dist))
    return pairs


def _monotone_inverse(ts, Rs):
    """Inverse of a sampled monotone segment R(t), ts increasing: Brent's
    method on the segment's spline.

    Returns a callable R -> t (or None when R is outside the segment range).
    """
    R_of_t = _Spline(ts, Rs)

    def inv(Rv: float):
        if (Rs[0] - Rv) * (Rs[-1] - Rv) > 0:
            return None
        return brentq(lambda t: R_of_t(t) - Rv, ts[0], ts[-1], xtol=1e-15)

    return inv
