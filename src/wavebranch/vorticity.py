"""Polynomial vorticity function omega(p) on [0, 1] and derived scalars.

The vorticity is restricted to polynomials so that its primitive Omega and
derivative omega' are exact; every other module builds on these evaluations.
All quantities are dimensionless (unit mass flux, unit gravity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError

__all__ = ["VorticitySpec", "eval_omega", "eval_omega_prime", "eval_Omega", "theta0"]


@dataclass(frozen=True)
class VorticitySpec:
    """Vorticity omega(p) = sum_k coeffs[k] * p**k on the streamline range [0, 1]."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float] = (0.0,)):
        cs = tuple(float(c) for c in coeffs) or (0.0,)
        if not all(np.isfinite(cs)):
            raise DomainError("vorticity coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)

    @property
    def prime_coeffs(self) -> tuple[float, ...]:
        """Coefficients of omega'."""
        cs = self.coeffs
        if len(cs) == 1:
            return (0.0,)
        return tuple(k * cs[k] for k in range(1, len(cs)))

    @property
    def primitive_coeffs(self) -> tuple[float, ...]:
        """Coefficients of Omega(p) = int_0^p omega, normalized Omega(0) = 0."""
        cs = self.coeffs
        return (0.0,) + tuple(cs[k] / (k + 1) for k in range(len(cs)))


def _check_unit_interval(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise DomainError(f"p must lie in [0, 1], got range [{arr.min()}, {arr.max()}]")
    return arr


def eval_omega(spec: VorticitySpec, p):
    """Evaluate omega(p) by Horner's scheme; p may be a scalar or array in [0, 1]."""
    arr = _check_unit_interval(p)
    val = npoly.polyval(arr, spec.coeffs)
    return float(val) if np.isscalar(p) or arr.ndim == 0 else val


def eval_omega_prime(spec: VorticitySpec, p):
    """Evaluate omega'(p) exactly from the polynomial coefficients."""
    arr = _check_unit_interval(p)
    val = npoly.polyval(arr, spec.prime_coeffs)
    return float(val) if np.isscalar(p) or arr.ndim == 0 else val


def eval_Omega(spec: VorticitySpec, p):
    """Evaluate the exact antiderivative Omega(p), with Omega(0) = 0."""
    arr = _check_unit_interval(p)
    val = npoly.polyval(arr, spec.primitive_coeffs)
    return float(val) if np.isscalar(p) or arr.ndim == 0 else val


def sorted_unique(x) -> np.ndarray:
    """The distinct values of x, ascending: np.unique's sort and first-of-equal
    mask, without its masked-array check, whose first call imports numpy.ma."""
    x = np.sort(np.asarray(x, dtype=float), axis=None)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def omega_critical_points(spec: VorticitySpec) -> list[float]:
    """Real roots of omega in (0, 1): interior critical points of Omega.

    Trailing coefficients that are negligible against the largest one are
    dropped before forming the companion matrix; on [0, 1] they perturb omega
    below root-finding accuracy but would overflow the balanced companion
    matrix when subnormal.
    """
    cs = np.asarray(spec.coeffs, dtype=float)
    scale = np.abs(cs).max()
    if scale == 0.0:
        return []
    sig = np.nonzero(np.abs(cs) > 1e-14 * scale)[0]
    if sig.size == 0:
        return []
    cs = cs[: sig[-1] + 1]
    if cs.size <= 1:
        # omega constant (or identically zero): Omega has no isolated interior extrema
        return []
    try:
        roots = npoly.polyroots(cs)
    except np.linalg.LinAlgError:
        return []
    out = []
    for r in roots:
        if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0:
            out.append(float(r.real))
    return sorted(set(out))


def max_Omega(spec: VorticitySpec) -> tuple[float, float]:
    """Maximum of Omega on [0, 1] and its location.

    Candidates are the endpoints, the interior roots of Omega' = omega, and a
    guard sample grid.
    """
    cand = [0.0, 1.0] + omega_critical_points(spec)
    cand = sorted_unique(np.concatenate([cand, np.linspace(0.0, 1.0, 257)]))
    vals = eval_Omega(spec, cand)
    k = int(np.argmax(vals))
    # polish with the exact candidates only (sampling is a guard, roots are exact)
    exact = np.asarray([0.0, 1.0] + omega_critical_points(spec))
    ev = eval_Omega(spec, exact)
    ke = int(np.argmax(ev))
    if ev[ke] >= vals[k] - 1e-15:
        return float(ev[ke]), float(exact[ke])
    return float(vals[k]), float(cand[k])


@lru_cache(maxsize=256)
def theta0(spec: VorticitySpec) -> float:
    """Lower admissibility bound sqrt(2 * max_[0,1] Omega) for the stream parameter.

    Memoized per spec: every stream-moment kernel call checks it."""
    m, _ = max_Omega(spec)
    return float(np.sqrt(2.0 * max(m, 0.0)))
