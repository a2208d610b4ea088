"""Point-evaluation algorithms for the Bezier-like curves.

Four evaluators agree on regular input:

* ``eval_direct``       -- dot product with the curve basis (baseline),
* ``eval_decasteljau``  -- corner cutting through a chain of nested
  spaces, one convex combination level per basis dimension,
* ``eval_wozny_chudy``  -- linear-time sequential convex combinations
  weighted by partial sums of the curve basis,
* ``eval_new``          -- one corner-cut pass onto a degree-2m
  Bernstein polygon followed by the linear-time polynomial recursion.

``dynamic_eval_m1`` implements the lifted-matrix recursion that samples
the curve at equispaced parameters; it is accurate for small omega and
(deliberately) demonstrates exponential error growth for large omega.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import basis
from .basis import EvalMode
from .curve import CurveBatch, EphCurve, eval_direct
from .errors import SingularControlBlockError

__all__ = [
    "EvalMethod",
    "eval_direct",
    "eval_decasteljau",
    "eval_wozny_chudy",
    "eval_new",
    "evaluate",
    "DynamicEvalReport",
    "dynamic_eval_m1",
]


class EvalMethod(enum.Enum):
    DIRECT = "direct"
    DECASTELJAU = "decasteljau"
    WOZNY_CHUDY = "woznychudy"
    NEW = "new"


# ---------------------------------------------------------------------------
# corner-cutting chain for the de Casteljau-like algorithm
# ---------------------------------------------------------------------------

def _two_space_basis(omega: float, t: np.ndarray) -> np.ndarray:
    """Normalized B-basis of span{1, sinh(omega t)} on [0, 1]."""
    n1 = np.exp(omega * (t - 1.0)) * np.expm1(-2.0 * omega * t) / math.expm1(-2.0 * omega)
    return basis._exact_ends(t, np.stack([1.0 - n1, n1], axis=-1))


def _four_space_basis(omega: float, h: np.ndarray) -> np.ndarray:
    """Normalized B-basis of span{1, e^{wt}, e^{-wt}, cosh(2wt)} on [0, 1],
    from the m=2 hodograph basis values ``h``.

    B_i combines H_i and H_{i+1}, whose endpoint zero orders give B_i
    its own (B_3 = H_4 alone).  Equal e^{2wt} and e^{-2wt} coefficients
    and partition of unity fix the weights, with
    beta = cosh(w) / (2 cosh(w) + 1) written in non-positive exponents.
    """
    c = basis.constants(2, omega)
    e1 = math.exp(-omega)
    e2 = e1 * e1
    beta = (1.0 + e2) / (2.0 * (1.0 + e2) + 2.0 * e1)
    return np.stack([
        h[..., 0] + beta * h[..., 1],
        (1.0 - beta) * h[..., 1] + c.q0 * h[..., 2],
        c.q1 * h[..., 2] + h[..., 3],
        h[..., 4],
    ], axis=-1)


def _corner_chain(m: int, omega: float, t: np.ndarray,
                  mode: EvalMode) -> list:
    """Bases of the nested chain, from 1 function up to the curve basis.

    For m=2 the hodograph level is built from the m=1 level before it,
    by the products ``hodograph_basis(2, ...)`` uses."""
    h1 = basis.hodograph_basis(1, omega, t)
    chain = [np.ones(t.shape + (1,)), _two_space_basis(omega, t), h1]
    if m == 2:
        h = basis._hodograph_products(h1[..., 0], h1[..., 1], h1[..., 2])
        chain.append(_four_space_basis(omega, h))
        chain.append(h)
    chain.append(basis.curve_basis(m, omega, t, mode))
    return chain


def _decasteljau_weights(m: int, omega: float, t: np.ndarray,
                         mode: EvalMode) -> list:
    """Per-level convex-combination weights lambda[p], p = 0..2m.

    Level p connects the chain bases with p+1 and p+2 functions: basis
    function j of the larger space splits as
    ``B_{p+1,j} = lam[j-1] B_{p,j-1} + (1 - lam[j]) B_{p,j}``, solved by
    forward substitution in j.  The true weights are convex for the
    nested chain, so the solution is clipped to [0, 1]: where a basis
    value underflows the raw quotient is pure noise, and that node
    carries no mass anyway.
    """
    chain = _corner_chain(m, omega, t, mode)
    weights = []
    for p in range(2 * m + 1):
        bp = chain[p]
        bp1 = chain[p + 1]
        lam = np.empty(t.shape + (p + 1,))
        carried = np.zeros_like(t)            # lam[j-1] * B_{p,j-1}
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(p + 1):
                raw = 1.0 - (bp1[..., j] - carried) / bp[..., j]
                raw = np.where(bp[..., j] > 0.0, raw, 0.0)
                np.clip(raw, 0.0, 1.0, out=raw)
                lam[..., j] = raw
                carried = raw * bp[..., j]
        weights.append(lam)
    return weights


def _point_columns(curve: EphCurve | CurveBatch, t):
    """t's shape, t flattened and the control points as lead + (dim, 2m+2, 1).

    The corner-cutting evaluators keep points as lead + (dim, t), with
    lead = (N,) for a batch and () for one curve, so every product runs
    along t."""
    t = basis._check_t(t)
    return t.shape, t.reshape(-1), curve.control_points.swapaxes(-1, -2)[..., None]


def _point_rows(q: np.ndarray, shape: tuple) -> np.ndarray:
    """Points lead + (dim, t) as lead + shape + (dim,)."""
    return q.swapaxes(-1, -2).reshape(q.shape[:-2] + shape + q.shape[-2:-1])


def eval_decasteljau(curve: EphCurve | CurveBatch, t,
                     mode: EvalMode = EvalMode.AUTO) -> np.ndarray:
    """Corner-cutting evaluation: 2m+1 levels of convex combinations.

    The first level is cut straight from the polygon and later levels
    overwrite their inputs point by point, so no level holds more than
    2m+1 points per parameter and curve.
    """
    shape, tv, cp = _point_columns(curve, t)
    lam = _decasteljau_weights(curve.m, curve.omega, tv, mode)
    n = 2 * curve.m + 1
    pts = []
    for j in range(n):
        lv = lam[n - 1][:, j]
        c = (1.0 - lv) * cp[..., j, :]
        c += lv * cp[..., j + 1, :]
        pts.append(c)
    for p in range(n - 2, -1, -1):
        for j in range(p + 1):
            lv = lam[p][:, j]
            pts[j] *= 1.0 - lv
            pts[j] += lv * pts[j + 1]
    return _point_rows(pts[0], shape)


def eval_wozny_chudy(curve: EphCurve | CurveBatch, t,
                     mode: EvalMode = EvalMode.AUTO) -> np.ndarray:
    """Linear-time evaluation via partial-sum ratios of the curve basis."""
    shape, tv, cp = _point_columns(curve, t)
    b = basis.curve_basis(curve.m, curve.omega, tv, mode)
    s = np.cumsum(b, axis=-1)
    q = np.broadcast_to(cp[..., 0, :], cp.shape[:-2] + tv.shape).copy()
    for k in range(1, 2 * curve.m + 2):
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(s[..., k] > 0.0, b[..., k] / s[..., k], 0.0)
        q *= 1.0 - h
        q += h * cp[..., k, :]
    return _point_rows(q, shape)


def _bernstein_wc(r1: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """Linear-time polynomial recursion on a reduced Bernstein polygon.

    ``r1`` has shape lead + (dim, 2m+1, t) and ``ratio`` is (1 - t) / t,
    which stays at most 1 for t in [0.5, 1); points below 0.5 pass the
    polygon reversed, as the mirror image at 1 - t.
    """
    n = r1.shape[-2] - 1
    q = r1[..., 0, :].copy()
    h = np.ones_like(ratio)
    for k in range(1, n + 1):
        h = 1.0 / (1.0 + (k / (n + 1.0 - k)) * ratio / h)
        q += h * (r1[..., k, :] - q)
    return q


def eval_new(curve: EphCurve | CurveBatch, t,
             mode: EvalMode = EvalMode.AUTO) -> np.ndarray:
    """Corner-cut onto a Bernstein polygon, then the polynomial recursion.

    The corner weights are undefined at t = 0 and t = 1, where the value
    is the end control point.  Points below and above t = 0.5 take their
    own corner weights and the two directions of the recursion (see
    ``_bernstein_wc``).  Near t = 0 the corner weights underflow (see
    ``corner_weights``): the result is NaN from about t = 1e-161 down for
    m=1 and from about t = 1e-81 for m=2 (measured at omega from 1e-3 to
    300), where ``eval_direct`` stays finite.
    """
    shape, tv, cp = _point_columns(curve, t)
    # end control points at the ends; every other point is overwritten
    out = np.where(tv == 0.0, cp[..., 0, :], cp[..., -1, :])
    for sel, mirror in (((tv > 0.0) & (tv < 0.5), True),
                        ((tv >= 0.5) & (tv < 1.0), False)):
        if sel.any():
            ti = tv[sel]
            tau = basis.corner_weights(curve.m, curve.omega, ti, mode).T
            r1 = tau * (cp[..., :-1, :] - cp[..., 1:, :])
            r1 += cp[..., 1:, :]
            si, ui = ti, 1.0 - ti
            if mirror:                  # the reversed polygon at 1 - t
                r1, si, ui = r1[..., ::-1, :], ui, si
            out[..., sel] = _bernstein_wc(r1, ui / si)
    return _point_rows(out, shape)


_EVALUATORS = {
    EvalMethod.DIRECT: eval_direct,
    EvalMethod.DECASTELJAU: eval_decasteljau,
    EvalMethod.WOZNY_CHUDY: eval_wozny_chudy,
    EvalMethod.NEW: eval_new,
}


def evaluate(curve: EphCurve | CurveBatch, t,
             method: EvalMethod = EvalMethod.DIRECT,
             mode: EvalMode = EvalMode.AUTO) -> np.ndarray:
    """Dispatch to one of the four evaluators.

    A ``CurveBatch`` of N curves gives shape (N,) + t.shape + (dim,),
    one ``EphCurve`` t.shape + (dim,).
    """
    return _EVALUATORS[method](curve, t, mode)


# ---------------------------------------------------------------------------
# dynamic (matrix-recursion) evaluation, m=1, d=3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DynamicEvalReport:
    """Samples produced by the lifted recursion and their accuracy."""

    k: int
    samples: np.ndarray
    max_rel_error: float


def _shift_matrix(omega: float, c2: float, h: float) -> np.ndarray:
    """Matrix mapping curve-basis values at t to values at t+h (m=1)."""
    ew = math.exp(omega)
    B = np.array([
        [1.0, 1.0, 1.0, 1.0],
        [0.0, c2, 1.0 - c2, 1.0],
        [1.0, 1.0 + omega * c2, ew * (1.0 - omega * c2), ew],
        [1.0, 1.0 - omega * c2, (1.0 + omega * c2) / ew, 1.0 / ew],
    ])
    Chat = np.diag([1.0, 1.0, math.exp(omega * h), math.exp(-omega * h)])
    Chat[1, 0] = h
    return np.linalg.solve(B, Chat @ B)


def dynamic_eval_m1(curve: EphCurve, k: int) -> DynamicEvalReport:
    """Sample the curve at k equispaced parameters by matrix recursion.

    The control points are lifted to dimension 4 (appending a unit row
    to make the lifted polygon invertible), the one-step shift matrix of
    the basis is conjugated into that frame, and repeated multiplication
    yields the samples.  The shift matrix has an entry growing like
    exp(omega*h), so the recursion loses all accuracy once omega
    reaches a few tens; the report records the error against the direct
    evaluator.
    """
    if curve.m != 1 or curve.dim != 3:
        raise ValueError("dynamic evaluation is implemented for m=1, dim=3")
    if k < 2:
        raise ValueError("k must be at least 2")
    cp = curve.control_points
    r2 = cp[1:].T                       # trailing 3x3 block
    scale = float(np.max(np.abs(r2)))
    if scale == 0.0 or abs(np.linalg.det(r2)) < 1e-12 * scale ** 3:
        raise SingularControlBlockError(
            "trailing 3x3 control-point block is (near) singular")
    R = np.zeros((4, 4))
    R[:3, 0] = cp[0]
    R[:3, 1:] = r2
    R[3, 0] = 1.0
    h = 1.0 / (k - 1)
    c2 = basis.constants(1, curve.omega).c2
    C = _shift_matrix(curve.omega, c2, h)
    M = R @ C @ np.linalg.inv(R)
    z = R[:, 0].copy()
    samples = np.empty((k, 3))
    samples[0] = z[:3]
    for i in range(1, k):
        z = M @ z
        samples[i] = z[:3]
    ts = np.linspace(0.0, 1.0, k)
    ref = eval_direct(curve, ts)
    denom = float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(samples - ref))) / denom if denom > 0 else math.inf
    return DynamicEvalReport(k=k, samples=samples, max_rel_error=err)
