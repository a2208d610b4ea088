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
import numbers
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
    h0, h1, h2, h3, h4 = basis._columns(h)
    return basis._stack([
        h0 + beta * h1,
        (1.0 - beta) * h1 + c.q0 * h2,
        c.q1 * h2 + h3,
        h4,
    ])


def _corner_chain(m: int, omega: float, t, mode: EvalMode) -> list:
    """Bases of the nested chain, from 2 functions up to the curve basis,
    as rows: (t, k) for a grid, (k,) for one point.

    For m=2 the hodograph level is built from the m=1 level before it,
    by the products ``hodograph_basis(2, ...)`` uses."""
    h1 = basis.hodograph_basis(1, omega, t)
    chain = [basis._two_space_basis(omega, t), h1]
    if m == 2:
        h = basis._hodograph_products(*basis._columns(h1))
        chain.append(_four_space_basis(omega, h))
        chain.append(h)
    chain.append(basis.curve_basis(m, omega, t, mode))
    return chain


def _cut_weight(rest, b):
    """``1 - rest / b`` clipped to [0, 1], and 0 where ``b`` is not positive.

    On arrays ``np.where`` and ``np.clip`` pick and clip.  On Python
    floats (one point) conditional expressions give numpy's bits: no
    division is made where ``b`` is not positive, NaN passes the clip,
    -0.0 stays, and +inf becomes 1.0."""
    if type(rest) is float:
        if not b > 0.0:
            return 0.0
        x = 1.0 - rest / b
        if x >= 0.0:
            return x if x <= 1.0 else 1.0
        return x if x != x else 0.0
    raw = 1.0 - rest / b
    raw = np.where(b > 0.0, raw, 0.0)
    np.clip(raw, 0.0, 1.0, out=raw)
    return raw


def _decasteljau_weights(m: int, omega: float, t, mode: EvalMode) -> list:
    """Per-level convex-combination weights lambda[p], p = 0..2m.

    Level p connects the chain bases with p+1 and p+2 functions, the
    first the constant [1.0]: basis function j of the larger space splits
    as ``B_{p+1,j} = lam[j-1] B_{p,j-1} + (1 - lam[j]) B_{p,j}``, solved
    by forward substitution in j over the bases' columns
    (``basis._columns``): (t,) views for a grid, Python floats for one
    point.  The true weights are convex for the nested chain, so each
    quotient is clipped to [0, 1] (``_cut_weight``): where a basis value
    underflows the raw quotient is pure noise, and that node carries no
    mass anyway.  Each level is a list of p+1 weights, t-contiguous
    arrays for a grid, so the point loops read contiguous t.
    """
    levels = [[1.0]] + [basis._columns(b) for b in _corner_chain(m, omega, t, mode)]
    weights = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for bp, bp1 in zip(levels, levels[1:]):
            lam = []
            carried = 0.0                   # lam[j-1] * B_{p,j-1}
            for b, b1 in zip(bp, bp1):
                raw = _cut_weight(b1 - carried, b)
                lam.append(raw)
                carried = raw * b
            weights.append(lam)
    return weights


def _point_columns(curve: EphCurve | CurveBatch, t):
    """t's shape, t flattened and the control points as lead + (dim, 2m+2, 1).

    This is the evaluators' one switch between the two kinds of input.
    One t of one ``EphCurve`` comes back as a Python float with no points
    (None): the evaluators then run on Python floats, one coordinate at a
    time (see ``_per_coordinate``).  Everything else runs on lead + (dim,
    t) arrays, with lead = (N,) for a batch and () for one curve, so every
    product runs along t; one t of a ``CurveBatch`` is a grid of one."""
    t = basis._check_t(t)
    cp = curve.control_points
    if isinstance(t, float):
        if cp.ndim == 2:
            return (), t, None
        t = np.array(t)
    return t.shape, t.reshape(-1), cp.swapaxes(-1, -2)[..., None]


def _point_rows(q: np.ndarray, shape: tuple) -> np.ndarray:
    """Points lead + (dim, t) as lead + shape + (dim,)."""
    return q.swapaxes(-1, -2).reshape(q.shape[:-2] + shape + q.shape[-2:-1])


def _per_coordinate(cp: np.ndarray, value) -> np.ndarray:
    """One point of one curve, on Python floats: ``value`` maps the list of
    one coordinate's 2m+2 control values to that coordinate of the point,
    and the dim results are packed as a fresh (dim,) array."""
    return np.array([value(p) for p in cp.T.tolist()])


def _decasteljau_levels(points, lam: list) -> list:
    """The 2m+1 levels of convex combinations on the 2m+2 ``points``: a
    (2m+2,) + lead + (dim, 1) view of the control points, or a list of
    Python floats for one coordinate of one curve at one point.  The
    first level is cut straight from the polygon and later levels
    overwrite their own points, never ``points``; the value is the first
    of the returned points."""
    n = len(points) - 1
    pts = []
    for j in range(n):
        lv = lam[n - 1][j]
        c = (1.0 - lv) * points[j]
        c += lv * points[j + 1]
        pts.append(c)
    for p in range(n - 2, -1, -1):
        for j in range(p + 1):
            lv = lam[p][j]
            pts[j] *= 1.0 - lv
            pts[j] += lv * pts[j + 1]
    return pts


def eval_decasteljau(curve: EphCurve | CurveBatch, t,
                     mode: EvalMode = EvalMode.AUTO) -> np.ndarray:
    """Corner-cutting evaluation: 2m+1 levels of convex combinations.

    No level holds more than 2m+1 points per parameter and curve (see
    ``_decasteljau_levels``).  One t of one curve, interior or an end,
    runs on Python floats: the weights are lists of floats and the levels
    run one coordinate at a time; everything else runs the same levels
    on lead + (dim, t) points (see ``_point_columns``).
    """
    shape, tv, cp = _point_columns(curve, t)
    lam = _decasteljau_weights(curve.m, curve.omega, tv, mode)
    if cp is None:
        return _per_coordinate(curve.control_points,
                               lambda p: _decasteljau_levels(p, lam)[0])
    # pts stays alive while _point_rows copies pts[0] out, which keeps a
    # grid's allocation order (see _corner_cut)
    pts = _decasteljau_levels(np.moveaxis(cp, -2, 0), lam)
    return _point_rows(pts[0], shape)


def _wc_combine(points: list, h: list):
    """Woźny–Chudy's sequential convex combinations on ``points`` P_0 ..
    P_{2m+1}: ``q *= 1 - h_k; q += h_k P_k`` for k = 1..2m+1, from q =
    P_0.  The points are lead + (dim, t) arrays, P_0 a fresh one that
    the steps overwrite, or one coordinate's Python floats."""
    q = points[0]
    for k, hk in enumerate(h, 1):
        q *= 1.0 - hk
        q += hk * points[k]
    return q


def eval_wozny_chudy(curve: EphCurve | CurveBatch, t,
                     mode: EvalMode = EvalMode.AUTO) -> np.ndarray:
    """Linear-time evaluation via partial-sum ratios of the curve basis.

    The ratios h_k = b_k / (b_0 + ... + b_k) are taken only where the
    partial sum is positive, and weight one combination loop
    (``_wc_combine``).  One t of one curve, interior or an end, runs on
    Python floats: the partial sums are a running sum, in ``np.cumsum``'s
    sequential order, and the loop runs one coordinate at a time.
    """
    shape, tv, cp = _point_columns(curve, t)
    b = basis.curve_basis(curve.m, curve.omega, tv, mode)
    if cp is None:
        b = b.tolist()
        h = []
        s = b[0]
        for bk in b[1:]:
            s += bk
            h.append(bk / s if s > 0.0 else 0.0)
        return _per_coordinate(curve.control_points, lambda p: _wc_combine(p, h))
    s = np.cumsum(b, axis=-1)
    points = [np.broadcast_to(cp[..., 0, :], cp.shape[:-2] + (tv.size,)).copy()]
    points += [cp[..., k, :] for k in range(1, cp.shape[-2])]
    with np.errstate(divide="ignore", invalid="ignore"):
        h = [np.where(s[..., k] > 0.0, b[..., k] / s[..., k], 0.0)
             for k in range(1, cp.shape[-2])]
        q = _wc_combine(points, h)
    return _point_rows(q, shape)


def _bernstein_wc(r1: list, ratio):
    """Linear-time polynomial recursion on a reduced Bernstein polygon.

    ``r1`` lists the 2m+1 points of the polygon: lead + (dim, t) arrays
    for a grid or a batch, Python floats for one coordinate of one curve
    at one point.  ``ratio`` is (1 - t) / t, which stays at most 1 for t
    in [0.5, 1); points below 0.5 pass the polygon reversed, as the
    mirror image at 1 - t.  Each step adds into a fresh difference, so
    no point of ``r1`` is written.
    """
    n = len(r1) - 1
    q = r1[0]
    h = 1.0
    for k in range(1, n + 1):
        h = 1.0 / (1.0 + (k / (n + 1.0 - k)) * ratio / h)
        step = r1[k] - q
        step *= h
        step += q                       # the bits of q + h (r_k - q)
        q = step
    return q


def _corner_cut(curve: EphCurve | CurveBatch, t, cp, mirror: bool,
                mode: EvalMode) -> np.ndarray:
    """Points at parameters ``t`` all strictly inside (0, 1) on one side of
    0.5, from ``_point_columns``' t and points: lead + (dim, t) for a
    grid, (dim,) for one t of one curve (no points).

    The reduced polygon is tau_k (P_k - P_{k+1}) + P_{k+1}, k = 0..2m,
    reversed for the mirror image at 1 - t.  One t of one curve builds it
    on Python floats, one coordinate at a time, and runs the recursion on
    each list of 2m+1 floats.  A grid builds it as one lead + (dim, 2m+1,
    t) block, along contiguous t, and runs the same recursion on the list
    of its 2m+1 points.  The block is one allocation on purpose: with
    2m+1 separate point arrays of a batch's size, glibc's malloc kept
    trimming and re-faulting heap pages, and every evaluator in the
    process lost 10-28% of its throughput.
    """
    tau = basis.corner_weights(curve.m, curve.omega, t, mode)
    s, u = (1.0 - t, t) if mirror else (t, 1.0 - t)
    ratio = u / s
    if cp is None:
        tau = tau.tolist()

        def value(p):
            r1 = [tk * (a - b) + b for tk, a, b in zip(tau, p, p[1:])]
            return _bernstein_wc(r1[::-1] if mirror else r1, ratio)

        return _per_coordinate(curve.control_points, value)
    tau = np.ascontiguousarray(tau.T)               # (2m+1, t), t contiguous
    block = tau * (cp[..., :-1, :] - cp[..., 1:, :])
    block += cp[..., 1:, :]
    r1 = [block[..., k, :] for k in range(block.shape[-2])]
    return _bernstein_wc(r1[::-1] if mirror else r1, ratio)


def eval_new(curve: EphCurve | CurveBatch, t,
             mode: EvalMode = EvalMode.AUTO) -> np.ndarray:
    """Corner-cut onto a Bernstein polygon, then the polynomial recursion.

    The corner weights are undefined at t = 0 and t = 1, where the value
    is the end control point.  Points below and above t = 0.5 take their
    own corner weights and the two directions of the recursion (see
    ``_bernstein_wc``).  One t of one curve is cut on Python floats on
    its side of 0.5, or is an end and returns a copy of its end control
    point.  Every array of t takes one split: the ends by mask, then one
    ``_corner_cut`` per side of 0.5 that holds points.  Near
    t = 0 the corner weights underflow (see ``corner_weights``): the
    result is NaN from about t = 1e-161 down for m=1 and from about
    t = 1e-81 for m=2 (measured at omega from 1e-3 to 300), where
    ``eval_direct`` stays finite.  Before the NaN, m=1 goes wrong:
    against ``eval_direct``, with a random polygon in [0, 1]^3, the error
    is 3e-4 (omega = 4) and 9e-7 (omega = 40) at t = 1e-30, and O(1),
    0.4, by t = 1e-50 at both and by t = 1e-160 at omega = 300.

    The first stage cuts corners only where the weights lie in [0, 1]:
    for m=1 at every omega tried (1e-4 to 650), for m=2 up to omega = 6.
    From omega = 7 up the m=2 weights leave [0, 1], down to about
    -omega/10 (see ``corner_weights``), and the first stage extrapolates.
    """
    shape, tv, cp = _point_columns(curve, t)
    if cp is None:
        if 0.0 < tv < 1.0:
            return _corner_cut(curve, tv, None, tv < 0.5, mode)
        return curve.control_points[0 if tv == 0.0 else -1].copy()
    below = (tv > 0.0) & (tv < 0.5)
    above = (tv >= 0.5) & (tv < 1.0)
    # end control points where t is 0 or 1; every other point is overwritten
    out = np.empty(cp.shape[:-2] + (tv.size,))
    out[..., tv == 0.0] = cp[..., 0, :]
    out[..., tv == 1.0] = cp[..., -1, :]
    for sel, mirror in ((below, True), (above, False)):
        if sel.any():
            out[..., sel] = _corner_cut(curve, tv[sel], cp, mirror, mode)
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
    if not isinstance(k, numbers.Integral):
        raise ValueError("k must be an integer, got %r" % (k,))
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
