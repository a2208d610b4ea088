import math

import numpy as np
import pytest
from mpmath import mpf, workdps
from scipy.integrate import quad

from conftest import rel_inf
from oracles import constants_ref
from ephcurve import basis
from ephcurve.curve import (CurveBatch, EphCurve, Preimage,
                            arc_length, arc_length_coeffs, curve_from_preimage,
                            derivative, eval_direct, hodograph, is_regular,
                            parametric_speed, parametric_speed_coeffs)
from ephcurve.errors import DomainError
from ephcurve.quat import Quaternion

I = Quaternion(0, 1, 0, 0)


def random_preimage(rng, m, omega, planar=False):
    coeffs = []
    for _ in range(m + 1):
        c = rng.uniform(-2, 2, 4)
        if planar:
            c[0] = c[3] = 0.0
        coeffs.append(Quaternion(*c))
    return Preimage(m=m, omega=omega, coeffs=tuple(coeffs))


def random_curve(rng, m, omega, dim=3):
    return EphCurve(m=m, omega=omega, dim=dim,
                    control_points=rng.uniform(0, 1, (2 * m + 2, dim)))


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_curve_validation():
    with pytest.raises(ValueError):
        EphCurve(m=1, omega=1.0, dim=3, control_points=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        EphCurve(m=1, omega=0.0, dim=3, control_points=np.zeros((4, 3)))
    with pytest.raises(ValueError):
        EphCurve(m=1, omega=1.0, dim=3,
                 control_points=np.full((4, 3), np.nan))
    c = EphCurve(m=1, omega=1.0, dim=2, control_points=np.zeros((4, 2)))
    with pytest.raises(ValueError):
        c.control_points[0, 0] = 1.0   # frozen


def test_batch_validation():
    good = np.zeros((5, 4, 3))
    batch = CurveBatch(m=1, omega=1.0, dim=3, control_points=good)
    assert batch.control_points.shape == (5, 4, 3)
    with pytest.raises(ValueError):
        batch.control_points[0, 0, 0] = 1.0   # frozen
    bad_points = np.zeros((5, 4, 3))
    bad_points[3, 2, 1] = np.inf
    for m, dim, pts in ((1, 3, bad_points),                  # non-finite point
                        (1, 3, np.zeros((5, 6, 3))),         # 2m+2 = 4 expected
                        (2, 3, np.zeros((5, 4, 3))),         # 6 expected
                        (1, 2, good),                        # dim mismatch
                        (1, 3, np.zeros((4, 3))),            # one unstacked polygon
                        (1, 3, np.zeros((0, 4, 3))),         # no curves
                        (1, 4, np.zeros((5, 4, 4)))):
        with pytest.raises(ValueError):
            CurveBatch(m=m, omega=1.0, dim=dim, control_points=pts)
    for w in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            CurveBatch(m=1, omega=w, dim=3, control_points=good)
    with pytest.raises(ValueError):
        CurveBatch(m=3, omega=1.0, dim=3, control_points=np.zeros((5, 8, 3)))


@pytest.mark.parametrize("w", [math.inf, math.nan])
def test_records_reject_non_finite_omega(w):
    with pytest.raises(ValueError):
        EphCurve(m=1, omega=w, dim=3, control_points=np.zeros((4, 3)))
    with pytest.raises(ValueError):
        Preimage(m=1, omega=w, coeffs=(I, I))


def test_json_round_trip(rng):
    curve = random_curve(rng, 2, math.pi)
    again = EphCurve.from_json(curve.to_json())
    assert again.m == curve.m and again.dim == curve.dim
    assert again.omega == curve.omega
    assert np.array_equal(again.control_points, curve.control_points)
    pre = random_preimage(rng, 1, 0.37)
    back = Preimage.from_json(pre.to_json())
    assert back == pre


def test_preimage_validation():
    with pytest.raises(ValueError):
        Preimage(m=1, omega=1.0, coeffs=(I,))
    with pytest.raises(ValueError):
        Preimage(m=3, omega=1.0, coeffs=(I, I, I, I))
    # degenerate all-zero preimage is allowed (gives the point curve)
    zero = Preimage(m=1, omega=1.0, coeffs=(Quaternion(), Quaternion()))
    assert not is_regular(zero)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("bad", [(math.nan, 1.0, 0.0, 0.0), (0.0, 1.0, math.inf, 0.0),
                                 Quaternion(0.0, -math.inf, 0.0, 0.0)])
def test_preimage_rejects_non_finite_coeffs(m, bad):
    coeffs = ((0.0, 1.0, 0.0, 0.0),) * m + (bad,)
    with pytest.raises(ValueError, match="finite"):
        Preimage(m=m, omega=1.0, coeffs=coeffs)


# ---------------------------------------------------------------------------
# direct evaluation / derivative
# ---------------------------------------------------------------------------

def test_eval_endpoints_and_constant_curve(rng):
    for m in (1, 2):
        curve = random_curve(rng, m, 3.0)
        assert np.allclose(eval_direct(curve, 0.0), curve.control_points[0],
                           atol=1e-13)
        assert np.allclose(eval_direct(curve, 1.0), curve.control_points[-1],
                           atol=1e-13)
        p = np.array([0.3, -1.2, 0.7])
        const = EphCurve(m=m, omega=3.0, dim=3,
                         control_points=np.tile(p, (2 * m + 2, 1)))
        ts = np.linspace(0, 1, 17)
        assert np.allclose(eval_direct(const, ts), p, atol=1e-13)


def test_eval_domain_error(rng):
    curve = random_curve(rng, 1, 1.0)
    with pytest.raises(DomainError):
        eval_direct(curve, 1.5)


def test_derivative_endpoint_formula(rng):
    for m in (1, 2):
        for w in (0.7, 4.0):
            curve = random_curve(rng, m, w)
            c = basis.constants(m, w)
            first = c.c2 if m == 1 else c.q2
            cp = curve.control_points
            assert np.allclose(derivative(curve, 0.0), (cp[1] - cp[0]) / first,
                               rtol=1e-11)
            assert np.allclose(derivative(curve, 1.0), (cp[-1] - cp[-2]) / first,
                               rtol=1e-11)


def test_derivative_matches_finite_differences(rng):
    for m in (1, 2):
        curve = random_curve(rng, m, 2.2)
        ts = np.linspace(0.01, 0.99, 23)
        h = 1e-6
        fd = (eval_direct(curve, ts + h) - eval_direct(curve, ts - h)) / (2 * h)
        assert np.max(np.abs(derivative(curve, ts) - fd)) < 1e-5


def test_collinear_control_points_give_constant_direction(rng):
    for m in (1, 2):
        p0 = np.array([1.0, 2.0, 3.0])
        step = np.array([0.5, -0.25, 1.0])
        pts = np.array([p0 + i * step for i in range(2 * m + 2)])
        curve = EphCurve(m=m, omega=1.5, dim=3, control_points=pts)
        d = derivative(curve, np.linspace(0, 1, 9))
        unit = d / np.linalg.norm(d, axis=-1, keepdims=True)
        assert np.max(np.abs(unit - unit[0])) < 1e-12


# ---------------------------------------------------------------------------
# PH construction
# ---------------------------------------------------------------------------

def test_curve_from_preimage_unit_i_case():
    w = 1.3
    pre = Preimage(m=1, omega=w, coeffs=(I, I))
    curve = curve_from_preimage(pre, np.zeros(3))
    c = basis.constants(1, w)
    expect = np.array([
        [0.0, 0.0, 0.0],
        [c.c2, 0.0, 0.0],
        [c.c2 + c.c3, 0.0, 0.0],
        [2 * c.c2 + c.c3, 0.0, 0.0],
    ])
    assert np.allclose(curve.control_points, expect, rtol=1e-14)


def test_curve_from_preimage_polynomial_limit(rng):
    # at omega -> 0 the construction reduces to the cubic case with
    # thirds as weights
    pre = random_preimage(rng, 1, 1e-4)
    curve = curve_from_preimage(pre, np.zeros(3))
    a0, a1 = pre.coeffs
    from ephcurve.quat import sandwich_i, sym_sandwich_i
    d0 = sandwich_i(a0) / 3.0
    d1 = sym_sandwich_i(a0, a1) / 3.0
    d2 = sandwich_i(a1) / 3.0
    expect = np.cumsum([np.zeros(3), d0, d1, d2], axis=0)
    assert np.max(np.abs(curve.control_points - expect)) < 1e-6


def test_hodograph_scalar_preimage():
    w = 2.0
    pre = Preimage(m=1, omega=w, coeffs=(Quaternion(1.0), Quaternion()))
    ts = np.linspace(0, 1, 11)
    h = hodograph(pre, ts)
    psi0 = basis.preimage_basis(1, w, ts)[:, 0]
    assert np.allclose(h[:, 0], psi0 ** 2, rtol=1e-13)
    assert np.allclose(h[:, 1:], 0.0, atol=1e-15)


def test_hodograph_pythagorean_property(rng):
    for m in (1, 2):
        pre = random_preimage(rng, m, 1.8)
        ts = np.linspace(0, 1, 101)
        h = hodograph(pre, ts)
        lhs = np.sum(h ** 2, axis=-1)
        psi = basis.preimage_basis(m, pre.omega, ts)
        comp = psi @ pre.coeff_array()
        rhs = np.sum(comp ** 2, axis=-1) ** 2
        assert rel_inf(lhs, rhs) < 1e-12


def test_hodograph_matches_curve_derivative(rng):
    for m in (1, 2):
        for w in (0.4, 3.0, 25.0):
            pre = random_preimage(rng, m, w)
            curve = curve_from_preimage(pre, np.array([1.0, -2.0, 0.5]))
            ts = np.linspace(0, 1, 51)
            assert rel_inf(hodograph(pre, ts), derivative(curve, ts)) < 1e-11


def test_speed_coeffs_examples():
    w = 2.4
    c = basis.constants(1, w)
    pre = Preimage(m=1, omega=w, coeffs=(Quaternion(1.0), Quaternion(1.0)))
    sigma = parametric_speed_coeffs(pre)
    assert np.allclose(sigma, [1.0, c.c1, 1.0], rtol=1e-14)
    # zero middle coefficient kills the q0 part of the central weight
    q = basis.constants(2, w)
    pre2 = Preimage(m=2, omega=w,
                    coeffs=(Quaternion(0, 1, 2, 0), Quaternion(),
                            Quaternion(0, 0, 1, 1)))
    sigma2 = parametric_speed_coeffs(pre2)
    from ephcurve.quat import dot
    assert sigma2[1] == 0.0 and sigma2[3] == 0.0
    assert sigma2[2] == pytest.approx(q.q1 * dot(pre2.coeffs[0], pre2.coeffs[2]),
                                      rel=1e-14)


def test_speed_matches_preimage_norm(rng):
    for m in (1, 2):
        pre = random_preimage(rng, m, 3.3)
        ts = np.linspace(0, 1, 101)
        psi = basis.preimage_basis(m, pre.omega, ts)
        comp = psi @ pre.coeff_array()
        norm2 = np.sum(comp ** 2, axis=-1)
        assert rel_inf(parametric_speed(pre, ts), norm2) < 1e-11


def test_speed_matches_derivative_norm(rng):
    for m in (1, 2):
        for w in (0.6, 5.0, 28.0):
            pre = random_preimage(rng, m, w)
            curve = curve_from_preimage(pre, np.zeros(3))
            ts = np.linspace(0, 1, 101)
            speed = parametric_speed(pre, ts)
            dnorm = np.linalg.norm(derivative(curve, ts), axis=-1)
            assert rel_inf(dnorm, speed) < 1e-10


def _mp_mul(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw)


def _mp_sandwich(a, b):
    """Vector part of (a i b* + b i a*)/2 from exact Hamilton products."""
    def conj(q):
        return (q[0], -q[1], -q[2], -q[3])
    i = (mpf(0), mpf(1), mpf(0), mpf(0))
    ab = _mp_mul(_mp_mul(a, i), conj(b))
    ba = _mp_mul(_mp_mul(b, i), conj(a))
    return [(u + v) / 2 for u, v in zip(ab[1:], ba[1:])]


def _mp_dot(a, b):
    return [sum(u * v for u, v in zip(a, b))]


def _ph_reference(m, omega, coeffs):
    """Control-point differences, speed and arc-length coefficients of
    the PH construction, from the mpmath constants and exact products.

    Each coefficient is a list of (constant, i, j) terms over the
    products of preimage coefficients i and j.
    """
    with workdps(60):
        c = constants_ref(m, omega)
        a = [[mpf(float(v)) for v in q] for q in coeffs]
        if m == 1:
            speed = [[(1, 0, 0)], [(c["c1"], 0, 1)], [(1, 1, 1)]]
            integral = [[(c["c2"], 0, 0)], [(c["c3"], 0, 1)], [(c["c2"], 1, 1)]]
        else:
            q4_q0_over_q1 = c["q4"] * c["q0"] / c["q1"]
            speed = [[(1, 0, 0)], [(1, 0, 1)], [(c["q0"], 1, 1), (c["q1"], 0, 2)],
                     [(1, 1, 2)], [(1, 2, 2)]]
            integral = [[(c["q2"], 0, 0)], [(c["q3"], 0, 1)],
                        [(c["q4"], 0, 2), (q4_q0_over_q1, 1, 1)],
                        [(c["q3"], 1, 2)], [(c["q2"], 2, 2)]]

        def combine(table, product):
            return [[sum(k * product(a[i], a[j])[n] for k, i, j in terms)
                     for n in range(len(product(a[0], a[0])))]
                    for terms in table]

        deltas = combine(integral, _mp_sandwich)
        sigma = [v for (v,) in combine(speed, _mp_dot)]
        s = [mpf(0)]
        for (v,) in combine(integral, _mp_dot):
            s.append(s[-1] + v)
        return (np.array(deltas, dtype=float), np.array(sigma, dtype=float),
                np.array(s, dtype=float))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("w", [1e-4, 0.9999, 1.0001, 40.0, 800.0, 1500.0])
def test_ph_construction_matches_oracle(rng, m, w):
    # both sides of the series switch of the constants, and the range
    # where c1 (m=1) or q1 (m=2) underflow; r0 = 0 keeps the differences
    # of the control points free of cancellation against r0
    for _ in range(3):
        pre = random_preimage(rng, m, w)
        deltas, sigma, s = _ph_reference(m, w, pre.coeff_array())
        cp = curve_from_preimage(pre, np.zeros(3)).control_points
        assert rel_inf(np.diff(cp, axis=0), deltas) < 1e-13
        assert rel_inf(parametric_speed_coeffs(pre), sigma) < 1e-13
        assert rel_inf(arc_length_coeffs(pre), s) < 1e-13


def test_arc_length_zero_preimage():
    pre = Preimage(m=2, omega=1.0, coeffs=(Quaternion(),) * 3)
    assert np.allclose(arc_length_coeffs(pre), 0.0)


def test_arc_length_total_m1():
    w = 1.0
    c = basis.constants(1, w)
    pre = Preimage(m=1, omega=w, coeffs=(Quaternion(1.0), Quaternion(1.0)))
    s = arc_length_coeffs(pre)
    assert s[0] == 0.0
    assert s[-1] == pytest.approx(2 * c.c2 + c.c3, rel=1e-14)
    total, _ = quad(lambda x: parametric_speed(pre, x), 0.0, 1.0,
                    epsabs=1e-11, epsrel=1e-11)
    assert s[-1] == pytest.approx(total, abs=1e-9)


def test_arc_length_quintic_limit(rng):
    pre = random_preimage(rng, 2, 1e-4)
    a0, a1, a2 = pre.coeffs
    from ephcurve.quat import dot
    expect = ((dot(a0, a0) + dot(a2, a2)) / 5.0 + 2.0 * dot(a1, a1) / 15.0
              + dot(a0, a1) / 5.0 + dot(a1, a2) / 5.0 + dot(a0, a2) / 15.0)
    s = arc_length_coeffs(pre)
    assert s[-1] == pytest.approx(expect, rel=1e-6)


def test_arc_length_matches_quadrature(rng):
    for m in (1, 2):
        pre = random_preimage(rng, m, 2.7)
        for upper in (0.35, 1.0):
            ref, _ = quad(lambda x: parametric_speed(pre, x), 0.0, upper,
                          epsabs=1e-11, epsrel=1e-11)
            assert float(arc_length(pre, upper)) == pytest.approx(ref, abs=1e-8)


def test_arc_length_nondecreasing_for_regular(rng):
    # the length function grows along a regular curve; its coefficient
    # sequence over the basis need not be monotone (mixed-sign speed
    # cross terms are compensated pointwise by the middle basis weight)
    for m in (1, 2):
        pre = random_preimage(rng, m, 2.0)
        if is_regular(pre):
            values = arc_length(pre, np.linspace(0, 1, 501))
            assert np.all(np.diff(values) >= -1e-12)


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------

def test_is_regular_cases():
    assert is_regular(Preimage(m=1, omega=1.0, coeffs=(I, I)))
    assert not is_regular(Preimage(m=1, omega=1.0,
                                   coeffs=(Quaternion(), Quaternion())))
    # A(t) = psi0 - psi1 vanishes at the interior crossing of the two
    # basis functions, so the speed has an interior zero
    pre = Preimage(m=1, omega=1.0, coeffs=(Quaternion(1.0), Quaternion(-1.0)))
    ts = np.linspace(0, 1, 2001)
    sigma = parametric_speed(pre, ts)
    assert np.min(sigma) < 1e-6 * np.max(sigma)
    assert not is_regular(pre)


# ---------------------------------------------------------------------------
# geometric properties
# ---------------------------------------------------------------------------

def test_convex_hull_support_functions(rng):
    for m in (1, 2):
        curve = random_curve(rng, m, 4.0)
        pts = eval_direct(curve, np.linspace(0, 1, 1001))
        dirs = rng.normal(size=(200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        hull_support = np.max(dirs @ curve.control_points.T, axis=1)
        curve_support = np.max(dirs @ pts.T, axis=1)
        assert np.all(curve_support <= hull_support + 1e-10)


def test_symmetry_reversed_polygon(rng):
    for m in (1, 2):
        curve = random_curve(rng, m, 2.0)
        rev = EphCurve(m=m, omega=2.0, dim=3,
                       control_points=curve.control_points[::-1])
        ts = np.linspace(0, 1, 101)
        assert np.max(np.abs(eval_direct(curve, ts)
                             - eval_direct(rev, 1.0 - ts))) < 1e-12


def test_affine_invariance(rng):
    for m in (1, 2):
        curve = random_curve(rng, m, 7.0)
        A = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        mapped = EphCurve(m=m, omega=7.0, dim=3,
                          control_points=curve.control_points @ A.T + b)
        ts = np.linspace(0, 1, 101)
        assert np.max(np.abs(eval_direct(mapped, ts)
                             - (eval_direct(curve, ts) @ A.T + b))) < 1e-11


def test_planar_preimage_gives_constant_z(rng):
    for m in (1, 2):
        pre = random_preimage(rng, m, 3.0, planar=True)
        curve = curve_from_preimage(pre, np.array([0.0, 0.0, 4.5]))
        pts = eval_direct(curve, np.linspace(0, 1, 101))
        assert np.max(np.abs(pts[:, 2] - 4.5)) < 1e-12
