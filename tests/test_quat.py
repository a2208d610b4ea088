import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ephcurve.quat import (I, J, K, Quaternion, dot, exp_i, mul, sandwich_i,
                           solve_sandwich, sym_sandwich_i)
from ephcurve.errors import DegenerateDirectionError, ZeroVectorError

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_unit_relations():
    assert mul(I, J) == K
    assert mul(J, K) == I
    assert mul(K, I) == J
    assert mul(I, I) == Quaternion(-1.0)
    q = Quaternion(0.3, -1.2, 0.7, 2.0)
    assert mul(Quaternion(1.0), q) == q
    assert mul(q, Quaternion(1.0)) == q


@given(quats, quats)
def test_norm_multiplicative(p, q):
    lhs = abs(mul(p, q))
    rhs = abs(p) * abs(q)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(quats)
def test_conjugate_involution(q):
    assert q.conjugate().conjugate() == q


@given(quats, quats, quats)
def test_mul_associative(p, q, r):
    a = mul(mul(p, q), r)
    b = mul(p, mul(q, r))
    scale = max(abs(p) * abs(q) * abs(r), 1.0)
    for x, y in zip(a.components(), b.components()):
        assert x == pytest.approx(y, abs=1e-9 * scale)


def test_sandwich_examples():
    assert sandwich_i(I).tolist() == [1.0, 0.0, 0.0]
    s = 1.0 / math.sqrt(2.0)
    v = sandwich_i(Quaternion(0.0, s, s, 0.0))
    assert np.allclose(v, (0.0, 1.0, 0.0), atol=1e-15)
    assert sandwich_i(Quaternion(2.0)).tolist() == [4.0, 0.0, 0.0]


@given(quats)
def test_sandwich_is_pure_with_squared_norm(q):
    # check against the Hamilton-product definition q i q*
    prod = mul(mul(q, I), q.conjugate())
    v = sandwich_i(q)
    assert prod.w == pytest.approx(0.0, abs=1e-10 * max(abs(q) ** 2, 1.0))
    assert np.allclose((prod.x, prod.y, prod.z), v,
                       atol=1e-10 * max(abs(q) ** 2, 1.0))
    assert math.hypot(*v) == pytest.approx(abs(q) ** 2, rel=1e-12, abs=1e-12)


@given(quats, quats)
def test_sym_sandwich_polarization(a, b):
    scale = max(abs(a) * abs(b), 1.0)
    direct = 0.5 * (np.array(mul(mul(a, I), b.conjugate()).components())
                    + np.array(mul(mul(b, I), a.conjugate()).components()))
    got = sym_sandwich_i(a, b)
    assert abs(direct[0]) < 1e-10 * scale
    assert np.allclose(direct[1:], got, atol=1e-10 * scale)
    sym = sym_sandwich_i(b, a)
    assert np.array_equal(got, sym)
    same = sym_sandwich_i(a, a)
    assert np.allclose(same, sandwich_i(a), rtol=0, atol=0)


def test_solve_sandwich_axis_cases():
    a = solve_sandwich((1.0, 0.0, 0.0), 0.0)
    assert np.allclose(a.components(), (0.0, 1.0, 0.0, 0.0), atol=1e-15)
    s = 1.0 / math.sqrt(2.0)
    b = solve_sandwich((0.0, 1.0, 0.0), 0.0)
    assert np.allclose(b.components(), (0.0, s, s, 0.0), atol=1e-15)


def test_solve_sandwich_round_trip_planar_data():
    d = (-3.5, 10.0, 0.0)
    a = solve_sandwich(d, 0.0)
    back = sandwich_i(a)
    assert np.allclose(back, d, rtol=1e-12)


def test_solve_sandwich_eta_independence(rng):
    for _ in range(50):
        d = rng.normal(size=3)
        nd = math.hypot(*d)
        if nd == 0.0 or (1.0 + d[0] / nd) < 1e-6:
            continue
        eta = rng.uniform(-math.pi, math.pi)
        a = solve_sandwich(d, eta)
        back = sandwich_i(a)
        assert np.allclose(back, d, rtol=1e-12, atol=1e-14 * nd)


def test_solve_sandwich_errors():
    with pytest.raises(ZeroVectorError):
        solve_sandwich((0.0, 0.0, 0.0), 0.0)
    with pytest.raises(DegenerateDirectionError):
        solve_sandwich((-1.0, 0.0, 0.0), 0.3)
    # barely off-axis still degenerate within tolerance
    with pytest.raises(DegenerateDirectionError):
        solve_sandwich((-1.0, 1e-12, 0.0), 0.0)


def test_exp_i():
    q = exp_i(0.25)
    assert q.w == pytest.approx(math.cos(0.25))
    assert q.x == pytest.approx(math.sin(0.25))
    assert q.y == q.z == 0.0


def test_norms_do_not_overflow_or_underflow():
    # squaring the components would overflow (1e310) or flush to zero;
    # solve_sandwich takes |d| with math.hypot, and |A|^2 = |d|
    for d, nd in (((1e155, 0.0, 0.0), 1e155), ((3e-200, 4e-200, 0.0), 5e-200)):
        a = solve_sandwich(d, 0.0)
        assert abs(a) ** 2 == pytest.approx(nd, rel=1e-14)
        assert np.allclose(sandwich_i(a), d, rtol=1e-14, atol=1e-14 * nd)
    assert Quaternion(0.0, 1e155, 0.0, 0.0).norm() == 1e155
    assert Quaternion(3e-200, 0.0, 4e-200, 0.0).norm() == 5e-200


@pytest.mark.parametrize("d, eta", [
    ((math.nan, 1.0, 0.0), 0.0),
    ((1.0, math.inf, 0.0), 0.0),
    ((-math.inf, 0.0, 0.0), 0.0),
    ((0.0, 0.0, math.nan), 0.0),
    ((0.0, 1.0, 0.0), math.nan),
])
def test_solve_sandwich_rejects_non_finite(d, eta):
    with pytest.raises(ValueError, match="finite"):
        solve_sandwich(np.array(d), eta)


def test_dot_matches_symmetric_scalar_part():
    a = Quaternion(0.5, -1.0, 2.0, 0.25)
    b = Quaternion(1.5, 0.5, -0.5, 1.0)
    sym = 0.5 * (mul(a, b.conjugate()).w + mul(b, a.conjugate()).w)
    assert dot(a, b) == pytest.approx(sym, rel=1e-15)
