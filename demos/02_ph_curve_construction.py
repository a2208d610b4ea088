"""Build a PH curve from a quaternion preimage and verify its metric
properties: the speed of the constructed curve is available in closed
form (no square root of a polynomial), and so is the arc length.
"""

import numpy as np
from scipy.integrate import quad

from ephcurve import (Preimage, Quaternion, arc_length, arc_length_coeffs,
                      curve_from_preimage, derivative, eval_direct, is_regular,
                      parametric_speed)

rng = np.random.default_rng(7)

for m, omega in ((1, 2.0), (2, 6.0)):
    pre = Preimage(m=m, omega=omega,
                   coeffs=tuple(Quaternion(*rng.uniform(-1.5, 1.5, 4))
                                for _ in range(m + 1)))
    curve = curve_from_preimage(pre, r0=np.zeros(3))
    print(f"\n=== m={m}, omega={omega} ===")
    print("control points:")
    print(np.array2string(curve.control_points, precision=4))
    print("regular:", is_regular(pre))

    ts = np.linspace(0, 1, 101)
    speed = parametric_speed(pre, ts)
    dnorm = np.linalg.norm(derivative(curve, ts), axis=-1)
    print(f"max ||r'(t)| - sigma(t)| on the grid: {np.max(np.abs(dnorm - speed)):.2e}")

    s = arc_length_coeffs(pre)
    total = float(arc_length(pre, 1.0))
    ref, _ = quad(lambda x: float(parametric_speed(pre, x)), 0.0, 1.0,
                  epsabs=1e-12, epsrel=1e-12, limit=200)
    print(f"closed-form length {total:.12f} vs quadrature {ref:.12f} "
          f"(diff {abs(total - ref):.2e})")
    print("length coefficients:", np.array2string(s, precision=6))

# planar curves embed with zero mixed components and stay in their plane
pre = Preimage(m=1, omega=3.0,
               coeffs=(Quaternion(0, 1.0, 0.4, 0), Quaternion(0, -0.2, 1.1, 0)))
curve = curve_from_preimage(pre, r0=np.array([0.0, 0.0, 2.0]))
z = eval_direct(curve, np.linspace(0, 1, 101))[:, 2]
print(f"\nplanar preimage: z stays at {z[0]} (spread {np.ptp(z):.2e})")
