"""Theta functions with characteristics and the point-evaluation matrix.

Level-k theta functions span a k-dimensional space; evaluating each basis
function at the k rational points j/k gives a square matrix whose
invertibility realizes those points as an honest basis.  At every tau the
matrix is a discrete Fourier transform with its rows scaled by the
theta-nulls, so its singular values are sqrt(k) times their moduli.
"""

import cmath
import math
from fractions import Fraction

from bsq.theta import (
    ThetaCharacteristic,
    bpu_matrix,
    bs_points,
    characteristics,
    theta_value,
    truncation_bound,
)


def main():
    k = 3
    print(f"level {k}: characteristics {[str(c.w) for c in characteristics(k)]} "
          f"at points {[str(b) for b in bs_points(k)]}")

    ch = ThetaCharacteristic(k, Fraction(1, 3))
    z = 0.25 + 0.15j
    val = theta_value(ch, z)
    print(f"theta_{{1/3}}({z}) = {val:.12f}")
    print(f"  guaranteed truncation error <= {truncation_bound(ch, z):.2e}")

    print()
    print("the two functional equations, checked at one point:")
    lhs1 = theta_value(ch, z + 1)
    rhs1 = cmath.exp(2j * math.pi * ch.index) * val
    print(f"  shift by 1:   |lhs - rhs| = {abs(lhs1 - rhs1):.2e}")
    lhs2 = theta_value(ch, z + 1j)
    rhs2 = cmath.exp(-1j * math.pi * k * 1j - 2j * math.pi * k * z) * val
    print(f"  shift by tau: |lhs - rhs| = {abs(lhs2 - rhs2):.2e}")

    print()
    print("evaluation matrix conditioning across levels (tau = i):")
    for level in range(1, 13):
        m = bpu_matrix(level)
        print(f"  k={level:>2}: smallest singular value {m.smallest_singular_value():.4e}")

    print()
    m = bpu_matrix(4)
    print("row moduli at k=4 are constant (each row is a scaled Fourier row):")
    for i, row in enumerate(m.entries):
        print(f"  row {i}: " + " ".join(f"{abs(z):.6f}" for z in row))


if __name__ == "__main__":
    main()
