"""Floquet analysis of periodic quaternion systems x' = A(t) x.

A detailed pass over one upper-triangular pi-periodic system with an
oscillating quaternion coefficient: monodromy matrix against its closed
form, characteristic multipliers and exponents, the factorization
M(t) = P(t) e^{tB}, a 2T-periodic solution witness, and the volume-growth
identity.  Three companion systems then show the remaining verdict types.
"""

import math

import numpy as np

from qfloquet import (MatrixSpec, QMatrix, classify_periodic,
                      multiplier_product_check, normal_form,
                      periodic_solutions, standard_eigenvalues)
from qfloquet.qmatrix import sum_norms
from qfloquet.quaternion import Quaternion


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    period = math.pi
    spec = MatrixSpec.from_strings(
        [["1", "1"], ["0", "i + 2*exp(2*i*t)*j"]], period=period)
    fd = normal_form(spec)

    banner("Monodromy matrix M(pi) vs the closed form")
    ep = math.exp(math.pi)
    closed = QMatrix.from_entries(
        [[Quaternion(ep), Quaternion(3, -1, 4, 2) * ((1 + ep) / 10)],
         [0, Quaternion(-1)]])
    print("computed:", fd.monodromy)
    print("closed  :", closed)
    print(f"max entry deviation: {(fd.monodromy - closed).max_abs():.3e}")

    banner("Multipliers, exponents, and the spectrum of B")
    for entry, mu in zip(fd.multipliers, fd.exponents):
        print(f"rho = {entry.value:.6g}  |rho| = {abs(entry.value):.6g}"
              f"   ->   mu = {mu:.6g}")
    print("spectrum of B:", standard_eigenvalues(fd.B))

    banner("Periodic factor P(t) = M(t) e^(-tB)")
    # fd.P_samples stacks the complex adjoints of P(t) at fd.sample_times
    print(f"P(0) deviation from identity (entry sum norm): "
          f"{sum_norms(fd.P_samples[0] - np.eye(4)):.3e}")
    print(f"max ||P(t)|| over {len(fd.sample_times)} samples of one period: "
          f"{sum_norms(fd.P_samples).max():.4g}")
    print(f"periodicity residual max|P(t) - P(t+T)|: "
          f"{fd.periodicity_residual:.3e}")

    banner("Periodic solution witnesses")
    for w in periodic_solutions(fd):
        print(f"{w.kind} from multiplier {w.multiplier:.6g}, "
              f"initial vector {w.eta}")

    banner("Volume growth: product of |rho| vs exp(integral of Re tr A)")
    print(f"relative residual: {multiplier_product_check(fd):.3e}")
    print(f"verdict: {classify_periodic(fd)}")

    banner("Sibling systems: the remaining verdict types")
    siblings = {
        "double -1 multiplier, defective":
            [["k", "1"], ["0", "i + 2*exp(2*i*t)*j"]],
        "unit-circle multipliers, diagonalizable":
            [["k/2", "exp(-2*i*t)"], ["0", "i + 2*j*cos(2*t) + 2*k*sin(2*t)"]],
        "contracting multipliers":
            [["i/2 - 1", "exp(2*j*t)*exp(-k*sin(2*t))"],
             ["0", "2*k*cos(2*t) - 1"]],
    }
    for name, rows in siblings.items():
        sibling = normal_form(MatrixSpec.from_strings(rows, period=period))
        mults = ", ".join(
            f"{e.value:.4g} (am={e.algebraic_multiplicity},"
            f" gm={e.geometric_multiplicity})" for e in sibling.multipliers)
        print(f"{name}: {mults} -> {classify_periodic(sibling)}")


if __name__ == "__main__":
    main()
