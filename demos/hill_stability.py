"""Quaternion-valued Hill's equation u'' + a(t) u = 0.

For real a(t) the trace of the monodromy matrix settles stability outright.
With quaternion coefficients the trace can sit quietly inside (-2, 2) while
the equation is violently unstable; the Frobenius channel (the traces of
powers of M(T), beside the squared Frobenius norm) and the characteristic
multipliers expose what the trace hides.  The three verdict
channels are printed side by side, followed by the real specialization and a
small parameter sweep integrated as one batch.
"""

import math

from qfloquet import (HillProblem, analyze, analyze_batch, classify_real,
                      parse)
from qfloquet.hill import k_matrix_diagnostics

COEFFICIENTS = {
    "trace inconclusive, still unstable": "2 + j*cos(2*t)^2 + k*sin(2*t)",
    "trace far outside [-2, 2]": "-1 + j*cos(2*t) + k*sin(2*t)",
    "huge frobenius norm, small trace": "-1 + j*exp(cos(2*t)) + k*sin(2*t)",
}


def main():
    print("Hill's equation with quaternion-valued periodic coefficients\n")
    header = (f"{'coefficient':<34} {'Re tr M(T)':>11} {'||M||_F^2':>11} "
              f"{'trace':>12} {'frobenius':>12} {'multipliers':>12}")
    print(header)
    print("-" * len(header))
    for label, source in COEFFICIENTS.items():
        problem = HillProblem(parse(source), math.pi)
        report = analyze(problem)
        print(f"{label:<34} {report.re_trace:>11.5g} {report.frob_sq:>11.6g} "
              f"{report.verdict_trace.kind.value:>12} "
              f"{report.verdict_frobenius.kind.value:>12} "
              f"{report.verdict_multipliers.kind.value:>12}")
    print()

    print("Multipliers always satisfy |rho1||rho2| = 1 (volume conservation):")
    for label, source in COEFFICIENTS.items():
        report = analyze(HillProblem(parse(source), math.pi))
        moduli = sorted(abs(v) for v in report.multipliers.expanded())
        k1, k2, residual = k_matrix_diagnostics(report.M_T)
        print(f"  {label:<34} |rho| = {moduli[0]:.5g}, {moduli[1]:.5g}; "
              f"K(T) eigenvalues {k1:.5g}, {k2:.5g} "
              f"(quadratic residual {residual:.2e})")
    print()

    print("Real coefficients reduce to the classical trace test:")
    for label, source, period in [
            ("full rotation period", "1", 2 * math.pi),
            ("half rotation, M = -I", "1", math.pi),
            ("hyperbolic growth", "-1", math.pi)]:
        verdict = classify_real(HillProblem(parse(source), period))
        print(f"  a = {source:>2}, T = {period:.5g}: {verdict}")
    print()

    print("Sweep of a(t) = p + j cos(2t) + k sin(2t) over p, as one batch:")
    print(f"  {'p':>5} {'Re tr M(T)':>12} {'max |rho|':>10} verdict")
    node = parse("p + j*cos(2*t) + k*sin(2*t)", ("t", "p"))
    grid = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0)
    reports = analyze_batch([HillProblem(node, math.pi, {"p": p})
                             for p in grid])
    for p, report in zip(grid, reports):
        top = max(abs(v) for v in report.multipliers.expanded())
        print(f"  {p:>5.2g} {report.re_trace:>12.5g} {top:>10.5g} "
              f"{report.verdict_multipliers.kind.value}")


if __name__ == "__main__":
    main()
