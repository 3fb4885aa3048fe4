"""The measure side: weights, moments, and the convergence radius.

The coherent-state family resolves the identity against a radial weight.
For the oscillators that weight is a modified-Bessel kernel; its power
moments must reproduce the generalized factorials exactly, which is checked
here by one certified trapezoid sum over a fixed grid in ln |z|^2.  The
label domain is the whole plane: the factorial growth makes the defining
series entire.
"""

import numpy as np

from gcstates import measure, models


def main():
    specs = [
        models.make_model("nonlinear-osc", nonlinearity=0.27),
        models.make_model("bounded-osc", nonlinearity=0.1),
        models.make_model("exp-mass", alpha=2.0, mu=2.0),
    ]

    print("Weight profiles w~(xi) (unnormalized radial density):")
    for spec in specs:
        vals = [measure.weight_tilde(spec, x) for x in (0.1, 1.0, 4.0, 16.0)]
        row = "  ".join(f"{v:9.3e}" for v in vals)
        print(f"  {spec.id:14s} {row}")
    print("  all positive, all integrable: a genuine probability measure")

    for spec in specs:
        print(f"\nMoment check, {spec.id}:")
        print("  n    quadrature          analytic            rel err")
        for rep in measure.verify_moments(spec, n_max=6):
            print(
                f"  {rep.n}  {rep.quadrature:18.12g}  {rep.analytic_rho:18.12g}"
                f"  {rep.rel_error:9.2e}"
            )

    print("\nConvergence radius of the defining series:")
    for spec in specs:
        rep = measure.radius(spec)
        print(
            f"  {spec.id:14s} {rep.classification}"
            f"  (growth diagnostic rho_n^(1/n)/n at n=1024: {rep.diagnostic:.3f})"
        )
    print("  infinite in every case: any complex label is admissible")


if __name__ == "__main__":
    main()
