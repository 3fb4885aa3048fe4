"""Construct lowering-operator eigenstates and check them in place.

A coherent state here is the normalized series sum_n zeta^n / sqrt(rho_n)
|n>, kept on a window of indices around its peak.  The script shows how the
window's dimension tracks the label, that the state actually satisfies the
eigenvalue relation on the window, and what the overlap of two states looks
like.
"""

import numpy as np

from gcstates import coherent, models


def main():
    spec = models.make_model("nonlinear-osc", alpha=1.0, nonlinearity=0.17)

    print("Truncation growth with |z| (eps = 1e-12):")
    print("  |z|    dim   tail bound     residual")
    for z_abs in (0.25, 1.0, 2.5, 5.0, 8.0):
        st = coherent.construct(spec, z_abs)
        res = coherent.annihilation_residual(st)
        print(f"  {z_abs:4.2f}  {st.dim:4d}   {st.tail_bound:10.2e}   {res:10.2e}")

    print("\nComplex labels carry a phase ladder, not just magnitudes:")
    st = coherent.construct(spec, 1.0 + 1.0j)
    for n in range(4):
        c = st.coeffs()[n]
        print(f"  c_{n} = {c.real:+.6f} {c.imag:+.6f}i   |c|^2 = {abs(c)**2:.6f}")

    print("\nOverlaps |<z|z'>| along a real slice (z' = 2):")
    ref = coherent.construct(spec, 2.0)
    for z_abs in np.linspace(0.0, 4.0, 9):
        other = coherent.construct(spec, float(z_abs))
        print(f"  z = {z_abs:4.1f}   |<z|2>| = {abs(coherent.overlap(other, ref)):.6f}")
    print("  nearby labels stay close: the family is norm-continuous in z")


if __name__ == "__main__":
    main()
