"""Number statistics: the nonlinearity squeezes below Poissonian.

The exponential-profile model reproduces Poissonian counting exactly, while
any positive nonlinearity drives the Mandel Q parameter negative.  The last
section reproduces the matched-mean comparison: distributions with the same
mean occupation get narrower as the nonlinearity grows.
"""

import math

import numpy as np

from gcstates import coherent, models, stats


def bar(p, width=40):
    return "#" * int(round(width * p))


def main():
    em = models.make_model("exp-mass", alpha=2.0, mu=1.0)
    print("Exponential profile, mu = 1 (expected: mean = variance, Q = 0):")
    for z_abs in (0.5, 1.0, 2.0):
        s = stats.summary_series(coherent.construct(em, z_abs))
        print(
            f"  |z| = {z_abs:3.1f}  mean = {s.mean:8.5f}  var = {s.variance:8.5f}"
            f"  Q = {s.mandel_q:+.2e}  {s.classification}"
        )

    print("\nMandel Q across the nonlinearity grid at |z| = 1:")
    for q in (0.02, 0.05, 0.1, 0.17, 0.27, 0.5):
        spec = models.make_model("nonlinear-osc", nonlinearity=q)
        print(f"  lambda' = {q:4.2f}   Q = {stats.mandel_q_closed(spec, 1.0):+.5f}")
    print("  always negative, and it fades out with the nonlinearity")

    print("\nMatched mean occupation <n> = 10:")
    harmonic = models.harmonic_limit(models.make_model("nonlinear-osc", nonlinearity=0.1))
    h_state = coherent.construct(harmonic, math.sqrt(10.0))
    rows = [("harmonic", stats.summary_series(h_state), h_state)]
    for q in (0.07, 0.17, 0.27):
        spec = models.make_model("nonlinear-osc", nonlinearity=q)
        z_abs = stats.match_mean_abs_z(spec, 10.0)
        st = coherent.construct(spec, z_abs)
        rows.append((f"lambda'={q}", stats.summary_series(st), st))
    for name, s, _ in rows:
        print(f"  {name:12s} |z| = {s.z_abs:7.4f}  variance = {s.variance:7.4f}")

    print("\nP_n for the harmonic reference vs lambda' = 0.27:")
    ph = stats.distribution(rows[0][2])
    pn = stats.distribution(rows[-1][2])
    for n in range(4, 17):
        a = ph[n] if n < len(ph) else 0.0
        b = pn[n] if n < len(pn) else 0.0
        print(f"  n={n:2d}  {bar(a):40s}|  {bar(b)}")
    print(f"  peak heights: {np.max(ph):.4f} vs {np.max(pn):.4f}")


if __name__ == "__main__":
    main()
