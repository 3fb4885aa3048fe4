"""Occupation statistics: means, variances, Mandel classification."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from gcstates import coherent, models, stats

# frozen from a 30-digit arbitrary-precision evaluation (q = 0.1, z = 1)
MEAN_Q01_Z1 = 0.785494562928122323
VAR_Q01_Z1 = 0.742558099401012527
Q_Q01_Z1 = -0.0546616941141561433

# matched-mean labels: |z| with <n> = 10 for each nonlinearity
MATCHED = {0.07: 4.26701253780336399, 0.17: 5.45769214696938592,
           0.27: 6.42953542765642204}


def nonlinear(q=0.1):
    return models.make_model("nonlinear-osc", nonlinearity=q)


def expmass(mu=1.0):
    return models.make_model("exp-mass", alpha=2.0, mu=mu)


def test_frozen_series_summary():
    st = coherent.construct(nonlinear(0.1), 1.0)
    s = stats.summary_series(st)
    assert s.mean == pytest.approx(MEAN_Q01_Z1, rel=1e-12)
    assert s.variance == pytest.approx(VAR_Q01_Z1, rel=1e-12)
    assert s.mandel_q == pytest.approx(Q_Q01_Z1, rel=1e-11)
    assert s.classification == "sub-Poissonian"
    assert s.method == "series"


def test_closed_matches_series_everywhere():
    specs = [nonlinear(0.07), nonlinear(0.27),
             models.make_model("bounded-osc", nonlinearity=0.17),
             expmass(1.0), expmass(2.0)]
    for spec in specs:
        for z in (0.3, 1.0, 2.7, 5.0):
            st = coherent.construct(spec, z)
            a = stats.summary_series(st)
            b = stats.summary_closed(st)
            assert b.mean == pytest.approx(a.mean, rel=1e-10)
            assert b.variance == pytest.approx(a.variance, rel=1e-10)
            assert b.method == "closed_form"
            for s in (a, b):
                assert s.variance == pytest.approx(
                    s.second_moment - s.mean**2, abs=1e-10
                )


@pytest.mark.parametrize("mu", [1.0, 2.0])
@pytest.mark.parametrize("z_abs", [0.5, 1.0, 2.0, 3.0])
def test_expmass_poissonian(mu, z_abs):
    st = coherent.construct(expmass(mu), z_abs)
    s = stats.summary_series(st)
    expected = (z_abs / mu) ** 2
    assert s.mean == pytest.approx(expected, abs=1e-10)
    assert s.variance == pytest.approx(expected, abs=1e-10)
    assert abs(s.mandel_q) < 1e-9
    assert s.classification == "Poissonian"


def test_vacuum_is_poissonian_edge():
    s = stats.summary_series(coherent.construct(nonlinear(), 0.0))
    assert s.mean == 0.0
    assert s.mandel_q == 0.0
    assert s.classification == "Poissonian"


@pytest.mark.parametrize("q", [0.02, 0.05, 0.1, 0.17, 0.27, 0.5])
@pytest.mark.parametrize("z_abs", [0.5, 1.0, 2.0, 4.0])
def test_nonlinear_always_sub_poissonian(q, z_abs):
    assert stats.mandel_q_closed(nonlinear(q), z_abs) < 0.0


def test_q_vanishes_monotonically_with_nonlinearity():
    qs = [0.5, 0.27, 0.17, 0.1, 0.05, 0.02, 0.005]
    vals = [abs(stats.mandel_q_closed(nonlinear(q), 1.0)) for q in qs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.005


def test_q_frozen_ladder():
    # |z| = 1 across the nonlinearity grid
    expected = {0.02: -0.01723, 0.05: -0.03557, 0.1: -0.05466,
                0.17: -0.06903, 0.27: -0.07810, 0.5: -0.08100}
    for q, val in expected.items():
        assert stats.mandel_q_closed(nonlinear(q), 1.0) == pytest.approx(
            val, abs=5e-6
        )


@pytest.mark.parametrize("spec,abs_z", [(nonlinear(0.1), 1e200), (nonlinear(0.1), -1.0),
                                         (nonlinear(0.1), math.nan), (expmass(1e-150), 1e160),
                                         (expmass(1.0), math.inf)],
                         ids=["square-overflows", "negative", "nan", "zeta-inf", "inf"])
def test_mandel_q_closed_refuses_a_label_past_the_double_range(spec, abs_z):
    # the linear ladder's Q = x/x - 1 would be NaN at x = inf, not a refusal
    with pytest.raises(ValueError, match=r"must be nonnegative, and a \|zeta\|\^2 past"):
        stats.mandel_q_closed(spec, abs_z)


def test_distribution_sums_to_one():
    for spec in (nonlinear(0.27), expmass(2.0)):
        st = coherent.construct(spec, 2.2)
        p = stats.distribution(st)
        assert np.all(p >= 0.0)
        assert float(p.sum()) == pytest.approx(1.0, abs=1e-13)


def test_distribution_expmass_is_poisson():
    st = coherent.construct(expmass(1.0), 2.0)
    p = stats.distribution(st)
    lam = 4.0
    for n in range(10):
        ref = math.exp(-lam + n * math.log(lam) - math.lgamma(n + 1))
        assert p[n] == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("q,z_abs", sorted(MATCHED.items()))
def test_match_mean_frozen(q, z_abs):
    assert stats.match_mean_abs_z(nonlinear(q), 10.0) == pytest.approx(
        z_abs, rel=1e-9
    )


def test_match_mean_round_trip():
    spec = models.make_model("bounded-osc", nonlinearity=0.17)
    for target in (0.5, 3.0, 12.0):
        z_abs = stats.match_mean_abs_z(spec, target)
        st = coherent.construct(spec, z_abs)
        assert stats.summary_series(st).mean == pytest.approx(target, rel=1e-8)


def test_match_mean_large_target():
    # <n> = 1e6 puts the 0F1 argument near 1e10, past the series range
    mpmath = pytest.importorskip("mpmath")
    q = 0.1
    z_abs = stats.match_mean_abs_z(nonlinear(q), 1e6)
    b, x = 2.0 + 1.0 / q, z_abs**2
    with mpmath.workdps(30):
        mean = x / (q * b) * mpmath.hyp0f1(b + 1, x / q) / mpmath.hyp0f1(b, x / q)
    assert float(mean) == pytest.approx(1e6, rel=1e-13)


def test_match_mean_rejects_nonpositive():
    with pytest.raises(ValueError):
        stats.match_mean_abs_z(nonlinear(), 0.0)


def _mean_mp(spec, abs_z):
    """<n> at label magnitude |z| in 40-digit arithmetic, x N'(x)/N(x)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(abs_z) ** 2
        if spec.id == "exp-mass":
            return float(x / mpmath.mpf(spec.label_scale) ** 2)
        q = mpmath.mpf(spec.nonlinearity)
        b = 2 + 1 / q
        return float(x / (q * b) * mpmath.hyp0f1(b + 1, x / q) / mpmath.hyp0f1(b, x / q))


@pytest.mark.parametrize("spec", [
    nonlinear(0.02), nonlinear(0.07), nonlinear(0.17), nonlinear(0.27), nonlinear(2.0),
    expmass(0.5), expmass(2.0),
], ids=["q0.02", "q0.07", "q0.17", "q0.27", "q2", "exp-mu0.5", "exp-mu2"])
def test_match_mean_hits_target_mpmath(spec):
    for target in (1e-300, 1.0, 2.0, 20.0, 1e4, 1e6):
        z_abs = stats.match_mean_abs_z(spec, target)
        assert _mean_mp(spec, z_abs) == pytest.approx(target, rel=1e-13), target


@pytest.mark.parametrize("q", [0.07, 0.17, 0.27])
def test_match_mean_takes_few_steps(q, monkeypatch):
    # fig1's range; a bracketing solve would need about ten evaluations
    calls = []
    mean_var = models.QuadraticLadder.mean_var
    monkeypatch.setattr(models.QuadraticLadder, "mean_var",
                        lambda self, x: calls.append(x) or mean_var(self, x))
    for target in np.linspace(1.0, 20.0, 39):
        calls.clear()
        stats.match_mean_abs_z(nonlinear(q), float(target))
        assert 1 <= len(calls) <= 8, (target, len(calls))


def test_summary_closed_equals_mean_var_bit_for_bit():
    # construct keeps the closed <n> and var n; they must be mean_var's
    rng = np.random.default_rng(7)
    for spec in (nonlinear(0.02), models.make_model("bounded-osc", nonlinearity=1.3),
                 nonlinear(0.5), expmass(0.5), expmass(2.0)):
        for r, theta in zip(rng.uniform(0.0, 30.0, 12), rng.uniform(0.0, 2 * math.pi, 12)):
            z = complex(r * math.cos(theta), r * math.sin(theta))
            s = stats.summary_closed(coherent.construct(spec, z))
            x = abs(z) ** 2 / spec.label_scale**2
            assert (s.mean, s.variance) == spec.ladder.mean_var(x), (spec.id, z)


def _mean_var_mp(q, w):
    """(<n>, var) of t_n = w^n / ((b)_n n!) from 0F1 ratios in 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q, w = mpmath.mpf(q), mpmath.mpf(w)
        b = 2 + 1 / q
        f0 = mpmath.hyp0f1(b, w)
        mean = w / b * mpmath.hyp0f1(b + 1, w) / f0
        falling = w**2 / (b * (b + 1)) * mpmath.hyp0f1(b + 2, w) / f0
        return float(mean), float(falling + mean - mean**2)


@pytest.mark.parametrize("q", [0.07, 0.1, 2.0])
@pytest.mark.parametrize("w", [1e2, 1e7, 1e9, 1e12])
def test_closed_mean_var_mpmath(q, w):
    mean, var = nonlinear(q).ladder.mean_var(w * q)
    ref_mean, ref_var = _mean_var_mp(q, w)
    assert mean == pytest.approx(ref_mean, rel=1e-14)
    assert var == pytest.approx(ref_var, rel=1e-12)


class _ArctanLadder:
    """ln <n> = arctan(ln x - 5): Newton alone diverges from x = 1."""

    def step(self, n):
        return 1.0

    def mean_var(self, x):
        u = math.log(x) - 5.0
        mean = math.exp(math.atan(u))
        return mean, mean / (1.0 + u * u)


def test_match_mean_bisects_when_a_step_leaves_the_bracket():
    spec = SimpleNamespace(ladder=_ArctanLadder(), label_scale=1.0)
    assert stats.match_mean_abs_z(spec, 1.0) == pytest.approx(math.exp(2.5), rel=1e-14)


@pytest.mark.parametrize("target", [1e16, 1e200])
def test_match_mean_refuses_unreachable_target(target):
    # the matched mode would lie past specfn.HYP0F1_MODE_MAX, or x past the doubles
    with pytest.raises(ValueError):
        stats.match_mean_abs_z(nonlinear(2.0), target)


@pytest.mark.parametrize("z_abs", [20.0, 25.0, 30.0])
def test_expmass_deep_labels_classify_poissonian(z_abs):
    # series round-off puts |Q| near 1e-8 at <n> = (|z|/mu)^2 ~ 2500; the
    # band scales with the mean, so the exactly Poissonian state stays one
    s = stats.summary_series(coherent.construct(expmass(0.5), z_abs))
    assert s.classification == "Poissonian"
    assert abs(s.mandel_q) < stats.Q_TOL * s.mean


def test_classify_thresholds():
    assert stats.classify(-1e-3) == "sub-Poissonian"
    assert stats.classify(0.0) == "Poissonian"
    assert stats.classify(5e-10) == "Poissonian"
    assert stats.classify(1e-3) == "super-Poissonian"
