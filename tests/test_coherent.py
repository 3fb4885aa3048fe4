"""Coherent-state construction, overlaps, serialization."""

import cmath
import json
import math

import numpy as np
import pytest

from gcstates import coherent, models
from gcstates.exceptions import ConsistencyError

# frozen from a 30-digit arbitrary-precision evaluation (q = 0.1, z = 1)
NORM_Q01_Z1 = 2.24463643712114278
OVERLAP_0_1 = 0.667462692035070049
EXP_25 = 12.1824939607034734


def nonlinear(q=0.1):
    return models.make_model("nonlinear-osc", nonlinearity=q)


def expmass(mu=1.0):
    return models.make_model("exp-mass", alpha=2.0, mu=mu)


ALL = [nonlinear(0.07), nonlinear(0.27), models.make_model("bounded-osc", nonlinearity=0.1),
       expmass(1.0), expmass(2.0)]
IDS = [s.id + str(s.nonlinearity or s.mu) for s in ALL]


def test_vacuum_state():
    st = coherent.construct(nonlinear(), 0.0)
    assert st.dim == 1
    assert st.log_norm == 0.0
    assert st.coeffs()[0] == 1.0 + 0.0j


def test_norm_frozen_value():
    st = coherent.construct(nonlinear(0.1), 1.0)
    assert math.exp(st.log_norm) == pytest.approx(NORM_Q01_Z1, rel=1e-13)
    assert st.log_norm_closed == pytest.approx(st.log_norm, abs=1e-12)


def test_norm_closed_expmass_is_exponential():
    # N = exp(|z|^2 / mu^2), x = |z|^2 / mu^2 in step units
    log_norm = expmass(2.0).ladder.closed(10.0 / 4.0)[0]
    assert log_norm == pytest.approx(2.5)
    assert math.exp(log_norm) == pytest.approx(EXP_25, rel=1e-14)


@pytest.mark.parametrize("spec", ALL, ids=IDS)
@pytest.mark.parametrize("z_abs", [0.5, 1.0, 2.0, 3.5, 5.0])
def test_series_norm_matches_closed_form(spec, z_abs):
    st = coherent.construct(spec, z_abs)
    assert st.log_norm == pytest.approx(
        spec.ladder.closed(z_abs**2 / spec.label_scale**2)[0], abs=1e-9
    )


def test_norm_check_tolerance_scales_with_log_norm():
    # ln N ~ 9950 here; series and closed form differ by ~1e-12 relative,
    # above an absolute 1e-9 but well inside 1e-9 + 1e-12 |ln N|
    st = coherent.construct(nonlinear(1e-6), 100.0)
    assert st.log_norm == pytest.approx(st.log_norm_closed, rel=1e-12)
    assert st.log_norm > 9900.0


@pytest.mark.parametrize("q, z_abs", [
    (1e-10, 3.16e3), (1e-8, 3e3), (1e-6, 2e3), (1e-4, 1e3), (1e-2, 1e3), (0.1, 1e4), (5.0, 1e4),
])
def test_closed_norm_matches_step_product_at_depth(q, z_abs):
    # the Gamma anchor of the 0F1 window against the step product of the
    # coefficient window, for 0F1 orders b = 2 + 1/q up to 1e10
    st = coherent.construct(nonlinear(q), z_abs)
    assert abs(st.log_norm_closed - st.log_norm) <= 1e-13 * abs(st.log_norm)


def test_coefficients_against_direct_sum():
    # rebuild the amplitudes from scratch: zeta^n / sqrt(rho_n N)
    spec = nonlinear(0.1)
    z = 1.3 + 0.4j
    st = coherent.construct(spec, z)
    rho = 1.0
    raw = [1.0 + 0.0j]
    for n in range(1, st.dim):
        rho *= models.step(spec, n)
        raw.append(z**n / math.sqrt(rho))
    raw = np.asarray(raw)
    norm = math.sqrt(float(np.sum(np.abs(raw) ** 2)))
    assert np.allclose(st.coeffs(), raw / norm, atol=1e-13)


def test_unit_norm_and_tail_bound():
    for spec in ALL:
        st = coherent.construct(spec, 2.5, eps=1e-12)
        assert float(np.sum(np.abs(st.coeffs()) ** 2)) == pytest.approx(1.0, abs=1e-13)
        assert 0.0 <= st.tail_bound < 1e-22


@pytest.mark.parametrize(
    "spec, z",
    [(expmass(1.0), 1e3), (expmass(1.0), 1e4), (nonlinear(0.1), 1e5)],
    ids=["exp-mass-x1e6", "exp-mass-x1e8", "nonlinear-osc-z1e5"],
)
def test_deep_labels_live_on_a_window(spec, z):
    st = coherent.construct(spec, z)
    assert st.n0 > 0
    assert abs(st.log_norm - st.log_norm_closed) <= 1e-9 + 1e-12 * abs(st.log_norm)
    assert float(np.sum(np.abs(st.coeffs()) ** 2)) == pytest.approx(1.0, abs=1e-13)
    assert 0.0 <= st.tail_bound < 1e-20
    if z == 1e3:
        assert st.dim <= 25_000  # the old n = 0 start kept about 20,000 more


def test_deep_complex_label_residual():
    eps = 1e-12
    st = coherent.construct(expmass(1.0), 900.0 * cmath.exp(2j), eps=eps)
    assert st.n0 > 0
    # the split phase exp(i theta n0) exp(i theta k) keeps neighbours exact
    res = coherent.annihilation_residual(st)
    assert res <= 10.0 * eps * abs(st.zeta)
    # what is left is the leak at both window edges
    c = st.coeffs()
    leak = math.hypot(abs(st.zeta * c[-1]), math.sqrt(models.step(st.spec, st.n0)) * abs(c[0]))
    assert res == pytest.approx(leak, rel=1e-3)


def test_tail_bound_covers_both_sides():
    # the mass a coarse window drops, measured on a fine one, on both sides
    coarse = coherent.construct(expmass(0.5), 30.0, eps=1e-5)
    fine = coherent.construct(expmass(0.5), 30.0)
    lo, hi = fine.n0, fine.n0 + fine.dim
    kept = coherent.coeffs_on(coarse, lo, hi) != 0.0
    dropped = float(np.sum(np.abs(coherent.coeffs_on(fine, lo, hi)[~kept]) ** 2))
    assert coarse.n0 > fine.n0 > 0
    assert 0.5 * coarse.tail_bound < dropped <= coarse.tail_bound


def test_construct_refuses_a_peak_past_the_range():
    # e_n = n puts the peak at |zeta|^2; one past PEAK_INDEX_MAX is refused
    with pytest.raises(ValueError, match="1e\\+08"):
        coherent.construct(expmass(1.0), math.sqrt(coherent.PEAK_INDEX_MAX + 2.0))
    with pytest.raises(ValueError, match="past n"):
        coherent.construct(nonlinear(0.1), 1e9)


def test_construct_takes_a_label_whose_square_overflows():
    # |z|^2 = 4e308 overflows a double; |zeta|^2 = 4e6, the closed form's x, does not
    st = coherent.construct(expmass(1e151), 2e154)
    assert st.n0 > 0 and st.mean_closed == pytest.approx(4e6, rel=1e-15)


def test_kernel_answers_at_a_peak_near_the_deepest():
    # q = 1e-300: 2|w| = 1.8e308 overflowed in the 0F1 window's mode, which is
    # the state's peak, about 9.0e7; the kernel sums the same window as ln N
    st = coherent.construct(nonlinear(1e-300), 9500.0)
    assert 9e7 < st.n0 < st.n0 + st.dim < coherent.PEAK_INDEX_MAX
    assert st.spec.ladder.kernel_log(st.zeta.conjugate() * st.zeta) == st.log_norm_closed
    # the kernel divides by the closed norms, so a self-overlap is exactly 1;
    # the step product's ln N is 6 ulps (1e-7) off at 9.0e7
    assert coherent.overlap_kernel(st, st) == 1.0
    assert coherent.overlap(st, st) == pytest.approx(1.0, abs=1e-15)


def test_self_overlap_at_the_deepest_peak():
    # q = 1000, |zeta|^2 = e_{1e8}: the deepest peak construct accepts
    spec = nonlinear(1000.0)
    st = coherent.construct(spec, math.sqrt(models.step(spec, coherent.PEAK_INDEX_MAX)))
    assert st.n0 + st.dim > coherent.PEAK_INDEX_MAX
    assert coherent.overlap(st, st) == pytest.approx(1.0, abs=1e-15)


def test_coeffs_on_pads_the_window_with_zeros():
    st = coherent.construct(expmass(0.5), 30.0)
    lo, hi = st.n0 - 3, st.n0 + 5
    c = coherent.coeffs_on(st, lo, hi)
    assert np.all(c[:3] == 0.0)
    assert np.array_equal(c[3:], st.coeffs()[:5])
    assert coherent.coeffs_on(st, 0, 10).tolist() == [0.0] * 10


def _coeffs_on_padded(state, lo, hi):
    """coeffs_on as it was before its in-window path: always a zero-filled buffer."""
    out = np.zeros(max(hi - lo, 0), dtype=complex)
    a, b = max(lo, state.n0), min(hi, state.n0 + state.dim)
    if a < b:
        k = slice(a - state.n0, b - state.n0)
        out[a - lo : b - lo] = np.exp(state.log_coeff[k]) * state.phase[k]
    return out


def test_coeffs_on_equals_the_padded_formula_bit_for_bit():
    st = coherent.construct(nonlinear(0.02), 28 - 1j)
    n0, end = st.n0, st.n0 + st.dim
    assert n0 > 0
    ranges = {
        "inside": (n0 + 3, end - 5), "equal": (n0, end), "left edge": (n0 - 4, n0 + 10),
        "right edge": (end - 7, end + 3), "disjoint": (end + 2, end + 7),
        "below": (0, n0), "empty": (n0 + 5, n0 + 5), "reversed": (end, n0),
    }
    for name, (lo, hi) in ranges.items():
        got, want = coherent.coeffs_on(st, lo, hi), _coeffs_on_padded(st, lo, hi)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def _phase_formula(theta, n0, dim):
    """construct's general phases exp(i theta n0) exp(i theta k), k < dim."""
    return cmath.exp(1j * theta * n0) * np.exp(1j * theta * np.arange(dim))


@pytest.mark.parametrize("spec, z", [
    (nonlinear(0.1), 1.5), (nonlinear(0.02), 28.0), (expmass(0.5), 30.0), (nonlinear(), 0.0),
    (nonlinear(0.02), complex(28.0, -0.0)),
])
def test_real_label_phases_are_exactly_one(spec, z):
    # theta = 0.0, or -0.0 for x - 0j, where the general formula gives 1 + 0j too
    st = coherent.construct(spec, z)
    theta = cmath.phase(st.zeta)
    assert theta == 0.0
    assert st.phase.tobytes() == np.ones(st.dim, dtype=complex).tobytes()
    assert st.phase.tobytes() == _phase_formula(theta, st.n0, st.dim).tobytes()


@pytest.mark.parametrize("zsq", [1e-300, 1e-8, 2.0, 20.0, 300.0])
def test_distribution_holds_its_digits_against_poisson(zsq):
    # P_n = exp(2 ln|c_n|) of a harmonic state, over its whole window, within
    # (1 + |ln P_n|) 2e-15 of the 40-digit Poisson pmf (worst ratio to
    # (1 + |ln P_n|) eps is 4.6, at zsq = 300)
    mpmath = pytest.importorskip("mpmath")
    harmonic = models.harmonic_limit(nonlinear())
    st = coherent.construct(harmonic, math.sqrt(zsq))
    p = np.exp(2.0 * st.log_coeff).tolist()
    with mpmath.workdps(40):
        x = mpmath.mpf(zsq)
        for n, pn in enumerate(p, start=st.n0):
            ref = mpmath.exp(n * mpmath.log(x) - x - mpmath.loggamma(n + 1))
            assert float(abs(pn - ref) / ref) <= (1.0 + abs(math.log(pn))) * 2e-15, n


@pytest.mark.parametrize("spec, dim", [(expmass(1.0), 990), (nonlinear(0.1), 412)],
                         ids=["exp-mass", "q0.1"])
def test_window_doubles_its_span_at_a_tiny_eps(spec, dim):
    # eps = 1e-300 cuts at eps^2, past the first span's reach at |zeta|^2 = 100,
    # so the span doubles once; ln P_n then holds to 1.7e-15 (1 + |ln P_n|)
    mpmath = pytest.importorskip("mpmath")
    st = coherent.construct(spec, 10.0, eps=1e-300)
    assert st.n0 == 0 and st.dim == dim
    with mpmath.workdps(40):
        x, q = mpmath.mpf(100), mpmath.mpf(spec.nonlinearity or 0)
        if q:
            b = 2 + 1 / q
            log_norm = mpmath.log(mpmath.hyp0f1(b, x / q))
        else:
            log_norm = x
        assert st.log_norm == pytest.approx(float(log_norm), rel=6e-16)
        for n, lc in enumerate(st.log_coeff.tolist()):
            rho = mpmath.loggamma(n + 1)
            if q:
                rho += n * mpmath.log(q) + mpmath.loggamma(b + n) - mpmath.loggamma(b)
            ref = n * mpmath.log(x) - rho - log_norm
            assert abs(2.0 * lc - ref) <= 1.7e-15 * (1.0 + abs(ref)), n


def test_truncation_grows_with_label():
    dims = [coherent.construct(nonlinear(), z).dim for z in (0.5, 2.0, 5.0)]
    assert dims[0] < dims[1] < dims[2]


@pytest.mark.parametrize("spec", ALL, ids=IDS)
@pytest.mark.parametrize("z_abs", [0.5, 1.5, 3.0])
def test_annihilation_eigenstate(spec, z_abs):
    eps = 1e-12
    st = coherent.construct(spec, z_abs, eps=eps)
    res = coherent.annihilation_residual(st)
    assert res < 1e-10
    # truncation is the only residue, so the bound scales with eps |z|
    assert res <= 10.0 * eps * z_abs


def test_annihilation_complex_label():
    spec = nonlinear(0.27)
    st = coherent.construct(spec, 1.2 - 0.9j)
    assert coherent.annihilation_residual(st) < 1e-10


# ----------------------------------------------------------------- overlap


def test_self_overlap_is_one():
    for spec in ALL:
        st = coherent.construct(spec, 1.7)
        assert coherent.overlap(st, st) == pytest.approx(1.0, abs=1e-12)


def test_overlap_frozen_vacuum_value():
    spec = nonlinear(0.1)
    a = coherent.construct(spec, 0.0)
    b = coherent.construct(spec, 1.0)
    # <0|z> = N(|z|^2)^{-1/2}
    assert abs(coherent.overlap(a, b)) == pytest.approx(OVERLAP_0_1, rel=1e-12)


def test_overlap_conjugate_symmetry():
    spec = nonlinear(0.17)
    a = coherent.construct(spec, 0.8 + 0.3j)
    b = coherent.construct(spec, -0.5 + 1.1j)
    assert coherent.overlap(a, b) == pytest.approx(
        coherent.overlap(b, a).conjugate(), abs=1e-12
    )


def test_overlap_bounded_by_one():
    rng = np.random.default_rng(7)
    for spec in ALL:
        for _ in range(5):
            za, zb = (complex(*p) for p in rng.normal(size=(2, 2)))
            a = coherent.construct(spec, za)
            b = coherent.construct(spec, zb)
            assert abs(coherent.overlap(a, b)) <= 1.0 + 1e-12


def test_overlap_expmass_gaussian_kernel():
    # normalized overlap exp(conj(z) z' / mu^2 - (|z|^2+|z'|^2)/(2 mu^2))
    spec = expmass(mu=2.0)
    za, zb = 1.0 + 0.5j, -0.3 + 2.0j
    a = coherent.construct(spec, za)
    b = coherent.construct(spec, zb)
    expected = np.exp(
        (za.conjugate() * zb - 0.5 * (abs(za) ** 2 + abs(zb) ** 2)) / 4.0
    )
    assert coherent.overlap(a, b) == pytest.approx(expected, abs=1e-12)


def test_overlap_of_disjoint_windows_matches_the_kernel():
    spec = expmass(1.0)
    a = coherent.construct(spec, 1000.0)
    b = coherent.construct(spec, 1100.0j)
    assert a.n0 + a.dim < b.n0
    assert coherent.overlap(a, b) == 0.0
    assert abs(coherent.overlap_kernel(a, b)) <= 1e-8


def test_overlap_of_deep_neighbours_matches_the_kernel():
    # windows that overlap in part, far from n = 0; overlap raises on a split
    spec = expmass(1.0)
    a = coherent.construct(spec, 1000.0)
    b = coherent.construct(spec, 1000.5 + 0.5j)
    assert a.n0 != b.n0
    expected = cmath.exp(
        (a.zeta.conjugate() * b.zeta - 0.5 * (abs(a.zeta) ** 2 + abs(b.zeta) ** 2))
    )
    assert coherent.overlap(a, b) == pytest.approx(expected, abs=1e-8)
    assert coherent.label_continuity(a, 1e-3) == pytest.approx(9.99999750e-7, rel=1e-6)


@pytest.mark.parametrize("shift", [0.5, 0.5 + 0.5j])
def test_overlap_of_deep_quadratic_neighbours(shift):
    # conj(zeta_a) zeta_b / q ~ 1e11: the kernel is a window of some 10,000
    # 0F1 terms around n ~ 3e5; overlap raises on a split from it
    spec = nonlinear(0.1)
    a = coherent.construct(spec, 1e5)
    b = coherent.construct(spec, 1e5 + shift)
    assert abs((a.zeta.conjugate() * b.zeta) / 0.1) > 1e11
    assert abs(coherent.overlap(a, b)) <= 1.0


def test_overlap_at_large_order_where_ive_underflows():
    # b = 2 + 1/q ~ 1e6 against 2 sqrt|w| ~ 4e6, an order at which the Bessel
    # form's ive would underflow: the kernel is the 0F1 term window, some
    # 22,500 terms around n ~ 1.6e6;
    # the frozen value is the coefficient sum, which never calls hyp0f1
    spec = nonlinear(1e-6)
    a = coherent.construct(spec, 2000.0)
    b = coherent.construct(spec, cmath.rect(2000.0, 1e-3))
    got = coherent.overlap(a, b)
    assert got == pytest.approx(-0.6056443742431419 - 0.11056196962848205j, abs=1e-12)
    assert abs(coherent.overlap_kernel(a, b) - got) <= 1e-8


def test_overlap_requires_same_model():
    a = coherent.construct(nonlinear(0.1), 1.0)
    b = coherent.construct(nonlinear(0.27), 1.0)
    with pytest.raises(ValueError):
        coherent.overlap(a, b)


# -------------------------------------------------------------- continuity


@pytest.mark.parametrize("spec", ALL, ids=IDS)
def test_label_continuity_quadratic(spec):
    st = coherent.construct(spec, 1.0 + 0.5j)
    d1 = coherent.label_continuity(st, 1e-3)
    d2 = coherent.label_continuity(st, 5e-4)
    assert 3.5 < d1 / d2 < 4.5


def test_label_continuity_frozen_expmass():
    # ||z+delta> - |z>||^2 = 2(1 - exp(-delta^2/(2 mu^2))) at mu=1 ... the
    # Gaussian kernel makes the small-delta value delta^2 - delta^4/4
    st = coherent.construct(expmass(1.0), 1.0)
    assert coherent.label_continuity(st, 1e-3) == pytest.approx(
        9.99999750e-7, rel=1e-6
    )


def test_label_continuity_rejects_nonpositive():
    st = coherent.construct(nonlinear(), 1.0)
    with pytest.raises(ValueError):
        coherent.label_continuity(st, 0.0)


# ----------------------------------------------------------- serialization


def _coeffs_from_record(record):
    """The window's complex coefficients from the record's (log_mag, re, im) rows."""
    log_mag, re_part, im_part = np.asarray(record["coeffs"]).T
    return np.exp(log_mag) * (re_part + 1j * im_part)


def test_record_round_trip():
    spec = nonlinear(0.27)
    st = coherent.construct(spec, 0.4 - 1.2j)
    rec = coherent.to_record(st)
    json.dumps(rec)  # must be plain data
    back = _coeffs_from_record(rec)
    assert np.allclose(back, st.coeffs(), atol=1e-15)
    assert rec["model"] == "nonlinear-osc"
    assert rec["dim"] == st.dim


def test_record_with_window_round_trip():
    st = coherent.construct(expmass(0.5), 30.0 * cmath.exp(0.7j))
    rec = json.loads(json.dumps(coherent.to_record(st)))
    assert rec["n0"] == st.n0 > 0
    assert np.allclose(_coeffs_from_record(rec), st.coeffs(), atol=1e-15)
    # shallow states keep the record as it was, without the key
    assert "n0" not in coherent.to_record(coherent.construct(expmass(0.5), 1.0))


def test_construct_rejects_bad_eps():
    with pytest.raises(ValueError):
        coherent.construct(nonlinear(), 1.0, eps=0.0)
    with pytest.raises(ValueError):
        coherent.construct(nonlinear(), 1.0, eps=1.0)
    # anything strictly inside (0, 1) is a legal tolerance
    st = coherent.construct(nonlinear(), 1.0, eps=1e-3)
    assert st.dim >= 2


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(1.0, math.nan)])
def test_construct_rejects_non_finite_label(z):
    with pytest.raises(ValueError, match="finite"):
        coherent.construct(nonlinear(), z)
