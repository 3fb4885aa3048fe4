"""Truncated number-basis operators and their algebra."""

import math

import numpy as np
import pytest

from gcstates import fockrep, models


@pytest.fixture
def spec():
    return models.make_model("nonlinear-osc", alpha=1.0, nonlinearity=0.1)


def test_build_rejects_tiny_dimension(spec):
    with pytest.raises(ValueError):
        fockrep.build(spec, 1)


def test_two_by_two_harmonic_by_hand():
    h = models.harmonic_limit(
        models.make_model("nonlinear-osc", alpha=2.0, nonlinearity=0.1)
    )
    ops = fockrep.build(h, 2)
    assert np.array_equal(ops.lowering, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(ops.raising, [[0.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(ops.hamiltonian, np.diag([1.0, 3.0]))


def test_lowering_action_on_basis(spec):
    ops = fockrep.build(spec, 6)
    for n in range(1, 6):
        e = np.zeros(6)
        e[n] = 1.0
        out = ops.lowering @ e
        expected = np.zeros(6)
        expected[n - 1] = math.sqrt(models.step(spec, n))
        assert np.allclose(out, expected, atol=1e-15)
    # vacuum is annihilated
    assert np.all(ops.lowering @ np.eye(6)[0] == 0.0)


def test_raising_is_transpose(spec):
    ops = fockrep.build(spec, 9)
    assert np.array_equal(ops.raising, ops.lowering.T)


def test_hamiltonian_diagonal_holds_energies(spec):
    ops = fockrep.build(spec, 7)
    # bit for bit: the diagonal is one array call to models.energy
    assert np.diag(ops.hamiltonian).tolist() == [models.energy(spec, n) for n in range(7)]
    assert np.count_nonzero(ops.hamiltonian - np.diag(np.diag(ops.hamiltonian))) == 0


def test_factorized_hamiltonian(spec):
    # H = unit * L+ L- + E_0 on the whole truncated space
    ops = fockrep.build(spec, 12)
    lhs = spec.energy_unit * (ops.raising @ ops.lowering) + models.energy(
        spec, 0
    ) * np.eye(12)
    assert np.allclose(lhs, ops.hamiltonian, atol=1e-12)


def _commutator_diagonal(ops):
    """Diagonal of [L-, L+] on the interior rows 0..dim-2 (the edge raises out)."""
    comm = ops.lowering @ ops.raising - ops.raising @ ops.lowering
    return np.diag(comm)[: ops.dim - 1]


def test_commutator_diagonal_interior(spec):
    ops = fockrep.build(spec, 25)
    comm = _commutator_diagonal(ops)
    assert comm.shape == (24,)
    # shape invariance: [L-, L+] = R(N + 1) / unit
    expected = models.remainder(spec, np.arange(1, 25)) / spec.energy_unit
    assert np.allclose(comm, expected, atol=1e-13)


def test_commutator_grows_with_nonlinearity():
    # the harmonic limit has [L-, L+] = 1; nonlinearity lifts it linearly
    h = models.harmonic_limit(models.make_model("nonlinear-osc", nonlinearity=0.1))
    comm_h = _commutator_diagonal(fockrep.build(h, 10))
    assert np.allclose(comm_h, 1.0, atol=1e-14)
    nl = models.make_model("nonlinear-osc", nonlinearity=0.27)
    comm_nl = _commutator_diagonal(fockrep.build(nl, 10))
    assert np.all(comm_nl > 1.0)


def test_intertwining_relation(spec):
    # [H, L+] = unit * (steps gap) L+ column by column on the interior
    ops = fockrep.build(spec, 15)
    lhs = ops.hamiltonian @ ops.raising - ops.raising @ ops.hamiltonian
    for n in range(14):
        gap = models.energy(spec, n + 1) - models.energy(spec, n)
        col = np.zeros(15)
        col[n + 1] = gap * math.sqrt(models.step(spec, n + 1))
        assert np.allclose(lhs[:, n], col, atol=1e-12)


def _states_by_raising(ops, n_max):
    """Rows 0..n_max: L+^n on the ground state over sqrt(rho_n), rho_n from the closed form."""
    out = np.zeros((n_max + 1, ops.dim))
    out[0, 0] = 1.0
    for n in range(1, n_max + 1):
        out[n] = ops.raising @ out[n - 1] / math.exp(
            0.5 * (ops.spec.ladder.rho_log(n) - ops.spec.ladder.rho_log(n - 1))
        )
    return out


@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_eigenstate_by_raising_reconstructs_basis(spec, n):
    ops = fockrep.build(spec, 10)
    v = _states_by_raising(ops, n)[n]
    e = np.zeros(10)
    e[n] = 1.0
    assert np.linalg.norm(v - e) < 1e-12


def test_raised_eigenstates_are_orthonormal(spec):
    ops = fockrep.build(spec, 12)
    basis = _states_by_raising(ops, 11)
    gram = basis @ basis.T
    assert np.max(np.abs(gram - np.eye(12))) < 1e-10


def test_operator_arrays_read_only(spec):
    ops = fockrep.build(spec, 5)
    for arr in (ops.lowering, ops.raising, ops.hamiltonian):
        with pytest.raises(ValueError):
            arr[0, 0] = 7.0
