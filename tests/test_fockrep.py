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


def test_commutator_diagonal_interior(spec):
    ops = fockrep.build(spec, 25)
    comm = fockrep.commutator_diagonal(ops)
    assert comm.shape == (24,)
    expected = np.diff(models.step(spec, np.arange(25)))
    assert np.allclose(comm, expected, atol=1e-13)


def test_commutator_grows_with_nonlinearity():
    # the harmonic limit has [L-, L+] = 1; nonlinearity lifts it linearly
    h = models.harmonic_limit(models.make_model("nonlinear-osc", nonlinearity=0.1))
    comm_h = fockrep.commutator_diagonal(fockrep.build(h, 10))
    assert np.allclose(comm_h, 1.0, atol=1e-14)
    nl = models.make_model("nonlinear-osc", nonlinearity=0.27)
    comm_nl = fockrep.commutator_diagonal(fockrep.build(nl, 10))
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


@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_eigenstate_by_raising_reconstructs_basis(spec, n):
    ops = fockrep.build(spec, 10)
    v = fockrep.states_by_raising(ops, n)[n]
    e = np.zeros(10)
    e[n] = 1.0
    assert np.linalg.norm(v - e) < 1e-12


def test_raised_eigenstates_are_orthonormal(spec):
    ops = fockrep.build(spec, 12)
    basis = fockrep.states_by_raising(ops, 11)
    gram = basis @ basis.T
    assert np.max(np.abs(gram - np.eye(12))) < 1e-10


def _raised_alone(ops, n):
    """Eigenstate n by its own chain of n raisings from the ground state."""
    v = np.zeros(ops.dim)
    v[0] = 1.0
    log_norms = 0.0
    for _ in range(n):
        v = ops.raising @ v
        s = float(np.linalg.norm(v))
        v /= s
        log_norms += math.log(s)
    return v * math.exp(log_norms - 0.5 * models.rho_log(ops.spec, n))


def test_one_raising_chain_equals_a_chain_per_state_bit_for_bit(spec):
    ops = fockrep.build(spec, 40)
    states = fockrep.states_by_raising(ops, 11)
    assert states.shape == (12, 40)
    for n in range(12):
        alone = _raised_alone(ops, n)
        assert np.array_equal(states[n], alone)
        assert np.array_equal(fockrep.states_by_raising(ops, n)[n], alone)


def test_eigenstate_by_raising_bounds(spec):
    ops = fockrep.build(spec, 4)
    with pytest.raises(ValueError):
        fockrep.states_by_raising(ops, 4)
    with pytest.raises(ValueError):
        fockrep.states_by_raising(ops, -1)


def test_operator_arrays_read_only(spec):
    ops = fockrep.build(spec, 5)
    for arr in (ops.lowering, ops.raising, ops.hamiltonian):
        with pytest.raises(ValueError):
            arr[0, 0] = 7.0
