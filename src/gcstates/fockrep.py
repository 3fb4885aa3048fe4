"""Dense truncated matrix representation of the ladder algebra.

The operators act on the first ``dim`` energy eigenstates.  Matrix elements
follow the usual convention for an annihilation-type operator: column n holds
the image of eigenstate n, so the lowering matrix populates the first
superdiagonal, lowering[n-1, n] = sqrt(e_n), with e_n the dimensionless
ladder step of the model.  The raising matrix is its transpose and the
Hamiltonian is diagonal with the absolute energies.

The last row and column are the truncation edge: identities that involve
raising out of the retained space (the commutator diagonal, for instance)
hold only on the interior indices 0..dim-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .models import ModelSpec

__all__ = ["TruncatedOperators", "build", "commutator_diagonal", "eigenstate_by_raising"]


@dataclass(frozen=True)
class TruncatedOperators:
    """Immutable dense dim x dim lowering/raising/Hamiltonian triple."""

    spec: ModelSpec
    dim: int
    lowering: np.ndarray
    raising: np.ndarray
    hamiltonian: np.ndarray

    @property
    def interior_dim(self) -> int:
        """Rows on which truncated algebraic identities are exact."""
        return self.dim - 1


def build(spec: ModelSpec, dim: int) -> TruncatedOperators:
    """Assemble the truncated operators for the first dim eigenstates."""
    if dim != int(dim) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2, got {dim}")
    dim = int(dim)
    e = models.step(spec, np.arange(dim))
    lowering = np.diag(np.sqrt(e[1:]), k=1)
    raising = lowering.T.copy()
    hamiltonian = np.diag([models.energy(spec, n) for n in range(dim)])
    for a in (lowering, raising, hamiltonian):
        a.setflags(write=False)
    return TruncatedOperators(spec, dim, lowering, raising, hamiltonian)


def commutator_diagonal(ops: TruncatedOperators) -> np.ndarray:
    """Diagonal of [L-, L+] on the interior rows 0..dim-2.

    Entry n equals e_{n+1} - e_n, the shape-invariance increment in units of
    the model's energy quantum; the edge row is excluded because L+ maps it
    out of the truncated space.
    """
    comm = ops.lowering @ ops.raising - ops.raising @ ops.lowering
    return np.diag(comm)[: ops.dim - 1].copy()


def eigenstate_by_raising(ops: TruncatedOperators, n: int) -> np.ndarray:
    """Unit vector of eigenstate n built as L+^n acting on the ground state.

    Repeated raising is renormalized at every application and the
    accumulated product of norms is checked against sqrt(rho_n), so the
    result both reproduces basis vector n and validates the generalized
    factorial.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    if n >= ops.dim:
        raise ValueError(f"n = {n} is outside the truncated space (dim {ops.dim})")
    v = np.zeros(ops.dim)
    v[0] = 1.0
    log_norms = 0.0
    for _ in range(n):
        v = ops.raising @ v
        s = float(np.linalg.norm(v))
        v /= s
        log_norms += math.log(s)
    # L+^n ground = sqrt(rho_n) eigenstate_n, so the residual factor is ~1
    return v * math.exp(log_norms - 0.5 * models.rho_log(ops.spec, n))
