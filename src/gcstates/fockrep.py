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

Eigenstates are rebuilt from the ground state by a single chain of raisings:
``states_by_raising(ops, n_max)`` applies L+ n_max times and keeps every
intermediate state, so states 0..n_max cost n_max mat-vecs in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .models import ModelSpec

__all__ = [
    "TruncatedOperators",
    "build",
    "commutator_diagonal",
    "states_by_raising",
]


@dataclass(frozen=True)
class TruncatedOperators:
    """Immutable dense dim x dim lowering/raising/Hamiltonian triple."""

    spec: ModelSpec
    dim: int
    lowering: np.ndarray
    raising: np.ndarray
    hamiltonian: np.ndarray


def build(spec: ModelSpec, dim: int) -> TruncatedOperators:
    """Assemble the truncated operators for the first dim eigenstates."""
    if dim != int(dim) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2, got {dim}")
    dim = int(dim)
    e = models.step(spec, np.arange(dim))
    lowering = np.diag(np.sqrt(e[1:]), k=1)
    raising = lowering.T.copy()
    hamiltonian = np.diag(models.energy(spec, np.arange(dim)))
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


def states_by_raising(ops: TruncatedOperators, n_max: int) -> np.ndarray:
    """Rows 0..n_max: unit vector of eigenstate n as L+^n acting on the ground state.

    One chain of n_max raisings builds every row: each application is
    renormalized, and the running product of norms up to n is checked
    against sqrt(rho_n), so row n both reproduces basis vector n and
    validates the generalized factorial.
    """
    if n_max != int(n_max) or n_max < 0:
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max}")
    n_max = int(n_max)
    if n_max >= ops.dim:
        raise ValueError(f"n_max = {n_max} is outside the truncated space (dim {ops.dim})")
    out = np.empty((n_max + 1, ops.dim))
    v = np.zeros(ops.dim)
    v[0] = 1.0
    out[0] = v
    log_norms = 0.0
    for n in range(1, n_max + 1):
        v = ops.raising @ v
        s = float(np.linalg.norm(v))
        v /= s
        log_norms += math.log(s)
        # L+^n ground = sqrt(rho_n) eigenstate_n, so the residual factor is ~1
        out[n] = v * math.exp(log_norms - 0.5 * models.rho_log(ops.spec, n))
    return out
