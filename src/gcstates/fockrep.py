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

``gcstates verify`` checks the ladder algebra with array identities on the
steps, not with these matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .models import ModelSpec

__all__ = ["TruncatedOperators", "build"]


@dataclass(frozen=True)
class TruncatedOperators:
    """Immutable dense dim x dim lowering/raising/Hamiltonian triple."""

    spec: ModelSpec
    dim: int
    lowering: np.ndarray
    raising: np.ndarray
    hamiltonian: np.ndarray


# kept because the benchmark harness (perfbench) imports and times it
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
