"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``qeqlab``. The chain Hamiltonian and the
z-magnetization are assembled from Kronecker products of 2x2 Pauli
matrices, the real symmetric Hamiltonian is diagonalized with
``numpy.linalg.eigh``, and the all-down state is propagated in that
eigenbasis. The package builds its operators by index arithmetic and
diagonalizes a complex matrix, so the two paths share no code.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

# The nonintegrable parameter point of the mixed-field Ising chain.
FIELD_G = (math.sqrt(5) + 5) / 8
FIELD_H = (math.sqrt(5) + 1) / 4
COUPLING_J = 1.0

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z_DIAG = np.array([1.0, -1.0])  # basis order (up, down)

# Eigenvalues closer than this (relative to the spectral range) are one level.
DEGENERACY_TOL = 1e-10


def _site_operator(sites: int, site: int, op: np.ndarray) -> np.ndarray:
    """``I (x) ... (x) op (x) ... (x) I`` with ``op`` on ``site`` (1-based,
    site 1 the leftmost factor). Works for matrices and for diagonals."""
    eye = np.eye(2) if op.ndim == 2 else np.ones(2)
    return reduce(np.kron, [op if k == site else eye for k in range(1, sites + 1)])


def chain_hamiltonian(sites: int) -> np.ndarray:
    """Dense real H = g sum sx + h sum_bulk sz + (h - J)(sz_1 + sz_N) + J sum sz sz."""
    z = [_site_operator(sites, k, SIGMA_Z_DIAG) for k in range(1, sites + 1)]
    diag = FIELD_H * sum(z[1:-1], np.zeros(2**sites))
    diag += (FIELD_H - COUPLING_J) * (z[0] + z[-1])
    diag += COUPLING_J * sum(a * b for a, b in zip(z[:-1], z[1:]))
    ham = np.diag(diag)
    for k in range(1, sites + 1):
        ham += FIELD_G * _site_operator(sites, k, SIGMA_X)
    return ham


def z_magnetization(sites: int) -> np.ndarray:
    """Diagonal of the bulk z-magnetization (1/N) sum sz."""
    return sum(_site_operator(sites, k, SIGMA_Z_DIAG) for k in range(1, sites + 1)) / sites


class ChainReference:
    """The all-down chain, diagonalized apart from the package."""

    def __init__(self, sites: int):
        self.sites = sites
        energies, vectors = np.linalg.eigh(chain_hamiltonian(sites))
        self.energies = energies
        self.vectors = vectors
        magnetization = z_magnetization(sites)
        # outcome k has value (N - 2k)/N: outcomes in descending value order
        self.outcome = np.rint((1.0 - magnetization) * sites / 2).astype(int)
        self.values = (sites - 2.0 * np.arange(sites + 1)) / sites
        spread = float(energies[-1] - energies[0])
        breaks = np.nonzero(np.diff(energies) > DEGENERACY_TOL * max(1.0, spread))[0] + 1
        self.level_starts = np.concatenate(([0], breaks))
        # the all-down product state is the last basis vector
        self.overlaps = vectors[-1, :].copy()

    def energy_populations(self) -> np.ndarray:
        return np.add.reduceat(self.overlaps**2, self.level_starts)

    def d_eff(self) -> float:
        return 1.0 / float(np.sum(self.energy_populations() ** 2))

    def equilibrium_populations(self) -> np.ndarray:
        """Outcome populations of the dephased state."""
        per_level = np.add.reduceat(self.vectors * self.overlaps, self.level_starts, axis=1)
        return self._by_outcome(np.sum(per_level**2, axis=1))

    def populations_at(self, t: float) -> np.ndarray:
        psi = self.vectors @ (np.exp(-1j * self.energies * t) * self.overlaps)
        return self._by_outcome(np.abs(psi) ** 2)

    def expectation_and_shannon(self, t: float) -> tuple[float, float]:
        pops = self.populations_at(t)
        nonzero = pops[pops > 0]
        return float(pops @ self.values), float(-np.sum(nonzero * np.log(nonzero)))

    def _by_outcome(self, weights: np.ndarray) -> np.ndarray:
        return np.bincount(self.outcome, weights=weights, minlength=self.sites + 1)
