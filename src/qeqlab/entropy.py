"""Entropy functionals: Shannon, observational and von Neumann
entropies, and the binary entropy and g function that the continuity
bounds in :mod:`qeqlab.bounds` are written in.

All entropies are in nats; converting to bits is a presentation concern.
``x log x`` terms treat populations below 1e-15 as exactly zero to avoid
-inf * 0 round-off artifacts.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "binary_entropy",
    "boltzmann_term",
    "capped_binary_entropy",
    "g_function",
    "observational_entropy",
    "shannon_entropy",
    "von_neumann_entropy",
]

_ZERO_CUTOFF = 1e-15
# a state eigenvalue below this is not round-off
_PSD_FLOOR = -1e-8
LN2 = math.log(2.0)


def _xlogx(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    safe = np.where(p > _ZERO_CUTOFF, p, 1.0)
    return np.where(p > _ZERO_CUTOFF, p * np.log(safe), 0.0)


def _xlogx_float(x: float) -> float:
    """``_xlogx`` of one float, without the array round trip; NumPy's log
    keeps it bit-identical to the array path (``math.log`` is not)."""
    return x * float(np.log(x)) if x > _ZERO_CUTOFF else 0.0


def shannon_entropy(pops) -> float:
    """Shannon entropy ``-sum p_i ln p_i`` of an outcome distribution."""
    return float(-np.sum(_xlogx(pops)))


def observational_entropy(pops, multiplicities) -> float:
    """Multiplicity-weighted outcome entropy ``-sum p_i ln(p_i / V_i)``.

    Equals the Shannon entropy plus the Boltzmann term, and equals the
    von Neumann entropy of the coarse-grained state. Bounded above by
    ln(dim) and below by the Shannon entropy.
    """
    return shannon_entropy(pops) + boltzmann_term(pops, multiplicities)


def boltzmann_term(pops, multiplicities) -> float:
    """Outcome-averaged log-multiplicity ``sum_i p_i ln V_i >= 0``."""
    pops = np.asarray(pops, dtype=float)
    mult = np.asarray(multiplicities, dtype=float)
    if pops.shape != mult.shape:
        raise ValueError(f"length mismatch: {pops.shape} vs {mult.shape}")
    if np.any(mult <= 0):
        raise ValueError("multiplicities must be positive")
    return float(np.sum(pops * np.log(mult)))


def von_neumann_entropy(rho) -> float:
    """``-Tr[rho ln rho]`` from the eigenvalues, clamped into [0, 1]."""
    matrix = getattr(rho, "matrix", rho)
    eigenvalues = np.linalg.eigvalsh(np.asarray(matrix, dtype=complex))
    if eigenvalues[0] < _PSD_FLOOR:
        raise ValueError(f"state not positive semidefinite: min eigenvalue {eigenvalues[0]:.3e}")
    return float(-np.sum(_xlogx(np.clip(eigenvalues, 0.0, 1.0))))


def binary_entropy(x: float) -> float:
    """``H2(x) = -x ln x - (1-x) ln(1-x)`` on [0, 1], endpoints 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x!r} outside [0, 1]")
    return float(-_xlogx_float(x) - _xlogx_float(1.0 - x))


def capped_binary_entropy(x: float) -> float:
    """H2(x) for x <= 1/2, else ln 2.

    Every continuity bound in :mod:`qeqlab.bounds` uses the binary entropy
    only through this monotone upper estimate; substituting ln 2 past the
    maximum keeps the bounds valid for arbitrarily large distances.
    """
    if x < 0:
        raise ValueError(f"negative argument {x!r}")
    return binary_entropy(x) if x <= 0.5 else LN2


def g_function(x: float) -> float:
    """``g(x) = -x ln x + (1+x) ln(1+x)``, with g(0) = 0.

    Monotone increasing for all x >= 0; the observational-entropy
    analogue of the binary entropy in continuity bounds.
    """
    if x < 0:
        raise ValueError(f"negative argument {x!r}")
    return float(-_xlogx_float(x) + (1.0 + x) * math.log1p(x))
