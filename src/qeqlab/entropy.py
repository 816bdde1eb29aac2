"""Entropy functionals and the continuity-bound right-hand sides.

All entropies are in nats; converting to bits is a presentation concern.
``x log x`` terms treat populations below 1e-15 as exactly zero to avoid
-inf * 0 round-off artifacts.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import trace_norm
from .measurement import population_distance

__all__ = [
    "binary_entropy",
    "boltzmann_term",
    "capped_binary_entropy",
    "g_function",
    "observational_continuity_bound",
    "observational_entropy",
    "shannon_continuity_bound",
    "shannon_entropy",
    "von_neumann_continuity_bound",
    "von_neumann_entropy",
]

_ZERO_CUTOFF = 1e-15
LN2 = math.log(2.0)


def _xlogx(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    safe = np.where(p > _ZERO_CUTOFF, p, 1.0)
    return np.where(p > _ZERO_CUTOFF, p * np.log(safe), 0.0)


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


def von_neumann_entropy(rho, psd_tol: float = 1e-8) -> float:
    """``-Tr[rho ln rho]`` from the eigenvalues, clamped into [0, 1]."""
    matrix = getattr(rho, "matrix", rho)
    eigenvalues = np.linalg.eigvalsh(np.asarray(matrix, dtype=complex))
    if eigenvalues[0] < -psd_tol:
        raise ValueError(f"state not positive semidefinite: min eigenvalue {eigenvalues[0]:.3e}")
    return float(-np.sum(_xlogx(np.clip(eigenvalues, 0.0, 1.0))))


def binary_entropy(x: float) -> float:
    """``H2(x) = -x ln x - (1-x) ln(1-x)`` on [0, 1], endpoints 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x!r} outside [0, 1]")
    return float(-_xlogx(x) - _xlogx(1.0 - x))


def capped_binary_entropy(x: float) -> float:
    """H2(x) for x <= 1/2, else ln 2.

    Every continuity bound below uses the binary entropy only through a
    monotone upper estimate; substituting ln 2 past the maximum keeps the
    bounds valid for arbitrarily large distance arguments.
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
    return float(-_xlogx(x) + (1.0 + x) * math.log1p(x))


def shannon_continuity_bound(p, q) -> float:
    """Upper bound on |S(p) - S(q)| for two r-outcome distributions:
    ``ln(r-1) * t + H2(t)`` with t the half-normalized l1 distance.
    """
    p = np.asarray(p, dtype=float)
    if p.size < 2:
        raise ValueError("the continuity bound needs at least 2 outcomes")
    dist = population_distance(p, q)
    return math.log(p.size - 1) * dist + capped_binary_entropy(dist)


def observational_continuity_bound(p, q, dim: int) -> float:
    """Upper bound on the observational-entropy difference of two states
    sharing a measurement: ``g(t) + ln(dim) * t`` with t the
    half-normalized l1 distance of their outcome distributions.
    """
    if dim < 1:
        raise ValueError(f"invalid dimension {dim!r}")
    dist = population_distance(p, q)
    return g_function(dist) + math.log(dim) * dist


def von_neumann_continuity_bound(rho, sigma) -> float:
    """Trace-distance continuity bound for the von Neumann entropy:
    ``(1/2) ln(d) |rho - sigma|_1 + H2((1/2)|rho - sigma|_1)``.
    """
    a = getattr(rho, "matrix", rho)
    b = getattr(sigma, "matrix", sigma)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    dist = trace_norm(a - b)
    dim = a.shape[0]
    return 0.5 * math.log(dim) * dist + capped_binary_entropy(0.5 * dist)
