"""Physical systems: the mixed-field Ising chain and its reflection-even
sector, bulk magnetization observables, product initial states, and an
analytically solvable reference system: a spin precessing next to an
inert bath, which at bath dimension 1 is the lone precessing spin.

Conventions (fixed once, used everywhere):

* sites are numbered 1..N, site 1 is the leftmost, i.e. the most
  significant bit of the computational-basis index;
* basis index bit 0 means spin up, bit 1 means spin down, so the
  all-down state is basis index ``2**N - 1``;
* ``sigma_y`` has rows/columns ordered (up, down) with entries
  ``((0, -i), (i, 0))``;
* site reflection (site i <-> site N+1-i) reverses the bit order of the
  basis index; the chain Hamiltonian, the all-down state and every bulk
  magnetization are reflection-symmetric;
* hbar = 1, energies and times are dimensionless.

Operators and states are stored in their natural dtype: the chain
Hamiltonian, the x/z magnetizations and the all-down state are real
(float64), the y magnetization is complex128. Real operators and states
keep the eigensolve and the propagation in real arithmetic downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import check_hermitian

__all__ = [
    "DEFAULT_FIELD_G",
    "DEFAULT_FIELD_H",
    "DEFAULT_COUPLING_J",
    "DensityMatrix",
    "DimensionCapError",
    "PureState",
    "ReflectionSector",
    "SpinChainParams",
    "all_down_state",
    "bulk_magnetization",
    "pauli",
    "reflection_sector",
    "spin_bath",
    "tilted_ising_chain",
]

# Largest Hilbert-space dimension any constructor builds: dense 8192^2
# matrices are the practical memory limit, so chains have N <= 13. The
# cap counts the full 2**N, also for a chain that is solved in its
# reflection-even sector (m = 4160 levels at N = 13): the full-space
# constructors below still build d x d matrices, and the cap is one
# limit for every way of building a chain.
_DIMENSION_CAP = 2**13
# Entries per row block of a sector product operator
# (:meth:`ReflectionSector.product_operator`): its four work arrays stay
# within 16 MiB for a complex site matrix.
_BLOCK_ENTRIES = 2**18

# Chain constants for the nonintegrable parameter point used throughout.
DEFAULT_FIELD_H = (math.sqrt(5) + 1) / 4    # longitudinal field, ~0.8090
DEFAULT_FIELD_G = (math.sqrt(5) + 5) / 8    # transverse field, ~0.9045
DEFAULT_COUPLING_J = 1.0

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class DimensionCapError(ValueError):
    """Requested system exceeds the dense-matrix dimension cap."""


def pauli(axis: str) -> np.ndarray:
    """Single-site Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


@dataclass(frozen=True)
class SpinChainParams:
    """Couplings of the mixed-field Ising chain (hbar = 1). The edge
    terms need at least 2 sites."""

    sites: int
    g: float = DEFAULT_FIELD_G
    h: float = DEFAULT_FIELD_H
    J: float = DEFAULT_COUPLING_J

    def __post_init__(self):
        if self.sites < 2:
            raise ValueError("the chain needs at least 2 sites (edge terms)")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector, stored like an operator in its natural
    dtype: float64 for real amplitudes, complex128 otherwise."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        amps = amps.astype(complex if np.iscomplexobj(amps) else float)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state vector not normalized: |psi| = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)
        amps.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix.

    Hermiticity and trace are always validated; positivity is validated
    when ``check_positive`` is set (it costs a full eigendecomposition,
    which trusted construction paths such as unitary evolution skip).
    """

    matrix: np.ndarray
    check_positive: bool = False

    def __post_init__(self):
        arr = check_hermitian(self.matrix)
        arr = (arr + arr.conj().T) / 2
        trace = np.trace(arr).real
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"trace is {trace!r}, expected 1")
        if self.check_positive:
            lowest = float(np.linalg.eigvalsh(arr)[0])
            if lowest < -1e-10:
                raise ValueError(f"not positive semidefinite: min eigenvalue {lowest:.3e}")
        object.__setattr__(self, "matrix", arr)
        arr.setflags(write=False)


def _check_cap(sites: int) -> int:
    # the exponent is clipped first: a huge site count never builds 2**sites
    dim = 2 ** min(sites, _DIMENSION_CAP.bit_length())
    if dim > _DIMENSION_CAP:
        raise DimensionCapError(f"2**{sites} exceeds the dimension cap {_DIMENSION_CAP}")
    return dim


def _check_bath_cap(bath_dim: int) -> int:
    """Dimension 2 * bath_dim of a spin next to its bath, within the cap."""
    if 2 * bath_dim > _DIMENSION_CAP:
        raise DimensionCapError(f"2 * bath_dim = {2 * bath_dim} exceeds the dimension cap {_DIMENSION_CAP}")
    return 2 * bath_dim


def _site_bit(sites: int, site: int) -> int:
    if not 1 <= site <= sites:
        raise ValueError(f"site {site} outside 1..{sites}")
    return sites - site


def _site_bits(sites: int, idx: np.ndarray) -> np.ndarray:
    """(len(idx), sites) array of the bits of basis states ``idx``, site 1
    first (1 = down)."""
    return (idx[:, None] >> (sites - 1 - np.arange(sites))) & 1


def _z_values(sites: int, idx: np.ndarray) -> np.ndarray:
    """(len(idx), sites) array of sigma_z values (+1 up / -1 down) of the
    basis states ``idx``."""
    return 1.0 - 2.0 * _site_bits(sites, idx)


def _chain_diagonal(params: SpinChainParams, z: np.ndarray) -> np.ndarray:
    """Diagonal of :func:`tilted_ising_chain` at basis states with sigma_z
    values ``z`` (one row per state). Every partial sum is an integer, so
    the value of a state does not depend on which others are in ``z``."""
    n = params.sites
    diag = np.zeros(z.shape[0])
    if n >= 3:
        diag += params.h * z[:, 1 : n - 1].sum(axis=1)
    diag += (params.h - params.J) * (z[:, 0] + z[:, n - 1])
    diag += params.J * (z[:, :-1] * z[:, 1:]).sum(axis=1)
    return diag


def tilted_ising_chain(params: SpinChainParams) -> np.ndarray:
    """Hamiltonian of the open mixed-field Ising chain.

    H = sum_i g sx_i + sum_{i=2}^{N-1} h sz_i + (h-J)(sz_1 + sz_N)
        + sum_{i=1}^{N-1} J sz_i sz_{i+1}

    The edge longitudinal fields are reduced to h-J, which makes the
    model nonintegrable at generic couplings while keeping it
    reflection-symmetric. Requires at least two sites. Every term is real
    in the computational basis, so the matrix is real symmetric and is
    returned as float64.
    """
    n = params.sites
    dim = _check_cap(n)
    ham = np.zeros((dim, dim))
    idx = np.arange(dim)
    ham[idx, idx] = _chain_diagonal(params, _z_values(n, idx))
    for site in range(1, n + 1):
        mask = 1 << _site_bit(n, site)
        ham[idx, idx ^ mask] += params.g
    return ham


def bulk_magnetization(sites: int, axis: str) -> np.ndarray:
    """Bulk magnetization ``(1/N) sum_i sigma_axis^(i)``.

    The spectrum is {(N-2k)/N : k = 0..N} with binomial multiplicities
    C(N, k), so the observable defines N+1 measurement outcomes. The
    ``z`` and ``x`` magnetizations are real (float64); ``y`` is complex128.
    """
    if sites < 1:
        raise ValueError("sites must be >= 1")
    dim = _check_cap(sites)
    out = np.zeros((dim, dim), dtype=complex if axis == "y" else float)
    idx = np.arange(dim)
    if axis == "z":
        out[idx, idx] = _z_values(sites, idx).sum(axis=1) / sites
        return out
    for site in range(1, sites + 1):
        mask = 1 << _site_bit(sites, site)
        if axis == "x":
            out[idx, idx ^ mask] += 1.0 / sites
        elif axis == "y":
            out[idx, idx ^ mask] += np.where(idx & mask, 1j, -1j) / sites
        else:
            raise ValueError(f"unknown Pauli axis {axis!r}")
    return out


def all_down_state(sites: int) -> PureState:
    """Product state of down spins: the real (float64) basis vector at
    index ``2**N - 1``."""
    if sites < 1:
        raise ValueError("sites must be >= 1")
    dim = _check_cap(sites)
    amps = np.zeros(dim)
    amps[dim - 1] = 1.0
    return PureState(amps)


# Largest distance of ||P^T psi||^2 from 1 that still counts as a state
# inside the sector.
_SECTOR_TOL = 1e-12


@dataclass(frozen=True)
class ReflectionSector:
    """The reflection-even sector of an N-site chain: the isometry P
    (d x m) in index form, never as a dense matrix.

    Column j of P is ``coeffs[j] * (e[reps[j]] + e[mirrors[j]])``, where
    ``mirrors[j]`` is the bit reversal of ``reps[j] <= mirrors[j]``: a
    mirror pair has coefficient 1/sqrt(2), and a palindrome (both indices
    equal) has 1/2, i.e. its column is the basis vector itself. Columns
    are ordered by the number of down spins (ascending, so by z
    magnetization descending), then by representative.
    """

    sites: int
    reps: np.ndarray
    mirrors: np.ndarray
    coeffs: np.ndarray
    down_counts: np.ndarray  # down spins of each column's orbit

    @property
    def dim(self) -> int:
        return self.reps.shape[0]

    def magnetization_slices(self) -> tuple[slice, ...]:
        """One slice of sector columns per down-spin count k = 0..N."""
        edges = np.searchsorted(self.down_counts, np.arange(self.sites + 2))
        return tuple(slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]))

    def project_operator(self, operator: np.ndarray) -> np.ndarray:
        """``P^T A P`` (m x m) by gathers over the orbit indices."""
        half = operator[self.reps]
        half += operator[self.mirrors]
        return self._combine(half[:, self.reps], half[:, self.mirrors])

    def _combine(self, s1: np.ndarray, s2: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Rows ``rows`` of ``P^T A P`` from the two column gathers
        ``s1 = A[r_a, r_b] + A[m_a, r_b]`` and ``s2 = A[r_a, m_b] + A[m_a, m_b]``,
        as ``(s1 c_a + s2 c_a) c_b``. Every block of the sector goes through
        this arithmetic, so a block built from the orbits is equal to the
        projection of its dense operator bit for bit. Works in place in
        ``s1`` and ``s2``."""
        s1 *= self.coeffs[rows, None]
        s2 *= self.coeffs[rows, None]
        s1 += s2
        s1 *= self.coeffs
        return s1

    def chain_hamiltonian(self, params: SpinChainParams) -> np.ndarray:
        """``P^T H P`` (m x m) of :func:`tilted_ising_chain`, equal to
        ``project_operator(tilted_ising_chain(params))`` bit for bit but
        built from the orbits, with no d x d matrix: the diagonal from the
        representatives' z values, and the N spin flips of each column's
        representative and mirror mapped to the orbits they land in, so
        O(m N) entries are placed."""
        n = params.sites
        if n != self.sites:
            raise ValueError(f"a {n}-site chain in a {self.sites}-site sector")
        m = self.dim
        cols = np.arange(m)
        orbit = np.empty(2**n, dtype=np.intp)  # basis state -> sector column
        orbit[self.reps] = cols
        orbit[self.mirrors] = cols
        # a palindrome row is both r_a and m_a, so it enters each gather twice
        twice = np.where(self.reps == self.mirrors, 2.0, 1.0)
        diag = _chain_diagonal(params, _z_values(n, self.reps)) * twice
        gathers = []
        for ends in (self.reps, self.mirrors):  # column r_b, then column m_b
            s = np.zeros((m, m))
            s[cols, cols] = diag
            for bit in range(n):
                rows = orbit[ends ^ (1 << bit)]
                s[rows, cols] += params.g * twice[rows]
            gathers.append(s)
        return self._combine(*gathers)

    def product_operator(self, site: np.ndarray) -> np.ndarray:
        """``P^T (M (x) ... (x) M) P`` (m x m) for a 2 x 2 site matrix M,
        built from the orbits without the d x d product. Each entry is
        multiplied out site by site from site 1, as
        ``reduce(np.kron, [M] * N)`` forms it, so the block is equal to the
        projection of the dense product bit for bit."""
        site = np.asarray(site)
        m = self.dim
        rep_bits = _site_bits(self.sites, self.reps)
        mirror_bits = _site_bits(self.sites, self.mirrors)

        def entries(row_bits, col_bits):
            # M[row bit, col bit] per site: a (2, m) table per site, rows taken by bit
            out = site[:, col_bits[:, 0]].take(row_bits[:, 0], axis=0)
            for k in range(1, self.sites):
                out *= site[:, col_bits[:, k]].take(row_bits[:, k], axis=0)
            return out

        out = np.empty((m, m), dtype=site.dtype)
        step = max(1, _BLOCK_ENTRIES // m)
        for start in range(0, m, step):
            rows = slice(start, start + step)
            s1 = entries(rep_bits[rows], rep_bits)
            s1 += entries(mirror_bits[rows], rep_bits)
            s2 = entries(rep_bits[rows], mirror_bits)
            s2 += entries(mirror_bits[rows], mirror_bits)
            out[rows] = self._combine(s1, s2, rows)
        return out

    def project_state(self, state: PureState) -> PureState:
        """``P^T psi``; a state with weight outside the sector is an error."""
        amps = state.amplitudes
        inside = self.coeffs * (amps[self.reps] + amps[self.mirrors])
        weight = float(np.vdot(inside, inside).real)
        if abs(weight - 1.0) > _SECTOR_TOL:
            raise ValueError(f"state has weight {1.0 - weight:.3e} outside the reflection-even sector")
        return PureState(inside)


def reflection_sector(sites: int) -> ReflectionSector:
    """Orbits of site reflection on the basis of an N-site chain: one
    even-sector column per orbit {i, bit-reversed i}."""
    if sites < 1:
        raise ValueError("sites must be >= 1")
    dim = _check_cap(sites)
    idx = np.arange(dim)
    bits = (idx[:, None] >> np.arange(sites)) & 1
    mirrors = bits @ (1 << np.arange(sites)[::-1])
    keep = idx <= mirrors
    down = bits.sum(axis=1)[keep]
    order = np.argsort(down, kind="stable")
    reps, mirrors = idx[keep][order], mirrors[keep][order]
    coeffs = np.where(reps == mirrors, 0.5, math.sqrt(0.5))
    return ReflectionSector(sites=sites, reps=reps, mirrors=mirrors, coeffs=coeffs,
                            down_counts=down[order])


def spin_bath(g: float, bath_dim: int):
    """Uncoupled spin-1/2 next to a bath of dimension ``bath_dim``.

    Returns ``(hamiltonian, initial, observable)`` with
    H = g sigma_x (x) 1_B and observable sigma_z (x) 1_B; the bath is
    inert. The outcome populations are exactly
    ``p(t) = (cos^2(g t), sin^2(g t))``; at ``bath_dim = 1`` this is the
    lone spin precessing about x, the closed-form oracle for the dynamics
    and bound machinery. The spin keeps precessing forever, so the
    outcome-distribution entropy oscillates between 0 and log 2 while both
    outcome multiplicities stay equal to bath_dim. Used as the
    counterexample where eigenspace coarse-graining masks the absence of
    equilibration.
    """
    if g == 0:
        raise ValueError("g must be nonzero (g = 0 has no dynamics)")
    if bath_dim < 1:
        raise ValueError("bath_dim must be >= 1")
    dim = _check_bath_cap(bath_dim)
    eye_b = np.eye(bath_dim, dtype=complex)
    ham = np.kron(g * pauli("x"), eye_b)
    obs = np.kron(pauli("z"), eye_b)
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0  # spin up, bath in its first basis state
    return ham, PureState(amps), obs
