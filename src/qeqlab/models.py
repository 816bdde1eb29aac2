"""Physical systems: the mixed-field Ising chain and its reflection-even
sector, bulk magnetization observables, product initial states, and two
analytically solvable reference systems (precessing spin, uncoupled
spin--bath).

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

Operators are stored in their natural dtype: the chain Hamiltonian and
the x/z magnetizations are real (float64), the y magnetization is
complex128. Real operators keep the eigensolve and the propagation in
real arithmetic downstream.
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
    "precessing_spin",
    "reflection_sector",
    "spin_bath",
    "tilted_ising_chain",
]

# Largest Hilbert-space dimension any constructor builds: dense 8192^2
# matrices are the practical memory limit, so chains have N <= 13. The
# cap counts the full 2**N, also for a chain that is then solved in its
# reflection-even sector: the full-space operators are built before they
# are projected.
_DIMENSION_CAP = 2**13

# Chain constants for the nonintegrable parameter point used throughout.
DEFAULT_FIELD_H = (math.sqrt(5) + 1) / 4    # longitudinal field, ~0.8090
DEFAULT_FIELD_G = (math.sqrt(5) + 5) / 8    # transverse field, ~0.9045
DEFAULT_COUPLING_J = 1.0

_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class DimensionCapError(ValueError):
    """Requested system exceeds the dense-matrix dimension cap."""


def pauli(axis: str) -> np.ndarray:
    """Single-site Pauli matrix for axis 'x', 'y', 'z' (or 'i')."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


@dataclass(frozen=True)
class SpinChainParams:
    """Couplings of the mixed-field Ising chain (hbar = 1)."""

    sites: int
    g: float = DEFAULT_FIELD_G
    h: float = DEFAULT_FIELD_H
    J: float = DEFAULT_COUPLING_J

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError("sites must be >= 1")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
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

    def purity(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))


def _check_cap(sites: int) -> int:
    dim = 2**sites
    if dim > _DIMENSION_CAP:
        raise DimensionCapError(
            f"2**{sites} = {dim} exceeds the dimension cap {_DIMENSION_CAP}"
        )
    return dim


def _site_bit(sites: int, site: int) -> int:
    if not 1 <= site <= sites:
        raise ValueError(f"site {site} outside 1..{sites}")
    return sites - site


def _z_values(sites: int) -> np.ndarray:
    """(dim, sites) array of sigma_z values (+1 up / -1 down) per basis state."""
    idx = np.arange(2**sites)
    bits = (idx[:, None] >> (sites - 1 - np.arange(sites))) & 1
    return 1.0 - 2.0 * bits


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
    if n < 2:
        raise ValueError("the chain needs at least 2 sites (edge terms)")
    dim = _check_cap(n)
    z = _z_values(n)
    diag = np.zeros(dim)
    if n >= 3:
        diag += params.h * z[:, 1 : n - 1].sum(axis=1)
    diag += (params.h - params.J) * (z[:, 0] + z[:, n - 1])
    diag += params.J * (z[:, :-1] * z[:, 1:]).sum(axis=1)
    ham = np.zeros((dim, dim))
    idx = np.arange(dim)
    ham[idx, idx] = diag
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
        out[idx, idx] = _z_values(sites).sum(axis=1) / sites
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


def all_down_state(sites: int, seed: int = 0) -> PureState:
    """Product state of down spins, each dressed with a random phase.

    The per-site phases (drawn from a seeded generator) multiply out to a
    single global phase on the lone basis amplitude, so the density
    matrix is |down...down><down...down| exactly, independent of the
    seed. The phases are kept anyway so the construction matches the
    stated preparation procedure.
    """
    if sites < 1:
        raise ValueError("sites must be >= 1")
    dim = _check_cap(sites)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=sites)
    amps = np.zeros(dim, dtype=complex)
    amps[dim - 1] = np.exp(1j * phases.sum())
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
        half *= self.coeffs[:, None]
        out = half[:, self.reps]
        out += half[:, self.mirrors]
        out *= self.coeffs
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


def precessing_spin(g: float):
    """Single spin precessing about x, measured along z.

    Returns ``(hamiltonian, initial, observable)`` with H = g sigma_x,
    initial state |up>, observable sigma_z. The outcome populations are
    exactly ``p(t) = (cos^2(g t), sin^2(g t))``, which makes this system
    the closed-form oracle for the dynamics and bound machinery.
    """
    if g == 0:
        raise ValueError("g must be nonzero (g = 0 has no dynamics)")
    ham = g * pauli("x")
    initial = PureState(np.array([1.0, 0.0], dtype=complex))
    return ham, initial, pauli("z")


def spin_bath(g: float, bath_dim: int):
    """Uncoupled spin-1/2 next to a bath of dimension ``bath_dim``.

    Returns ``(hamiltonian, initial, observable)`` with
    H = g sigma_x (x) 1_B and observable sigma_z (x) 1_B; the bath is
    inert. The spin keeps precessing forever, so the outcome-distribution
    entropy oscillates between 0 and log 2 while both outcome
    multiplicities stay equal to bath_dim. Used as the counterexample
    where eigenspace coarse-graining masks the absence of equilibration.
    """
    if g == 0:
        raise ValueError("g must be nonzero (g = 0 has no dynamics)")
    if bath_dim < 1:
        raise ValueError("bath_dim must be >= 1")
    eye_b = np.eye(bath_dim, dtype=complex)
    ham = np.kron(g * pauli("x"), eye_b)
    obs = np.kron(pauli("z"), eye_b)
    amps = np.zeros(2 * bath_dim, dtype=complex)
    amps[0] = 1.0  # spin up, bath in its first basis state
    return ham, PureState(amps), obs
