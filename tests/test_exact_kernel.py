"""An exact oracle for the chains' time-averaged reports.

The populations and the expectation value of a pure state deviate from
their dephased values by ``f(t) = sum_a x_a exp(i G_a t)``, over the pairs
a = (i, j) of distinct levels, with ``x_a = conj(c_i) c_j O_ij`` (O an
outcome's projector or the observable, in the eigenbasis) and gap
``G_a = E_i - E_j``. The window average of ``|f|^2`` over [0, T] is then

    sum_{a,b} x_a conj(x_b) (exp(i (G_a - G_b) T) - 1) / (i (G_a - G_b) T),

whose kernel is 1 at equal gaps. The chain is built here from Pauli
Kronecker products and diagonalized in the full space, apart from the
package's sector construction, so the oracle shares no code with the
reports it checks.
"""

from functools import reduce

import numpy as np
import pytest

from qeqlab.dynamics import default_time_step
from qeqlab.harness import chain_system, compute_trajectory, evaluate_bounds, time_grid
from qeqlab.models import SpinChainParams

WINDOWS = (10.0, 25.0, 50.0, 100.0)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])


def site_operator(single: np.ndarray, site: int, sites: int) -> np.ndarray:
    return reduce(np.kron, [single if k == site else np.eye(2) for k in range(sites)])


def kron_chain(params: SpinChainParams):
    """The mixed-field chain (edge fields h - J) and its bulk z-magnetization."""
    n = params.sites
    z = [site_operator(PAULI_Z, k, n) for k in range(n)]
    ham = sum(params.g * site_operator(PAULI_X, k, n) for k in range(n)) + (params.h - params.J) * (z[0] + z[-1])
    ham = ham + sum(params.h * z[k] for k in range(1, n - 1)) + sum(params.J * z[k] @ z[k + 1] for k in range(n - 1))
    return ham, sum(z) / n


def exact_squared_deviations(ham: np.ndarray, operators: list, psi: np.ndarray) -> np.ndarray:
    """(len(WINDOWS), len(operators)): the window averages of each
    operator's squared deviation from its dephased value, in closed form."""
    energies, vectors = np.linalg.eigh(ham)
    amps = vectors.T @ psi
    # levels the state does not occupy (the reflection-odd ones) add nothing
    occupied = np.abs(amps) > 1e-12
    energies, vectors, amps = energies[occupied], vectors[:, occupied], amps[occupied]
    # pairs inside one energy eigenspace belong to the dephased state
    i, j = np.nonzero(np.abs(energies[:, None] - energies[None, :]) > 1e-9)
    gaps = energies[i] - energies[j]
    x = np.array([amps[i] * amps[j] * (vectors.T @ op @ vectors)[i, j] for op in operators])
    spread = gaps[:, None] - gaps[None, :]
    out = []
    for T in WINDOWS:
        kernel = np.exp(0.5j * spread * T) * np.sinc(spread * T / (2 * np.pi))
        out.append(np.real(np.sum((x @ kernel) * x.conj(), axis=1)))
    return np.array(out)


@pytest.mark.parametrize("sites", [4, 5, 6])
def test_reports_bound_the_exact_window_averages(sites):
    params = SpinChainParams(sites=sites)
    ham, magnetization = kron_chain(params)
    values = np.diag(magnetization)
    projectors = [np.diag((values == v).astype(float)) for v in np.unique(values)]
    psi = np.zeros(2**sites)
    psi[-1] = 1.0  # all down
    exact = exact_squared_deviations(ham, projectors + [magnetization], psi)

    system = chain_system(params)
    times = time_grid(WINDOWS[-1], default_time_step(system.curvature))
    reports = evaluate_bounds(system, compute_trajectory(system, times), WINDOWS)
    for T, row in zip(WINDOWS, exact):
        by_name = {rep.name: rep for rep in reports if rep.parameters["T"] == T}
        expectation = by_name["expectation_deviation"]
        # the oracle agrees with the report's trapezoid, and the certified
        # lhs (trapezoid plus remainder) is at least the exact average
        assert row[-1] == pytest.approx(expectation.parameters["trapezoid"], abs=1e-5)
        assert expectation.lhs >= row[-1]
        # <|dp_k|>_T <= sqrt(<|dp_k|^2>_T), which the population rhs bounds
        assert by_name["population_equilibration"].rhs >= 0.5 * np.sum(np.sqrt(row[:-1]))
