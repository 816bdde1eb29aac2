import pytest
from reference_record import shipped_config

from qeqlab.harness import SweepConfig, sweep_chain_lengths


@pytest.fixture(scope="session")
def shipped_sweep():
    """The sweep of ``configs/sweep_lengths.json``, run once per session:
    the figure criterion and the reference record both read it."""
    return sweep_chain_lengths(SweepConfig.from_dict(shipped_config("sweep_lengths")))
