"""Shared fixtures: simulated datasets are expensive, so build them once."""

from __future__ import annotations

import numpy as np
import pytest

import sweepnav as sn


@pytest.fixture(scope="session")
def default_sim_traj() -> sn.Trajectory:
    """Boustrophedon sweep of the default 4 m x 2 m room."""
    return sn.generate_trajectory(sn.SimConfig())


@pytest.fixture(scope="session")
def clean_imu(default_sim_traj) -> sn.ImuSequence:
    """Noise-free IMU stream synthesized from the default sweep."""
    return sn.synthesize_imu(default_sim_traj, sn.SimConfig())


def zero_windows(n=1, tau=64) -> np.ndarray:
    """A stack of n zero-content windows: the oracle reads only their starts."""
    return np.zeros((n, 2, tau + 1, 3))
