import os

import numpy as np
import pytest

from kinex.kinetic1d import Equilibrium, Grid1D, uniform_density


@pytest.fixture
def grid_fine():
    """m1 = 1 working grid: [0, 20] at dx = 0.01."""
    return Grid1D.from_spacing(20.0, 0.01)


@pytest.fixture
def grid_coarse():
    return Grid1D.from_spacing(20.0, 0.05)


@pytest.fixture
def exp1(grid_fine):
    return Equilibrium(1.0).on_grid(grid_fine)


@pytest.fixture
def uniform02(grid_fine):
    return uniform_density(grid_fine, 0.0, 2.0)


def compact_random_density(grid, seed, width_fraction=0.4):
    """Random density supported on the first part of the grid (no truncation)."""
    from kinex.kinetic1d import GridDensity1D

    rng = np.random.default_rng(seed)
    values = np.zeros(grid.n_cells)
    n_support = int(grid.n_cells * width_fraction)
    values[:n_support] = rng.random(n_support) + 1e-3
    return GridDensity1D(grid, values).normalized()


class Recorder:
    """A solve() observer that keeps the time and the density of every record."""

    def __init__(self):
        self.times = []
        self.snapshots = []

    def __call__(self, t, q):
        self.times.append(t)
        self.snapshots.append(q)


@pytest.fixture(autouse=True)
def no_child_left():
    """After every test: no child of this process is left, running or as a zombie."""
    yield
    with pytest.raises(ChildProcessError):  # no zombie, and no child still running
        os.waitpid(-1, os.WNOHANG)


def record_forks(monkeypatch) -> list:
    """The pid of every child os.fork makes from now on."""
    forks, real_fork = [], os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forks


def running(pid: int) -> bool:
    """Whether pid names a process that has not exited (a zombie has exited)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return not os.path.isdir("/proc")
