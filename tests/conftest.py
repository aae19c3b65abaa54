"""Shared instances: the paper's toy network and a solved random suite.

The ``bound_suite`` fixture carries 50 random multi-cell instances together
with their solved no-D2D totals, D2D optima, and overhead-minimal schedules;
the bound and heuristic acceptance criteria both run against the same list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from d2dlb.d2d_flow import solve_min_overhead, solve_min_spectrum_d2d
from d2dlb.model import DemandSet, Schedule, Topology, compute_volumes, fill_storage
from d2dlb.no_d2d import min_spectrum_no_d2d
from d2dlb.scenario import random_multicell_instance, toy_two_cell


@pytest.fixture(scope="session")
def toy_instance() -> tuple[Topology, DemandSet]:
    return toy_two_cell()


@pytest.fixture(scope="session")
def toy_d2d_schedule(toy_instance) -> Schedule:
    """The two-cell relay schedule: peak 2 per BS, four relayed packets."""
    topology, demands = toy_instance
    real = {
        (0, "a", "alpha", 1): 2.0,
        (0, "a", "alpha", 2): 1.0,
        (1, "b", "c", 1): 2.0,
        (1, "b", "alpha", 2): 1.0,
        (1, "c", "beta", 2): 2.0,
        (2, "c", "b", 3): 2.0,
        (2, "c", "beta", 4): 1.0,
        (2, "b", "alpha", 4): 2.0,
        (3, "d", "beta", 3): 2.0,
        (3, "d", "beta", 4): 1.0,
    }
    return fill_storage(Schedule.from_allocations(real), topology, demands)


@dataclass
class SolvedInstance:
    seed: int
    topology: Topology
    demands: DemandSet
    f_nd: float
    f_d2d: float
    rho: float
    eta: float
    v_d2d: float
    v_bs: float


def draw_instance(rng: np.random.Generator) -> tuple[Topology, DemandSet]:
    n_cells = int(rng.integers(3, 7))
    users = int(rng.integers(2, 5))
    horizon = int(rng.integers(18, 32))
    n_demands = int(rng.integers(20, 55))
    return random_multicell_instance(
        rng,
        n_cells=n_cells,
        users_per_cell=users,
        n_demands=n_demands,
        horizon=horizon,
        delays=(1, 2, 3, 4),
        d2d_link_prob=0.3,
    )


def solve_instance(seed: int) -> SolvedInstance:
    rng = np.random.default_rng(seed)
    topology, demands = draw_instance(rng)
    nd_result, _, _ = min_spectrum_no_d2d(topology, demands)
    outcome = solve_min_spectrum_d2d(topology, demands)
    schedule, _, _ = solve_min_overhead(topology, outcome)
    v_d2d, v_bs = compute_volumes(schedule, topology)
    f_nd = float(nd_result.total)
    f_d2d = float(outcome.total)
    return SolvedInstance(
        seed=seed,
        topology=topology,
        demands=demands,
        f_nd=f_nd,
        f_d2d=f_d2d,
        rho=(f_nd - f_d2d) / f_nd,
        eta=float(v_d2d / (v_d2d + v_bs)),
        v_d2d=float(v_d2d),
        v_bs=float(v_bs),
    )


_BOUND_SUITE: list[SolvedInstance] = []


def get_bound_suite() -> list[SolvedInstance]:
    """50 solved random instances, built once per session on first use."""
    if not _BOUND_SUITE:
        _BOUND_SUITE.extend(solve_instance(seed) for seed in range(1000, 1050))
    return _BOUND_SUITE


@pytest.fixture(scope="session")
def bound_suite() -> list[SolvedInstance]:
    return get_bound_suite()
