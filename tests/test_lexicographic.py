"""The flow LP's one lexicographic solve against the two-stage reference.

``solve_flow_lp`` solves the flow LP once with the relayed traffic as a
weighted secondary cost and certifies the result by a zero-iteration re-run
on the spectrum cost.  The reference solves the spectrum model, caps the sum
of peaks at its optimum F and minimizes the relayed traffic R in a second
solve.  Both must give the same F (rel 1e-9) and R (rel 1e-6), every
certified optimum must pass the duality certificate on the spectrum model,
and none of these instances may need the fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from two_stage_reference import flow_two_stage

from d2dlb import lp
from d2dlb.bounds import build_complete_instance, build_ring_instance
from d2dlb.d2d_flow import build_flow_lp, solve_flow_lp
from d2dlb.heuristic import split_demands
from d2dlb.model import DemandSet, Topology
from d2dlb.no_d2d import min_spectrum_no_d2d
from d2dlb.scenario import random_multicell_instance, toy_two_cell

#: largest duality gap accepted on these flow LPs
GAP_TOL = 1e-9


def assert_matches_two_stage(topology: Topology, demands: DemandSet, **kwargs) -> None:
    flow = solve_flow_lp(topology, demands, **kwargs)
    assert not flow.solution.fallback
    assert lp.dual_certificate_gap(flow.index.problem, flow.solution) <= GAP_TOL
    f_ref, r_ref = flow_two_stage(build_flow_lp(topology, demands, **kwargs))
    assert flow.total == pytest.approx(f_ref, rel=1e-9, abs=1e-12)
    assert flow.relayed_traffic == pytest.approx(r_ref, rel=1e-6, abs=1e-9)


def ring3() -> tuple[Topology, DemandSet]:
    inst = build_ring_instance(3, volume=1.0)
    return inst.topology, inst.demands


def complete2x2() -> tuple[Topology, DemandSet]:
    inst = build_complete_instance(2, 2, volume=6)
    return inst.topology, inst.demands


@pytest.mark.parametrize("pruning", [True, False])
@pytest.mark.parametrize(
    "instance", [toy_two_cell, ring3, complete2x2], ids=["toy-fig1", "ring3", "complete2x2"]
)
def test_named_instances(instance, pruning):
    assert_matches_two_stage(*instance(), pruning=pruning)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.booleans())
@settings(max_examples=20, deadline=None)
def test_random_multicell(seed, pruning):
    rng = np.random.default_rng(seed)
    topology, demands = random_multicell_instance(
        rng,
        n_cells=int(rng.integers(2, 5)),
        users_per_cell=int(rng.integers(1, 4)),
        n_demands=int(rng.integers(1, 20)),
        horizon=int(rng.integers(4, 16)),
        delays=(1, 2, 3, 4),
        d2d_link_prob=float(rng.uniform(0.1, 0.6)),
    )
    assert_matches_two_stage(topology, demands, pruning=pruning)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([0.25, 0.5, 0.75]))
@settings(max_examples=15, deadline=None)
def test_heuristic_step3_subset_with_residual(seed, level):
    rng = np.random.default_rng(seed)
    topology, demands = random_multicell_instance(
        rng, n_cells=3, users_per_cell=3, n_demands=18, horizon=14, delays=(1, 2, 3, 4)
    )
    _, nd_schedule, _ = min_spectrum_no_d2d(topology, demands)
    split = split_demands(topology, demands, nd_schedule, level)
    assert_matches_two_stage(
        topology,
        demands,
        demand_subset=tuple(j for j in demands.demands if j.id in split.d2d_demand_ids),
        residual_load=split.residual_load,
    )
