"""Brute-force lifting oracle: exhaustive search over strand orderings."""

from __future__ import annotations

import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_walk_map, reference_lift_crossing, reference_oracle, relabelled

from embapprox.catalog import (
    TARGETS,
    euler_cycle_map,
    path_domain,
    small_targets,
    terminal_flower,
    theta_target,
    whole_fold,
    winding_map,
    x_cross_path,
)
from embapprox.core import DomainGraph, SimplicialMap, normalize_nondegenerate, parse_instance
from embapprox.corpus import CorpusSpec, generate, random_deg3_map, run_agreement
from embapprox.decide import decide_deg3_to_circle
from embapprox.errors import OracleBudgetExceeded, PreconditionError
from embapprox.oracle import oracle_result


def test_catalog_verdicts():
    assert oracle_result(winding_map(1)).approximable is True
    assert oracle_result(winding_map(-1)).approximable is True
    assert oracle_result(winding_map(0)).approximable is True
    assert oracle_result(winding_map(2)).approximable is False
    assert oracle_result(winding_map(-3)).approximable is False
    assert oracle_result(euler_cycle_map()).approximable is True
    assert oracle_result(whole_fold()).approximable is True
    assert oracle_result(terminal_flower()).approximable is True
    assert oracle_result(x_cross_path()).approximable is False


def test_total_lifts_counts_lane_orderings():
    res = oracle_result(winding_map(2))
    assert res.total_lifts == factorial(2) ** 3
    assert oracle_result(euler_cycle_map()).total_lifts == 1
    assert oracle_result(x_cross_path()).total_lifts == 1


def test_single_rejected_lift_is_fully_examined_without_pruning():
    # the unpruned reference reaches the one lift and rejects it; the search
    # cuts it before it is complete
    assert reference_oracle(x_cross_path()) == (False, None, 1)
    res = oracle_result(x_cross_path())
    assert res.approximable is False and res.lift is None
    assert res.lifts_examined == 0


def test_accepted_lift_structure():
    phi = euler_cycle_map()
    res = oracle_result(phi)
    assert res.approximable is True
    assert all(len(row) == 1 for row in res.lift.by_edge)
    strands = tuple((phi.edge_image.index(a),) for a in range(len(phi.target.edges)))
    assert res.lift.by_edge == strands


def _assert_matches_the_reference(phi):
    """The search's verdict and first accepted lift are the unpruned reference's."""
    res = oracle_result(phi)
    approximable, by_edge, examined = reference_oracle(phi)
    assert res.approximable == approximable, phi.vertex_image
    assert (None if res.lift is None else res.lift.by_edge) == by_edge, phi.vertex_image
    # every complete lift the search reaches is accepted, so it stops at the first
    assert res.lifts_examined == approximable <= examined
    if by_edge is not None:
        assert reference_lift_crossing(normalize_nondegenerate(phi), by_edge) is None


def test_prune_never_changes_verdict_or_first_accepted_lift():
    rng = random.Random(9)
    pool = [winding_map(d) for d in (-2, -1, 0, 1, 2)]
    pool += [x_cross_path(), whole_fold(), terminal_flower()]
    targets = small_targets()
    for _ in range(60):
        pool.append(random_walk_map(rng, targets["theta"], rng.randrange(3, 7), closed=False))
        pool.append(random_walk_map(rng, targets["fiveod"], 7, closed=False))
        pool.append(random_walk_map(rng, targets["C5"], rng.randrange(3, 7), closed=rng.random() < 0.5))
    # every closed walk of 6 vertices into theta and C3, 30 of them rejected
    pool += [phi for _, phi in generate(CorpusSpec("cycle", ("theta", "C3"), k_min=6, k_max=6))]
    assert sum(not oracle_result(phi).approximable for phi in pool) > 30
    for phi in pool:
        _assert_matches_the_reference(phi)


@st.composite
def _lift_maps(draw):
    """A walk of at most 7 vertices into theta, W4, ex33 or fiveod, or a degree-3 map into C3-C5."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_deg3_map(TARGETS[draw(st.sampled_from(("C3", "C4", "C5")))](), rng, 6)
    g = TARGETS[draw(st.sampled_from(("theta", "W4", "ex33", "fiveod")))]()
    k = draw(st.integers(1, 7))
    return random_walk_map(rng, g, k, closed=k >= 3 and draw(st.booleans()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_lift_maps())
def test_the_search_matches_the_unpruned_reference_on_random_maps(phi):
    _assert_matches_the_reference(phi)


def test_strand_order_never_changes_the_verdict():
    # the search places strands in increasing domain edge id, so listing
    # the normalized map's edges in another order searches in that order
    rng = random.Random(10)
    pool = [winding_map(2), winding_map(0), x_cross_path()]
    for _ in range(40):
        pool.append(random_walk_map(rng, small_targets()["theta"], 6, closed=False))
    for phi in pool:
        base = oracle_result(phi)
        norm = normalize_nondegenerate(phi)
        ids = list(range(len(norm.domain.edges)))
        for _ in range(4):
            rng.shuffle(ids)
            res = oracle_result(relabelled(norm, range(norm.domain.n), ids))
            assert res.approximable == base.approximable, phi.vertex_image


def test_budget_counts_fully_examined_leaves():
    phi = winding_map(0)
    # one lift less than needed: inconclusive
    with pytest.raises(OracleBudgetExceeded) as info:
        oracle_result(phi, max_lifts=0)
    assert info.value.lifts_examined == 0
    # exactly enough budget: the verdict is reached
    res = oracle_result(phi, max_lifts=1)
    assert res.approximable is True and res.lifts_examined == 1


def test_pruned_exhaustion_can_conclude_within_any_budget():
    # pruning rejects every branch of the double winding before reaching a
    # single leaf, so even a zero budget yields the negative verdict
    res = oracle_result(winding_map(2), max_lifts=0)
    assert res.approximable is False
    assert res.lifts_examined == 0


def test_a_kept_search_keeps_the_budget():
    # the first call keeps its search in the target's verdicts; every later
    # call on a map that normalizes to the same one must answer as a fresh
    # search does
    phi = winding_map(0)
    pruned = oracle_result(phi)
    assert pruned.approximable and pruned.lifts_examined == 1
    unkept = winding_map(0)
    for psi in (unkept, phi):
        with pytest.raises(OracleBudgetExceeded) as info:
            oracle_result(psi, max_lifts=0)
        assert info.value.lifts_examined == 0
    # a search that ran out of budget keeps nothing
    assert unkept.target.verdicts == {}
    assert oracle_result(phi, max_lifts=1) == oracle_result(winding_map(0)) == pruned
    assert [route for route, _, _ in phi.target.verdicts] == ["oracle"]


def test_lift_crossing_check_reports_the_forced_disc():
    phi = x_cross_path()
    by_edge = tuple((phi.edge_image.index(a),) for a in range(len(phi.target.edges)))
    hit = reference_lift_crossing(phi, by_edge)
    assert hit is not None
    disc, positions, _, _ = hit
    assert disc == 0  # the degree-four vertex
    assert len(positions) == 4
    # accepted lifts pass the check
    ok = oracle_result(winding_map(1))
    assert reference_lift_crossing(winding_map(1), ok.lift.by_edge) is None


def test_degenerate_handling_by_shape():
    g = small_targets()["C4"]
    degen_path = SimplicialMap(path_domain(3), g, (0, 0, 1))
    assert oracle_result(degen_path).approximable is True
    y = DomainGraph(4, ((0, 1), (0, 2), (0, 3)))
    degen_general = SimplicialMap(y, g, (0, 0, 1, 3))
    with pytest.raises(PreconditionError):
        oracle_result(degen_general)


# deg3-C3-s1-00095: a degree-3 domain into the triangle
DEG3_C3_S1_00095 = """\
#target
edge v0 v1
edge v0 v2
edge v1 v2
#rotation
rot v0 : v0-v2 v0-v1
rot v1 : v0-v1 v1-v2
rot v2 : v1-v2 v0-v2
#domain
shape general
edge 0 5
edge 0 7
edge 0 9
edge 1 7
edge 3 5
edge 3 7
edge 3 9
edge 4 8
edge 5 9
#map
0 -> v1
1 -> v2
2 -> v2
3 -> v1
4 -> v2
5 -> v0
6 -> v0
7 -> v0
8 -> v0
9 -> v2
"""


def test_alternating_stars_cross_even_when_their_arcs_share_ends():
    phi = parse_instance(DEG3_C3_S1_00095)
    assert oracle_result(phi).approximable is False
    assert decide_deg3_to_circle(phi).approximable is False
    # the lift an oracle exempting arcs with a shared domain vertex accepted:
    # lanes 0-5, 3-5, 0-7, 3-7 on v0-v1 alternate the stars of 0 and 3 at v1
    old = ((0, 4, 1, 5), (3, 7, 8), (2, 6))
    hit = reference_lift_crossing(phi, old)
    assert hit is not None and hit[0] == 1
    assert set(hit[2:]) == {(7, 0, 5), (7, 3, 5)}


def test_oracle_agrees_with_the_degree3_circle_rule():
    for seed in (1, 2, 3):
        spec = CorpusSpec("deg3", ("C3", "C4", "C5"), k_max=12, seed=seed, count=200)
        rows, _ = run_agreement(spec)
        assert [r.instance for r in rows if not r.agree] == []

