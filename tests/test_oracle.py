"""Brute-force lifting oracle: exhaustive search over strand orderings."""

from __future__ import annotations

import random
from math import factorial

import pytest

from conftest import random_walk_map, relabelled

from embapprox.catalog import (
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
from embapprox.corpus import CorpusSpec, run_agreement
from embapprox.decide import decide_deg3_to_circle
from embapprox.errors import OracleBudgetExceeded, PreconditionError
from embapprox.oracle import (
    Lift,
    build_expansion,
    is_approximable_oracle,
    lift_crossing_check,
    oracle_result,
)


def test_catalog_verdicts():
    assert is_approximable_oracle(winding_map(1))[0] is True
    assert is_approximable_oracle(winding_map(-1))[0] is True
    assert is_approximable_oracle(winding_map(0))[0] is True
    assert is_approximable_oracle(winding_map(2))[0] is False
    assert is_approximable_oracle(winding_map(-3))[0] is False
    assert is_approximable_oracle(euler_cycle_map())[0] is True
    assert is_approximable_oracle(whole_fold())[0] is True
    assert is_approximable_oracle(terminal_flower())[0] is True
    assert is_approximable_oracle(x_cross_path())[0] is False


def test_total_lifts_counts_lane_orderings():
    res = oracle_result(winding_map(2))
    assert res.total_lifts == factorial(2) ** 3
    assert oracle_result(euler_cycle_map()).total_lifts == 1
    assert oracle_result(x_cross_path()).total_lifts == 1


def test_single_rejected_lift_is_fully_examined_without_pruning():
    res = oracle_result(x_cross_path(), prune=False)
    assert res.approximable is False and res.lift is None
    assert res.lifts_examined == 1


def test_accepted_lift_structure():
    res = oracle_result(euler_cycle_map())
    assert res.approximable is True
    assert all(len(row) == 1 for row in res.lift.by_edge)
    exp = build_expansion(euler_cycle_map())
    assert res.lift.by_edge == tuple(tuple(s) for s in exp.strands)


def test_prune_never_changes_verdict_or_first_accepted_lift():
    rng = random.Random(9)
    pool = [winding_map(d) for d in (-2, -1, 0, 1, 2)]
    pool += [x_cross_path(), whole_fold(), terminal_flower()]
    targets = small_targets()
    for _ in range(60):
        pool.append(random_walk_map(rng, targets["theta"], rng.randrange(3, 7), closed=False))
        pool.append(random_walk_map(rng, targets["fiveod"], 7, closed=False))
        pool.append(random_walk_map(rng, targets["C5"], rng.randrange(3, 7), closed=rng.random() < 0.5))
    for phi in pool:
        fast = oracle_result(phi, prune=True)
        slow = oracle_result(phi, prune=False)
        assert fast.approximable == slow.approximable, phi.vertex_image
        assert fast.lift == slow.lift, phi.vertex_image
        assert fast.lifts_examined <= slow.lifts_examined


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
    res = oracle_result(phi, prune=False)
    assert res.approximable is True and res.lifts_examined >= 1
    # one lift less than needed: inconclusive
    with pytest.raises(OracleBudgetExceeded) as info:
        oracle_result(phi, prune=False, max_lifts=res.lifts_examined - 1)
    assert info.value.lifts_examined == res.lifts_examined - 1
    # exactly enough budget: the verdict is reached
    again = oracle_result(phi, prune=False, max_lifts=res.lifts_examined)
    assert again.approximable is True


def test_pruned_exhaustion_can_conclude_within_any_budget():
    # pruning rejects every branch of the double winding before reaching a
    # single leaf, so even a zero budget yields the negative verdict
    res = oracle_result(winding_map(2), prune=True, max_lifts=0)
    assert res.approximable is False
    assert res.lifts_examined == 0


def test_a_kept_search_keeps_the_budget_and_the_prune_flag():
    # the first call fills the target's oracle_memo; every later call on a
    # map that normalizes to the same one must answer as a fresh search does
    phi = winding_map(0)
    pruned = oracle_result(phi)
    assert pruned.approximable and pruned.lifts_examined == 1
    unkept = winding_map(0)
    for psi in (unkept, phi):
        with pytest.raises(OracleBudgetExceeded) as info:
            oracle_result(psi, max_lifts=0)
        assert info.value.lifts_examined == 0
    # a search that ran out of budget keeps nothing
    assert unkept.target.oracle_memo == {}
    # the unpruned search counts the rejected lift before the accepted one
    fresh = oracle_result(winding_map(0), prune=False)
    assert oracle_result(phi, prune=False) == fresh
    assert fresh.lifts_examined == 2 > pruned.lifts_examined
    with pytest.raises(OracleBudgetExceeded) as info:
        oracle_result(phi, prune=False, max_lifts=1)
    assert info.value.lifts_examined == 1
    assert oracle_result(phi, prune=False, max_lifts=2) == fresh
    assert oracle_result(phi) == pruned
    assert len(phi.target.oracle_memo) == 2


def test_lift_crossing_check_reports_the_forced_disc():
    phi = x_cross_path()
    exp = build_expansion(phi)
    lift = Lift(by_edge=tuple(tuple(s) for s in exp.strands))
    hit = lift_crossing_check(exp, lift)
    assert hit is not None
    assert hit.disc == 0  # the degree-four vertex
    assert len(hit.positions) == 4
    # accepted lifts pass the check
    ok = oracle_result(winding_map(1))
    assert lift_crossing_check(build_expansion(winding_map(1)), ok.lift) is None


def test_degenerate_handling_by_shape():
    g = small_targets()["C4"]
    degen_path = SimplicialMap(path_domain(3), g, (0, 0, 1))
    assert is_approximable_oracle(degen_path)[0] is True
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
    old = Lift(((0, 4, 1, 5), (3, 7, 8), (2, 6)))
    hit = lift_crossing_check(build_expansion(phi), old)
    assert hit is not None and hit.disc == 1
    assert {hit.arc_p.vertices, hit.arc_q.vertices} == {(7, 0, 5), (7, 3, 5)}


def test_oracle_agrees_with_the_degree3_circle_rule():
    for seed in (1, 2, 3):
        spec = CorpusSpec("deg3", ("C3", "C4", "C5"), k_max=12, seed=seed, count=200)
        rows, _ = run_agreement(spec)
        assert [r.instance for r in rows if not r.agree] == []

