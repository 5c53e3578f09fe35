"""Acceptance gate: one test per required behavioral guarantee.

Every test enforces an exact agreement property together with its wall-clock
budget on a single core, so ``pytest -v`` prints one pass/fail line per
guarantee.  The exhaustive corpora enumerate every simplicial map (degenerate
steps included) of the stated domain family into the catalog targets.
"""

from __future__ import annotations

import random
import time

from conftest import (
    contract_edge,
    drawn_verdict,
    mirrored_map,
    random_lane_orders,
    random_walk_map,
    sample_corpus,
)

from embapprox.catalog import euler_cycle_map, ex33_pair, small_targets, winding_map
from embapprox.core import normalize_nondegenerate
from embapprox.corpus import CorpusSpec, generate, run_agreement
from embapprox.decide import decide_cycle, decide_path
from embapprox.derivative import derive, winding_report
from embapprox.errors import DerivePreconditionError
from embapprox.oracle import is_approximable_oracle
from embapprox.vankampen import (
    obstruction_vanishes,
    pair_report,
    path_cut_components,
)

ALL_TARGETS = tuple(small_targets())


def test_criterion_1_winding_catalog_agrees_with_oracle():
    t0 = time.perf_counter()
    for d in range(-3, 4):
        phi = winding_map(d)
        expected = abs(d) <= 1
        assert decide_cycle(phi).approximable is expected, f"decide wrong at d={d}"
        assert is_approximable_oracle(phi)[0] is expected, f"oracle wrong at d={d}"
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_obstruction_parity_matches_winding_degree():
    t0 = time.perf_counter()
    for d in range(-4, 5):
        vanishes, _ = obstruction_vanishes(winding_map(d))
        assert vanishes is (d == 0 or d % 2 != 0), f"wrong parity verdict at d={d}"
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_exhaustive_paths_three_way_agreement():
    t0 = time.perf_counter()
    spec = CorpusSpec(shape="path", targets=ALL_TARGETS, k_min=1, k_max=7)
    rows, bad = run_agreement(spec, jobs=1)
    elapsed = time.perf_counter() - t0
    assert not bad, f"{bad} disagreements, first: {next((r for r in rows if not r.agree), None)}"
    assert len(rows) == 39556
    assert all(r.vk in ("yes", "no") and r.decide == r.oracle == r.vk for r in rows)
    assert elapsed < 600.0


def test_criterion_4_exhaustive_cycles_two_way_agreement():
    t0 = time.perf_counter()
    spec = CorpusSpec(shape="cycle", targets=ALL_TARGETS, k_min=3, k_max=7)
    rows, bad = run_agreement(spec, jobs=1)
    elapsed = time.perf_counter() - t0
    assert not bad, f"{bad} disagreements, first: {next((r for r in rows if not r.agree), None)}"
    assert len(rows) == 29184
    assert all(r.decide == r.oracle for r in rows)
    assert elapsed < 900.0


def test_criterion_5_completed_cycle_iterations_end_empty_or_winding():
    spec = CorpusSpec(shape="cycle", targets=ALL_TARGETS, k_min=3, k_max=7)
    outcomes = {"empty": 0, "winding": 0, "incomplete": 0}
    for iid, phi in generate(spec):
        cur = normalize_nondegenerate(phi)
        for _ in range(cur.domain.n + 2):
            if cur.domain.n == 0:
                outcomes["empty"] += 1
                break
            report = winding_report(cur)
            if report.components and report.is_standard_winding():
                assert all(d != 0 for d in report.winding_degrees()), iid
                outcomes["winding"] += 1
                break
            try:
                cur = derive(cur).map
            except DerivePreconditionError:
                outcomes["incomplete"] += 1  # iteration does not complete
                break
        else:
            raise AssertionError(f"iteration of {iid} reached no final state")
    assert outcomes["empty"] > 0 and outcomes["winding"] > 0


def test_criterion_6_random_degree_three_domains_agree_with_oracle():
    t0 = time.perf_counter()
    spec = CorpusSpec(
        shape="deg3", targets=("C3", "C4", "C5"), k_max=8, seed=20260817, count=500
    )
    rows, bad = run_agreement(spec, jobs=1)
    elapsed = time.perf_counter() - t0
    assert not bad, f"{bad} disagreements, first: {next((r for r in rows if not r.agree), None)}"
    assert len(rows) == 1500
    assert elapsed < 600.0


def test_criterion_7_disjoint_pair_example_has_all_even_parities():
    t0 = time.perf_counter()
    phi, psi = ex33_pair()
    report = pair_report(phi, psi)
    assert report.vanishes is True
    assert all(v == 0 for v in report.values)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_8_verdicts_invariant_under_presentation_changes():
    rng = random.Random(20260817)

    # (a) obstruction verdicts are independent of the lane order in each strip
    for iid, phi in sample_corpus("path", 100, seed=11, k_max=6):
        base = normalize_nondegenerate(phi)
        ref_cuts = path_cut_components(base) if base.domain.shape == "path" else None
        ref = (obstruction_vanishes(base)[0], ref_cuts)
        for _ in range(20):
            assert drawn_verdict(base, random_lane_orders(base, rng)) == ref, iid

    # (b) mirroring the target plane changes no verdict
    for iid, phi in sample_corpus("path", 50, seed=12, k_max=6):
        mir = mirrored_map(phi)
        assert decide_path(phi).approximable == decide_path(mir).approximable, iid
        assert is_approximable_oracle(phi)[0] == is_approximable_oracle(mir)[0], iid
        assert (
            obstruction_vanishes(normalize_nondegenerate(phi))[0]
            == obstruction_vanishes(normalize_nondegenerate(mir))[0]
        ), iid
    for iid, phi in sample_corpus("cycle", 50, seed=13, k_max=6):
        mir = mirrored_map(phi)
        assert decide_cycle(phi).approximable == decide_cycle(mir).approximable, iid
        assert is_approximable_oracle(phi)[0] == is_approximable_oracle(mir)[0], iid
    pair = ex33_pair()
    assert pair_report(mirrored_map(pair[0]), mirrored_map(pair[1])).vanishes is True

    # (c) contracting a degenerate edge never changes the verdict
    targets = small_targets()
    names = sorted(targets)
    for _ in range(100):
        closed = rng.random() < 0.5
        k = rng.randrange(4 if closed else 2, 8)
        g = targets[names[rng.randrange(len(names))]]
        phi = random_walk_map(rng, g, k, closed, force_stay=True)
        eid = next(i for i, im in enumerate(phi.edge_image) if im is None)
        smaller, _ = contract_edge(phi, eid)
        judge = decide_cycle if closed else decide_path
        assert judge(phi).approximable == judge(smaller).approximable, phi.vertex_image


def test_criterion_9_winding_fixed_points_and_euler_derivative():
    t0 = time.perf_counter()
    for d in (-4, -3, -2, -1, 1, 2, 3, 4):
        phi = winding_map(d)
        step = derive(phi)
        assert step.kprime.n == phi.domain.n, f"d={d} changed domain size"
        assert step.kprime.shape == "cycle", f"d={d} lost the circle"
        assert step.gprime.n == phi.target.n
        assert len(step.gprime.edges) == len(phi.target.edges)
        # a winding is classified up to isomorphism by sizes and |degree|
        # (the reported sign is a labeling convention: reflecting the
        # unoriented domain circle realizes d ~ -d)
        report = winding_report(step.map)
        assert report.is_standard_winding()
        assert tuple(abs(x) for x in report.winding_degrees()) == (abs(d),)
    first = derive(euler_cycle_map()).map
    assert first.is_injective()
    assert time.perf_counter() - t0 < 1.0
