"""Mod-2 obstruction machinery on the deleted product of the domain."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    drawn_verdict,
    mirrored_map,
    random_lane_orders,
    random_walk_map,
    reference_cut_components,
    reference_number,
    sample_corpus,
    theta_fold,
    walk_maps,
)

from embapprox import gf2, vankampen

from embapprox.catalog import (
    TARGETS,
    cycle_domain,
    cycle_target,
    ex33_pair,
    path_domain,
    small_targets,
    theta_target,
    winding_map,
    x_cross_path,
)
from embapprox.core import DomainGraph, PlaneGraph, SimplicialMap, normalize_nondegenerate
from embapprox.corpus import CorpusSpec, generate, random_deg3_map
from embapprox.decide import decide_deg3_to_circle, decide_path_via_vk
from embapprox.errors import PreconditionError
from embapprox.oracle import oracle_result
from embapprox.vankampen import (
    build_deleted_product,
    intersection_cochain,
    obstruction_report,
    obstruction_vanishes,
    pair_report,
    path_cut_components,
)


def test_deleted_product_of_a_short_path():
    phi = SimplicialMap(path_domain(5), small_targets()["C6"], (0, 1, 2, 3, 4))
    dp = build_deleted_product(phi)
    assert dp.cells2 == ((0, 2), (0, 3), (1, 3))
    # an embedding keeps all disjoint pairs image-disjoint: everything is red
    assert all(dp.red2)
    assert all(dp.red1)


def test_red_flags_track_image_intersections():
    phi = winding_map(2)  # six vertices onto three: nothing stays disjoint
    dp = build_deleted_product(phi)
    assert not any(dp.red2)
    assert len(dp.cells2) == 9  # 6-cycle: non-adjacent edge pairs


def test_complex_needs_nondegeneracy_but_reports_normalize():
    g = small_targets()["C4"]
    phi = SimplicialMap(path_domain(3), g, (0, 0, 1))
    with pytest.raises(PreconditionError):
        build_deleted_product(phi)
    # the report entry point contracts degenerate edges on its own
    from embapprox.core import normalize_nondegenerate

    assert (
        obstruction_report(phi).vanishes
        == obstruction_report(normalize_nondegenerate(phi)).vanishes
    )


def test_cochain_is_binary_and_zero_on_red_cells():
    for phi in (winding_map(2), winding_map(3), x_cross_path()):
        dp, values = intersection_cochain(phi)
        assert len(values) == len(dp.cells2)
        for red, v in zip(dp.red2, values):
            assert v in (0, 1)
            if red:
                assert v == 0  # disjoint neighborhoods cannot cross


def test_double_winding_has_odd_total_parity():
    _, values = intersection_cochain(winding_map(2))
    assert sum(values) % 2 == 1  # no coboundary can cancel an odd total


def test_obstruction_report_solving_and_certificate_sides():
    ok = obstruction_report(winding_map(3))
    assert ok.vanishes is True
    assert ok.solving_cells is not None and ok.certificate_cells is None

    ko = obstruction_report(winding_map(2))
    assert ko.vanishes is False
    assert ko.solving_cells is None and ko.certificate_cells is not None


def test_certificate_is_a_valid_inconsistency_proof():
    report = obstruction_report(winding_map(2))
    dp = report.system.deleted_product()
    cert = set(report.certificate_cells)
    # summed equations have odd right-hand side ...
    total = sum(v for cell, v in zip(dp.cells2, report.system.values) if cell in cert)
    assert total % 2 == 1
    # ... while every unknown (a non-red 1-cell) cancels out
    dom = winding_map(2).domain
    for (x, r), red in zip(dp.cells1, dp.red1):
        if red:
            continue
        count = sum(
            1
            for s, t in cert
            if (r == t and x in dom.edges[s]) or (r == s and x in dom.edges[t])
        )
        assert count % 2 == 0, (x, r)


def test_obstruction_verdicts_do_not_depend_on_lane_order():
    rng = random.Random(3)
    for phi in (winding_map(2), winding_map(3), x_cross_path()):
        base, _ = obstruction_vanishes(phi)
        for _ in range(5):
            got, _ = drawn_verdict(phi, random_lane_orders(phi, rng))
            assert got == base


def test_path_cut_components_zero_iff_vanishing():
    # hand-picked nonzero witnesses plus a seeded sample around them
    fiveod = small_targets()["fiveod"]
    pool = [
        x_cross_path(),
        SimplicialMap(path_domain(7), fiveod, (1, 0, 3, 0, 2, 0, 4)),
    ]
    rng = random.Random(5)
    for _ in range(150):
        pool.append(random_walk_map(rng, fiveod, 7, closed=False))
        pool.append(random_walk_map(rng, theta_target(), 8, closed=False))
    seen_nonzero = 0
    for phi in pool:
        base = normalize_nondegenerate(phi)
        if base.domain.shape != "path":
            continue
        cuts = path_cut_components(base)
        vanishes, _ = obstruction_vanishes(base)
        assert vanishes == all(c % 2 == 0 for c in cuts), phi.vertex_image
        seen_nonzero += any(c % 2 for c in cuts)
    assert seen_nonzero >= 2


def test_cut_components_match_a_search_over_the_equations():
    walks = (phi for _, phi in generate(CorpusSpec("path", tuple(sorted(TARGETS)), k_max=6)))
    for phi in [*walks, theta_fold(64)]:
        drawn = vankampen.obstruction_system(normalize_nondegenerate(phi))
        # all-odd parities too: no drawing above puts two odd equations in
        # one unexposed component, so only these tell a sum from an "or"
        for system in (drawn, replace(drawn, rhs=[1] * len(drawn.rows))):
            got = vankampen.cut_components(system)
            edges = system.domain.edges
            want = reference_cut_components(edges, system.deleted_product(), system.values)
            assert got == want, phi


def test_path_cut_components_requires_a_path():
    with pytest.raises(PreconditionError):
        path_cut_components(winding_map(2))


def test_crossing_path_has_an_odd_cut_component():
    cuts = path_cut_components(x_cross_path())
    assert any(c % 2 == 1 for c in cuts)
    vanishes, _ = obstruction_vanishes(x_cross_path())
    assert vanishes is False


def _plus_target() -> PlaneGraph:
    """Four legs of length two around a center, legs in rotation order."""
    edges = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7), (4, 8))
    rotation = ((0, 1, 2, 3), (0, 4), (1, 5), (2, 6), (3, 7), (4,), (5,), (6,), (7,))
    return PlaneGraph(9, edges, rotation)


def test_pair_obstruction_detects_forced_linking():
    g = _plus_target()
    a = SimplicialMap(path_domain(5), g, (5, 1, 0, 3, 7))
    b = SimplicialMap(path_domain(5), g, (6, 2, 0, 4, 8))
    report = pair_report(a, b)
    assert report.vanishes is False
    assert sum(report.values) % 2 == 1


def test_pair_obstruction_clears_nested_arcs():
    g = _plus_target()
    a = SimplicialMap(path_domain(5), g, (5, 1, 0, 2, 6))
    b = SimplicialMap(path_domain(5), g, (7, 3, 0, 4, 8))
    report = pair_report(a, b)
    assert report.vanishes is True
    assert all(v == 0 for v in report.values)


def test_pair_requires_a_common_target():
    a = winding_map(1)
    b = SimplicialMap(path_domain(3), theta_target(), (0, 1, 2))
    with pytest.raises(PreconditionError):
        pair_report(a, b)


def test_all_red_maps_skip_the_drawing_but_keep_its_checks(monkeypatch):
    drawings = []

    class Recorded(vankampen.Drawing):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            drawings.append(self)

    monkeypatch.setattr(vankampen, "Drawing", Recorded)
    g = small_targets()["C6"]
    # an embedded path: every disjoint edge pair has disjoint images
    phi = SimplicialMap(path_domain(5), g, (0, 1, 2, 3, 4))
    complex_, values = intersection_cochain(phi)
    assert complex_.cells2 and all(complex_.red2) and not any(values)
    a = SimplicialMap(path_domain(2), g, (0, 1))
    b = SimplicialMap(path_domain(2), g, (3, 4))
    report = pair_report(a, b)
    assert all(report.red2) and report.vanishes is True
    assert drawings == []
    # the checks a drawing makes on its input still apply
    not_a_permutation = {g.edge_index[(0, 1)]: (7,)}
    with pytest.raises(PreconditionError):
        vankampen.obstruction_system(phi, not_a_permutation)
    with pytest.raises(PreconditionError):
        pair_report(a, SimplicialMap(path_domain(2), theta_target(), (0, 1)))
    with pytest.raises(PreconditionError):
        intersection_cochain(SimplicialMap(path_domain(3), g, (0, 0, 1)))
    assert drawings == []


def test_pair_values_are_binary_and_zero_on_red_cells():
    phi, psi = ex33_pair()
    report = pair_report(phi, psi)
    assert len(report.values) == len(report.cells2)
    assert any(report.red2) and not all(report.red2)
    for red, v in zip(report.red2, report.values):
        assert v in (0, 1)
        if red:
            assert v == 0


# --- the drawing against the lift search ---------------------------------


def test_every_accepted_lift_draws_a_zero_cochain():
    """The drawing's discs are the oracle's: a lift it accepts crosses nowhere."""
    maps = list(generate(CorpusSpec("deg3", ("C3",), k_max=8, seed=1, count=100)))
    for shape in ("path", "cycle"):
        maps += generate(CorpusSpec(shape, ("theta", "W4"), k_min=1, k_max=5))
    accepted = 0
    for iid, phi in maps:
        result = oracle_result(phi)
        if not result.approximable:
            continue
        lanes = dict(enumerate(result.lift.by_edge))
        system = vankampen.obstruction_system(normalize_nondegenerate(phi), lanes)
        assert not any(system.rhs), iid
        accepted += 1
    assert accepted > 1000


def test_long_theta_fold_obstruction_is_quick():
    start = time.perf_counter()
    verdict = decide_path_via_vk(theta_fold(64))
    elapsed = time.perf_counter() - start
    assert verdict.approximable is True
    assert elapsed < 2.0


def test_long_theta_fold_obstruction_stays_small():
    tracemalloc.start()
    try:
        verdict = decide_path_via_vk(theta_fold(256))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.approximable is True
    assert peak < 20 * 2**20


def test_identity_path_obstruction_costs_its_cells_not_the_square_of_the_domain():
    # every disjoint edge pair of the identity path onto C4096 has disjoint
    # images: the system is empty, and a table of all n * |E| 1-cells took 134 MB
    k = 4096
    phi = SimplicialMap(path_domain(k), cycle_target(k), tuple(range(k)))
    tracemalloc.start()
    try:
        verdict = decide_path_via_vk(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.approximable is True
    assert peak < 30 * 2**20


def test_degree_3_route_answers_on_20001_vertices():
    # a cycle onto C20000 plus one edge doubling the image of its first edge
    k = 20000
    domain = DomainGraph(k + 1, cycle_domain(k).edges + ((0, k),))
    phi = SimplicialMap(domain, cycle_target(k), tuple(range(k)) + (1,))
    assert decide_deg3_to_circle(phi).approximable is True


def test_bucket_numbering_matches_the_all_pairs_scan():
    specs = [
        CorpusSpec("path", tuple(TARGETS), k_max=6),
        CorpusSpec("cycle", tuple(TARGETS), k_min=3, k_max=6),
        CorpusSpec("deg3", ("C3", "C4", "C5"), k_max=8, seed=1, count=2000),
    ]
    count = 0
    for spec in specs:
        for iid, phi in generate(spec):
            phi = normalize_nondegenerate(phi)
            assert vankampen._number(phi) == reference_number(phi), iid
            count += 1
    assert count == 53556


def test_vankampen_does_not_import_numpy():
    assert not any(getattr(v, "__name__", "") == "numpy" for v in vars(vankampen).values())


def test_embapprox_imports_no_numpy():
    code = (
        "import importlib, pkgutil, sys, embapprox\n"
        "for m in pkgutil.iter_modules(embapprox.__path__):\n"
        "    importlib.import_module('embapprox.' + m.name)\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    src = str(Path(vankampen.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_obstruction_systems_list_each_row_once_per_column(monkeypatch):
    solve = vankampen.solve_or_certify
    systems = []

    def checked(a, b, **kwargs):
        assert isinstance(a, gf2.Columns) and a.shape == (len(b), len(a.rows))
        for rows in a.rows:
            assert all(r < s for r, s in zip(rows, rows[1:])), rows
            assert all(0 <= r < a.nrows for r in rows), rows
        systems.append(a.shape)
        return solve(a, b, **kwargs)

    monkeypatch.setattr(vankampen, "solve_or_certify", checked)
    rng = random.Random(8)
    maps = [phi for _, phi in sample_corpus("path", 150, seed=9)]
    maps += [phi for _, phi in sample_corpus("cycle", 150, seed=9)]
    maps += [random_deg3_map(small_targets()["C4"], rng) for _ in range(40)]
    maps += [winding_map(3), x_cross_path(), theta_fold(32)]
    for phi in maps:
        obstruction_report(phi)
    pairs = [ex33_pair()]
    by_target: dict = {}
    for _, phi in sample_corpus("path", 200, seed=10):
        by_target.setdefault(phi.target, []).append(phi)
    for group in by_target.values():
        pairs += zip(group, group[1:])
    for phi, psi in pairs:
        pair_report(phi, psi)
    assert len(systems) == len(maps) + len(pairs)


def test_path_and_cycle_systems_never_reach_dense_elimination(monkeypatch):
    dense = gf2._solve_dense
    dense_shapes = []

    def counted(a, b):
        dense_shapes.append(a.shape)
        return dense(a, b)

    # a degree-3 domain can put a 1-cell on three 2-cells: elimination stays
    monkeypatch.setattr(gf2, "_solve_dense", counted)
    rng = random.Random(3)
    for _ in range(40):
        obstruction_report(random_deg3_map(small_targets()["C4"], rng))
    assert dense_shapes

    def refused(a, b):
        raise AssertionError("a path or cycle system reached dense elimination")

    monkeypatch.setattr(gf2, "_solve_dense", refused)
    maps = [phi for _, phi in sample_corpus("path", 300, seed=4)]
    maps += [phi for _, phi in sample_corpus("cycle", 300, seed=4)]
    maps += [winding_map(3), x_cross_path(), theta_fold(128)]
    assert {obstruction_report(phi).vanishes for phi in maps} == {True, False}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(walk_maps(k_min=8, k_max=64, closed=False))
def test_obstruction_verdict_survives_reversal_and_mirroring(phi):
    vanishes, _ = obstruction_vanishes(phi)
    reversed_ = SimplicialMap(phi.domain, phi.target, phi.vertex_image[::-1])
    assert obstruction_vanishes(reversed_)[0] is vanishes
    assert obstruction_vanishes(mirrored_map(phi))[0] is vanishes


@settings(max_examples=150, deadline=None, derandomize=True)
@given(walk_maps(k_max=64), st.randoms(use_true_random=False))
def test_no_drawing_choice_changes_a_verdict(phi, rng):
    """Lane orders, the order of a pair and the plane's orientation leave every verdict alone."""
    base = normalize_nondegenerate(phi)
    drawn = drawn_verdict(base, None)
    for _ in range(3):
        assert drawn_verdict(base, random_lane_orders(base, rng)) == drawn
    closed = rng.random() < 0.5
    psi = random_walk_map(rng, phi.target, rng.randint(3 if closed else 1, 64), closed)
    vanishes = pair_report(phi, psi).vanishes
    assert pair_report(psi, phi).vanishes is vanishes
    assert pair_report(mirrored_map(phi), mirrored_map(psi)).vanishes is vanishes


def _faces(d, cell):
    s, t = cell
    x, y = d.edges[s]
    z, w = d.edges[t]
    return ((x, t), (y, t), (z, s), (w, s))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(walk_maps(k_max=64))
def test_witnesses_check_against_the_drawn_cochain(phi):
    """Witnesses of the int-numbered system, checked on the tuple cells."""
    phi = normalize_nondegenerate(phi)
    d = phi.domain
    report = obstruction_report(phi)
    complex_, values = intersection_cochain(phi)
    equations = [(c, v) for c, red, v in zip(complex_.cells2, complex_.red2, values) if not red]
    unknowns = [c for c, red in zip(complex_.cells1, complex_.red1) if not red]
    if report.vanishes:
        solving = set(report.solving_cells)
        assert solving <= set(unknowns)
        for cell, value in equations:
            assert sum(f in solving for f in _faces(d, cell)) % 2 == value, cell
    else:
        index = {c: j for j, c in enumerate(unknowns)}
        columns = [[] for _ in unknowns]
        for r, (cell, _) in enumerate(equations):
            for f in _faces(d, cell):
                if f in index:
                    columns[index[f]].append(r)
        certificate = set(report.certificate_cells)
        y = [1 if cell in certificate else 0 for cell, _ in equations]
        rhs = [v for _, v in equations]
        assert gf2.verify_certificate(gf2.Columns(len(equations), columns), rhs, y)
