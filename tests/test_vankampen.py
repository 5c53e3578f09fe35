"""Mod-2 obstruction machinery on the deleted product of the domain."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from conftest import (
    frac_circle_point,
    frac_point,
    frac_proper_crossing,
    random_lane_orders,
    sample_corpus,
    theta_fold,
)

from embapprox import vankampen

from embapprox.catalog import (
    ex33_pair,
    path_domain,
    small_targets,
    theta_target,
    winding_map,
    x_cross_path,
)
from embapprox.core import PlaneGraph, SimplicialMap, normalize_nondegenerate
from embapprox.corpus import CorpusSpec, generate
from embapprox.decide import decide_path_via_vk
from embapprox.errors import PreconditionError
from embapprox.geometry import DegenerateConfiguration
from embapprox.vankampen import (
    MAX_DRAWING_ATTEMPTS,
    build_deleted_product,
    intersection_cochain,
    obstruction_report,
    obstruction_vanishes,
    pair_obstruction,
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
    # 0-cells pair up all distinct vertices
    assert len(dp.cells0) == 10


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
    dp = report.complex
    cert = set(report.certificate_cells)
    # summed equations have odd right-hand side ...
    total = sum(v for cell, v in zip(dp.cells2, report.values) if cell in cert)
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
            got, _ = obstruction_vanishes(phi, random_lane_orders(phi, rng))
            assert got == base


def test_path_cut_components_zero_iff_vanishing():
    from conftest import random_walk_map
    from embapprox.core import normalize_nondegenerate

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
    assert pair_obstruction(a, b) is False
    assert sum(report.values) % 2 == 1


def test_pair_obstruction_clears_nested_arcs():
    g = _plus_target()
    a = SimplicialMap(path_domain(5), g, (5, 1, 0, 2, 6))
    b = SimplicialMap(path_domain(5), g, (7, 3, 0, 4, 8))
    report = pair_report(a, b)
    assert report.vanishes is True
    assert all(v == 0 for v in report.values)
    assert pair_obstruction(a, b) is True


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
    not_a_permutation = {g.edge_index[(0, 1)]: ((0, 7),)}
    with pytest.raises(PreconditionError):
        intersection_cochain(phi, not_a_permutation)
    with pytest.raises(PreconditionError):
        pair_report(a, b, not_a_permutation)
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


# --- the drawing against a Fraction reference ------------------------------


def _reference_points(phi: SimplicialMap, attempt: int):
    """Port and star-center points of one map's canonical drawing, in Fractions.

    Ports at t = (2i - L + 1)/2 + attempt/1009 on the unit circle, in refined
    rotation order; a star with ports at half their centroid, one without on
    the circle of radius 1/2 at t = (6j - 3S + 4)/6 + attempt/997.
    """
    g, d = phi.target, phi.domain
    lanes: dict[int, list[int]] = {}
    for eid, img in enumerate(phi.edge_image):
        lanes.setdefault(img, []).append(eid)
    ports, centers = {}, {}
    for v in range(g.n):
        order = []
        for a in g.rotation[v]:
            block = lanes.get(a, [])
            order += block if v == g.edges[a][0] else block[::-1]
        own: dict[int, list] = {}
        for i, eid in enumerate(order):
            t = Fraction(2 * i - len(order) + 1, 2) + Fraction(attempt, 1009)
            ports[(v, eid)] = frac_circle_point(t, Fraction(1))
            x = next(u for u in d.edges[eid] if phi.vertex_image[u] == v)
            own.setdefault(x, []).append(ports[(v, eid)])
        stars = [x for x in range(d.n) if phi.vertex_image[x] == v]
        for j, x in enumerate(stars):
            if x in own:
                pts = own[x]
                centers[(v, x)] = tuple(sum(p[c] for p in pts) / (2 * len(pts)) for c in (0, 1))
            else:
                t = Fraction(6 * j - 3 * len(stars) + 4, 6) + Fraction(attempt, 997)
                centers[(v, x)] = frac_circle_point(t, Fraction(1, 2))
    return ports, centers


def _reference_cochain(phi: SimplicialMap):
    """(attempt, parity per 2-cell, points) of the first generic reference drawing."""
    dp = build_deleted_product(phi)
    d, vimg = phi.domain, phi.vertex_image
    for attempt in range(MAX_DRAWING_ATTEMPTS):
        ports, centers = _reference_points(phi, attempt)

        def segment(v, eid):
            x = next(u for u in d.edges[eid] if vimg[u] == v)
            return centers[(v, x)], ports[(v, eid)]

        try:
            values = []
            for (s, t), red in zip(dp.cells2, dp.red2):
                discs = {vimg[x] for x in d.edges[s]} & {vimg[x] for x in d.edges[t]}
                parity = 0
                for v in () if red else discs:
                    parity ^= frac_proper_crossing(*segment(v, s), *segment(v, t))
                values.append(parity)
        except DegenerateConfiguration:
            continue
        return attempt, tuple(values), (ports, centers)
    raise AssertionError("reference drawing never generic")


def _drawn(phi: SimplicialMap, monkeypatch):
    """(attempt, values, drawing) of intersection_cochain, recording its drawings."""
    drawings = []

    class Recorded(vankampen.Drawing):
        def __init__(self, maps, lane_orders=None, attempt=0):
            super().__init__(maps, lane_orders, attempt)
            self.attempt = attempt
            drawings.append(self)

    monkeypatch.setattr(vankampen, "Drawing", Recorded)
    _, values = intersection_cochain(phi)
    return drawings[-1].attempt, values, drawings[-1]


def _assert_matches_reference(phi: SimplicialMap, monkeypatch) -> int:
    attempt, values, drawing = _drawn(phi, monkeypatch)
    want_attempt, want_values, (ports, centers) = _reference_cochain(phi)
    assert (attempt, values) == (want_attempt, want_values), phi.vertex_image
    for (v, _side, eid, _a), p in drawing._port_point.items():
        assert frac_point(p) == ports[(v, eid)]
    for (v, _side, x), p in drawing._center_point.items():
        assert frac_point(p) == centers[(v, x)]
    return attempt


def test_drawing_matches_the_fraction_reference_on_small_corpora(monkeypatch):
    checked = 0
    for shape, seed in (("path", 31), ("cycle", 32)):
        for _, phi in sample_corpus(shape, 300, seed, k_max=5):
            psi = normalize_nondegenerate(phi)
            if any(not red for red in build_deleted_product(psi).red2):
                assert _assert_matches_reference(psi, monkeypatch) == 0
                checked += 1
    assert checked >= 100


def test_drawing_retries_match_the_fraction_reference(monkeypatch):
    # the only instances of this corpus whose first drawing is degenerate
    want = {"deg3-C4-s1-00184", "deg3-C5-s1-00067"}
    spec = CorpusSpec("deg3", ("C3", "C4", "C5"), k_max=12, seed=1, count=200)
    maps = {iid: phi for iid, phi in generate(spec) if iid in want}
    assert set(maps) == want
    for phi in maps.values():
        assert _assert_matches_reference(phi, monkeypatch) == 1


def test_long_theta_fold_obstruction_is_quick():
    start = time.perf_counter()
    verdict = decide_path_via_vk(theta_fold(64))
    elapsed = time.perf_counter() - start
    assert verdict.approximable is True
    assert elapsed < 2.0
