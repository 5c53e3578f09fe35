"""Transversal crossing detection between arc images inside vertex discs."""

from __future__ import annotations

import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    arc_image,
    back_and_forth,
    branching_back_and_forth,
    lingering_walks,
    random_walk_map,
    reference_runs,
    reference_scan,
    reference_walk,
    sample_corpus,
    subwalks,
    theta_fold,
    walk_maps,
)

from embapprox import transversal
from embapprox.catalog import (
    TARGETS,
    cycle_domain,
    euler_cycle_map,
    euler_path_map,
    ex33_pair,
    path_domain,
    small_targets,
    whole_fold,
    winding_map,
    x_cross_path,
)
from embapprox.core import (
    PlaneGraph,
    SimplicialMap,
    WalkArc,
    normalize_nondegenerate,
)
from embapprox.corpus import CorpusSpec, generate, random_deg3_map
from embapprox.decide import decide_cycle, decide_path
from embapprox.derivative import derive, iterate_derivative
from embapprox.errors import DerivePreconditionError, PreconditionError
from embapprox import ribbon
from embapprox.ribbon import Port
from embapprox.transversal import find_crossing_pair


def test_x_cross_path_has_a_transversal_self_intersection():
    phi = x_cross_path()
    wit = find_crossing_pair(phi, disjoint_only=True)
    assert wit is not None
    assert wit.kind == "interleaved"
    assert set(wit.arc_p.vertices).isdisjoint(wit.arc_q.vertices)
    # the witness images really do cross
    a = arc_image(phi, wit.arc_p)
    b = arc_image(phi, wit.arc_q)
    assert transversal._crossing_component(phi.target, a, b) is not None


def test_clean_catalog_maps_have_no_crossing():
    for phi in (euler_cycle_map(), euler_path_map(), whole_fold(), winding_map(3)):
        assert find_crossing_pair(phi, disjoint_only=False) is None


def test_targets_of_maximum_degree_two_never_cross():
    g = small_targets()["C4"]
    # an aggressive back-and-forth walk still cannot cross inside a circle
    phi = SimplicialMap(path_domain(7), g, (0, 1, 0, 1, 2, 1, 0))
    assert find_crossing_pair(phi, disjoint_only=False) is None


def test_disjoint_only_flag_separates_the_two_conditions():
    # this map's only crossing arcs share a domain vertex, so the
    # self-intersection predicate stays quiet while the stronger any-two-arcs
    # check used by the derivative guard fires
    _, psi = ex33_pair()
    assert find_crossing_pair(psi, disjoint_only=True) is None
    wit = find_crossing_pair(psi, disjoint_only=False)
    assert wit is not None
    assert set(wit.arc_p.vertices) & set(wit.arc_q.vertices)


def test_degenerate_maps_are_refused():
    g = small_targets()["C4"]
    phi = SimplicialMap(path_domain(3), g, (0, 0, 1))
    with pytest.raises(PreconditionError):
        find_crossing_pair(phi, disjoint_only=True)


def test_images_cross_is_symmetric_and_false_on_disjoint():
    phi = x_cross_path()
    wit = find_crossing_pair(phi, disjoint_only=True)
    a = arc_image(phi, wit.arc_p)
    b = arc_image(phi, wit.arc_q)
    forward = transversal._crossing_component(phi.target, a, b)
    backward = transversal._crossing_component(phi.target, b, a)
    assert forward is not None and backward is not None
    g = small_targets()["C6"]
    one = (frozenset({0, 1}), frozenset({g.edge_index[(0, 1)]}))
    other = (frozenset({3, 4}), frozenset({g.edge_index[(3, 4)]}))
    assert transversal._crossing_component(g, one, other) is None
    assert transversal._crossing_component(g, other, one) is None


def test_crossing_results_are_memoized_on_the_target(monkeypatch):
    engine = transversal._crossing_component
    calls = []

    def counted(g, a, b):
        calls.append((a, b))
        return engine(g, a, b)

    monkeypatch.setattr(transversal, "_crossing_component", counted)
    phi = x_cross_path()
    wit = find_crossing_pair(phi, disjoint_only=True)
    assert calls and len(calls) == len(set(calls))
    # a second map into the same target object reuses every result
    n = len(calls)
    again = SimplicialMap(phi.domain, phi.target, phi.vertex_image)
    assert find_crossing_pair(again, disjoint_only=True) == wit
    assert len(calls) == n
    # an equal but separately built target starts with its own empty memo
    fresh = x_cross_path()
    assert fresh.target == phi.target and not fresh.target.crossing_memo
    assert find_crossing_pair(fresh, disjoint_only=True) == wit
    assert len(calls) == 2 * n


def _branched_path() -> SimplicialMap:
    """The approximable path a v b u v b u on theta; three of its stages branch."""
    g = TARGETS["theta"]()
    index = {name: v for v, name in enumerate(g.vertex_names)}
    return SimplicialMap(path_domain(7), g, tuple(index[name] for name in "avbuvbu"))


def test_each_derivative_stage_enumerates_its_arcs_once(monkeypatch):
    # the search scans the runs of a stage only if its image has a branch
    # vertex, of degree 3 or more in the image; every stage of the theta
    # fold has a 4-cycle image, so none of them is scanned
    scan_runs = transversal._runs
    scanned = []

    def counted(phi, *walk):
        scanned.append(phi)
        return scan_runs(phi, *walk)

    for make, passes, scans in ((lambda: theta_fold(32), 5, 0), (_branched_path, 7, 3)):
        # computed on a copy: the stage maps keep their witnesses memoized
        stages = iterate_derivative(make(), max_steps=make().domain.n).maps
        branching = [m for m in stages if transversal.branch_vertices(m)]
        scanned.clear()
        with monkeypatch.context() as patch:
            patch.setattr(transversal, "_runs", counted)
            verdict = decide_path(make())
        assert verdict.approximable is True
        assert [e.kind for _, e in verdict.trace] == ["clean-pass"] * passes + ["empty-domain"]
        assert len(stages) == passes + 1 and len(branching) == scans
        # each of those stages asks for the disjoint and then the any-pair witness
        assert [m.target for m in scanned] == [m.target for m in branching]


def _scanned_runs(phi: SimplicialMap):
    """`transversal._runs` on phi's walk, each run's image read off its cells as a subgraph.

    Each image's bit set holds exactly its listed cells, and no two images
    share one.
    """
    vertices, edges, m, closed = transversal._walk(phi)
    runs, images = transversal._runs(phi, vertices, edges, m, closed)
    n = phi.target.n
    assert [bits for bits, _ in images] == [sum(1 << c for c in cells) for _, cells in images]
    assert len({bits for bits, _ in images}) == len(images)
    subgraphs = [
        (frozenset(c for c in cells if c < n), frozenset(c - n for c in cells if c >= n))
        for _, cells in images
    ]
    return vertices, edges, [(s, lo, subgraphs[x]) for s, lo, x in runs]


def _run_firsts(phi: SimplicialMap) -> list[tuple[WalkArc, tuple]]:
    """First arc and image of every run that the run scan produces."""
    vertices, edges, runs = _scanned_runs(phi)
    return [(WalkArc(vertices[s : lo + 1], edges[s:lo]), image) for s, lo, image in runs]


def test_cycle_arcs_are_the_proper_cyclic_subwalks():
    rng = random.Random(5)
    checked = 0
    for k in range(3, 15):
        phi = normalize_nondegenerate(random_walk_map(rng, TARGETS["W4"](), k, closed=True))
        if phi.domain.shape != "cycle":
            continue
        checked += 1
        d = phi.domain
        order, eids = reference_walk(d)
        m = len(order)
        want = [
            WalkArc(
                tuple(order[(s + t) % m] for t in range(length + 1)),
                tuple(eids[(s + t) % m] for t in range(length)),
            )
            for s in range(m)
            for length in range(1, m)
        ]
        assert subwalks(phi) == want
    assert checked >= 5


def test_runs_start_where_the_image_of_an_arc_changes():
    # the first arcs of runs are the subwalks whose image differs from that
    # of the subwalk one step shorter from the same start
    rng = random.Random(6)
    maps = [x_cross_path(), theta_fold(24), theta_fold(24, closed=True)]
    for name in ("theta", "W4", "ex33"):
        for _ in range(20):
            k = rng.randint(3, 16)
            maps.append(random_walk_map(rng, TARGETS[name](), k, rng.random() < 0.5))
    runs = {"path": 0, "cycle": 0}
    for phi in map(normalize_nondegenerate, maps):
        if phi.domain.shape not in runs or not phi.domain.edges:
            continue
        want = []
        for arc in subwalks(phi):
            image = arc_image(phi, arc)
            if len(arc.edges) == 1 or image != want[-1][1]:
                want.append((arc, image))
        assert _run_firsts(phi) == want
        runs[phi.domain.shape] += len(want)
    assert min(runs.values()) > 200


def _lingering_cycle() -> SimplicialMap:
    """The closed walk u a u a ... u a v b on theta, 62 vertices."""
    g = TARGETS["theta"]()
    u, v, a, b = (g.vertex_names.index(name) for name in ("u", "v", "a", "b"))
    return SimplicialMap(cycle_domain(62), g, (u, a) * 30 + (v, b))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lingering_walks(k_max=64))
@example(branching_back_and_forth(4))
@example(branching_back_and_forth(64))
@example(back_and_forth(64))
@example(_lingering_cycle())
def test_run_sweep_matches_the_forward_walk(phi):
    # the walks move at every step, so each is its own normalized map
    assert _scanned_runs(phi)[2] == list(reference_runs(phi))


def test_branching_back_and_forth_path_at_k65536_is_decided_quickly():
    # every start inside u a u a ... sees the image u a until the walk
    # leaves it; walking forward from each start took 1.2 s at k=4096 and
    # grew with k^2
    phi = branching_back_and_forth(65536)
    start = time.perf_counter()
    verdict = decide_path(phi)
    elapsed = time.perf_counter() - start
    assert verdict.approximable is True
    assert [e.kind for _, e in verdict.trace] == ["clean-pass"] * 5 + ["empty-domain"]
    assert elapsed < 5.0


def test_each_intersection_component_is_traced_once_per_target(monkeypatch):
    trace = ribbon.boundary_walks
    traced = []  # (target, sigma vertices, sigma edges); holding the targets keeps their ids apart

    def counted(g, sigma_vs, sigma_es):
        traced.append((g, sigma_vs, sigma_es))
        return trace(g, sigma_vs, sigma_es)

    monkeypatch.setattr(transversal, "boundary_walks", counted)
    for shape, decide in (("path", decide_path), ("cycle", decide_cycle)):
        for _, phi in sample_corpus(shape, 1350, seed=7):
            decide(phi)
    keys = [(id(g), sigma_vs, sigma_es) for g, sigma_vs, sigma_es in traced]
    targets = {id(g): g for g, _, _ in traced}
    assert len(keys) == len(set(keys)) > 20 and len(targets) >= 3
    stored = {(i, *sigma) for i, g in targets.items() for sigma in g.boundary_memo}
    assert stored == set(keys)
    for g, sigma_vs, sigma_es in traced:
        assert g.boundary_memo[sigma_vs, sigma_es] == trace(g, sigma_vs, sigma_es)


def _witness_maps() -> list[SimplicialMap]:
    """Seeded walks into theta, W4 and ex33 (k = 6..14) and two catalog crossings."""
    rng = random.Random(2)
    maps = [x_cross_path(), ex33_pair()[1]]
    for name in ("theta", "W4", "ex33"):
        g = TARGETS[name]()
        for _ in range(40):
            closed = rng.random() < 0.5
            maps.append(random_walk_map(rng, g, rng.randint(6, 14), closed))
    return [psi for psi in map(normalize_nondegenerate, maps) if psi.domain.edges]


def test_grouped_search_returns_the_reference_witness():
    found = {True: 0, False: 0}
    for phi in _witness_maps():
        for disjoint_only in (True, False):
            want = reference_scan(phi, disjoint_only)
            assert find_crossing_pair(phi, disjoint_only) == want
            found[disjoint_only] += want is not None
    assert min(found.values()) >= 5


def _assert_both_witnesses_match_reference(phi: SimplicialMap) -> tuple[bool, bool]:
    """Compare both witnesses with the reference on phi; returns which exist."""
    # witness_memo is bypassed so that every call below runs the scan
    got = transversal._first_crossings(phi)
    want = (reference_scan(phi, disjoint_only=False), reference_scan(phi, disjoint_only=True))
    assert got == want, (phi.domain.shape, phi.vertex_image)
    return want[0] is not None, want[1] is not None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(walk_maps(k_max=24))
def test_run_scan_matches_reference_on_the_first_derivative_stages(phi):
    cur = normalize_nondegenerate(phi)
    for _ in range(3):
        if not cur.domain.edges:
            return
        if cur.target.max_degree > 2:
            _assert_both_witnesses_match_reference(cur)
        try:
            step = derive(cur)
        except DerivePreconditionError:
            return
        if step.terminal_approximable:
            return
        cur = step.map


# one target object per catalog target, shared by every example of the
# property below, so that its crossing_memo fills across many maps
_SHARED_TARGETS = {name: TARGETS[name]() for name in ("theta", "W4", "ex33")}


_VERIFIED: dict[int, set] = {}  # id of a shared target or derived target -> id pairs checked


def _assert_table_matches_the_engine(g: PlaneGraph) -> None:
    """Each stored result sits in the row of the smaller id and is the engine's on the pair."""
    memo = g.crossing_memo
    by_id = {entry[0]: (entry[3], entry[1]) for entry in memo.values()}
    verified = _VERIFIED.setdefault(id(g), set())
    for bits, (x, key, row, image) in memo.items():
        cells = [*image[0], *(g.n + a for a in image[1])]
        assert bits == sum(1 << c for c in cells)
        assert key == (tuple(sorted(image[0])), tuple(sorted(image[1])))
        for y, result in row.items():
            if (x, y) in verified:
                continue
            assert x < y
            other, other_key = by_id[y]
            pair = (image, other) if key <= other_key else (other, image)
            assert result == transversal._crossing_component(g, *pair)
            verified.add((x, y))


def _plain(value) -> bool:
    """Whether value is built from ints, strings, ports and None by tuples, frozensets and dicts."""
    if isinstance(value, (tuple, frozenset)):
        return all(_plain(v) for v in value)
    if isinstance(value, dict):
        return all(_plain(k) and _plain(v) for k, v in value.items())
    return value is None or isinstance(value, (int, str, Port))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_interned_crossing_results_match_a_fresh_target(rng):
    # random walks (k <= 24), unlike walk_maps' small draws, cross often
    # enough to fill the table with witnesses as well as None results
    for _ in range(6):
        g = _SHARED_TARGETS[rng.choice(sorted(_SHARED_TARGETS))]
        k = rng.randint(2, 24)
        cur = normalize_nondegenerate(random_walk_map(rng, g, k, k >= 3 and rng.random() < 0.5))
        for _ in range(3):
            if not cur.domain.edges:
                break
            t = cur.target
            fresh = SimplicialMap(
                cur.domain, PlaneGraph(t.n, t.edges, t.rotation, t.vertex_names), cur.vertex_image
            )
            for flag in (False, True):
                assert find_crossing_pair(cur, flag) == find_crossing_pair(fresh, flag)
            assert _plain(t.crossing_memo)
            _assert_table_matches_the_engine(t)
            ids = sorted(entry[0] for entry in t.crossing_memo.values())
            assert ids == list(range(len(ids)))
            try:
                cur = derive(cur).map
            except DerivePreconditionError:
                break


@settings(max_examples=80, deadline=None, derandomize=True)
@given(walk_maps(k_max=16))
def test_images_cross_only_at_a_vertex_of_degree_three_in_their_union(phi):
    psi = normalize_nondegenerate(phi)
    if psi.domain.shape not in ("path", "cycle"):
        return  # a doubled edge: both its arcs have one image, so no pair to test
    g = psi.target
    images = list(dict.fromkeys(arc_image(psi, arc) for arc in subwalks(psi)))
    for i, a in enumerate(images):
        for b in images[i + 1 :]:
            degree = Counter(v for e in a[1] | b[1] for v in g.edges[e])
            branch = {v for v, d in degree.items() if d >= 3}
            for pair in ((a, b), (b, a)):
                result = transversal._crossing_component(g, *pair)
                if not branch:
                    assert result is None
                elif result is not None:
                    assert result[0] & branch


@settings(max_examples=40, deadline=None, derandomize=True)
@given(walk_maps(k_max=64))
def test_pruned_search_matches_reference_on_walks_up_to_64_vertices(phi):
    psi = normalize_nondegenerate(phi)
    if psi.domain.edges:
        _assert_both_witnesses_match_reference(psi)


def test_general_domains_are_scanned_only_where_the_image_cannot_branch():
    # the scan covers walks: a general domain whose image can branch is
    # refused, one whose image cannot is answered with no scan
    rng = random.Random(3)
    seen = Counter()
    for name in ("theta", "W4", "ex33"):
        for _ in range(120):
            phi = random_deg3_map(TARGETS[name](), rng, max_vertices=10)
            if phi.domain.shape != "general":
                continue
            branches = bool(transversal.branch_vertices(phi))
            seen[branches] += 1
            for disjoint_only in (True, False):
                if branches:
                    with pytest.raises(PreconditionError):
                        find_crossing_pair(phi, disjoint_only)
                else:
                    assert find_crossing_pair(phi, disjoint_only) is None
    assert seen[False] > 100 and seen[True] > 20
    # so is a closed walk that normalizes to a doubled edge, the one general
    # stage decide_cycle meets
    doubled = normalize_nondegenerate(SimplicialMap(cycle_domain(3), TARGETS["theta"](), (0, 2, 2)))
    assert doubled.domain.shape == "general" and len(doubled.domain.edges) == 2
    assert transversal._first_crossings(doubled) == (None, None)


def test_maps_whose_image_never_branches_are_not_scanned(monkeypatch):
    calls = Counter()

    def counted(name):
        inner = getattr(transversal, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in ("_runs", "_crossing_component"):
        monkeypatch.setattr(transversal, name, counted(name))
    for phi in (theta_fold(256), back_and_forth(4096)):
        assert decide_path(phi).approximable is True
    assert not calls


def test_run_scan_matches_reference_on_every_small_w4_and_ex33_walk():
    checked = 0
    for shape in ("path", "cycle"):
        spec = CorpusSpec(shape, ("W4", "ex33"), k_min=3 if shape == "cycle" else 1, k_max=5)
        for _, phi in generate(spec):
            psi = normalize_nondegenerate(phi)
            if not psi.domain.edges:
                continue
            if psi.domain.shape == "general":  # a doubled edge: its image cannot branch
                assert transversal._first_crossings(psi) == (None, None)
            else:
                _assert_both_witnesses_match_reference(psi)
            checked += 1
    assert checked > 6000


def test_w4_path_min_witness_is_the_reference_witness():
    # walk-W4-path-min: r1 h r3 h r2 r3 r4 h, the smallest known map on which
    # decide_path disagrees with the oracle (tests/test_decide.py)
    g = TARGETS["W4"]()
    index = {name: v for v, name in enumerate(g.vertex_names)}
    walk = ("r1", "h", "r3", "h", "r2", "r3", "r4", "h")
    phi = SimplicialMap(path_domain(len(walk)), g, tuple(index[name] for name in walk))
    assert _assert_both_witnesses_match_reference(phi) == (True, True)
    wit = find_crossing_pair(phi, disjoint_only=True)
    assert wit.arc_p.vertices == (0, 1, 2) and wit.arc_q.vertices == (3, 4, 5, 6, 7)
    assert wit.component_vertices == {index["h"]} and not wit.component_edges
    assert wit.kind == "interleaved"


def _interleaves(circle, a_edges: frozenset[int], b_edges: frozenset[int]) -> bool:
    """The marks alternate: the cyclic word of A and B ports has at least four blocks."""
    marks = [p.edge in a_edges for p in circle.ports if p.edge in a_edges or p.edge in b_edges]
    blocks = sum(1 for i in range(len(marks)) if marks[i] != marks[i - 1])
    return len(marks) >= 4 and blocks >= 4


def test_alternating_ports_agrees_with_interleaves(monkeypatch):
    engine = ribbon.alternating_ports
    outcomes = set()

    def checked(circle, a_edges, b_edges):
        picks = engine(circle, a_edges, b_edges)
        assert (picks is not None) == _interleaves(circle, a_edges, b_edges)
        if picks is not None:
            # A, B, A, B in cyclic order along the circle
            assert [p.edge in a_edges for p in picks] == [True, False, True, False]
            assert all(p.edge in a_edges or p.edge in b_edges for p in picks)
            at = [circle.ports.index(p) for p in picks]
            assert sum(1 for i in range(4) if at[i - 1] > at[i]) == 1
        outcomes.add(picks is not None)
        return picks

    monkeypatch.setattr(transversal, "alternating_ports", checked)
    # the k <= 5 corpora reach no alternating circle on these targets; the
    # seeded walks do
    maps = _witness_maps()
    for shape in ("path", "cycle"):
        for _, phi in generate(CorpusSpec(shape, ("theta", "W4", "ex33"), k_max=5)):
            psi = normalize_nondegenerate(phi)
            if psi.domain.edges:
                maps.append(psi)
    for phi in maps:
        find_crossing_pair(phi, disjoint_only=True)
    assert outcomes == {True, False}
