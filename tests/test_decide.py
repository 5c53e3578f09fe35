"""Deciders: derivative iteration for paths/cycles, obstruction for trees."""

from __future__ import annotations

import random
import time
import tracemalloc
from collections import Counter
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    closed_walks,
    ints_and_tuples,
    kept,
    lingering_walks,
    mirrored,
    random_walk_map,
    reference_decide,
    reference_rejection,
    theta_fold,
    walk_maps,
    way_back,
)

from embapprox import decide, derivative, oracle, vankampen
from embapprox.catalog import (
    TARGETS,
    cycle_domain,
    cycle_target,
    euler_path_map,
    ex33_pair,
    path_domain,
    small_targets,
    terminal_flower,
    whole_fold,
    winding_map,
    x_cross_path,
)
from embapprox.core import DomainGraph, PlaneGraph, SimplicialMap, normalize_nondegenerate
from embapprox.corpus import CorpusSpec, evaluate_instance, generate, random_deg3_map
from embapprox.decide import (
    Event,
    decide_cycle,
    decide_deg3_to_circle,
    decide_map,
    decide_path,
    decide_path_via_vk,
)
from embapprox.derivative import derive, iterate_derivative, winding_report
from embapprox.errors import InvariantError, PreconditionError
from embapprox.oracle import oracle_result


def test_event_kinds_are_validated():
    Event("clean-pass")
    with pytest.raises(PreconditionError):
        Event("made-up-kind")


def test_event_rendering_hides_bulky_details():
    assert str(Event("clean-pass")) == "clean-pass"
    assert str(Event("forbidden-winding", 2)) == "forbidden-winding(2)"
    assert str(Event("obstruction-nonzero", ((0, 2),))) == "obstruction-nonzero(..)"


def test_winding_cycle_verdicts_and_decisive_events():
    for d in (-3, -2, 2, 3):
        v = decide_cycle(winding_map(d))
        assert v.approximable is False
        step, event = v.decisive()
        assert event.kind == "forbidden-winding"
        assert abs(event.detail) == abs(d)
    for d in (-1, 0, 1):
        v = decide_cycle(winding_map(d))
        assert v.approximable is True
        assert v.decisive() is None
        assert v.criterion == "cycle-derivatives"


def test_path_verdicts_on_catalog():
    assert decide_path(euler_path_map()).approximable is True
    bad = decide_path(x_cross_path())
    assert bad.approximable is False
    step, event = bad.decisive()
    assert event.kind == "transversal-self-intersection"
    assert step == 0


def test_shape_preconditions():
    with pytest.raises(PreconditionError):
        decide_path(winding_map(1))
    with pytest.raises(PreconditionError):
        decide_cycle(euler_path_map())
    with pytest.raises(PreconditionError):
        decide_path_via_vk(winding_map(1))


def test_constant_map_empties_out():
    g = small_targets()["C3"]
    phi = SimplicialMap(path_domain(4), g, (2, 2, 2, 2))
    v = decide_path(phi)
    assert v.approximable is True
    assert any(e.kind == "empty-domain" for _, e in v.trace)


def test_terminal_configuration_is_recognized():
    v = decide_cycle(terminal_flower())
    assert v.approximable is True
    assert any(e.kind == "terminal-approximable" for _, e in v.trace)


def test_fold_iterates_to_empty():
    v = decide_cycle(whole_fold())
    assert v.approximable is True
    kinds = [e.kind for _, e in v.trace]
    assert kinds.count("clean-pass") >= 2
    assert kinds[-1] == "empty-domain"


def test_long_theta_fold_is_decided_quickly():
    # the fold u a v b u b v a ... only ever turns back along the outer cycle;
    # the crossing search must not grow with the number of arc pairs
    phi = theta_fold(128)
    start = time.perf_counter()
    v = decide_path(phi)
    elapsed = time.perf_counter() - start
    assert v.approximable is True
    assert [e.kind for _, e in v.trace] == ["clean-pass"] * 5 + ["empty-domain"]
    assert elapsed < 5.0


def test_theta_fold_at_k4096_is_decided_quickly():
    # the crossing search scans runs of constant image; listing the O(k^2)
    # arcs of every stage took 17.5 s and 2.96 GB at k=1024
    phi = theta_fold(4096)
    start = time.perf_counter()
    v = decide_path(phi)
    elapsed = time.perf_counter() - start
    assert v.approximable is True
    assert [e.kind for _, e in v.trace] == ["clean-pass"] * 5 + ["empty-domain"]
    assert elapsed < 5.0


def test_theta_fold_memory_does_not_grow_with_the_arc_count():
    phi = theta_fold(512)
    tracemalloc.start()
    try:
        v = decide_path(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.approximable is True
    assert peak < 10 * 2**20


def _decide_path_peak(phi: SimplicialMap):
    """decide_path(phi) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        v = decide_path(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return v, peak


def _identity_path(k: int) -> SimplicialMap:
    return SimplicialMap(path_domain(k), cycle_target(k), tuple(range(k)))


def test_derived_targets_carry_no_names():
    # each derived vertex was named after the target edge it came from, so
    # the names doubled at every stage: the identity path onto C20 left a
    # name of 1,835,007 characters in its tower of derived targets.  decide
    # settles that branch-free path without deriving it, so the tower is
    # built whole by iterate_derivative
    phi = _identity_path(20)
    assert iterate_derivative(phi, phi.domain.n).status == "empty-domain"
    stack, targets = [phi.target], 0
    while stack:
        t = stack.pop()
        targets += 1
        assert all(len(t.name_of(v)) <= 3 for v in range(t.n))
        stack.extend(t.derived_memo.values())
    assert targets == 21  # C20, then one derived target per stage down to the empty one


def test_identity_path_onto_c200_stays_small():
    v, peak = _decide_path_peak(_identity_path(200))
    assert v.approximable is True
    assert peak < 40 * 2**20


def test_winding_path_at_k256_stays_small():
    # the winding path i % 5 into C5 took 216 MB at k=24 while names doubled
    phi = SimplicialMap(path_domain(256), cycle_target(5), tuple(i % 5 for i in range(256)))
    v, peak = _decide_path_peak(phi)
    assert v.approximable is True
    assert peak < 20 * 2**20


def test_branch_free_paths_at_k4096_derive_nothing(monkeypatch):
    # a path stage whose image never branches is settled in closed form, so
    # no derivative stage is built; deriving the identity path onto C900
    # stage by stage took about 4 s and 193 MB
    def refused(phi):
        raise AssertionError("a branch-free path stage was derived")

    monkeypatch.setattr(derivative, "derive", refused)
    winding = SimplicialMap(path_domain(4096), cycle_target(5), tuple(i % 5 for i in range(4096)))
    for phi in (_identity_path(4096), winding, theta_fold(4096)):
        v, peak = _decide_path_peak(phi)
        assert v.approximable is True and v.trace[-1][1] == Event("empty-domain")
        assert peak < 20 * 2**20


def _segment_walk(lengths: list[int], size: int = 12) -> SimplicialMap:
    """The path into C_size that goes lengths[0] steps up, then lengths[1] down, and so on."""
    images, direction = [0], 1
    for length in lengths:
        for _ in range(length):
            images.append((images[-1] + direction) % size)
        direction = -direction
    return SimplicialMap(path_domain(len(images)), cycle_target(size), tuple(images))


def _tower_trace(phi: SimplicialMap) -> tuple:
    """The trace of a run that passes every stage of phi's tower and ends on its empty domain."""
    tower = iterate_derivative(phi, phi.domain.n)
    assert tower.status == "empty-domain"
    end = len(tower.steps)
    return tuple((j, Event("clean-pass")) for j in range(end)) + ((end, Event("empty-domain")),)


@pytest.mark.parametrize(
    "lengths, derives",
    [
        ([], 1),  # one vertex
        ([1], 2),
        ([4], 5),
        ([3, 1, 3], 6),  # [2, 0, 2] merges across the dropped segment into [4]
        ([3, 1, 1, 3], 4),  # [2, 0, 0, 2] keeps two segments that run opposite ways
        ([2, 1, 1, 1, 2], 4),  # an odd number dropped between: [1, 0, 0, 0, 1] merges into [2]
        ([1, 4], 5),  # the length-1 end segment drops, then [3] runs out
        ([2, 3, 2], 4),  # [1, 2, 1], then [0, 1, 0] leaves [1]
        ([5, 2, 2, 1, 6], 11),  # [4, 1, 1, 0, 5] is [4, 1, 6]; [3, 0, 5] merges into [8]
    ],
)
def test_branch_free_path_settles_after_the_counted_derives(lengths, derives):
    phi = _segment_walk(lengths)
    trace = _tower_trace(phi)
    assert trace[-1] == (derives, Event("empty-domain"))
    assert decide._branch_free_outcome(phi) == (derives, Event("empty-domain"))
    assert decide_path(phi).trace == trace


@st.composite
def branch_free_paths(draw, k_max: int):
    """Paths of 1 to k_max vertices whose image never branches.

    A walk into C3-C6 or round theta's outer cycle u a v b, each step
    staying put or moving either way, or the identity path onto C_k.
    """
    kind = draw(st.sampled_from(("cycle", "theta", "identity")))
    if kind == "identity":
        return _identity_path(draw(st.integers(3, k_max)))
    steps = draw(st.lists(st.sampled_from((-1, 0, 1)), max_size=k_max - 1))
    positions = [draw(st.integers(0, 5))]
    for step in steps:
        positions.append(positions[-1] + step)
    if kind == "theta":
        g = TARGETS["theta"]()
        ring = [g.vertex_names.index(name) for name in "uavb"]
        images = tuple(ring[p % 4] for p in positions)
    else:
        g = cycle_target(draw(st.integers(3, 6)))
        images = tuple(p % g.n for p in positions)
    return SimplicialMap(path_domain(len(images)), g, images)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(branch_free_paths(k_max=256))
def test_branch_free_path_verdicts_match_the_whole_tower(phi):
    assert decide_path(phi).trace == _tower_trace(phi)


def _winding_with_turns(d: int) -> SimplicialMap:
    """A closed walk into C4 that winds d times round it and steps back once on the way."""
    step = 1 if d > 0 else -1
    images = [0, step % 4] + [step * i % 4 for i in range(abs(d) * 4)]
    return SimplicialMap(cycle_domain(len(images)), cycle_target(4), tuple(images))


def test_branch_free_closed_walks_settle_on_each_exit():
    g = TARGETS["theta"]()
    u, a, v, b = (g.vertex_names.index(name) for name in "uavb")
    clean = Event("clean-pass")
    cases = [
        # the there-and-back fold: two segments of 5, terminal once 2 edges are left
        (winding_map(0, 5), (*((j, clean) for j in range(4)), (4, Event("terminal-approximable")))),
        # one edge there and back twice: one run all round, then one vertex
        (SimplicialMap(cycle_domain(4), cycle_target(4), (0, 1, 0, 1)),
         ((0, clean), (1, clean), (2, Event("empty-domain")))),
        # a unit winding onto its whole target stabilizes after one derive
        (winding_map(1, 4), ((0, clean),)),
        (winding_map(-1, 4), ((0, clean),)),
        # onto a cycle of theta it first derives onto that cycle
        (SimplicialMap(cycle_domain(4), g, (u, a, v, b)), ((0, clean), (1, clean))),
    ]
    for phi, trace in cases:
        v = decide_cycle(phi)
        assert (v.approximable, v.trace, v.flagged_for_review) == (True, trace, False)
        assert v == reference_decide(phi)
    # with |d| >= 2 the run goes on until stage 1 shows the winding, whose
    # sign is read in stage 1's labels: they read +3 both ways round, where
    # the walk that never turns reads d at stage 0
    for d in (3, -3):
        phi = _winding_with_turns(d)
        assert phi.vertex_image[:3] == (0, d // 3 % 4, 0)
        v = decide_cycle(phi)
        assert v.decisive() == (1, Event("forbidden-winding", 3))
        assert v == reference_decide(phi)
        assert decide_cycle(winding_map(d, 4)).decisive() == (0, Event("forbidden-winding", d))


def test_branch_free_closed_walks_derive_nothing(monkeypatch):
    def refused(phi):
        raise AssertionError("a branch-free closed walk was derived")

    monkeypatch.setattr(derivative, "derive", refused)
    g = cycle_target(5)
    walks = [(0, 1, 2, 3, 4), (0, 1, 2, 1, 2, 3, 4), (0, 1, 0, 4, 3, 4), (0, 1, 2, 1), (0, 1, 0, 1)]
    ends = [decide_cycle(SimplicialMap(cycle_domain(len(w)), g, w)).trace[-1] for w in walks]
    kinds = ["clean-pass"] * 2 + ["terminal-approximable"] * 2 + ["empty-domain"]
    assert [e.kind for _, e in ends] == kinds


def test_branch_free_closed_walks_match_the_whole_tower_up_to_k6():
    spec = CorpusSpec("cycle", ("C3", "C4", "C5", "C6", "theta"), k_min=3, k_max=6)
    for _, phi in generate(spec):
        assert repr(decide_cycle(phi)) == repr(reference_decide(phi)), phi.vertex_image


@settings(max_examples=150, deadline=None, derandomize=True)
@given(closed_walks(k_max=64, targets=tuple(f"C{n}" for n in range(3, 13))))
def test_closed_walks_into_cycles_match_the_whole_tower(phi):
    assert repr(decide_cycle(phi)) == repr(reference_decide(phi))


def test_closed_theta_fold_at_k2048_is_decided_quickly():
    phi = theta_fold(2048, closed=True)
    start = time.perf_counter()
    v = decide_cycle(phi)
    elapsed = time.perf_counter() - start
    assert v.approximable is True
    assert elapsed < 2.0


@pytest.mark.xfail(
    strict=True,
    reason="a crossing is reported at a vertex where one of its arcs only ends (ROADMAP item 1)",
)
@pytest.mark.parametrize(
    "target, walk",
    [
        # walk-W4-path-min, the smallest known false negative of decide_path:
        # it reports arcs 0-2 and 3-7 crossing at h, where arc 3-7 only ends
        ("W4", "r1 h r3 h r2 r3 r4 h"),
        # arcs 0-4 and 5-7 crossing at h, where arc 0-4 starts and ends
        ("W4", "h r3 r4 r1 h r4 h r2"),
        # arcs 0-4 and 5-7 crossing at a1, where arc 0-4 starts and ends
        ("ex33", "a1 a4 a2 a3 a1 a5 a1 a2"),
    ],
)
def test_w4_path_min_decide_path_agrees_with_the_oracle(target, walk):
    # decide_path rejects each of these at stage 0, while the obstruction
    # and the oracle both accept it
    g = TARGETS[target]()
    index = {name: v for v, name in enumerate(g.vertex_names)}
    names = walk.split()
    phi = SimplicialMap(path_domain(len(names)), g, tuple(index[name] for name in names))
    assert decide_path(phi).approximable == oracle_result(phi).approximable


def test_stabilization_changes_no_verdict_of_a_run_that_ends_without_it(monkeypatch):
    rng = random.Random(21)
    targets = small_targets()
    pool = [winding_map(d) for d in (-2, -1, 0, 1, 2)]
    for _ in range(120):
        name = rng.choice(sorted(targets))
        closed = rng.random() < 0.5
        k = rng.randrange(3, 8)
        pool.append(random_walk_map(rng, targets[name], k, closed=closed))
    judged = []
    for phi in pool:
        judge = decide_cycle if phi.domain.shape == "cycle" else decide_path
        judged.append((phi, judge(phi)))
    # decide meets the stabilization exit only in closed form; the whole
    # tower without that exit reaches the same verdict with a trace no
    # shorter, or, where stabilization ended the run, no verdict at all
    monkeypatch.setattr(derivative, "_stabilized", lambda step: False)
    unending = 0
    for phi, lazy in judged:
        try:
            eager = reference_decide(_on_fresh_target(phi))
        except InvariantError:
            assert lazy.trace[-1][1] == Event("clean-pass") and not lazy.flagged_for_review
            unending += 1
            continue
        assert lazy.approximable == eager.approximable, phi.vertex_image
        assert len(lazy.trace) <= len(eager.trace)
    assert unending


def test_a_run_that_never_stabilizes_raises_instead_of_answering(monkeypatch):
    # the identity cycle onto C5 derives to itself; with neither its closed
    # form nor the stabilization exit nothing ends its run, which used to
    # answer approximable once its budget ran out
    monkeypatch.setattr(decide, "_branch_free_outcome", lambda cur: None)
    monkeypatch.setattr(derivative, "_stabilized", lambda step: False)
    phi = SimplicialMap(cycle_domain(5), cycle_target(5), (0, 1, 2, 3, 4))
    with pytest.raises(InvariantError, match="derive-bound"):
        decide_cycle(phi)
    assert phi.target.verdicts == {}


# the iterate_derivative status of a run that decide ends on a tower exit
_EXIT_STATUS = {"terminal-approximable": "terminal", "empty-domain": "empty-domain"}


def test_decide_and_iterate_derivative_walk_one_tower():
    # both read derivative_stages: where decide ends a run on one of its
    # exits or on a refused derive, iterate_derivative ends at that stage
    # too; a forbidden winding has no fixed relation, since its tower may
    # go on for several stages
    seen = Counter()
    for shape, judge in (("path", decide_path), ("cycle", decide_cycle)):
        for _, phi in generate(CorpusSpec(shape, ("C3", "theta", "ex33"), k_max=6)):
            v = judge(phi)
            s, last = v.trace[-1]
            if last.kind == "forbidden-winding":
                continue
            r = iterate_derivative(phi, phi.domain.n)
            seen[last.kind, v.flagged_for_review] += 1
            if v.flagged_for_review:
                assert r.status == "precondition-failed", phi.vertex_image
            if last.kind == "transversal-self-intersection":
                assert (r.status, r.failure_step) == ("precondition-failed", s), phi.vertex_image
            elif v.flagged_for_review:
                continue
            elif last.kind == "clean-pass":
                assert (r.status, len(r.steps)) == ("stabilized", len(v.trace)), phi.vertex_image
            else:
                assert (r.status, len(r.steps)) == (_EXIT_STATUS[last.kind], s), phi.vertex_image
    assert set(seen) == {
        (kind, flagged)
        for kind in ("clean-pass", "transversal-self-intersection")
        for flagged in (False, True)
    } | {("terminal-approximable", False), ("empty-domain", False)}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(closed_walks(k_max=64))
def test_cycle_runs_end_within_n_derives_and_stabilize_on_unit_windings(phi):
    v = decide_cycle(phi)
    assert sum(e.kind == "clean-pass" for _, e in v.trace) <= phi.domain.n
    if v.trace[-1][1].kind == "clean-pass" and not v.flagged_for_review:
        # a stabilization exit: the last clean stage derived to itself
        stage = normalize_nondegenerate(phi)
        for _ in range(len(v.trace) - 1):
            stage = derive(stage).map
        (comp,) = winding_report(stage).components
        assert comp.is_winding and abs(comp.degree) == 1
        assert comp.image_edges == frozenset(range(len(stage.target.edges)))


class _Escalated(Exception):
    """Raised in place of the oracle, which a refused derive would call."""


def _refuse_to_escalate(phi):
    raise _Escalated


def _decision(phi: SimplicialMap) -> tuple[bool, int, str] | tuple[bool] | str:
    """decide_path's or decide_cycle's verdict on phi, and the stage and kind of its decisive event.

    A run whose derive is refused would ask the oracle, whose search grows
    exponentially with k; it reads "escalated" instead.
    """
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decide, "oracle_result", _refuse_to_escalate)
            v = (decide_path if phi.domain.shape == "path" else decide_cycle)(phi)
    except _Escalated:
        return "escalated"
    hit = v.decisive()
    return (v.approximable,) if hit is None else (v.approximable, hit[0], hit[1].kind)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.one_of(
        walk_maps(k_max=64, closed=False),
        closed_walks(k_max=64, targets=("theta", "W4", "ex33")),
        lingering_walks(k_max=64),
    )
)
def test_verdicts_are_invariant_under_reversal_and_mirroring(phi):
    # each copy gets a target of its own, so no memo answers for another
    g = phi.target
    want = _decision(phi)
    copy = PlaneGraph(g.n, g.edges, g.rotation, g.vertex_names)
    assert _decision(SimplicialMap(phi.domain, copy, phi.vertex_image[::-1])) == want
    assert _decision(SimplicialMap(phi.domain, mirrored(g), phi.vertex_image)) == want


def _windows(phi: SimplicialMap) -> list[SimplicialMap]:
    """Every window of phi's walk as a path map into its target.

    A window is a run of consecutive vertices of the walk; on a closed
    walk the runs go round, and the longest ones cover every edge, so they
    start and end at one vertex.
    """
    vimg = phi.vertex_image
    x = [vimg[v] for v in phi.domain.walk[0]]
    k = len(x)
    if phi.domain.shape == "cycle":
        runs = [tuple(x[(i + j) % k] for j in range(size)) for i in range(k) for size in range(1, k + 2)]
    else:
        runs = [tuple(x[i:j]) for i in range(k) for j in range(i + 1, k + 1)]
    return [SimplicialMap(path_domain(len(run)), phi.target, run) for run in runs]


# an ε-close embedding of a walk restricts to one of each of its windows
# (ROADMAP item 13), so a route that accepts a walk must accept every window
# of it; a window whose run would escalate to the oracle is skipped, as
# `_decision` skips it


@settings(max_examples=300, deadline=None, derandomize=True)
@given(walk_maps(k_max=24, closed=False))
def test_every_window_of_an_accepted_path_is_accepted(phi):
    windows = _windows(phi)
    if _decision(phi) == (True,):
        for window in windows:
            assert _decision(window) in ((True,), "escalated"), window.vertex_image
    if decide_path_via_vk(phi).approximable:
        for window in windows:
            assert decide_path_via_vk(window).approximable, window.vertex_image


@settings(max_examples=300, deadline=None, derandomize=True)
@given(closed_walks(k_max=24))
def test_every_cyclic_window_of_an_accepted_closed_walk_is_accepted(phi):
    if _decision(phi) == (True,):
        for window in _windows(phi):
            assert _decision(window) in ((True,), "escalated"), window.vertex_image


def _gate_matches_the_ungated_scan(phi: SimplicialMap) -> int:
    """`decide._rejection` equals the reference on every stage of phi; returns the forbidden windings."""
    forbidden = 0
    for stage in iterate_derivative(phi, phi.domain.n).maps:
        event = decide._rejection(stage)
        assert event == reference_rejection(stage), (stage.domain.edges, stage.vertex_image)
        forbidden += event is not None and event.kind == "forbidden-winding"
    return forbidden


def test_winding_gate_rejects_what_the_ungated_scan_rejects():
    # a cycle stage skips the winding scan where no winding of degree |d| >= 2
    # fits; walks that normalize alike have the same stages, so each such
    # class is checked once
    forbidden = 0
    seen = set()
    for iid, phi in generate(CorpusSpec("cycle", tuple(TARGETS), k_max=6)):
        q = normalize_nondegenerate(phi)
        key = (iid.split("-")[1], q.domain.edges, q.vertex_image)
        if key not in seen:
            seen.add(key)
            forbidden += _gate_matches_the_ungated_scan(phi)
    assert len(seen) > 6000 and forbidden > 100
    for d in (2, 3, 4):
        assert _gate_matches_the_ungated_scan(winding_map(d)) >= 1


@st.composite
def onward_walks(draw, k_max: int):
    """Closed walks of 3 to k_max vertices into C3-C6 or theta, often going on as they came.

    A step stays put, moves to any neighbour, or, as often as not, goes on to
    the first neighbour in rotation order that it did not come from, so
    walks that wind several times round a circle are common.  The walk then
    closes by a shortest way back to its start, and one of fewer than three
    vertices stays put until it has three.
    """
    g = TARGETS[draw(st.sampled_from(("C3", "C4", "C5", "C6", "theta")))]()
    images = [draw(st.integers(0, g.n - 1))]
    came_from = None
    for _ in range(draw(st.integers(0, k_max - g.n))):
        v = images[-1]
        onward = [g.other_end(e, v) for e in g.rotation[v]]
        choice = draw(st.integers(0, 2 * len(onward) + 1))
        if choice == 0:
            images.append(v)
            continue
        if choice <= len(onward):
            w = onward[choice - 1]
        else:
            w = next((x for x in onward if x != came_from), onward[0])
        images.append(w)
        came_from = v
    images += way_back(g, images[-1], images[0])
    images += images[-1:] * (3 - len(images))
    return SimplicialMap(cycle_domain(len(images)), g, tuple(images))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(onward_walks(k_max=64))
def test_winding_gate_rejects_what_the_ungated_scan_rejects_on_long_walks(phi):
    _gate_matches_the_ungated_scan(phi)


def test_independent_path_routes_agree():
    rng = random.Random(22)
    targets = small_targets()
    pool = [x_cross_path()]
    for _ in range(120):
        name = rng.choice(sorted(targets))
        pool.append(random_walk_map(rng, targets[name], rng.randrange(2, 8), closed=False))
    for phi in pool:
        a = decide_path(phi)
        b = decide_path_via_vk(phi)
        assert a.approximable == b.approximable, phi.vertex_image
        assert b.criterion == "path-van-kampen"


def test_escalated_instances_are_flagged_but_correct():
    _, psi = ex33_pair()
    v = decide_path(psi)
    assert v.approximable is False
    assert v.flagged_for_review is True
    oracle_verdict = oracle_result(psi).approximable
    assert oracle_verdict is False
    # the independent route agrees without needing a flag
    w = decide_path_via_vk(psi)
    assert w.approximable is False and w.flagged_for_review is False


def test_degree_three_decider_scope():
    g = small_targets()["C4"]
    y4 = SimplicialMap(DomainGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4))), g, (0, 1, 1, 3, 3))
    with pytest.raises(PreconditionError, match="degree 4"):
        decide_deg3_to_circle(y4)
    theta_phi = SimplicialMap(path_domain(3), small_targets()["theta"], (0, 1, 2))
    with pytest.raises(PreconditionError, match="not a cycle"):
        decide_deg3_to_circle(theta_phi)
    # two disjoint triangles: six edges, every vertex of degree 2, disconnected
    triangles = PlaneGraph(
        6,
        ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)),
        ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)),
    )
    with pytest.raises(PreconditionError, match="not a cycle"):
        decide_deg3_to_circle(SimplicialMap(path_domain(2), triangles, (0, 1)))
    for k in (3, 4, 5, 6):
        edge = SimplicialMap(path_domain(2), cycle_target(k), (0, 1))
        assert decide_deg3_to_circle(edge).approximable
    degen = SimplicialMap(path_domain(3), g, (0, 0, 1))
    with pytest.raises(PreconditionError, match="nondegenerate"):
        decide_deg3_to_circle(degen)


def test_degree_three_decider_agrees_with_oracle():
    rng = random.Random(23)
    for _ in range(60):
        target = small_targets()[rng.choice(["C3", "C4", "C5"])]
        phi = random_deg3_map(target, rng, max_vertices=7)
        mine = decide_deg3_to_circle(phi)
        truth = oracle_result(phi).approximable
        assert mine.approximable == truth, phi.vertex_image


# the random degree-3 corpus of acceptance criterion 6
CRITERION_6 = CorpusSpec("deg3", ("C3", "C4", "C5"), k_max=8, seed=20260817, count=500)


def test_degree_three_decider_agrees_with_oracle_on_walk_shaped_maps():
    # decide_map sends the path- and cycle-shaped maps of criterion 6's
    # corpus to the walk routes, so the degree-3 rule is refereed on them here
    shapes = Counter()
    for _, phi in generate(CRITERION_6):
        shape = phi.domain.shape
        if shape == "general":
            continue
        shapes[shape] += 1
        truth = oracle_result(phi).approximable
        assert decide_deg3_to_circle(phi).approximable == truth, (shape, phi.domain.edges, phi.vertex_image)
    assert shapes == {"path": 342, "cycle": 4}


def test_decide_map_takes_the_route_of_the_domain_shape():
    # every walk with k <= 6 into the eight targets, and the general-shaped
    # maps of criterion 6's corpus
    for shape, route in (("path", decide_path), ("cycle", decide_cycle)):
        spec = CorpusSpec(shape, tuple(TARGETS), k_min=3 if shape == "cycle" else 1, k_max=6)
        for _, phi in generate(spec):
            assert repr(decide_map(phi)) == repr(route(phi)), phi.vertex_image
    general = [phi for _, phi in generate(CRITERION_6) if phi.domain.shape == "general"]
    assert len(general) == 1500 - 342 - 4
    for phi in general:
        assert repr(decide_map(phi)) == repr(decide_deg3_to_circle(phi)), phi.vertex_image
    with pytest.raises(PreconditionError, match="not a cycle"):
        decide_map(SimplicialMap(DomainGraph(3, ((0, 1), (0, 2), (1, 2), (1, 2))), TARGETS["theta"](), (0, 2, 1)))


def test_winding_verdict_criterion_and_trace_structure():
    v = decide_cycle(winding_map(2))
    assert all(isinstance(i, int) and isinstance(e, Event) for i, e in v.trace)
    assert v.trace == tuple(sorted(v.trace, key=lambda t: t[0]))


# --- verdicts kept per target ----------------------------------------------------


def _on_fresh_target(phi: SimplicialMap) -> SimplicialMap:
    """phi into an equal copy of its target, whose memos are empty."""
    g = phi.target
    copy = PlaneGraph(g.n, g.edges, g.rotation, g.vertex_names)
    return SimplicialMap(phi.domain, copy, phi.vertex_image)


def _verdicts_under(g: PlaneGraph):
    """Every kept verdict of g and of the derived targets built under it."""
    stack = [g]
    while stack:
        t = stack.pop()
        yield from t.verdicts.items()
        stack.extend(t.derived_memo.values())


def _holds_a_graph_or_map(value) -> bool:
    if isinstance(value, (SimplicialMap, DomainGraph, PlaneGraph)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return any(_holds_a_graph_or_map(v) for v in value)
    if is_dataclass(value):
        return any(_holds_a_graph_or_map(getattr(value, f.name)) for f in fields(value))
    return False


def _counting(monkeypatch, module, name: str) -> list:
    """The first argument of every call of module.name from now on, as a growing list.

    With decide.find_crossing_pair, these are the stages decide checks for crossings.
    """
    seen = []
    fn = getattr(module, name)

    def counted(first, *args, **kwargs):
        seen.append(first)
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return seen


def _walks(k_max: int) -> list[SimplicialMap]:
    """Every path and closed walk of at most k_max vertices into each catalog target."""
    maps = []
    for shape in ("path", "cycle"):
        spec = CorpusSpec(shape, tuple(TARGETS), k_min=3 if shape == "cycle" else 1, k_max=k_max)
        maps += [phi for _, phi in generate(spec)]
    return maps


def _route_corpus(route: str) -> tuple:
    """The (call, map) pairs of a corpus that reach route, and how the route concludes.

    Returns the pairs, the module and name of the function that
    `verdict_once` is given on route, and the arguments it passes after
    the map.
    """
    if route == "derivatives":
        calls = [(decide_path if phi.domain.shape == "path" else decide_cycle, phi) for phi in _walks(5)]
        return calls, decide, "_run_stages", ()
    if route == "obstruction":
        calls = [(decide_path_via_vk, phi) for _, phi in generate(CorpusSpec("path", tuple(TARGETS), k_max=5))]
        deg3 = CorpusSpec("deg3", ("C3", "C4", "C5"), k_max=7, seed=5, count=100)
        calls += [(decide_deg3_to_circle, phi) for _, phi in generate(deg3)]
        return calls, decide, "obstruction_vanishes", ()
    maps = _walks(5) + [phi for _, phi in generate(CorpusSpec("deg3", tuple(TARGETS), k_max=7, seed=5, count=13))]
    return [(oracle_result, phi) for phi in maps], oracle, "_search", (None,)


@pytest.mark.parametrize("route", ("derivatives", "obstruction", "oracle"))
def test_shared_verdicts_give_the_results_of_fresh_targets(route, monkeypatch):
    # the maps of one corpus share each target and so its verdicts, where
    # each route concludes each distinct normalized map once; each map on
    # its own copy of the target is concluded from scratch
    calls, module, name, args = _route_corpus(route)
    conclude = getattr(module, name)
    concluded = _counting(monkeypatch, module, name)
    checked = _counting(monkeypatch, decide, "find_crossing_pair")
    derived = _counting(monkeypatch, derivative, "derive")
    shared = [repr(call(phi)) for call, phi in calls]
    shared_stages = len(checked)
    normal = [normalize_nondegenerate(phi) for _, phi in calls]
    distinct = {(id(n.target), n.domain.edges, n.vertex_image) for n in normal}
    assert len(concluded) == len(distinct) < len(calls) // 2
    del checked[:]
    alone = [repr(call(_on_fresh_target(phi))) for call, phi in calls]
    assert alone == shared
    assert len(concluded) == len(distinct) + len(calls)
    fresh_stages, cold_derives = len(checked), len(derived)
    # a second pass concludes nothing
    assert [repr(call(phi)) for call, phi in calls] == shared
    assert len(concluded) == len(distinct) + len(calls)
    second_derives = len(derived) - cold_derives
    # what is kept (for a vanishing obstruction, more than the verdict shows)
    # is what the route concludes on a fresh target
    for (_, phi), n in zip(calls, normal):
        own = normalize_nondegenerate(_on_fresh_target(phi))
        assert n.target.verdicts[route, n.domain.edges, n.vertex_image] == conclude(own, *args)
    targets = {id(phi.target): phi.target for _, phi in calls}.values()
    entries = [entry for g in targets for entry in kept(g, route)]
    assert len(entries) == len(distinct)
    if route == "derivatives":
        # the shared pass checks under half the stages, and the second derives nothing
        assert shared_stages < fresh_stages // 2
        assert second_derives == 0 and cold_derives > 1000
        assert any(flagged for _, (_, _, _, flagged) in entries)
        assert not any(_holds_a_graph_or_map(entry) for entry in entries)
    else:
        assert all(ints_and_tuples(entry) for entry in entries)


def test_a_map_that_normalizes_to_a_kept_key_runs_no_route_code(monkeypatch):
    # the stationary walk normalizes to the identity path onto C5, which
    # every route concludes first; the degree-3 map is asked again as an
    # equal map of its own
    g = cycle_target(5)
    identity = SimplicialMap(path_domain(5), g, (0, 1, 2, 3, 4))
    stationary = SimplicialMap(path_domain(7), g, (0, 1, 1, 2, 3, 3, 4))
    star = SimplicialMap(DomainGraph(4, ((0, 1), (0, 2), (0, 3))), g, (0, 1, 4, 1))
    again = SimplicialMap(star.domain, g, star.vertex_image)
    routes = (decide_path, decide_map, decide_path_via_vk, oracle_result)
    first = [route(identity) for route in routes] + [decide_deg3_to_circle(star), oracle_result(star)]

    def refused(*args):
        raise AssertionError("route code run on a kept key")

    for module, name in ((decide, "_run_stages"), (decide, "obstruction_vanishes"), (oracle, "_search")):
        monkeypatch.setattr(module, name, refused)
    assert [route(stationary) for route in routes] + [decide_deg3_to_circle(again), oracle_result(again)] == first
    # a map of another key reaches the route code
    reversed_path = SimplicialMap(path_domain(5), g, (4, 3, 2, 1, 0))
    other_star = SimplicialMap(star.domain, g, (0, 4, 1, 4))
    for route, phi in [(route, reversed_path) for route in routes] + [(decide_deg3_to_circle, other_star)]:
        with pytest.raises(AssertionError, match="kept key"):
            route(phi)


def test_decide_memo_shares_stage_0_across_budgets(monkeypatch):
    # both maps normalize to the identity cycle onto C5, one of 5 vertices
    # and one of 7; in either order each gets the verdict it gets on a
    # fresh target
    identity = SimplicialMap(cycle_domain(5), cycle_target(5), (0, 1, 2, 3, 4))
    stationary = SimplicialMap(cycle_domain(7), cycle_target(5), (0, 1, 1, 2, 3, 3, 4))
    a, b = (normalize_nondegenerate(m) for m in (identity, stationary))
    assert a.domain.edges == b.domain.edges
    assert a.vertex_image == b.vertex_image
    for first, second in ((identity, stationary), (stationary, identity)):
        g = first.target
        for phi in (first, SimplicialMap(second.domain, g, second.vertex_image)):
            assert decide_cycle(phi) == decide_cycle(_on_fresh_target(phi))
        assert not any(_holds_a_graph_or_map(entry) for entry in _verdicts_under(g))
    # a verdict is lent to later maps with the same stage 0, also one whose
    # derives use up the whole budget, as on the identity path onto C5,
    # whose branch-free first stage is the only one checked
    checked = _counting(monkeypatch, decide, "find_crossing_pair")
    g = cycle_target(5)
    lent = [decide_cycle(SimplicialMap(m.domain, g, m.vertex_image)) for m in (identity, stationary)]
    assert lent[0] == lent[1] and len(checked) == 1
    path = SimplicialMap(path_domain(5), g, (0, 1, 2, 3, 4))
    first = decide_path(path)
    assert first.trace[-1] == (5, Event("empty-domain")) and len(checked) == 1 + 1
    assert decide_path(path) == first and len(checked) == 1 + 1


def test_a_decide_memo_hit_enters_no_derivative_stage(monkeypatch):
    # the stationary walk normalizes to the identity cycle onto C5, which
    # is decided first; the second map is answered from the kept run alone
    g = cycle_target(5)
    identity = SimplicialMap(cycle_domain(5), g, (0, 1, 2, 3, 4))
    stationary = SimplicialMap(cycle_domain(7), g, (0, 1, 1, 2, 3, 3, 4))
    first = decide_cycle(identity)

    def refused(phi, max_steps):
        raise AssertionError("derivative_stages entered on a kept run")

    monkeypatch.setattr(decide, "derivative_stages", refused)
    assert decide_cycle(stationary) == decide_cycle(identity) == first
    assert decide_map(stationary) == first
    with pytest.raises(AssertionError, match="kept run"):
        decide_cycle(SimplicialMap(cycle_domain(5), g, (4, 3, 2, 1, 0)))


def test_a_corpus_run_leaves_no_decide_memo_entry_on_a_derived_target():
    # each run and each obstruction is kept under its normalized input's
    # target alone, also when it built derived targets on its way; only the
    # oracle, asked on a refused stage, may keep its search in a derived one
    targets = {}
    for shape in ("path", "cycle"):
        spec = CorpusSpec(shape, ("theta", "ex33", "C3"), k_min=3 if shape == "cycle" else 1, k_max=6)
        for iid, phi in generate(spec):
            evaluate_instance(iid, phi, shape, "-")
            targets[id(phi.target)] = (shape, phi.target)

    def on_walk_routes(entries):
        return [entry for entry in entries if entry[0][0] in ("derivatives", "obstruction")]

    for shape, g in targets.values():
        assert kept(g, "derivatives")
        # only a path corpus asks the obstruction
        assert bool(kept(g, "obstruction")) == (shape == "path")
        assert on_walk_routes(_verdicts_under(g)) == on_walk_routes(g.verdicts.items())
    assert sum(len(g.derived_memo) for _, g in targets.values()) > 10
