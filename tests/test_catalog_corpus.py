"""Instance catalog integrity and corpus generation/agreement machinery."""

from __future__ import annotations

import ast
import concurrent.futures
import gc
import os
import random
import subprocess
import sys
import weakref
from itertools import product
from pathlib import Path

import pytest

from embapprox import corpus
from embapprox.catalog import (
    FIXTURES,
    TARGETS,
    cycle_domain,
    ex33_target,
    path_domain,
    small_targets,
    winding_map,
)
from embapprox.core import SimplicialMap, _pair, format_instance, parse_instance
from embapprox.corpus import (
    TSV_HEADER,
    CorpusSpec,
    _assignments,
    evaluate_instance,
    generate,
    random_deg3_map,
    run_agreement,
)
from embapprox.decide import Event, Verdict
from embapprox.derivative import iterate_derivative
from embapprox.ribbon import boundary_walks


def test_every_fixture_builds_and_serializes():
    for name, make in FIXTURES.items():
        phi = make()
        text = format_instance(phi)
        assert parse_instance(text).vertex_image == phi.vertex_image, name


def test_catalog_targets_are_plane_embedded():
    # connected and planar: boundary circles obey circles = E - V + 2
    graphs = dict(small_targets())
    graphs["ex33"] = ex33_target()
    for name, g in graphs.items():
        circles = boundary_walks(
            g, frozenset(range(g.n)), frozenset(range(len(g.edges)))
        )
        assert len(circles) == len(g.edges) - g.n + 2, name


def test_corpus_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(shape="tree", targets=("C3",))
    with pytest.raises(ValueError):
        CorpusSpec(shape="path", targets=("C99",))


def test_exhaustive_generation_counts():
    # walks with equal-or-adjacent steps: 3 starts, then 3 choices per step
    items = list(generate(CorpusSpec(shape="path", targets=("C3",), k_min=1, k_max=2)))
    assert len(items) == 3 + 9
    ids = [iid for iid, _ in items]
    assert len(set(ids)) == len(ids)
    assert all(iid.startswith("path-C3-k") for iid in ids)
    # closed walks of length three on the triangle: every assignment works
    cycles = list(generate(CorpusSpec(shape="cycle", targets=("C3",), k_min=3, k_max=3)))
    assert len(cycles) == 27


def test_cycle_generation_starts_at_three():
    spec = CorpusSpec(shape="cycle", targets=("C3",), k_min=1, k_max=3)
    assert all(phi.domain.n == 3 for _, phi in generate(spec))


def test_generated_maps_are_valid_walks():
    for _, phi in generate(CorpusSpec(shape="path", targets=("theta",), k_min=3, k_max=3)):
        assert phi.domain.shape == "path"
        assert len(phi.vertex_image) == 3


def test_walks_are_enumerated_in_lexicographic_order():
    # instance ids number the walks in this order
    g = TARGETS["theta"]()
    for closed in (False, True):
        for k in range(5):
            want = [
                s
                for s in product(range(g.n), repeat=k)
                if all(
                    a == b or _pair(a, b) in g.edge_index
                    for a, b in zip(s, s[1:] + (s[:1] if closed else ()))
                )
            ]
            got = [images for images, _ in _assignments(g, k, closed)]
            assert got == want, (closed, k)


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_built_walk_maps_equal_validated_ones(name):
    # generate and _assignments build their maps unchecked; the validating
    # constructor must give the same maps, edge images and text
    g = TARGETS[name]()
    for closed in (False, True):
        for k in range(1, 7):
            domain = cycle_domain(k) if closed else path_domain(k)
            for images, edge_images in _assignments(g, k, closed):
                assert SimplicialMap(domain, g, images).edge_image == edge_images
        spec = CorpusSpec("cycle" if closed else "path", (name,), k_max=6)
        for iid, phi in generate(spec):
            checked = SimplicialMap(phi.domain, g, phi.vertex_image)
            assert phi == checked, iid
            assert phi.vertex_image == checked.vertex_image, iid
            assert phi.edge_image == checked.edge_image, iid
            assert format_instance(phi) == format_instance(checked), iid


def test_walk_enumeration_leaves_no_reference_cycle():
    # with the collector off, only reference counting can free the target
    gc.disable()
    try:
        g = TARGETS["theta"]()
        target = weakref.ref(g)
        assert sum(1 for _ in _assignments(g, 5, False)) > 0
        del g
        assert target() is None
    finally:
        gc.enable()


def test_random_deg3_maps_respect_their_contract():
    rng = random.Random(99)
    g = small_targets()["C4"]
    for _ in range(80):
        phi = random_deg3_map(g, rng, max_vertices=8)
        d = phi.domain
        assert d.n <= 8
        assert max(d.degree(v) for v in range(d.n)) <= 3
        assert phi.is_nondegenerate()
        assert all(u != v for u, v in d.edges)  # loop-free


def test_evaluate_instance_rows():
    row = evaluate_instance("w1", winding_map(1), "cycle", "C3")
    assert row.instance == "w1" and row.shape == "cycle" and row.target == "C3"
    assert row.decide == "yes" and row.oracle == "yes"
    assert row.vk == "-"  # the cycle route has no independent vk column
    assert row.agree is True
    assert row.k == winding_map(1).domain.n

    header_fields = TSV_HEADER.split("\t")
    assert header_fields == [
        "instance", "shape", "target", "k", "decide", "oracle", "vk", "agree",
    ]


def test_paths_get_a_three_way_row():
    phi = next(phi for _, phi in generate(
        CorpusSpec(shape="path", targets=("C3",), k_min=3, k_max=3)
    ))
    row = evaluate_instance("p", phi, "path", "C3")
    assert row.vk in ("yes", "no")
    assert row.agree is True


def test_evaluate_instance_decides_through_decide_map(monkeypatch):
    # the decide column is decide_map's answer whatever the corpus shape, so
    # a deg3 corpus's path-shaped map takes the path route as check does;
    # the shape only labels the row and fills the vk column of a path corpus
    asked = []

    def stub(phi):
        asked.append(phi.domain.shape)
        return Verdict(False, "stub", ((0, Event("forbidden-winding", 7)),))

    monkeypatch.setattr(corpus, "decide_map", stub)
    path = next(phi for _, phi in generate(CorpusSpec("path", ("C3",), k_min=3, k_max=3)))
    deg3_path = next(phi for _, phi in generate(CorpusSpec("deg3", ("C4",), seed=3)) if phi.domain.shape == "path")
    rows = [
        evaluate_instance("p", path, "path", "C3"),
        evaluate_instance("w", winding_map(1), "cycle", "C3"),
        evaluate_instance("d", deg3_path, "deg3", "C4"),
    ]
    assert asked == ["path", "cycle", "path"]
    assert [(r.shape, r.decide, r.oracle, r.vk, r.agree) for r in rows] == [
        ("path", "no", "yes", "yes", False),
        ("cycle", "no", "yes", "-", False),
        ("deg3", "no", "yes", "-", False),
    ]


def test_budget_exhaustion_marks_rows_inconclusive():
    row = evaluate_instance("w0", winding_map(0), "cycle", "C3", max_lifts=0)
    assert row.oracle == "inconclusive"
    assert row.agree is False


def test_run_agreement_returns_sorted_rows_and_disagreements():
    spec = CorpusSpec(shape="path", targets=("C3", "C4"), k_min=1, k_max=3)
    rows, bad = run_agreement(spec, jobs=1)
    assert bad == 0
    ids = [r.instance for r in rows]
    assert ids == sorted(ids)
    assert len(rows) == (3 + 9 + 27) + (4 + 12 + 36)


def test_run_agreement_in_worker_processes_gives_the_same_rows():
    # each worker process generates and decides the maps of one target
    spec = CorpusSpec(shape="path", targets=("C3", "theta"), k_min=1, k_max=4)
    assert run_agreement(spec, jobs=2) == run_agreement(spec, jobs=1)


def test_run_agreement_starts_no_more_workers_than_targets(monkeypatch):
    pools = []
    pool_class = concurrent.futures.ProcessPoolExecutor

    def recorded(max_workers):
        pools.append(max_workers)
        return pool_class(max_workers=max_workers)

    # run_agreement imports the pool class where it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorded)
    two = CorpusSpec(shape="path", targets=("C3", "theta"), k_min=1, k_max=4)
    assert run_agreement(two, jobs=4) == run_agreement(two, jobs=1)
    assert pools == [2]
    # a one-target corpus runs in this process
    one = CorpusSpec(shape="path", targets=("theta",), k_min=1, k_max=4)
    assert run_agreement(one, jobs=4) == run_agreement(one, jobs=1)
    assert pools == [2]


def test_importing_the_package_loads_no_process_pool():
    # every CLI start imports corpus; run_agreement imports the pool only to start workers
    code = (
        "import importlib, pkgutil, sys, embapprox\n"
        "for m in pkgutil.iter_modules(embapprox.__path__):\n"
        "    importlib.import_module('embapprox.' + m.name)\n"
        "sys.exit('concurrent.futures.process' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(corpus.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _names_used(tree: ast.AST) -> set[str]:
    """Every name a module loads, also inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        hint = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
            used |= _names_used(ast.parse(hint.value, mode="eval"))
    return used


def test_every_imported_name_is_used():
    # a deletion leaves no dead import behind; __init__ imports to export
    unused = []
    for path in sorted(Path(corpus.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_full_derivative_iteration_statuses():
    def final_state(phi):
        result = iterate_derivative(phi, max_steps=phi.domain.n)
        return result.status, result.maps[-1]

    status, last = final_state(winding_map(2))
    assert status == "stabilized" and last.domain.n == 6

    status, last = final_state(FIXTURES["whole-fold"]())
    assert status == "empty-domain" and last.domain.n == 0

    status, _ = final_state(FIXTURES["terminal-flower"]())
    assert status == "terminal"

    status, _ = final_state(FIXTURES["ex33-psi"]())
    assert status == "precondition-failed"
