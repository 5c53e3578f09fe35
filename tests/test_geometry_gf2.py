"""Exact rational geometry predicates and the GF(2) solve-or-certify kernel."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from conftest import frac_circle_point, frac_orient, frac_point, frac_proper_crossing

from embapprox.geometry import (
    DegenerateConfiguration,
    circle_point,
    half_centroid,
    orient,
    proper_crossing,
)
from embapprox import gf2
from embapprox.gf2 import solve_or_certify, verify_certificate


# --- geometry ---------------------------------------------------------------


def pt(x, y) -> tuple[int, int, int]:
    """Homogeneous integer triple of the rational point (x, y)."""
    x, y = Fraction(x), Fraction(y)
    w = lcm(x.denominator, y.denominator)
    return (x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w)


def test_circle_points_are_exact_and_distinct():
    pts = [circle_point((t, 7), (1, 1)) for t in range(7)]
    for x, y, w in pts:
        assert all(isinstance(c, int) for c in (x, y, w))
        assert w > 0 and gcd(x, y, w) == 1
        assert x * x + y * y == w * w
    assert len(set(pts)) == 7


def test_circle_points_progress_counterclockwise():
    a = circle_point((0, 1), (1, 1))
    b = circle_point((1, 8), (1, 1))
    c = circle_point((2, 8), (1, 1))
    assert orient(a, b, c) == 1  # left turn


def test_circle_point_and_half_centroid_match_fractions():
    rng = random.Random(11)
    for _ in range(200):
        t = (rng.randint(-5000, 5000), rng.randint(1, 3000))
        r = (rng.randint(1, 9), rng.randint(1, 9))
        got = circle_point(t, r)
        assert got[2] > 0 and gcd(*got) == 1
        assert frac_point(got) == frac_circle_point(Fraction(*t), Fraction(*r))
    for _ in range(100):
        pts = [circle_point((rng.randint(-99, 99), rng.randint(1, 50)), (1, 1))
               for _ in range(rng.randint(1, 3))]
        got = half_centroid(pts)
        assert got[2] > 0 and gcd(*got) == 1
        want = tuple(sum(frac_point(p)[i] for p in pts) / (2 * len(pts)) for i in (0, 1))
        assert frac_point(got) == want


def test_orient_signs():
    o = pt(0, 0)
    e1 = pt(1, 0)
    e2 = pt(0, 1)
    assert orient(o, e1, e2) == 1
    assert orient(o, e2, e1) == -1
    assert orient(o, e1, pt(2, 0)) == 0


def test_proper_crossing_basic_cases():
    o = pt(0, 0)
    ne = pt(1, 1)
    nw = pt(-1, 1)
    se = pt(1, -1)
    sw = pt(-1, -1)
    assert proper_crossing(sw, ne, nw, se) is True
    assert proper_crossing(sw, se, nw, ne) is False  # parallel horizontals
    # sharing an endpoint is not a transversal crossing: degenerate input
    with pytest.raises(DegenerateConfiguration):
        proper_crossing(o, ne, o, nw)
    # touching in the interior without crossing is degenerate too
    with pytest.raises(DegenerateConfiguration):
        proper_crossing(sw, ne, o, se)


def test_proper_crossing_collinear_overlap_is_degenerate():
    a = pt(0, 0)
    b = pt(2, 0)
    c = pt(1, 0)
    d = pt(3, 0)
    with pytest.raises(DegenerateConfiguration):
        proper_crossing(a, b, c, d)


def _frac_outcome(p1, p2, q1, q2):
    try:
        return frac_proper_crossing(*map(frac_point, (p1, p2, q1, q2)))
    except DegenerateConfiguration:
        return "degenerate"


def _int_outcome(p1, p2, q1, q2):
    try:
        return proper_crossing(p1, p2, q1, q2)
    except DegenerateConfiguration:
        return "degenerate"


def test_predicates_agree_with_the_fraction_reference():
    """Seeded random segments, including shared endpoints, touches and overlaps.

    Triples are drawn unreduced on a coarse grid so that collinear and
    coincident points are common; the predicates must not care about the
    scale of a triple.
    """
    rng = random.Random(20261018)

    def rand_point():
        w, k = rng.choice((1, 2)), rng.randint(1, 3)
        return (rng.randint(-3 * w, 3 * w) * k, rng.randint(-3 * w, 3 * w) * k, w * k)

    def between(a, b):
        # a rational point of the closed segment ab, with a fresh scale
        s, u = rng.randint(0, 3), rng.randint(0, 3) or 1
        fa, fb = frac_point(a), frac_point(b)
        x, y = ((s * fa[i] + u * fb[i]) / (s + u) for i in (0, 1))
        k = rng.randint(1, 3)
        p = pt(x, y)
        return (p[0] * k, p[1] * k, p[2] * k)

    seen = {True: 0, False: 0, "degenerate": 0}
    kinds = ("random", "shared", "touching", "overlap")
    for trial in range(4000):
        kind = kinds[trial % 4]
        p1, p2, q1, q2 = (rand_point() for _ in range(4))
        if kind == "shared":
            q1 = p1 if rng.random() < 0.5 else p2
        elif kind == "touching":
            q1 = between(p1, p2)
        elif kind == "overlap":
            q1, q2 = between(p1, p2), between(p1, p2)
            if rng.random() < 0.5:
                # 2 q2 - p2: still on the line, possibly beyond the segment
                q2 = (2 * q2[0] * p2[2] - p2[0] * q2[2], 2 * q2[1] * p2[2] - p2[1] * q2[2],
                      q2[2] * p2[2])
        segments = [(p1, p2, q1, q2), (q2, q1, p2, p1)]
        for seg in segments:
            want = _frac_outcome(*seg)
            assert _int_outcome(*seg) == want, (kind, seg)
            seen[want] += 1
        for a, b, c in ((p1, p2, q1), (q1, q2, p2), (p1, q1, q2)):
            assert orient(a, b, c) == frac_orient(*map(frac_point, (a, b, c)))
    assert min(seen.values()) >= 200, seen


# --- GF(2) ------------------------------------------------------------------


def test_solve_returns_checking_solution():
    a = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    b = np.array([1, 0], dtype=np.uint8)
    x, cert = solve_or_certify(a, b)
    assert cert is None
    assert np.array_equal((a @ x) % 2, b)


def test_unsolvable_returns_verifying_certificate():
    # rows sum to an inconsistent equation: x0 = 0 and x0 = 1
    a = np.array([[1, 0], [1, 0]], dtype=np.uint8)
    b = np.array([0, 1], dtype=np.uint8)
    x, cert = solve_or_certify(a, b)
    assert x is None
    assert verify_certificate(a, b, cert)
    assert (cert @ a % 2 == 0).all()
    assert cert @ b % 2 == 1


def test_empty_system_is_solvable():
    a = np.zeros((0, 4), dtype=np.uint8)
    b = np.zeros((0,), dtype=np.uint8)
    x, cert = solve_or_certify(a, b)
    assert cert is None and x.shape == (4,)


def test_zero_columns_system():
    a = np.zeros((2, 0), dtype=np.uint8)
    x, cert = solve_or_certify(a, np.array([0, 0], dtype=np.uint8))
    assert cert is None and x.shape == (0,)
    x, cert = solve_or_certify(a, np.array([0, 1], dtype=np.uint8))
    assert x is None and verify_certificate(a, np.array([0, 1], dtype=np.uint8), cert)


def test_solve_or_certify_random_systems_always_decided():
    rng = random.Random(20260817)
    for trial in range(200):
        m = rng.randrange(0, 9)
        n = rng.randrange(0, 9)
        a = np.array(
            [[rng.randrange(2) for _ in range(n)] for _ in range(m)], dtype=np.uint8
        ).reshape(m, n)
        b = np.array([rng.randrange(2) for _ in range(m)], dtype=np.uint8)
        x, cert = solve_or_certify(a, b)
        if x is not None:
            assert cert is None
            assert np.array_equal((a @ x) % 2, b % 2), trial
        else:
            assert verify_certificate(a, b, cert), trial


def test_solvable_systems_never_certified():
    rng = random.Random(7)
    for trial in range(100):
        m, n = rng.randrange(1, 8), rng.randrange(1, 8)
        a = np.array(
            [[rng.randrange(2) for _ in range(n)] for _ in range(m)], dtype=np.uint8
        )
        x0 = np.array([rng.randrange(2) for _ in range(n)], dtype=np.uint8)
        b = (a @ x0) % 2  # solvable by construction
        x, cert = solve_or_certify(a, b)
        assert cert is None and np.array_equal((a @ x) % 2, b), trial


def _graphic_system(rng: random.Random, ne: int, nv: int):
    """A random system whose columns have weight 0, 1 or 2."""
    a = np.zeros((ne, nv), dtype=np.uint8)
    for col in range(nv):
        weight = min(rng.choice((0, 1, 2, 2, 2)), ne)
        for r in rng.sample(range(ne), weight):
            a[r, col] = 1
    b = np.array([rng.randrange(2) for _ in range(ne)], dtype=np.uint8)
    return a, b


def _same_result(got, want) -> bool:
    return all(
        (g is None and w is None) or (g.dtype == w.dtype and np.array_equal(g, w))
        for g, w in zip(got, want)
    )


def test_graphic_systems_match_dense_elimination_bit_for_bit():
    rng = random.Random(5)
    certified = 0
    for trial in range(3000):
        a, b = _graphic_system(rng, rng.randrange(0, 13), rng.randrange(0, 15))
        want = gf2._solve_dense(a, b)
        assert _same_result(solve_or_certify(a, b), want), trial
        # entries are read mod 2
        assert _same_result(solve_or_certify(a + 2 * (a ^ 1), b + 2), want), trial
        certified += want[1] is not None
    assert 1000 < certified < 2000


def test_graphic_certificate_is_the_first_odd_component_left_by_elimination():
    # column 0 joins equations 0 and 3 and leaves their sum at row 3; column 1
    # grounds equation 2 and swaps equation 1's row into row 2, so the odd
    # component {1} precedes the odd component {0, 3}
    a = np.array([[1, 0], [0, 0], [0, 1], [1, 0]], dtype=np.uint8)
    b = np.array([1, 1, 1, 0], dtype=np.uint8)
    x, cert = solve_or_certify(a, b)
    assert x is None and cert.tolist() == [0, 1, 0, 0]
    assert _same_result((x, cert), gf2._solve_dense(a, b))


def test_graphic_branch_handles_edge_shapes():
    for ne, nv in ((0, 0), (0, 3), (3, 0), (1, 1)):
        for bits in range(2 ** ne):
            b = np.array([(bits >> i) & 1 for i in range(ne)], dtype=np.uint8)
            for fill in (0, 1):
                a = np.full((ne, nv), fill, dtype=np.uint8)
                assert _same_result(solve_or_certify(a, b), gf2._solve_dense(a, b))


def test_heavy_columns_use_dense_elimination(monkeypatch):
    a = np.array([[1, 0], [1, 1], [1, 0]], dtype=np.uint8)
    b = np.array([1, 0, 1], dtype=np.uint8)
    want = gf2._solve_dense(a, b)

    def no_graphic(*args):
        raise AssertionError("a weight-3 column must be eliminated densely")

    monkeypatch.setattr(gf2, "_solve_graphic", no_graphic)
    assert _same_result(solve_or_certify(a, b), want)
