"""Exact rational plane geometry for the canonical drawings.

Points live on rational parametrizations of circles and are stored as
homogeneous integer triples (X, Y, W) with W > 0, standing for (X/W, Y/W)
and reduced so that gcd(X, Y, W) = 1; equal points are equal triples.  Every
crossing test is integer arithmetic on those triples, so parities never
depend on floating point.
"""

from __future__ import annotations

from math import gcd, lcm

Rational = tuple[int, int]  # (numerator, denominator), denominator > 0
Point = tuple[int, int, int]  # (X, Y, W), W > 0


class DegenerateConfiguration(Exception):
    """Segments touch instead of crossing cleanly; the caller re-jitters."""


def _reduced(x: int, y: int, w: int) -> Point:
    g = gcd(x, y, w)
    return (x // g, y // g, w // g)


def circle_point(t: Rational, radius: Rational) -> Point:
    """Point at angle 2*atan(t) on the circle of the given radius.

    Strictly monotone in t, sweeping counterclockwise from just past angle
    -pi (t very negative) to just short of +pi (t very positive), so sorted
    t values give counterclockwise cyclic order with the gap at (-radius, 0).
    """
    tn, td = t
    rn, rd = radius
    return _reduced(rn * (td * td - tn * tn), 2 * rn * tn * td, rd * (td * td + tn * tn))


def half_centroid(points: list[Point]) -> Point:
    """Half the centroid of the points: their sum over twice their count."""
    w = lcm(*(p[2] for p in points))
    return _reduced(
        sum(p[0] * (w // p[2]) for p in points),
        sum(p[1] * (w // p[2]) for p in points),
        2 * len(points) * w,
    )


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the turn p -> q -> r: 1 left, -1 right, 0 collinear.

    The 3x3 determinant of the homogeneous triples is the doubled signed area
    times p.W * q.W * r.W, which is positive, so the signs agree.
    """
    px, py, pw = p
    qx, qy, qw = q
    rx, ry, rw = r
    v = px * (qy * rw - qw * ry) - py * (qx * rw - qw * rx) + pw * (qx * ry - qy * rx)
    return (v > 0) - (v < 0)


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    """p collinear with ab assumed; is p within the closed box of ab?

    p lies between a and b on an axis when its offsets from both, each
    scaled by positive weights, do not share a sign.
    """
    px, py, pw = p
    ax, ay, aw = a
    bx, by, bw = b
    x_between = (px * aw - ax * pw) * (px * bw - bx * pw) <= 0
    y_between = (py * aw - ay * pw) * (py * bw - by * pw) <= 0
    return x_between and y_between


def proper_crossing(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Do the open segments cross in exactly one interior point?

    Raises DegenerateConfiguration on any touching contact: an endpoint on
    the other segment or collinear overlap.  Sharing is never legitimate in
    the drawings that call this, so a touch means the jitter must move.
    """
    o1 = orient(p1, p2, q1)
    o2 = orient(p1, p2, q2)
    o3 = orient(q1, q2, p1)
    o4 = orient(q1, q2, p2)
    if o1 == 0 and _on_segment(q1, p1, p2):
        raise DegenerateConfiguration
    if o2 == 0 and _on_segment(q2, p1, p2):
        raise DegenerateConfiguration
    if o3 == 0 and _on_segment(p1, q1, q2):
        raise DegenerateConfiguration
    if o4 == 0 and _on_segment(p2, q1, q2):
        raise DegenerateConfiguration
    return o1 != o2 and o3 != o4 and o1 != 0 and o3 != 0
