"""Deleted products and the mod-2 obstruction to pulling curves apart.

The deleted product of a domain keeps only pairs of disjoint simplices; a
pair is painted red when the images are disjoint too, since nothing can
force those curves to meet.  Drawing the map in general position with exact
rational coordinates gives a crossing-parity cochain on the non-red pairs,
and the map passes the obstruction test when that cochain is a coboundary
relative to the red part.  Over a path domain the same data regroups into
per-component parities split along the red cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SimplicialMap, UnionFind, normalize_nondegenerate
from .errors import DegenerateDrawingError, PreconditionError
from .geometry import (
    DegenerateConfiguration,
    Point,
    circle_point,
    half_centroid,
    proper_crossing,
)
from .gf2 import solve_or_certify

MAX_DRAWING_ATTEMPTS = 64


# ---------------------------------------------------------------------------
# single-map deleted product


@dataclass(frozen=True)
class DeletedProduct:
    """Cells of disjoint simplex pairs with their red (disjoint-image) flags."""

    cells2: tuple[tuple[int, int], ...]  # (edge, edge), first id smaller
    red2: tuple[bool, ...]
    cells1: tuple[tuple[int, int], ...]  # (vertex, edge), vertex not on edge
    red1: tuple[bool, ...]
    cells0: tuple[tuple[int, int], ...]  # (vertex, vertex), first id smaller
    red0: tuple[bool, ...]


def _edge_vertices(phi: SimplicialMap, eid: int) -> set[int]:
    img = phi.edge_image[eid]
    return set(phi.target.edges[img])


def build_deleted_product(phi: SimplicialMap) -> DeletedProduct:
    """All disjoint simplex pairs of the domain with the red mask."""
    if not phi.is_nondegenerate():
        raise PreconditionError("map has degenerate edges; normalize first")
    d = phi.domain
    cells2 = []
    red2 = []
    for s in range(len(d.edges)):
        for t in range(s + 1, len(d.edges)):
            if set(d.edges[s]) & set(d.edges[t]):
                continue
            cells2.append((s, t))
            red2.append(not (_edge_vertices(phi, s) & _edge_vertices(phi, t)))
    cells1 = []
    red1 = []
    for x in range(d.n):
        for t in range(len(d.edges)):
            if x in d.edges[t]:
                continue
            cells1.append((x, t))
            red1.append(phi.vertex_image[x] not in _edge_vertices(phi, t))
    cells0 = []
    red0 = []
    for x in range(d.n):
        for y in range(x + 1, d.n):
            cells0.append((x, y))
            red0.append(phi.vertex_image[x] != phi.vertex_image[y])
    return DeletedProduct(
        tuple(cells2), tuple(red2), tuple(cells1), tuple(red1), tuple(cells0), tuple(red0)
    )


def _square_faces(d, cell: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    s, t = cell
    x, y = d.edges[s]
    z, w = d.edges[t]
    return ((x, t), (y, t), (z, s), (w, s))


# ---------------------------------------------------------------------------
# canonical drawing


def _lanes(maps, lane_orders) -> dict[int, list[tuple[int, int]]]:
    """(side, domain edge) strands in each target edge's strip, in lane order.

    Checks that the maps share one target and have no degenerate edges and
    that every given lane order permutes its strip's strands.
    """
    target = maps[0].target
    for m in maps[1:]:
        if m.target != target:
            raise PreconditionError("maps must share one target")
    lanes: dict[int, list[tuple[int, int]]] = {}
    for side, m in enumerate(maps):
        for eid, img in enumerate(m.edge_image):
            if img is None:
                raise PreconditionError("map has degenerate edges; normalize first")
            lanes.setdefault(img, []).append((side, eid))
    for a in lanes:
        lanes[a].sort()
    if lane_orders is not None:
        for a, order in lane_orders.items():
            if sorted(order) != sorted(lanes.get(a, [])):
                raise PreconditionError(f"lane order for target edge {a} is not a permutation")
            lanes[a] = list(order)
    return lanes


class Drawing:
    """Exact general-position drawing of one or two maps into the target.

    Every strand (a nondegenerate domain edge of either side) runs through
    the strip of its image edge in its own lane; lanes never cross inside a
    strip, so all crossings happen inside vertex discs, between the straight
    star branches joining strand ends to the star centers of their domain
    vertices.  Ports sit on the unit circle in refined rotation order: each
    edge's slot expands into that edge's lane block, read with the lanes in
    order at the smaller endpoint and reversed at the larger one, which is
    how nested parallel strips meet a disc.  Each star's center sits at half
    the centroid of its own ports, so a transit star hugs the chord between
    its two ports and an endpoint star retracts toward its single port; this
    keeps nested parallel strands disjoint inside discs.  A star with no
    ports falls back to a slot on an inner circle.
    """

    def __init__(self, maps, lane_orders=None, attempt: int = 0):
        self.maps = tuple(maps)
        self.target = self.maps[0].target
        self.lanes = lanes = _lanes(self.maps, lane_orders)

        self._port_point: dict[tuple[int, int, int, int], Point] = {}  # (v, side, eid, a)
        self._center_point: dict[tuple[int, int, int], Point] = {}  # (v, side, x)
        g = self.target
        for v in range(g.n):
            ports: list[tuple[int, int, int]] = []
            for a in g.rotation[v]:
                block = lanes.get(a, [])
                if v != g.edges[a][0]:
                    block = list(reversed(block))
                ports.extend((a, side, eid) for side, eid in block)
            star_ports: dict[tuple[int, int], list[Point]] = {}
            for i, key in enumerate(ports):
                a, side, eid = key
                # t = (2i - L + 1)/2 + attempt/1009
                t = ((2 * i - len(ports) + 1) * 1009 + 2 * attempt, 2018)
                point = circle_point(t, (1, 1))
                self._port_point[(v, side, eid, a)] = point
                u, w = self.maps[side].domain.edges[eid]
                x = u if self.maps[side].vertex_image[u] == v else w
                star_ports.setdefault((side, x), []).append(point)
            stars = sorted(
                (side, x)
                for side, m in enumerate(self.maps)
                for x in range(m.domain.n)
                if m.vertex_image[x] == v
            )
            for j, key in enumerate(stars):
                own = star_ports.get(key)
                if own:
                    self._center_point[(v,) + key] = half_centroid(own)
                else:
                    # t = (6j - 3S + 4)/6 + attempt/997
                    t = ((6 * j - 3 * len(stars) + 4) * 997 + 6 * attempt, 5982)
                    self._center_point[(v,) + key] = circle_point(t, (1, 2))

    def _segment(self, v: int, side: int, eid: int):
        m = self.maps[side]
        u, w = m.domain.edges[eid]
        x = u if m.vertex_image[u] == v else w
        a = m.edge_image[eid]
        return (
            self._center_point[(v, side, x)],
            self._port_point[(v, side, eid, a)],
        )

    def crossing_parity(self, s1: tuple[int, int], s2: tuple[int, int]) -> int:
        """Mod-2 crossing count between two strands' full curves."""
        m1, m2 = self.maps[s1[0]], self.maps[s2[0]]
        discs1 = {m1.vertex_image[v] for v in m1.domain.edges[s1[1]]}
        discs2 = {m2.vertex_image[v] for v in m2.domain.edges[s2[1]]}
        parity = 0
        for v in sorted(discs1 & discs2):
            p1, p2 = self._segment(v, *s1)
            q1, q2 = self._segment(v, *s2)
            if proper_crossing(p1, p2, q1, q2):
                parity ^= 1
        return parity


def _evaluate_with_retries(maps, pairs, lane_orders):
    """Crossing parities for the listed strand pairs, re-jittering on touches.

    With no pairs nothing is drawn, but the drawing's input checks still run.
    """
    if not pairs:
        _lanes(maps, lane_orders)
        return []
    for attempt in range(MAX_DRAWING_ATTEMPTS):
        drawing = Drawing(maps, lane_orders, attempt)
        try:
            return [drawing.crossing_parity(a, b) for a, b in pairs]
        except DegenerateConfiguration:
            continue
    raise DegenerateDrawingError(
        "no jitter attempt produced a generic drawing; this is a bug"
    )


def intersection_cochain(phi: SimplicialMap, lane_orders=None):
    """(complex, parity per 2-cell) for the canonical drawing of one map.

    Red cells carry 0 without evaluation: their curves live in disjoint
    neighborhoods by construction.
    """
    complex_ = build_deleted_product(phi)
    pairs = [
        ((0, s), (0, t))
        for (s, t), red in zip(complex_.cells2, complex_.red2)
        if not red
    ]
    computed = _evaluate_with_retries((phi,), pairs, lane_orders)
    values = []
    it = iter(computed)
    for red in complex_.red2:
        values.append(0 if red else next(it))
    return complex_, tuple(values)


# ---------------------------------------------------------------------------
# relative coboundary solve


def _relative_solve(equations, rhs, variables):
    """GF(2) solve of face sums = rhs over the non-red 1-cells."""
    var_index = {c: i for i, c in enumerate(variables)}
    a = np.zeros((len(equations), len(variables)), dtype=np.uint8)
    for r, faces in enumerate(equations):
        for f in faces:
            if f in var_index:
                a[r, var_index[f]] ^= 1
    b = np.array(rhs, dtype=np.uint8)
    return solve_or_certify(a, b)


@dataclass(frozen=True)
class ObstructionReport:
    complex: DeletedProduct
    values: tuple[int, ...]
    vanishes: bool
    solving_cells: tuple[tuple[int, int], ...] | None
    certificate_cells: tuple[tuple[int, int], ...] | None


def obstruction_report(phi: SimplicialMap, lane_orders=None) -> ObstructionReport:
    phi = normalize_nondegenerate(phi)
    complex_, values = intersection_cochain(phi, lane_orders)
    d = phi.domain
    eq_cells = [c for c, red in zip(complex_.cells2, complex_.red2) if not red]
    rhs = [v for v, red in zip(values, complex_.red2) if not red]
    variables = [c for c, red in zip(complex_.cells1, complex_.red1) if not red]
    equations = [_square_faces(d, c) for c in eq_cells]
    sol, cert = _relative_solve(equations, rhs, variables)
    if sol is not None:
        solving = tuple(c for c, bit in zip(variables, sol.tolist()) if bit)
        return ObstructionReport(complex_, values, True, solving, None)
    certificate = tuple(c for c, bit in zip(eq_cells, cert.tolist()) if bit)
    return ObstructionReport(complex_, values, False, None, certificate)


def obstruction_vanishes(phi: SimplicialMap, lane_orders=None):
    """Is the crossing cochain a relative coboundary?  (verdict, witness).

    The witness is a solving 1-cochain (tuple of non-red 1-cells) when true,
    else a certificate: 2-cells whose equations sum inconsistently.
    """
    report = obstruction_report(phi, lane_orders)
    return report.vanishes, (
        report.solving_cells if report.vanishes else report.certificate_cells
    )


def path_cut_components(phi: SimplicialMap, lane_orders=None) -> tuple[int, ...]:
    """Per-component crossing parities of a path domain, cut along red cells.

    Components of 2-cells glued across non-red 1-cells qualify when every
    1-cell they expose on the outer boundary of the square complex is red;
    parities of qualifying components are invariant across drawings, and the
    vector is zero exactly when the obstruction vanishes.
    """
    if phi.domain.shape != "path":
        raise PreconditionError("cut components are defined for path domains")
    phi = normalize_nondegenerate(phi)
    complex_, values = intersection_cochain(phi, lane_orders)
    d = phi.domain
    ncells = len(complex_.cells2)
    red1 = dict(zip(complex_.cells1, complex_.red1))
    cofaces: dict[tuple[int, int], list[int]] = {}
    for idx, cell in enumerate(complex_.cells2):
        for f in _square_faces(d, cell):
            cofaces.setdefault(f, []).append(idx)

    sets = UnionFind()
    for f, owners in cofaces.items():
        if len(owners) == 2 and not red1[f]:
            sets.union(owners[0], owners[1])

    vector = []
    for members in sets.classes(range(ncells)):
        qualified = True
        parity = 0
        for idx in members:
            parity ^= values[idx]
            for f in _square_faces(d, complex_.cells2[idx]):
                if len(cofaces[f]) == 1 and not red1[f]:
                    qualified = False
        if qualified:
            vector.append(parity)
    return tuple(vector)


# ---------------------------------------------------------------------------
# two maps, one target


@dataclass(frozen=True)
class PairReport:
    cells2: tuple[tuple[int, int], ...]  # (K edge, L edge)
    red2: tuple[bool, ...]
    values: tuple[int, ...]
    vanishes: bool


def pair_report(phi: SimplicialMap, psi: SimplicialMap, lane_orders=None) -> PairReport:
    """Obstruction data for two maps drawn together.

    Cells are all K-edge x L-edge pairs (the domains are already disjoint),
    red when the images share nothing; the 1-cochain space is spanned by
    vertex x edge and edge x vertex cells.
    """
    if phi.target != psi.target:
        raise PreconditionError("maps must share one target")
    phi = normalize_nondegenerate(phi)
    psi = normalize_nondegenerate(psi)
    cells2 = []
    red2 = []
    for i in range(len(phi.domain.edges)):
        vi = _edge_vertices(phi, i)
        for j in range(len(psi.domain.edges)):
            cells2.append((i, j))
            red2.append(not (vi & _edge_vertices(psi, j)))
    pairs = [((0, i), (1, j)) for (i, j), red in zip(cells2, red2) if not red]
    computed = _evaluate_with_retries((phi, psi), pairs, lane_orders)
    values = []
    it = iter(computed)
    for red in red2:
        values.append(0 if red else next(it))

    def red_ve(x: int, j: int) -> bool:
        return phi.vertex_image[x] not in _edge_vertices(psi, j)

    def red_ev(i: int, y: int) -> bool:
        return psi.vertex_image[y] not in _edge_vertices(phi, i)

    variables: list[tuple] = []
    for x in range(phi.domain.n):
        for j in range(len(psi.domain.edges)):
            if not red_ve(x, j):
                variables.append(("ve", x, j))
    for i in range(len(phi.domain.edges)):
        for y in range(psi.domain.n):
            if not red_ev(i, y):
                variables.append(("ev", i, y))
    equations = []
    rhs = []
    for (i, j), red, val in zip(cells2, red2, values):
        if red:
            continue
        x, y = phi.domain.edges[i]
        z, w = psi.domain.edges[j]
        equations.append((("ve", x, j), ("ve", y, j), ("ev", i, z), ("ev", i, w)))
        rhs.append(val)
    sol, _cert = _relative_solve(equations, rhs, variables)
    return PairReport(tuple(cells2), tuple(red2), tuple(values), sol is not None)


def pair_obstruction(phi: SimplicialMap, psi: SimplicialMap, lane_orders=None) -> bool:
    """Can the two maps' drawings be made to cross evenly everywhere?"""
    return pair_report(phi, psi, lane_orders).vanishes
