"""Deleted products and the mod-2 obstruction to pulling curves apart.

The deleted product of a domain keeps only pairs of disjoint simplices; a
pair is painted red when the images are disjoint too, since nothing can
force those curves to meet.  Drawing the map with chords in the vertex
discs of `geometry`, the discs the lift search reads too, gives a
crossing-parity cochain on the non-red pairs, and the map passes the
obstruction test when that cochain is a coboundary relative to the red
part.  That is a GF(2) system with one equation per
non-red 2-cell and one unknown per non-red 1-cell, handed to `gf2` as the
equations of each unknown (`gf2.Columns`).  Over a path or cycle domain
each 1-cell bounds at most two 2-cells, so `gf2` solves it by union-find
and no matrix is ever allocated; only degree-3 domains reach its dense
elimination.  Over a path domain the same data regroups into per-component
parities split along the red cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SimplicialMap, UnionFind, normalize_nondegenerate
from .errors import PreconditionError
from .geometry import disc_ports, proper_crossing
from .gf2 import Columns, solve_or_certify


# ---------------------------------------------------------------------------
# single-map deleted product


@dataclass(frozen=True)
class DeletedProduct:
    """Cells of disjoint simplex pairs with their red (disjoint-image) flags."""

    cells2: tuple[tuple[int, int], ...]  # (edge, edge), first id smaller
    red2: tuple[bool, ...]
    cells1: tuple[tuple[int, int], ...]  # (vertex, edge), vertex not on edge
    red1: tuple[bool, ...]


def _image_ends(phi: SimplicialMap) -> list[tuple[int, int]]:
    """Endpoints of each domain edge's image edge, indexed by domain edge."""
    target_edges = phi.target.edges
    return [target_edges[img] for img in phi.edge_image]


def _disjoint(e: tuple[int, int], f: tuple[int, int]) -> bool:
    return e[0] not in f and e[1] not in f


def build_deleted_product(phi: SimplicialMap) -> DeletedProduct:
    """All disjoint simplex pairs of the domain with the red mask."""
    if not phi.is_nondegenerate():
        raise PreconditionError("map has degenerate edges; normalize first")
    d = phi.domain
    edges = d.edges
    images = _image_ends(phi)
    cells2 = []
    red2 = []
    for s, (x, y) in enumerate(edges):
        a, b = images[s]
        for t in range(s + 1, len(edges)):
            z, w = edges[t]
            if z != x and z != y and w != x and w != y:
                cells2.append((s, t))
                c, e = images[t]
                red2.append(c != a and c != b and e != a and e != b)
    cells1 = []
    red1 = []
    for x in range(d.n):
        fx = phi.vertex_image[x]
        for t, (z, w) in enumerate(edges):
            if z != x and w != x:
                cells1.append((x, t))
                c, e = images[t]
                red1.append(c != fx and e != fx)
    return DeletedProduct(tuple(cells2), tuple(red2), tuple(cells1), tuple(red1))


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
    """The chord drawing of one or two maps into the target.

    Every strand (a nondegenerate domain edge of either side) runs through
    the strip of its image edge in its own lane; lanes never cross inside a
    strip, so all crossings happen inside vertex discs, between the chords
    joining strand ends to the star centres of their domain vertices.  In
    the disc of v the i-th port of `disc_ports` sits at boundary position
    2i + 1, and each star's centre at 2j, just before its first port j.  A
    star's chords then fan out over its own ports only, so two stars cross
    exactly when their ports alternate, as in the lift search.
    """

    def __init__(self, maps, lane_orders=None):
        self.maps = tuple(maps)
        # per side and domain edge: the strand's chord in each disc it enters
        self._chords: list[list[dict[int, tuple[int, int]]]] = [
            [{} for _ in m.domain.edges] for m in self.maps
        ]
        discs = disc_ports(self.maps[0].target, _lanes(self.maps, lane_orders))
        for v, ports in enumerate(discs):
            centres: dict[tuple[int, int], int] = {}  # (side, star)
            for i, (_a, (side, eid)) in enumerate(ports):
                m = self.maps[side]
                u, w = m.domain.edges[eid]
                x = u if m.vertex_image[u] == v else w
                centre = centres.setdefault((side, x), 2 * i)
                self._chords[side][eid][v] = (centre, 2 * i + 1)

    def crossing_parity(self, s1: tuple[int, int], s2: tuple[int, int]) -> int:
        """Mod-2 crossing count between two strands' full curves."""
        chords2 = self._chords[s2[0]][s2[1]]
        parity = 0
        for v, chord in self._chords[s1[0]][s1[1]].items():
            other = chords2.get(v)
            if other is not None and proper_crossing(*chord, *other):
                parity ^= 1
        return parity


def _evaluate(maps, pairs, lane_orders):
    """Crossing parities for the listed strand pairs.

    With no pairs nothing is drawn, but the drawing's input checks still run.
    """
    if not pairs:
        _lanes(maps, lane_orders)
        return []
    drawing = Drawing(maps, lane_orders)
    return [drawing.crossing_parity(a, b) for a, b in pairs]


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
    computed = _evaluate((phi,), pairs, lane_orders)
    values = []
    it = iter(computed)
    for red in complex_.red2:
        values.append(0 if red else next(it))
    return complex_, tuple(values)


# ---------------------------------------------------------------------------
# relative coboundary solve


def _relative_solve(equations, rhs, variables):
    """GF(2) solve of face sums = rhs over the non-red 1-cells.

    Each variable's column lists the equations whose faces contain it.  The
    equations are read in order and each lists distinct faces, so every
    column comes out increasing with no row twice.
    """
    var_index = {c: i for i, c in enumerate(variables)}
    columns: list[list[int]] = [[] for _ in variables]
    for r, faces in enumerate(equations):
        for f in faces:
            j = var_index.get(f)
            if j is not None:
                columns[j].append(r)
    return solve_or_certify(Columns(len(equations), columns), rhs)


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
        solving = tuple(c for c, bit in zip(variables, sol) if bit)
        return ObstructionReport(complex_, values, True, solving, None)
    certificate = tuple(c for c, bit in zip(eq_cells, cert) if bit)
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
    return cut_components(phi.domain, complex_, values)


def cut_components(d, complex_: DeletedProduct, values) -> tuple[int, ...]:
    """`path_cut_components` of a cochain already drawn on the path d's complex.

    The 1-cell (x, t) is numbered x * |E| + t.  On a path each 1-cell bounds
    at most two 2-cells, which are glued when it is not red.
    """
    width = len(d.edges)
    red1 = [True] * (d.n * width)
    for (x, t), red in zip(complex_.cells1, complex_.red1):
        red1[x * width + t] = red
    owners = [0] * len(red1)  # 2-cells bounded by each 1-cell
    first = [0] * len(red1)  # the first of them
    faces = []
    sets = UnionFind()
    for idx, cell in enumerate(complex_.cells2):
        four = tuple(x * width + t for x, t in _square_faces(d, cell))
        faces.append(four)
        for f in four:
            owners[f] += 1
            if owners[f] == 1:
                first[f] = idx
            elif not red1[f]:
                sets.union(first[f], idx)

    vector = []
    for members in sets.classes(range(len(faces))):
        qualified = True
        parity = 0
        for idx in members:
            parity ^= values[idx]
            for f in faces[idx]:
                if owners[f] == 1 and not red1[f]:
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
    phi_images = _image_ends(phi)
    psi_images = _image_ends(psi)
    cells2 = []
    red2 = []
    for i, ei in enumerate(phi_images):
        for j, ej in enumerate(psi_images):
            cells2.append((i, j))
            red2.append(_disjoint(ei, ej))
    pairs = [((0, i), (1, j)) for (i, j), red in zip(cells2, red2) if not red]
    computed = _evaluate((phi, psi), pairs, lane_orders)
    values = []
    it = iter(computed)
    for red in red2:
        values.append(0 if red else next(it))

    def red_ve(x: int, j: int) -> bool:
        return phi.vertex_image[x] not in psi_images[j]

    def red_ev(i: int, y: int) -> bool:
        return psi.vertex_image[y] not in phi_images[i]

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
