"""Deleted products and the mod-2 obstruction to pulling curves apart.

The deleted product of a domain keeps only pairs of disjoint simplices; a
pair is painted red when the images are disjoint too, since nothing can
force those curves to meet.  Drawing the map with chords in the vertex
discs of `geometry`, the discs the lift search reads too, gives a
crossing-parity cochain on the non-red pairs, and the map passes the
obstruction test when that cochain is a coboundary relative to the red
part.  That is a GF(2) system with one equation per non-red 2-cell and one
unknown per non-red 1-cell.

`ObstructionSystem` numbers the cells by ints: the 1-cell (x, t) is
x * |E| + t and the 2-cell (s, t), s < t, is s * |E| + t.  One pass over
the domain keeps only the non-red cells and appends each equation to the
columns of its faces' unknowns, which go to `gf2` as `gf2.Columns`.  Over a
path or cycle domain each 1-cell bounds at most two 2-cells, so `gf2`
solves the system by union-find and no matrix is ever allocated; only
degree-3 domains reach its elimination.  Over a path domain the same
columns regroup into per-component parities split along the red cells.
The tuple-celled `DeletedProduct` with its red cells, and the cochain on
all of them, are expanded from the same numbering only where a caller
reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DomainGraph, SimplicialMap, classes, computed_once, normalize_nondegenerate
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


@dataclass(frozen=True)
class ObstructionSystem:
    """The relative-coboundary system of one nondegenerate map, numbered by ints.

    `cells` lists the unknowns' (non-red) 1-cells and `rows` the equations'
    (non-red) 2-cells, both increasing; `columns[j]` lists the equations
    whose faces contain unknown j, increasing.  `rhs` holds each equation's
    crossing parity, None until the map is drawn.
    """

    domain: DomainGraph
    cells: list[int]
    rows: list[int]
    columns: list[list[int]]
    rhs: list[int] | None = None

    @computed_once
    def layout(self) -> tuple[tuple[tuple[int, int], ...], tuple[bool, ...]]:
        """Every 2-cell (s, t) in numbering order with its red flag, built once, no 1-cells."""
        edges = self.domain.edges
        width = len(edges)
        kept = set(self.rows)
        cells2 = tuple(
            (s, t)
            for s in range(width)
            for t in range(s + 1, width)
            if _disjoint(edges[s], edges[t])
        )
        return cells2, tuple(s * width + t not in kept for s, t in cells2)

    @computed_once
    def values(self) -> tuple[int, ...]:
        """The crossing parity of every 2-cell in `layout` order, red ones 0."""
        drawn = iter(self.rhs)
        return tuple(0 if red else next(drawn) for red in self.layout[1])

    def deleted_product(self) -> DeletedProduct:
        """All cells as tuples, in numbering order, red where the system keeps none."""
        edges = self.domain.edges
        width = len(edges)
        kept = set(self.cells)
        cells1 = [(x, t) for x in range(self.domain.n) for t, e in enumerate(edges) if x not in e]
        return DeletedProduct(
            *self.layout,
            tuple(cells1),
            tuple(x * width + t not in kept for x, t in cells1),
        )


def _number(phi: SimplicialMap) -> tuple[list[int], list[int], list[list[int]]]:
    """`ObstructionSystem`'s (cells, rows, columns), from non-red cells only.

    `var[x * |E| + t]` is the unknown of the 1-cell (x, t), or -1 when that
    cell is red or no cell (x on t).
    """
    if not phi.is_nondegenerate():
        raise PreconditionError("map has degenerate edges; normalize first")
    d = phi.domain
    edges = d.edges
    width = len(edges)
    target_edges = phi.target.edges
    over: list[list[int]] = [[] for _ in range(phi.target.n)]  # edges by image end
    masks = []  # each edge's image ends as a bit set
    for t, img in enumerate(phi.edge_image):
        c, e = target_edges[img]
        over[c].append(t)
        over[e].append(t)
        masks.append(1 << c | 1 << e)
    var = [-1] * (d.n * width)
    cells = []
    for x, fx in enumerate(phi.vertex_image):
        base = x * width
        for t in over[fx]:
            z, w = edges[t]
            if z != x and w != x:
                var[base + t] = len(cells)
                cells.append(base + t)
    columns: list[list[int]] = [[] for _ in cells]
    rows = []
    for s, (x, y) in enumerate(edges):
        ms = masks[s]
        xs, ys, ss = x * width, y * width, s * width
        for t in range(s + 1, width):
            if not ms & masks[t]:
                continue
            z, w = edges[t]
            if z == x or z == y or w == x or w == y:
                continue
            r = len(rows)
            rows.append(ss + t)
            # the faces (x, t), (y, t), (z, s) and (w, s), unknowns only
            j = var[xs + t]
            if j >= 0:
                columns[j].append(r)
            j = var[ys + t]
            if j >= 0:
                columns[j].append(r)
            j = var[z * width + s]
            if j >= 0:
                columns[j].append(r)
            j = var[w * width + s]
            if j >= 0:
                columns[j].append(r)
    return cells, rows, columns


def build_deleted_product(phi: SimplicialMap) -> DeletedProduct:
    """All disjoint simplex pairs of the domain with the red mask."""
    return ObstructionSystem(phi.domain, *_number(phi)).deleted_product()


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

    Strands are numbered side after side (side 0's domain edges, then side
    1's), and the pair of strands a < b is a * `strands` + b.  One sweep over
    each disc's chords XORs every crossing into its pair's slot, so `odd`
    holds the pairs whose curves cross an odd number of times.
    """

    def __init__(self, maps, lane_orders=None):
        self.maps = tuple(maps)
        sides = []  # per side: its first strand number, domain edges and vertex image
        total = 0
        for m in self.maps:
            sides.append((total, m.domain.edges, m.vertex_image))
            total += len(m.domain.edges)
        self.strands = total
        odd = self.odd = set()
        discs = disc_ports(self.maps[0].target, _lanes(self.maps, lane_orders))
        for v, ports in enumerate(discs):
            starts: dict[tuple[int, int], int] = {}  # (side, star): its first port
            first = []
            strand = []
            for i, (_a, (side, eid)) in enumerate(ports):
                off, edges, image = sides[side]
                u, w = edges[eid]
                first.append(starts.setdefault((side, u if image[u] == v else w), i))
                strand.append(off + eid)
            # the chord of port i runs from 2 * first[i] to 2i + 1, so a
            # chord i < j ends below chord j's centre unless first[j] <= i
            for j, fj in enumerate(first):
                if fj < j:
                    b = strand[j]
                    for i in range(fj, j):
                        if proper_crossing(2 * first[i], 2 * i + 1, 2 * fj, 2 * j + 1):
                            a = strand[i]
                            odd ^= {a * total + b if a < b else b * total + a}

    def parities(self, pairs) -> list[int]:
        """Mod-2 crossing count of each numbered strand pair's full curves."""
        odd = self.odd
        return [1 if pair in odd else 0 for pair in pairs]


def _parities(maps, pairs, lane_orders) -> list[int]:
    """Crossing parities for the numbered strand pairs.

    With no pairs nothing is drawn, but the drawing's input checks still run.
    """
    if not pairs:
        _lanes(maps, lane_orders)
        return []
    return Drawing(maps, lane_orders).parities(pairs)


def obstruction_system(phi: SimplicialMap, lane_orders=None) -> ObstructionSystem:
    """The system of a nondegenerate map with its crossing parities drawn.

    A single map's strand pair (s, t) is numbered s * |E| + t, like its
    2-cell, so the rows are the pairs to draw.  Red cells are never drawn:
    their curves live in disjoint neighborhoods by construction.
    """
    cells, rows, columns = _number(phi)
    return ObstructionSystem(phi.domain, cells, rows, columns, _parities((phi,), rows, lane_orders))


def intersection_cochain(phi: SimplicialMap, lane_orders=None):
    """(complex, parity per 2-cell) for the canonical drawing of one map."""
    system = obstruction_system(phi, lane_orders)
    return system.deleted_product(), system.values


# ---------------------------------------------------------------------------
# relative coboundary solve


@dataclass(frozen=True)
class ObstructionReport:
    system: ObstructionSystem
    vanishes: bool
    solving_cells: tuple[tuple[int, int], ...] | None
    certificate_cells: tuple[tuple[int, int], ...] | None

    @property
    def complex(self) -> DeletedProduct:
        return self.system.deleted_product()

    @property
    def values(self) -> tuple[int, ...]:
        return self.system.values


def obstruction_report(phi: SimplicialMap, lane_orders=None) -> ObstructionReport:
    phi = normalize_nondegenerate(phi)
    system = obstruction_system(phi, lane_orders)
    width = len(phi.domain.edges)
    sol, cert = solve_or_certify(Columns(len(system.rows), system.columns), system.rhs)
    if sol is not None:
        solving = tuple(divmod(system.cells[j], width) for j, bit in enumerate(sol) if bit)
        return ObstructionReport(system, True, solving, None)
    certificate = tuple(divmod(system.rows[r], width) for r, bit in enumerate(cert) if bit)
    return ObstructionReport(system, False, None, certificate)


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
    return cut_components(obstruction_system(phi, lane_orders))


def cut_components(system: ObstructionSystem) -> tuple[int, ...]:
    """`path_cut_components` of a path's already drawn system.

    On a path each 1-cell bounds at most two 2-cells.  Two equations that
    share an unknown are glued, and one that holds an unknown alone exposes
    it.  Every face of a red 2-cell is red, so each red 2-cell is a
    component of its own, of parity 0; components are listed in the order
    of their first 2-cells.  `core.classes` groups the rows, which are the
    kept 2-cells in layout order, and numbers the classes by their first
    rows, so exposure and parity are read per class.
    """
    columns = system.columns
    member, count = classes(len(system.rows), ((col[0], r) for col in columns for r in col[1:]))
    exposed = [False] * count
    for col in columns:
        if len(col) == 1:
            exposed[member[col[0]]] = True
    parity = [0] * count
    for r, bit in enumerate(system.rhs):
        parity[member[r]] ^= bit
    vector = []
    row = first = 0  # the next kept 2-cell's row, and the next class to meet its first row
    for red in system.layout[1]:
        if red:
            vector.append(0)
            continue
        if member[row] == first:
            if not exposed[first]:
                vector.append(parity[first])
            first += 1
        row += 1
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
    vertex x edge and edge x vertex cells, numbered x * |E(L)| + j and then
    |V(K)| * |E(L)| + i * |V(L)| + y.
    """
    if phi.target != psi.target:
        raise PreconditionError("maps must share one target")
    phi = normalize_nondegenerate(phi)
    psi = normalize_nondegenerate(psi)
    phi_images = _image_ends(phi)
    psi_images = _image_ends(psi)
    n_psi, e_phi, e_psi = psi.domain.n, len(phi_images), len(psi_images)
    ev = phi.domain.n * e_psi  # the first edge x vertex cell
    var = [-1] * (ev + e_phi * n_psi)
    nvars = 0
    for x, fx in enumerate(phi.vertex_image):
        for j, ends in enumerate(psi_images):
            if fx in ends:
                var[x * e_psi + j] = nvars
                nvars += 1
    for i, ends in enumerate(phi_images):
        for y, fy in enumerate(psi.vertex_image):
            if fy in ends:
                var[ev + i * n_psi + y] = nvars
                nvars += 1
    columns: list[list[int]] = [[] for _ in range(nvars)]
    strands = e_phi + e_psi
    red2 = []
    pairs = []  # strand pair of each non-red cell, as the drawing numbers it
    for i, (x, y) in enumerate(phi.domain.edges):
        for j, (z, w) in enumerate(psi.domain.edges):
            red = _disjoint(phi_images[i], psi_images[j])
            red2.append(red)
            if red:
                continue
            r = len(pairs)
            pairs.append(i * strands + e_phi + j)
            for f in (x * e_psi + j, y * e_psi + j, ev + i * n_psi + z, ev + i * n_psi + w):
                k = var[f]
                if k >= 0:
                    columns[k].append(r)
    rhs = _parities((phi, psi), pairs, lane_orders)
    drawn = iter(rhs)
    values = tuple(0 if red else next(drawn) for red in red2)
    sol, _cert = solve_or_certify(Columns(len(pairs), columns), rhs)
    cells2 = tuple((i, j) for i in range(e_phi) for j in range(e_psi))
    return PairReport(cells2, tuple(red2), values, sol is not None)
