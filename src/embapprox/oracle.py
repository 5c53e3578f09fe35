"""Brute-force ground truth: search for an embedding-shaped lift.

Replace each target edge carrying m domain edges by m nested parallel
copies.  A lift assigns each domain edge its own copy; the lifted map is
injective along strips, so it can be perturbed to an embedding exactly when
no vertex disc forces a crossing.  In the disc of a target vertex, each
domain vertex over it is a star: a centre joined to the ports of its edges.
The centres are distinct points, so two stars cross exactly when their
ports alternate around the disc, whether or not their edges share a domain
vertex.  The disc is the one of `geometry`, which the mod-2 drawing of
`vankampen` shares: both take their port order from `disc_ports` and
their crossings from `proper_crossing`.  The search over all per-edge
copy assignments runs on `core.backtrack`; it is exhaustive and
therefore decides approximability outright, at factorial cost.  Its
outcome is kept in the target's `PlaneGraph.oracle_memo`, keyed by the
normalized map's domain edges and vertex image and the `prune` flag, so
each distinct normalized map into one target is searched once, whoever
asks: the corpus runner, `decide`'s flagged fallback or the oracle route
itself.  ``max_lifts`` counts complete lifts only; the partial
assignments the search extends and prunes on the way are not counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial

from .core import SimplicialMap, WalkArc, backtrack, normalize_nondegenerate
from .errors import OracleBudgetExceeded, PreconditionError
from .geometry import disc_ports, proper_crossing


@dataclass(frozen=True)
class Expansion:
    """The target with every edge split into one lane per domain strand.

    ``refined[v]`` lists the (edge, lane) ports around the disc of target
    vertex v in counterclockwise order, as `disc_ports` gives them.
    """

    phi: SimplicialMap
    strands: tuple[tuple[int, ...], ...]  # per target edge: domain edges onto it
    refined: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class Lift:
    """One copy assignment: ``by_edge[a][lane]`` is the domain edge riding it."""

    by_edge: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LiftCrossing:
    """Two stars' length-2 walks whose ports alternate around one disc."""

    disc: int
    arc_p: WalkArc
    arc_q: WalkArc
    positions: tuple[int, int, int, int]


@dataclass(frozen=True)
class OracleResult:
    approximable: bool
    lift: Lift | None
    lifts_examined: int
    total_lifts: int


def build_expansion(phi: SimplicialMap) -> Expansion:
    if not phi.is_nondegenerate():
        raise PreconditionError("map has degenerate edges; normalize first")
    g = phi.target
    strands: list[list[int]] = [[] for _ in g.edges]
    for eid, img in enumerate(phi.edge_image):
        strands[img].append(eid)
    refined = disc_ports(g, {a: range(len(s)) for a, s in enumerate(strands) if s})
    return Expansion(phi, tuple(tuple(s) for s in strands), refined)


def _branch_end(phi: SimplicialMap, eid: int, v: int) -> int:
    """The domain endpoint of edge eid mapping to target vertex v."""
    u, w = phi.domain.edges[eid]
    return u if phi.vertex_image[u] == v else w


def _arc(phi: SimplicialMap, x: int, e1: int, e2: int) -> WalkArc:
    d = phi.domain
    a, b = d.edges[e1]
    c, e = d.edges[e2]
    return WalkArc(
        vertices=(b if a == x else a, x, e if c == x else c),
        edges=(e1, e2),
        closed=False,
    )


def _disc_witness(phi: SimplicialMap, v: int, entries) -> LiftCrossing | None:
    """Least crossing among the occupied ports of one disc, if any.

    entries: (position, star center, domain edge) triples.
    """
    stars: dict[int, list[tuple[int, int]]] = {}
    for pos, x, eid in entries:
        stars.setdefault(x, []).append((pos, eid))
    best = None
    for x, y in combinations(sorted(stars), 2):
        if len(stars[x]) < 2 or len(stars[y]) < 2:
            continue
        for (pa, ea), (pb, eb) in combinations(sorted(stars[x]), 2):
            for (qa, ec), (qb, ed) in combinations(sorted(stars[y]), 2):
                if not proper_crossing(pa, pb, qa, qb):
                    continue
                key = tuple(sorted((pa, pb, qa, qb)))
                if best is None or key < best[0]:
                    best = (key, LiftCrossing(v, _arc(phi, x, ea, eb), _arc(phi, y, ec, ed), key))
    return None if best is None else best[1]


def lift_crossing_check(exp: Expansion, lift: Lift) -> LiftCrossing | None:
    """Full scan of every disc of the lifted drawing; least witness or None."""
    phi = exp.phi
    for v in range(phi.target.n):
        entries = []
        for pos, (a, lane) in enumerate(exp.refined[v]):
            eid = lift.by_edge[a][lane]
            entries.append((pos, _branch_end(phi, eid, v), eid))
        found = _disc_witness(phi, v, entries)
        if found is not None:
            return found
    return None


def _forces_crossing(stars: dict[int, list[int]], x: int, pos: int) -> bool:
    """Would a port of star x at pos split the placed ports of another star?

    The search keeps every disc free of alternation, so each other star's
    ports lie in one gap between consecutive ports of x.  The new port
    splits such a star exactly when the chord from it to any one placed port
    of x does: when strictly between none and all of the star's ports lie
    inside the chord.
    """
    own = stars.get(x)
    if not own:
        return False
    lo, hi = min(pos, own[0]), max(pos, own[0])
    for y, ports in stars.items():
        if y != x and len(ports) >= 2:
            inside = sum(lo < p < hi for p in ports)
            if 0 < inside < len(ports):
                return True
    return False


def oracle_result(
    phi: SimplicialMap,
    *,
    max_lifts: int | None = None,
    prune: bool = True,
) -> OracleResult:
    """Exhaustive decision with the first accepted lift in search order.

    Strands are placed in increasing domain edge id, which makes the
    accepted lift the lexicographically least one.  ``prune`` cuts a branch
    as soon as the placed ports already force a crossing; prunes never
    remove an acceptable completion, so the verdict and first accepted lift
    match the unpruned search.
    Each distinct normalized map into one target is searched once per
    ``prune`` flag, and the outcome is kept in the target's
    `PlaneGraph.oracle_memo`.  The search is deterministic, so a call that
    finds its search kept raises `OracleBudgetExceeded` exactly when that
    search examined more than ``max_lifts`` lifts, as a fresh search would;
    a search that runs out of budget keeps nothing.  A negative budget
    examines no lift, as 0 does.
    """
    if phi.domain.shape in ("path", "cycle"):
        phi = normalize_nondegenerate(phi)
    elif not phi.is_nondegenerate():
        raise PreconditionError(
            "general-shape maps must be nondegenerate for the oracle"
        )
    if max_lifts is not None:
        max_lifts = max(max_lifts, 0)
    memo = phi.target.oracle_memo
    key = (phi.domain.edges, phi.vertex_image, prune)
    known = memo.get(key)
    if known is None:
        known = memo[key] = _search(phi, max_lifts, prune)
    approximable, by_edge, examined, total = known
    if max_lifts is not None and examined > max_lifts:
        raise OracleBudgetExceeded(max_lifts)
    return OracleResult(approximable, None if by_edge is None else Lift(by_edge), examined, total)


def _search(phi: SimplicialMap, max_lifts: int | None, prune: bool) -> tuple:
    """The lift search of a normalized map: (approximable, lane rows or None, examined, total)."""
    exp = build_expansion(phi)
    g = phi.target
    edges = len(phi.domain.edges)
    total = 1
    for s in exp.strands:
        total *= factorial(len(s))

    # lane l of target edge a is the global slot base[a] + l; at[0][slot] and
    # at[1][slot] are its ports' positions in the discs of a's two ends
    base = [0]
    for s in exp.strands:
        base.append(base[-1] + len(s))
    at = ([-1] * edges, [-1] * edges)
    for v, row in enumerate(exp.refined):
        for i, (a, lane) in enumerate(row):
            at[v != g.edges[a][0]][base[a] + lane] = i
    slot_of = [-1] * edges
    rider = [-1] * edges  # per slot: the domain edge riding it
    discs: list[dict[int, list[int]]] = [{} for _ in range(g.n)]
    examined = 0

    def candidates(eid: int):
        """Free lanes for eid; each lane's two ports are placed while it is yielded."""
        a = phi.edge_image[eid]
        v, w = g.edges[a]
        x, y = _branch_end(phi, eid, v), _branch_end(phi, eid, w)
        stars_v, stars_w = discs[v], discs[w]
        own_v, own_w = stars_v.setdefault(x, []), stars_w.setdefault(y, [])
        for slot in range(base[a], base[a + 1]):
            if rider[slot] >= 0:
                continue
            p, q = at[0][slot], at[1][slot]
            if prune and (_forces_crossing(stars_v, x, p) or _forces_crossing(stars_w, y, q)):
                continue
            own_v.append(p)
            own_w.append(q)
            yield slot
            own_v.pop()
            own_w.pop()

    def complete() -> bool:
        nonlocal examined
        examined += 1
        if max_lifts is not None and examined > max_lifts:
            raise OracleBudgetExceeded(examined - 1)
        return prune or lift_crossing_check(exp, Lift(_lanes(base, rider))) is None

    # the search stays suspended at its first accepted lift, so rider holds it
    accepted = next(backtrack(range(edges), candidates, complete, slot_of, rider), None)
    if accepted is None:
        return (False, None, examined, total)
    return (True, _lanes(base, rider), examined, total)


def _lanes(base: list[int], rider: list[int]) -> tuple[tuple[int, ...], ...]:
    """The rows of `Lift.by_edge`: per target edge, the domain edges on its lanes."""
    return tuple(tuple(rider[lo:hi]) for lo, hi in zip(base, base[1:]))


def is_approximable_oracle(
    phi: SimplicialMap, *, max_lifts: int | None = None
) -> tuple[bool, Lift | None]:
    """Does some lift avoid all forced crossings?  (verdict, accepted lift)."""
    result = oracle_result(phi, max_lifts=max_lifts)
    return result.approximable, result.lift
