"""Brute-force ground truth: search for an embedding-shaped lift.

Replace each target edge carrying m domain edges by m nested parallel
copies.  A lift assigns each domain edge its own copy; the lifted map is
injective along strips, so it can be perturbed to an embedding exactly when
no vertex disc forces a crossing.  In the disc of a target vertex, each
domain vertex over it is a star: a centre joined to the ports of its edges.
The centres are distinct points, so two stars cross exactly when their
ports alternate around the disc, whether or not their edges share a domain
vertex.  The disc is the one of `geometry`, which the mod-2 drawing of
`vankampen` shares: both take their port order from `disc_ports`.  The
search over all per-edge copy assignments runs on `core.backtrack`; it
cuts a branch as soon as its placed ports alternate, so every complete
lift it reaches is accepted.  It is exhaustive and therefore decides
approximability outright, at factorial cost.  Its outcome is kept by
`core.verdict_once` under the route "oracle", so each distinct normalized
map into one target is searched once, whoever asks: the corpus runner,
`decide`'s flagged fallback or the oracle route itself.  ``max_lifts``
counts complete lifts only; the partial assignments the search extends
and cuts on the way are not counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .core import SimplicialMap, backtrack, verdict_once
from .errors import OracleBudgetExceeded, PreconditionError
from .geometry import disc_ports


@dataclass(frozen=True)
class Lift:
    """One copy assignment: ``by_edge[a][lane]`` is the domain edge riding it."""

    by_edge: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class OracleResult:
    approximable: bool
    lift: Lift | None
    lifts_examined: int
    total_lifts: int


def _branch_end(phi: SimplicialMap, eid: int, v: int) -> int:
    """The domain endpoint of edge eid mapping to target vertex v."""
    u, w = phi.domain.edges[eid]
    return u if phi.vertex_image[u] == v else w


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


def oracle_result(phi: SimplicialMap, *, max_lifts: int | None = None) -> OracleResult:
    """Exhaustive decision with the first accepted lift in search order.

    Strands are placed in increasing domain edge id, which makes the
    accepted lift the lexicographically least one.  A branch is cut as soon
    as the placed ports already force a crossing; cuts never remove an
    acceptable completion, and a complete lift that is reached crosses
    nowhere, so the search stops at the first one: ``lifts_examined`` is 1
    on an approximable map and 0 on any other.
    Each distinct normalized map into one target is searched once
    (`core.verdict_once`).  The search is deterministic, so a call that
    finds its search kept raises `OracleBudgetExceeded` exactly when that
    search examined more than ``max_lifts`` lifts, as a fresh search
    would; a search that runs out of budget keeps nothing.  A negative
    budget examines no lift, as 0 does.
    """
    if phi.domain.shape == "general" and not phi.is_nondegenerate():
        raise PreconditionError(
            "general-shape maps must be nondegenerate for the oracle"
        )
    if max_lifts is not None:
        max_lifts = max(max_lifts, 0)
    approximable, by_edge, examined, total = verdict_once("oracle", phi, _search, max_lifts)
    if max_lifts is not None and examined > max_lifts:
        raise OracleBudgetExceeded(max_lifts)
    return OracleResult(approximable, None if by_edge is None else Lift(by_edge), examined, total)


def _search(phi: SimplicialMap, max_lifts: int | None) -> tuple:
    """The lift search of a normalized map: (approximable, lane rows or None, examined, total)."""
    g = phi.target
    edges = len(phi.domain.edges)
    strands: list[list[int]] = [[] for _ in g.edges]  # per target edge: domain edges onto it
    for eid, a in enumerate(phi.edge_image):
        strands[a].append(eid)
    # lane l of target edge a is the global slot base[a] + l; at[0][slot] and
    # at[1][slot] are its ports' positions in the discs of a's two ends
    total = 1
    base = [0]
    for s in strands:
        total *= factorial(len(s))
        base.append(base[-1] + len(s))
    at = ([-1] * edges, [-1] * edges)
    ports = disc_ports(g, {a: range(len(s)) for a, s in enumerate(strands) if s})
    for v, row in enumerate(ports):
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
            if _forces_crossing(stars_v, x, p) or _forces_crossing(stars_w, y, q):
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
        return True

    # the search stays suspended at its first accepted lift, so rider holds it
    accepted = next(backtrack(range(edges), candidates, complete, slot_of, rider), None)
    if accepted is None:
        return (False, None, examined, total)
    return (True, _lanes(base, rider), examined, total)


def _lanes(base: list[int], rider: list[int]) -> tuple[tuple[int, ...], ...]:
    """The rows of `Lift.by_edge`: per target edge, the domain edges on its lanes."""
    return tuple(tuple(rider[lo:hi]) for lo, hi in zip(base, base[1:]))
