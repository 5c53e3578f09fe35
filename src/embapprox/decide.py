"""Decision procedures for approximability by embeddings.

Paths and cycles are decided by iterating the derivative and checking each
stage for transversal self-intersections (cycles additionally for windings
of degree outside {-1, 0, 1}).  What a stage map concludes from there on is
kept in its target's `PlaneGraph.decide_memo`, keyed by the checks asked for
and the map's domain shape, domain edges and vertex image (names play no
part in a verdict), so a stage met again under one target, by the same map
or another, is decided once.  The memo grows with the distinct stages
decided into the target and lives as long as the target, like its
`crossing_memo`.  Degree-3 domains over a cycle combine the mod-2
obstruction with a winding-parity check on the last derivative.  A second,
independent route for paths uses the obstruction alone.  Both routes keep
the obstruction's verdict in the target's `PlaneGraph.obstruction_memo`,
keyed by the normalized map's domain edges and vertex image, so each
distinct normalized map into one target is drawn and solved once.  Every
verdict carries a trace of per-step events.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SimplicialMap, normalize_nondegenerate
from .derivative import (
    _target_is_circle,
    derive,
    iterate_derivative,
    winding_report,
)
from .errors import DerivePreconditionError, PreconditionError
from .iso import maps_isomorphic
from .oracle import is_approximable_oracle
from .transversal import find_crossing_pair
from .vankampen import obstruction_vanishes

EVENT_KINDS = frozenset(
    {
        "transversal-self-intersection",
        "forbidden-winding",
        "obstruction-nonzero",
        "empty-domain",
        "terminal-approximable",
        "clean-pass",
    }
)


@dataclass(frozen=True)
class Event:
    kind: str
    detail: object = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise PreconditionError(f"unknown event kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "forbidden-winding":
            return f"forbidden-winding({self.detail})"
        if self.detail is None:
            return self.kind
        return f"{self.kind}(..)"


@dataclass(frozen=True)
class Verdict:
    approximable: bool
    criterion: str
    trace: tuple[tuple[int, Event], ...]
    flagged_for_review: bool = False

    def decisive(self) -> tuple[int, Event] | None:
        """The single non-clean event of a negative verdict."""
        hits = [
            (i, e)
            for i, e in self.trace
            if e.kind in ("transversal-self-intersection", "forbidden-winding", "obstruction-nonzero")
        ]
        return hits[0] if hits else None


_CLEAN_PASS = Event("clean-pass")


def _escalate(cur: SimplicialMap, err) -> tuple:
    """Derive refused with a non-disjoint crossing: let the oracle decide.

    Returns the final events, placed relative to the refused stage's end,
    the verdict and the review flag.
    """
    ok, _ = is_approximable_oracle(cur)
    if ok:
        return (), True, True
    return ((-1, Event("transversal-self-intersection", err.witness)),), False, True


def _outcome(cur: SimplicialMap, budget: int, check_windings: bool, stabilize: bool, ran: list):
    """How the stages from the normalized map `cur` onward end.

    Returns (end, final, approximable, flagged): stages 0 .. end - 1 are
    clean passes, each followed by a derive, and `final` holds the events
    after them as (index - end, event).  Returns None when the budget runs
    out.  Every stage decided here, not found in a memo, is appended to
    `ran` as (memo, key).
    """
    for i in range(budget + 1):
        d = cur.domain
        memo = cur.target.decide_memo
        key = (check_windings, stabilize, d.shape, d.edges, cur.vertex_image)
        known = memo.get(key)
        # a known suffix fits when its last derive, at stage i + derives - 1, is below the budget
        if known is not None and i + known[0] <= budget:
            derives, final, approximable, flagged = known
            return i + derives, final, approximable, flagged
        ran.append((memo, key))
        if d.n == 0:
            return i, ((0, Event("empty-domain")),), True, False
        witness = find_crossing_pair(cur, disjoint_only=True)
        if witness is not None:
            return i, ((0, Event("transversal-self-intersection", witness)),), False, False
        if check_windings:
            for comp in winding_report(cur).components:
                if comp.is_winding and abs(comp.degree) >= 2:
                    return i, ((0, Event("forbidden-winding", comp.degree)),), False, False
        if i == budget:
            break
        try:
            step = derive(cur)
        except DerivePreconditionError as err:
            return (i + 1, *_escalate(cur, err))
        if step.terminal_approximable:
            return i + 1, ((0, Event("terminal-approximable")),), True, False
        if stabilize and step.map.domain.n > 0 and maps_isomorphic(cur, step.map):
            return i + 1, (), True, False
        cur = step.map
    return None


def _decide_by_iteration(
    phi: SimplicialMap, criterion: str, check_windings: bool, stabilize: bool
) -> Verdict:
    """Check every derivative stage, at most phi's vertex count of derives.

    What a stage map concludes from there on is kept in its target's
    `decide_memo`, so a stage met again under the same target, by this map
    or another, is not decided twice.  A suffix whose derives do not fit
    the remaining budget is run again, and one that ends because the budget
    ran out is not kept.
    """
    budget = phi.domain.n
    ran: list = []
    outcome = _outcome(normalize_nondegenerate(phi), budget, check_windings, stabilize, ran)
    if outcome is None:  # budget + 1 clean passes; not kept, since the budget cut it short
        end, final, approximable, flagged = budget + 1, (), True, False
    else:
        end, final, approximable, flagged = outcome
        for i, (memo, key) in enumerate(ran):
            memo[key] = (end - i, final, approximable, flagged)
    trace = [(i, _CLEAN_PASS) for i in range(end)]
    trace.extend((end + t, event) for t, event in final)
    return Verdict(approximable, criterion, tuple(trace), flagged)


def decide_path(phi: SimplicialMap, stabilize: bool = True) -> Verdict:
    """A path map embeds approximably iff every derivative stage is crossing-free.

    ``stabilize`` exits once a derivative repeats up to isomorphism; it is an
    optimization that never changes the verdict, only shortens the trace.
    """
    if phi.domain.shape != "path":
        raise PreconditionError("domain shape must be path")
    return _decide_by_iteration(phi, "path-derivatives", False, stabilize)


def decide_cycle(phi: SimplicialMap, stabilize: bool = True) -> Verdict:
    """A cycle map additionally fails on any winding of degree outside {-1,0,1}."""
    if phi.domain.shape != "cycle":
        raise PreconditionError("domain shape must be cycle")
    return _decide_by_iteration(phi, "cycle-derivatives", True, stabilize)


def _obstruction(phi: SimplicialMap) -> tuple:
    """`obstruction_vanishes(phi)`, decided once per distinct normalized map and target.

    The obstruction of a normalized map reads only its domain edges, its
    vertex image and the target, and its witness cells use domain ids, so
    a map that normalizes to a stored key takes the stored (vanishes,
    witness cells).
    """
    phi = normalize_nondegenerate(phi)
    memo = phi.target.obstruction_memo
    key = (phi.domain.edges, phi.vertex_image)
    known = memo.get(key)
    if known is None:
        known = memo[key] = obstruction_vanishes(phi)
    return known


def decide_path_via_vk(phi: SimplicialMap) -> Verdict:
    """Independent path route: approximable iff the obstruction vanishes."""
    if phi.domain.shape != "path":
        raise PreconditionError("domain shape must be path")
    vanishes, witness = _obstruction(phi)
    if vanishes:
        return Verdict(True, "path-van-kampen", ((0, Event("clean-pass")),))
    return Verdict(
        False, "path-van-kampen", ((0, Event("obstruction-nonzero", witness)),)
    )


def decide_deg3_to_circle(phi: SimplicialMap) -> Verdict:
    """Degree-<=3 domain into a cycle: obstruction plus last-stage winding parity.

    Not approximable exactly when the obstruction fails to vanish or the
    final derivative contains a winding of odd degree other than +-1.
    """
    d = phi.domain
    for v in range(d.n):
        if d.degree(v) > 3:
            raise PreconditionError(
                f"vertex {v} has degree {d.degree(v)} > 3"
            )
    if not _target_is_circle(phi.target):
        raise PreconditionError("target is not a cycle")
    if not phi.is_nondegenerate():
        raise PreconditionError("map must be nondegenerate")
    vanishes, witness = _obstruction(phi)
    if not vanishes:
        return Verdict(
            False,
            "degree-3-to-circle",
            ((0, Event("obstruction-nonzero", witness)),),
        )
    result = iterate_derivative(phi, max_steps=d.n)
    final = result.maps[-1]
    final_step = len(result.maps) - 1
    for comp in winding_report(final).components:
        if comp.is_winding and comp.degree % 2 != 0 and abs(comp.degree) >= 3:
            return Verdict(
                False,
                "degree-3-to-circle",
                ((final_step, Event("forbidden-winding", comp.degree)),),
            )
    return Verdict(True, "degree-3-to-circle", ((final_step, Event("clean-pass")),))
