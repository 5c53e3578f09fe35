"""Instance sets of the four benchmark workloads.

Every builder is deterministic in its seed and returns fresh objects, so
each timed pass can decide instances that no earlier pass has touched
(cached properties on maps and graphs start empty).  Corpus functions are
looked up on the module at call time, so the traced run sees these calls.
``tiny`` shrinks a workload for the self-test without changing which
routes and layers it reaches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from embapprox import SimplicialMap, corpus
from embapprox.catalog import TARGETS, cycle_domain, path_domain, small_targets, theta_target

PATH_ROUTES = ("decide_path", "decide_path_via_vk", "oracle_result")
CYCLE_ROUTES = ("decide_cycle", "oracle_result")
DEG3_ROUTES = ("decide_deg3_to_circle", "oracle_result")


@dataclass(frozen=True)
class Instance:
    """One input and the routes that decide it.

    ``expected`` is the verdict known by construction; when it is None the
    oracle's verdict on the same instance is the reference.
    """

    id: str
    phi: SimplicialMap
    routes: tuple[str, ...]
    expected: bool | None = None


def corpus_small(seed: int, tiny: bool) -> list[Instance]:
    """A stratified eighth of the exhaustive k <= 6 corpora of the six small targets.

    Strata are (shape, target, k), so every seed draws the same mix of sizes
    and the per-pass totals move little from seed to seed.
    """
    targets = tuple(small_targets())
    k_max = 4 if tiny else 6
    rng = random.Random(f"corpus-small/{seed}")
    out: list[Instance] = []
    for shape, routes in (("path", PATH_ROUTES), ("cycle", CYCLE_ROUTES)):
        strata: dict[str, list[Instance]] = {}
        for iid, phi in corpus.generate(corpus.CorpusSpec(shape, targets, k_max=k_max)):
            strata.setdefault(iid.rsplit("-", 1)[0], []).append(Instance(iid, phi, routes))
        for members in strata.values():
            out += rng.sample(members, max(1, round(len(members) / 8)))
    rng.shuffle(out)
    return out


FOLD_PERIOD = ("u", "a", "v", "b", "u", "b", "v", "a")


def fold_ladder(seed: int, tiny: bool) -> list[Instance]:
    """The theta fold path u a v b u b v a ... at several lengths.

    It only ever folds back along the outer cycle of theta, so it is
    approximable by construction.  The oracle follows only the short rungs.
    The ladder is fixed; the seed sets the order in which rungs are decided.
    """
    rungs = (6, 8, 12) if tiny else (8, 12, 16, 24, 32, 40)
    oracle_max = 8 if tiny else 16
    g = theta_target()
    index = {name: v for v, name in enumerate(g.vertex_names)}
    out = []
    for k in rungs:
        images = tuple(index[FOLD_PERIOD[i % len(FOLD_PERIOD)]] for i in range(k))
        routes = PATH_ROUTES if k <= oracle_max else PATH_ROUTES[:2]
        out.append(Instance(f"fold-k{k}", SimplicialMap(path_domain(k), g, images), routes, True))
    random.Random(f"fold-ladder/{seed}").shuffle(out)
    return out


def _random_walk(nbrs, k: int, closed: bool, rng: random.Random) -> tuple[int, ...]:
    """Consecutive images adjacent (never equal); a closed walk also closes up."""
    while True:
        walk = [rng.randrange(len(nbrs))]
        for _ in range(k - 1):
            walk.append(rng.choice(nbrs[walk[-1]]))
        if not closed or walk[0] in nbrs[walk[-1]]:
            return tuple(walk)


# The smallest known false negative of decide_path: it reports an
# interleaved crossing at h between arcs 0-2 and 3-7, but arc 3-7 only ends
# at h, twice.
W4_MIN_PATH = ("r1", "h", "r3", "h", "r2", "r3", "r4", "h")


def walks_deg3(seed: int, tiny: bool) -> list[Instance]:
    """Random nondegenerate path and closed walks into theta, W4 and ex33."""
    per_cell = 2 if tiny else 20
    k_lo, k_hi = (6, 8) if tiny else (12, 16)
    rng = random.Random(f"walks-deg3/{seed}")
    out = []
    for tname in ("theta", "W4", "ex33"):
        g = TARGETS[tname]()
        nbrs = [[g.other_end(e, v) for e in g.rotation[v]] for v in range(g.n)]
        for shape, routes in (("path", PATH_ROUTES), ("cycle", CYCLE_ROUTES)):
            for i in range(per_cell):
                k = rng.randint(k_lo, k_hi)
                images = _random_walk(nbrs, k, shape == "cycle", rng)
                domain = cycle_domain(k) if shape == "cycle" else path_domain(k)
                iid = f"walk-{tname}-{shape}-k{k}-{i:03d}"
                out.append(Instance(iid, SimplicialMap(domain, g, images), routes))
    w4 = TARGETS["W4"]()
    index = {name: v for v, name in enumerate(w4.vertex_names)}
    images = tuple(index[name] for name in W4_MIN_PATH)
    out.append(Instance("walk-W4-path-min", SimplicialMap(path_domain(len(images)), w4, images), PATH_ROUTES))
    rng.shuffle(out)
    return out


def deg3_circle(seed: int, tiny: bool) -> list[Instance]:
    """Seeded random degree-<=3 domains into C3, C4 and C5 (corpus ids kept)."""
    count, k_max = (10, 6) if tiny else (200, 12)
    spec = corpus.CorpusSpec("deg3", ("C3", "C4", "C5"), k_max=k_max, seed=seed, count=count)
    out = [Instance(iid, phi, DEG3_ROUTES) for iid, phi in corpus.generate(spec)]
    random.Random(f"deg3-circle/{seed}").shuffle(out)
    return out


BUILDERS = {
    "corpus-small": corpus_small,
    "fold-ladder": fold_ladder,
    "walks-deg3": walks_deg3,
    "deg3-circle": deg3_circle,
}
