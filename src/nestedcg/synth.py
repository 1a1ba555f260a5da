"""Synthetic problem generators and brute-force oracles.

The generators produce two families of small nested instances:

* a *span* family: scenarios of timetabled tasks, duties chained inside a
  scenario, and a two-dimensional path resource holding (latest end,
  negated earliest start) aggregated with componentwise max, so the
  linear predicate (1, 1) . v <= L caps the overall time span of a
  template that picks one duty per scenario.
* a *chain* family: small random block digraphs with a scalar
  sum-aggregated weight resource, handy for shaking out pricing logic on
  one-dimensional partitions.

Both calibrate their path cap from one enumeration of each block
(:func:`enumerate_block_subpaths` on a probe problem whose cap binds
nothing), and the *tiny* corpus builder checks its subpath counts on
those same lists: block enumeration reads no path resource, so the
probe's lists are the final problem's.

The oracles enumerate -- no dominance, no buckets, no column generation --
and exist solely to check the clever code paths: two independent
minimum-reduced-cost enumerators, a full-enumeration LP oracle backed by
scipy's HiGHS, and an integer-programming oracle for gap measurements.
Those two import numpy and scipy when called, so the solver itself runs
without either.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .model import (
    COVER,
    MAX,
    MILLI,
    PARTITION,
    SUM,
    Arc,
    Block,
    Boundary,
    Duals,
    ModelError,
    NestedProblem,
    Path,
    PathResource,
    Subpath,
    SubpathResource,
    _is_int,
)


class OracleGuard(RuntimeError):
    """Raised when an enumeration oracle would exceed its size guard."""


# ---------------------------------------------------------------------------
# brute-force enumeration
# ---------------------------------------------------------------------------


def enumerate_block_subpaths(problem, block_index, banned=frozenset(), max_subpaths=200_000):
    """Every feasible elementary subpath of one block, by exhaustive DFS.

    Deliberately dominance-free: this is the reference the labeling and
    bucket machinery is validated against (``labeling.BlockView.table``
    lists only each block's subpaths that no subpath with the same
    elements dominates),
    and the independent statement of window semantics
    (``labeling.elementary_rcspp`` implements them for the solver).
    Contributions are flat vectors in the concatenated coordinate space.
    """
    block = problem.blocks[block_index]
    subs = problem.block_subs[block_index]
    resources = [problem.subpath_resources[ri] for ri in subs]
    n_coords = problem.total_coords

    def pad(deltas):
        if len(deltas) == len(subs):
            return deltas
        return deltas + (0,) * (len(subs) - len(deltas))

    def flat(item):
        if not item.path_deltas:
            return (0,) * n_coords
        out = []
        for vec in item.path_deltas:
            out.extend(vec)
        return tuple(out)

    def step(values, deltas, node):
        out = []
        for res, val, d in zip(resources, values, pad(deltas)):
            val = val + d
            lo, hi = res.window(node)
            if res.floor_at_lower and lo is not None and val < lo:
                val = lo
            if lo is not None and val < lo:
                return None
            if hi is not None and val > hi:
                return None
            out.append(val)
        return tuple(out)

    adjacency = {}
    for (u, v), arc in sorted(block.arcs.items()):
        adjacency.setdefault(u, []).append((v, arc))

    found = []

    def emit(seq, cost, contribs):
        exit_ = block.exit_at(seq[-1])
        total = cost + exit_.cost
        final = tuple(c + d for c, d in zip(contribs, flat(exit_)))
        found.append((tuple(seq), total, final))
        if len(found) > max_subpaths:
            raise OracleGuard(
                f"block {block_index} exceeds {max_subpaths} feasible subpaths"
            )

    def extend(seq, visited, values, cost, contribs):
        emit(seq, cost, contribs)
        for v, arc in adjacency.get(seq[-1], ()):
            if v in visited or v in banned:
                continue
            nxt = step(values, arc.sub_deltas, v)
            if nxt is None:
                continue
            seq.append(v)
            visited.add(v)
            extend(seq, visited, nxt,
                   cost + arc.cost,
                   tuple(c + d for c, d in zip(contribs, flat(arc))))
            visited.remove(v)
            seq.pop()

    for start in block.elements:
        if start in banned:
            continue
        entry = block.entry_at(start)
        values = step((0,) * len(subs), entry.sub_deltas, start)
        if values is None:
            continue
        extend([start], {start}, values, entry.cost, flat(entry))

    return [
        Subpath(block_index, seq, cost, contribs)
        for seq, cost, contribs in sorted(found, key=lambda f: f[0])
    ]


def _aggregate(problem, vectors):
    """Fold per-block flat contribution tuples, resource by resource."""
    agg = list(vectors[0])
    for vec in vectors[1:]:
        for r, off in zip(problem.path_resources, problem.coord_offset):
            for c in range(off, off + r.dim):
                if r.agg == SUM:
                    agg[c] += vec[c]
                else:
                    agg[c] = max(agg[c], vec[c])
    return tuple(agg)


def _admits(problem, agg):
    for r, off in zip(problem.path_resources, problem.coord_offset):
        if sum(w * agg[off + i] for i, w in enumerate(r.a)) > r.b:
            return False
    return True


def _crossable(per_block, guard) -> bool:
    """Whether every block has a subpath in ``per_block``; OracleGuard
    when their cross product exceeds ``guard``."""
    if any(not subs for subs in per_block):
        return False
    if math.prod(map(len, per_block)) > guard:
        raise OracleGuard("path cross product exceeds the oracle guard")
    return True


def oracle_min_rcost(problem, duals: Duals, banned=frozenset(), guard=1_000_000):
    """Exact minimum reduced cost over all feasible paths, by cross product.

    Returns (min_rcost, node_key) or None when no feasible path exists.
    Reduced cost = path cost - covered-element duals - convexity dual.
    """
    per_block = [
        enumerate_block_subpaths(problem, bi, banned)
        for bi in range(len(problem.blocks))
    ]
    if not _crossable(per_block, guard):
        return None

    priced = [
        [
            (sp.cost - sum(map(duals.value, sp.nodes)), sp.contributions, sp.nodes)
            for sp in subs
        ]
        for subs in per_block
    ]
    best = None
    for combo in itertools.product(*priced):
        agg = _aggregate(problem, [c[1] for c in combo])
        if not _admits(problem, agg):
            continue
        rcost = sum(c[0] for c in combo) - duals.convexity
        key = tuple(c[2] for c in combo)
        if best is None or (rcost, key) < best:
            best = (rcost, key)
    return best


def oracle_min_rcost_recursive(problem, duals: Duals, banned=frozenset(), guard=1_000_000):
    """Second, structurally different enumerator: depth-first over blocks,
    carrying the running aggregate.  Used to cross-check the first."""
    per_block = [
        enumerate_block_subpaths(problem, bi, banned)
        for bi in range(len(problem.blocks))
    ]
    if not _crossable(per_block, guard):
        return None

    n = len(per_block)
    best = [None]

    def descend(bi, agg, rcost, key):
        if bi == n:
            if _admits(problem, agg):
                entry = (rcost - duals.convexity, key)
                if best[0] is None or entry < best[0]:
                    best[0] = entry
            return
        for sp in per_block[bi]:
            flat = sp.contributions
            if agg is None:
                nxt = flat
            else:
                nxt = list(agg)
                for r, off in zip(problem.path_resources, problem.coord_offset):
                    for c in range(off, off + r.dim):
                        if r.agg == SUM:
                            nxt[c] += flat[c]
                        else:
                            nxt[c] = max(nxt[c], flat[c])
                nxt = tuple(nxt)
            descend(
                bi + 1,
                nxt,
                rcost + sp.cost - sum(duals.value(k) for k in sp.nodes),
                key + (sp.nodes,),
            )

    descend(0, None, 0, ())
    return best[0]


def enumerate_paths(problem, banned=frozenset(), guard=1_000_000):
    """All feasible paths as model.Path objects (guarded cross product)."""
    return _paths(problem, [
        enumerate_block_subpaths(problem, bi, banned)
        for bi in range(len(problem.blocks))
    ], guard)


def _paths(problem, per_block, guard):
    """The feasible paths over per-block subpath lists ``per_block``."""
    if not _crossable(per_block, guard):
        return []
    paths = []
    for combo in itertools.product(*per_block):
        agg = _aggregate(problem, [sp.contributions for sp in combo])
        if _admits(problem, agg):
            paths.append(Path(combo, sum(sp.cost for sp in combo), agg))
    return paths


# ---------------------------------------------------------------------------
# LP / IP oracles (scipy HiGHS on the full column set)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LpOutcome:
    status: str            # "optimal" | "infeasible"
    value: float | None    # millicost units
    n_columns: int = 0


def _column_matrix(problem, paths):
    import numpy as np
    from scipy import sparse

    elements = list(problem.elements)
    row_of = {k: i for i, k in enumerate(elements)}
    rows, cols = [], []
    for j, path in enumerate(paths):
        for k in path.covered:
            rows.append(row_of[k])
            cols.append(j)
    data = np.ones(len(rows))
    mat = sparse.csr_matrix(
        (data, (rows, cols)), shape=(len(elements), len(paths))
    )
    return mat


def oracle_lp(problem, banned=frozenset(), guard=1_000_000) -> LpOutcome:
    """LP relaxation value over the *full* path set -- the reference the
    column-generation loop must reproduce."""
    import numpy as np
    from scipy import optimize, sparse

    paths = enumerate_paths(problem, banned, guard)
    if not paths:
        return LpOutcome("infeasible", None, 0)
    cost = np.array([float(p.cost) for p in paths])
    cover = _column_matrix(problem, paths)
    kwargs = {}
    if problem.sense == PARTITION:
        a_eq = [cover]
        b_eq = [np.ones(cover.shape[0])]
        if problem.cardinality is not None:
            a_eq.append(sparse.csr_matrix(np.ones((1, len(paths)))))
            b_eq.append(np.array([float(problem.cardinality)]))
        kwargs["A_eq"] = sparse.vstack(a_eq)
        kwargs["b_eq"] = np.concatenate(b_eq)
    else:
        kwargs["A_ub"] = -cover
        kwargs["b_ub"] = -np.ones(cover.shape[0])
        if problem.cardinality is not None:
            kwargs["A_eq"] = sparse.csr_matrix(np.ones((1, len(paths))))
            kwargs["b_eq"] = np.array([float(problem.cardinality)])
    res = optimize.linprog(cost, bounds=(0, None), method="highs", **kwargs)
    if res.status == 2:
        return LpOutcome("infeasible", None, len(paths))
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return LpOutcome("optimal", float(res.fun), len(paths))


def oracle_ip(problem, banned=frozenset(), guard=1_000_000) -> LpOutcome:
    """Integer optimum over the full path set (HiGHS MILP)."""
    import numpy as np
    from scipy import optimize, sparse

    paths = enumerate_paths(problem, banned, guard)
    if not paths:
        return LpOutcome("infeasible", None, 0)
    cost = np.array([float(p.cost) for p in paths])
    cover = _column_matrix(problem, paths)
    constraints = []
    if problem.sense == PARTITION:
        constraints.append(
            optimize.LinearConstraint(cover, lb=1.0, ub=1.0)
        )
    else:
        constraints.append(
            optimize.LinearConstraint(cover, lb=1.0, ub=np.inf)
        )
    if problem.cardinality is not None:
        ones = sparse.csr_matrix(np.ones((1, len(paths))))
        constraints.append(
            optimize.LinearConstraint(ones, lb=problem.cardinality, ub=problem.cardinality)
        )
    res = optimize.milp(
        cost,
        constraints=constraints,
        integrality=np.ones(len(paths)),
        bounds=optimize.Bounds(0, 1),
    )
    if res.status == 2:
        return LpOutcome("infeasible", None, len(paths))
    if not res.success:
        raise RuntimeError(f"IP oracle failed: {res.message}")
    return LpOutcome("optimal", float(res.fun), len(paths))


# ---------------------------------------------------------------------------
# span family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpanInstance:
    """Timetabled tasks per scenario; a template picks one duty (task
    chain) per scenario and its overall span is capped."""

    scenarios: tuple            # tuple of tuples of (start, end) pairs
    min_connect: int
    duty_cap: int               # max elapsed time of a single duty
    span_cap: int               # L: latest end - earliest start over the template
    base_cost: int = 30 * MILLI
    time_rate: int = MILLI      # millicost per unit of paid (elapsed) time
    name: str = "span"

    @property
    def horizon(self) -> int:
        return max(e for sc in self.scenarios for (_, e) in sc)


def build_span_problem(instance: SpanInstance) -> NestedProblem:
    """Encode a span instance as a nested problem.

    Contributions are (latest end, negated earliest start) aggregated with
    componentwise max; (1, 1) . v is then exactly the template span.  Duty
    cost is base_cost plus time_rate per unit of elapsed time including
    idle gaps, accumulated with the same trajectory as the elapsed-time
    window resource.
    """
    horizon = instance.horizon
    blocks = []
    windows = []
    next_id = 0
    for tasks in instance.scenarios:
        ids = tuple(range(next_id, next_id + len(tasks)))
        next_id += len(tasks)
        arcs = {}
        entry = {}
        for (v, (s, e)) in zip(ids, tasks):
            entry[v] = Boundary(
                cost=instance.base_cost + instance.time_rate * (e - s),
                sub_deltas=(e - s,),
                path_deltas=((e, -s),),
            )
        for (u, (su, eu)) in zip(ids, tasks):
            for (v, (sv, ev)) in zip(ids, tasks):
                if u == v:
                    continue
                if sv >= eu + instance.min_connect:
                    arcs[(u, v)] = Arc(
                        cost=instance.time_rate * (ev - eu),
                        sub_deltas=(ev - eu,),
                        path_deltas=((ev - eu, 0),),
                    )
        blocks.append(Block(ids, arcs, entry, {}))
        windows.append(ids)

    sub_resources = [
        SubpathResource(
            block=bi,
            windows={v: (None, instance.duty_cap) for v in ids},
        )
        for bi, ids in enumerate(windows)
    ]
    path_resource = PathResource(
        dim=2,
        agg=MAX,
        a=(1, 1),
        b=instance.span_cap,
        box=((0, horizon), (-horizon, 0)),
    )
    return NestedProblem(
        blocks=blocks,
        subpath_resources=sub_resources,
        path_resources=[path_resource],
        sense=COVER,
        name=instance.name,
    )


def _pareto_min(states):
    """Keep componentwise-minimal vectors (smaller is better everywhere)."""
    states = sorted(set(states))
    kept = []
    for s in states:
        if not any(all(x <= y for x, y in zip(t, s)) for t in kept):
            kept = [t for t in kept if not all(x <= y for x, y in zip(s, t))]
            kept.append(s)
    return kept


def _through_spans(duty_lists, scenario):
    """Per distinct duty vector d of ``scenario``, its through-span: the
    exact minimum template span over the combos that pick d there.

    duty_lists: per scenario, the list of (end, -start) duty vectors.
    The other scenarios fold once into o, the Pareto set of their
    componentwise maxima, and d's through-span is the least
    ``sum(max(d, o))``: ``max(d, .)`` and ``sum`` are monotone, so a
    dominated o never gives the least.  With no other scenario it is
    ``sum(d)``."""
    others = None
    for si, duties in enumerate(duty_lists):
        if si != scenario:
            others = _pareto_min(duties if others is None else [
                tuple(map(max, o, d)) for o in others for d in duties])
    if others is None:
        return {d: sum(d) for d in duty_lists[scenario]}
    return {d: min(sum(map(max, d, o)) for o in others)
            for d in set(duty_lists[scenario])}


def random_span_instance(seed, n_scenarios=None, tasks_range=(4, 10)) -> SpanInstance:
    """Seeded random span instance with the span cap calibrated so a
    moderate share of duty combinations is feasible yet every task stays
    coverable by at least one feasible template.

    The cap is a quantile of the spans of every duty combination, or of
    20,000 sampled ones, raised so that each task has a duty through it
    whose through-span (:func:`_through_spans`), the least span of a
    template that picks that duty, fits.  Each scenario's duties are
    enumerated once, and the calibration reads only those lists.

    ``n_scenarios`` (drawn from 2..3 when None) must be at least 1 and
    ``tasks_range`` a pair of integers 1 <= lo <= hi, or a ModelError
    names the parameter."""
    return _span_instance(seed, n_scenarios, tasks_range)[0]


def _span_instance(seed, n_scenarios, tasks_range):
    """:func:`random_span_instance` and, per scenario, its duties: the
    block subpaths it calibrates from, the same in every span cap."""
    if n_scenarios is not None and not (_is_int(n_scenarios) and n_scenarios >= 1):
        raise ModelError(f"n_scenarios must be an integer >= 1, got {n_scenarios!r}")
    try:
        lo, hi = tasks_range
    except (TypeError, ValueError):
        lo = hi = None
    if not (_is_int(lo) and _is_int(hi) and 1 <= lo <= hi):
        raise ModelError(
            f"tasks_range must be two integers 1 <= lo <= hi, got {tasks_range!r}")
    rng = random.Random(seed)
    if n_scenarios is None:
        n_scenarios = rng.randint(2, 3)
    horizon = 1440
    scenarios = []
    for _ in range(n_scenarios):
        n_tasks = rng.randint(lo, hi)
        tasks = []
        for _ in range(n_tasks):
            dur = 5 * rng.randint(6, 48)            # 30 .. 240 minutes
            start = 5 * rng.randint(0, (horizon - dur) // 5)
            tasks.append((start, start + dur))
        tasks.sort()
        scenarios.append(tuple(tasks))
    min_connect = 5 * rng.randint(2, 6)
    max_dur = max(e - s for sc in scenarios for (s, e) in sc)
    duty_cap = max(max_dur, 5 * rng.randint(60, 120))   # 300 .. 600 minutes

    probe = SpanInstance(
        scenarios=tuple(scenarios),
        min_connect=min_connect,
        duty_cap=duty_cap,
        span_cap=2 * horizon,
        name=f"span-{seed}",
    )
    problem = build_span_problem(probe)
    duties = [enumerate_block_subpaths(problem, bi) for bi in range(n_scenarios)]
    duty_lists = [[sp.contributions for sp in subs] for subs in duties]

    combos = itertools.product(*duty_lists)
    if math.prod(map(len, duty_lists)) > 20_000:
        sampler = random.Random(seed ^ 0x5EED)
        combos = (
            tuple(map(sampler.choice, duty_lists)) for _ in range(20_000)
        )
    spans = sorted(sum(map(max, zip(*combo))) for combo in combos)
    span_cap = None
    for quantile in (0.5, 0.35, 0.65, 0.2, 0.8):
        cap = spans[min(len(spans) - 1, int(quantile * len(spans)))]
        share = bisect.bisect_right(spans, cap) / len(spans)
        if 0.2 <= share <= 0.8:
            span_cap = cap
            break
    if span_cap is None:
        span_cap = spans[len(spans) // 2]

    # every task must appear in at least one feasible template
    for si, subs in enumerate(duties):
        through = _through_spans(duty_lists, si)
        need = {}               # task -> least through-span of a duty through it
        for sp in subs:
            span = through[sp.contributions]
            for v in sp.nodes:
                need[v] = min(need.get(v, span), span)
        span_cap = max(span_cap, max(need.values()))

    return SpanInstance(
        scenarios=tuple(scenarios),
        min_connect=min_connect,
        duty_cap=duty_cap,
        span_cap=span_cap,
        name=f"span-{seed}",
    ), duties


# ---------------------------------------------------------------------------
# chain family
# ---------------------------------------------------------------------------


def random_chain_instance(seed, n_blocks=None, elements_range=(2, 4)) -> NestedProblem:
    """Small random block digraphs with one scalar sum resource.

    Subpath length is limited by a stop-count window so tiny instances
    stay enumerable; the weight cap is calibrated like the span cap.
    """
    return _chain_instance(seed, n_blocks, elements_range)[0]


def _chain_instance(seed, n_blocks, elements_range):
    """:func:`random_chain_instance` and, per block, the subpaths it
    calibrates from, the same under every weight cap."""
    rng = random.Random(seed)
    if n_blocks is None:
        n_blocks = rng.randint(1, 3)
    max_stops = rng.randint(2, 3)

    blocks = []
    sub_resources = []
    next_id = 0
    for bi in range(n_blocks):
        n = rng.randint(*elements_range)
        ids = tuple(range(next_id, next_id + n))
        next_id += n
        entry = {
            v: Boundary(
                cost=MILLI * rng.randint(1, 30),
                sub_deltas=(1,),
                path_deltas=((rng.randint(0, 20),),),
            )
            for v in ids
        }
        exit_ = {
            v: Boundary(cost=MILLI * rng.randint(0, 10),
                        sub_deltas=(0,),
                        path_deltas=((rng.randint(0, 10),),))
            for v in ids
        }
        arcs = {}
        for u in ids:
            for v in ids:
                if u != v and rng.random() < 0.5:
                    arcs[(u, v)] = Arc(
                        cost=MILLI * rng.randint(1, 60),
                        sub_deltas=(1,),
                        path_deltas=((rng.randint(1, 40),),),
                    )
        blocks.append(Block(ids, arcs, entry, exit_))
        sub_resources.append(
            SubpathResource(block=bi, windows={v: (None, max_stops) for v in ids})
        )

    # provisional problem to measure achievable weights
    probe = NestedProblem(
        blocks=blocks,
        subpath_resources=sub_resources,
        path_resources=[
            PathResource(dim=1, agg=SUM, a=(1,), b=10**9, box=((0, 10**9),))
        ],
        sense=COVER,
        name=f"chain-{seed}",
    )
    per_block = [enumerate_block_subpaths(probe, bi) for bi in range(n_blocks)]
    weights_of = [[sp.contributions[0] for sp in subs] for subs in per_block]
    weights = sorted(
        sum(combo) for combo in itertools.product(*weights_of)
    )
    cap = weights[min(len(weights) - 1, int(0.6 * len(weights)))]
    # keep every element coverable: min total weight through each element
    for bi, subs in enumerate(per_block):
        others = sum(min(weights_of[bj]) for bj in range(n_blocks) if bj != bi)
        own = {}                # element -> least weight of a subpath through it
        for sp in subs:
            w = sp.contributions[0]
            for v in sp.nodes:
                own[v] = min(own.get(v, w), w)
        cap = max(cap, max(own.values()) + others)
    hi = max(weights[-1], cap)

    return NestedProblem(
        blocks=blocks,
        subpath_resources=sub_resources,
        path_resources=[
            PathResource(dim=1, agg=SUM, a=(1,), b=cap, box=((0, hi),))
        ],
        sense=COVER,
        name=f"chain-{seed}",
    ), per_block


def random_tiny_instance(seed, max_subpaths_per_block=8):
    """Corpus builder for pricing-exactness checks: at most 3 blocks, at
    most ``max_subpaths_per_block`` feasible subpaths per block, at least
    one feasible path.  Retries derived seeds until the shape fits, each
    block's subpaths being those its generator calibrated from (block
    enumeration reads no path resource).  ``max_subpaths_per_block``
    below 1 fails with a ModelError."""
    if not (_is_int(max_subpaths_per_block) and max_subpaths_per_block >= 1):
        raise ModelError(
            f"max_subpaths_per_block must be an integer >= 1, got {max_subpaths_per_block!r}")
    for attempt in range(200):
        s = seed * 1000 + attempt
        if s % 2 == 0:
            problem, per_block = _chain_instance(s, None, (2, 3))
        else:
            inst, per_block = _span_instance(s, None, (2, 4))
            problem = build_span_problem(inst)
        if any(not subs or len(subs) > max_subpaths_per_block for subs in per_block):
            continue
        if not _paths(problem, per_block, 1_000_000):
            continue
        return problem
    raise RuntimeError(f"no tiny instance found for seed {seed}")


def random_duals(problem, seed, allow_convexity=True) -> Duals:
    """Integer millicost duals sized so reduced costs land on both sides
    of zero reasonably often."""
    rng = random.Random(seed)
    costs = [
        problem.blocks[bi].entry_at(v).cost + MILLI
        for bi in range(len(problem.blocks))
        for v in problem.blocks[bi].elements
    ]
    scale = max(costs) if costs else MILLI
    lam = {
        k: rng.randint(-scale // 4, 2 * scale)
        for k in problem.elements
    }
    convexity = rng.randint(-scale, scale) if allow_convexity and rng.random() < 0.5 else 0
    return Duals(lam, convexity)
