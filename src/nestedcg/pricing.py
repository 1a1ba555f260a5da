"""Path pricers over bucket graphs.

The adaptive pricer runs a sandwich loop per call.  Representatives give
every bucket a cheapest-member subpath.  The fill that computes them runs
one depth-first search per block over all of its stale buckets, not one
per bucket; each completed subpath goes to the box that holds it, where
the first by (reduced cost, vector, node sequence) is kept, so the shared
search yields each bucket exactly the representative its own
box-restricted search would (see ``labeling.elementary_rcspp``).  A
layered search over buckets then prices whole paths twice:

* *optimistic*: buckets contribute their box lower corner.  Lower corners
  underestimate every member's contribution componentwise, predicates are
  downward closed, and representatives underestimate member reduced
  costs, so the value is a valid lower bound on the true minimum reduced
  cost -- at any refinement stage.
* *pessimistic*: buckets contribute their representative's true vector.
  Any result is an actual feasible path built from representatives, hence
  an upper bound, and a usable column when negative.

While the optimistic value is negative but no negative pessimistic path
exists, the buckets along the optimistic argmin path are split and the
loop repeats; the sandwich closes in finitely many steps.  With the
representative splitting strategy each split lands the representative on
its child's lower corner, pinning a previously unpinned contribution
vector, so a block never sees more splits than it has distinct feasible
contribution vectors.

The enumerative pricer is the benchmark: enumerate every subpath that
can lie on a feasible path per block once, as a dual-independent table
(``labeling.BlockView.table``; searched once per block, filtered per
block-local ban set), keep the per-block Pareto front under the current
duals, and run the same layered search over individual subpaths.  Its
bound is exact by construction.  Per call, the work is linear in the
table when the problem has at most one contribution coordinate (one
addition per subpath for its reduced cost, one pass for the front; see
:class:`ExactPricer`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import le

from .buckets import COMPUTED, EMPTY, FRESH, Partition, compute_representative
from .labeling import block_view, elementary_rcspp, label_search, through_values
from .model import ModelError, as_scaled, check_path_feasible


# path searches return at most this many columns per pricing call
COLUMNS_PER_CALL = 10


class PricingError(RuntimeError):
    """Internal invariant violated while pricing."""


@dataclass(frozen=True)
class PricingConfig:
    width: int | tuple = 250
    strategy: str = "representative"     # bucket splitting: representative | midpoint
    merge: bool = False
    reuse: bool = False
    until: str = "column"                # stop refining at first column, or "closure"


@dataclass
class PricingOutcome:
    columns: list                        # feasible Paths with negative reduced cost
    optimistic: Fraction | None          # lower bound on min reduced cost (millicost)
    pessimistic: Fraction | None         # best path reduced cost seen (millicost)
    infeasible: bool = False             # no feasible path exists under current bans
    stats: dict = field(default_factory=dict)


def _layers(items_per_block, vec_of, rcost_of, convexity):
    """One (item, scaled rcost, flat vector) list per block for the
    layered search; the first block carries the convexity dual."""
    layers = [
        [(item, rcost_of(item), vec_of(item)) for item in items]
        for items in items_per_block
    ]
    layers[0] = [(item, rc - convexity, vec) for item, rc, vec in layers[0]]
    return layers


def _assemble(problem, results, chain_of, denom, exclude):
    """(rcost, Path) for every negative-rcost search result, skipping node
    keys the caller already holds.  ``chain_of`` maps a result's items to
    its subpaths."""
    columns = []
    for res in results:
        if res.rcost >= 0:
            continue
        path = check_path_feasible(problem, chain_of(res.nodes))
        if path is None:
            raise PricingError("a priced path fails the path predicates")
        if path.node_key in exclude:
            continue
        columns.append((Fraction(res.rcost, denom), path))
    return columns


# ---------------------------------------------------------------------------
# adaptive bucket pricer
# ---------------------------------------------------------------------------


class AdaptivePricer:
    """Stateful bucket pricer; one instance per solve.

    The partition persists across calls.  Emptiness markings survive
    forever (bans only grow), representatives are recomputed per call --
    except on the reuse fast path, which re-prices the stored
    representative subpaths under the new duals and returns immediately
    when they already assemble into improving columns (the optimistic
    bound is suppressed then: stale representatives certify nothing).
    """

    def __init__(self, problem, config: PricingConfig | None = None):
        self.problem = problem
        self.config = config or PricingConfig()
        if self.config.strategy not in ("representative", "midpoint"):
            raise PricingError(f"unknown strategy {self.config.strategy!r}")
        self.rules = problem.aggs, problem.predicates, problem.monotone
        self._check_box()
        self.partition: Partition | None = None
        self.banned = frozenset()
        self.refines_per_block = [0] * len(problem.blocks)
        self.totals = {
            "rep_computations": 0,
            "fill_searches": 0,
            "fill_labels": 0,
            "refinements": 0,
            "merges": 0,
            "reuse_hits": 0,
            "optimistic_runs": 0,
            "pessimistic_runs": 0,
        }
        # wall time per phase, for reporting only
        self.timers = {"fill": 0.0, "pessimistic": 0.0, "optimistic": 0.0, "merge": 0.0}

    # -- helpers ------------------------------------------------------------

    def _ensure_partition(self, banned):
        if self.partition is None:
            self.partition = Partition.initial(self.problem, self.config.width)
        elif banned != self.banned:
            if not banned > self.banned:
                # emptiness markings are permanent only while bans grow
                raise PricingError(
                    "bans shrank: an adaptive pricer serves one solve, "
                    "whose bans only grow"
                )
            self.partition.invalidate(banned - self.banned)
        self.banned = banned

    def _check_box(self):
        """Raise a ModelError when a block reaches below the contribution
        box, or above it where a feasible path may hold the subpath: no
        bucket holds either, so the pricer would miss the paths through it.

        With every block at its least (``BlockView.min_achievable``) the
        predicates leave each block a ``top`` per coordinate
        (``NestedProblem.headroom``).  One dual-independent fill per
        (coordinate, box upper end, top) window with ``top`` above the end
        looks for a subpath above the end and at most at ``top``; the
        fill searches every subpath that can end in the window, so the
        answer is exact.
        Return the windows checked, per block.
        """
        problem = self.problem
        box = problem.contribution_box()
        mins = []       # inf for a block without subpaths
        for bi in range(len(problem.blocks)):
            view = block_view(problem, bi)
            mins.append([math.inf if low is None else low
                         for low in map(view.min_achievable, range(len(box)))])
            for c, ((lo, _), low) in enumerate(zip(box, mins[-1])):
                if low < lo:
                    raise ModelError(
                        f"block {bi} reaches {low} on contribution coordinate {c}, "
                        f"below the box's lower end {lo}"
                    )
        tops = problem.headroom(mins)
        if tops is None:
            return [()] * len(mins)     # no path can pass the predicates
        windows = []
        for bi, top in enumerate(tops):
            found = []
            for c, ((_, hi), most) in enumerate(zip(box, top)):
                if most > hi:
                    window = [(None, None)] * len(box)
                    window[c] = (hi + 1, None if most == math.inf else most)
                    hit = elementary_rcspp(problem, bi, boxes=[window])[0]
                    if hit is not None:
                        raise ModelError(
                            f"block {bi} reaches {hit[0].contributions[c]} on "
                            f"contribution coordinate {c}, above the box's upper "
                            f"end {hi}, where a feasible path may hold a subpath"
                        )
                    found.append((c, hi, most))
            windows.append(tuple(found))
        return windows

    def _compute_fresh(self, scaled, banned):
        """Fill every stale bucket with one label search per block."""
        for bi in range(len(self.problem.blocks)):
            fresh = [b for b in self.partition.buckets(bi) if b.status == FRESH]
            if fresh:
                compute_representative(self.problem, fresh, scaled, banned,
                                       tally=self.totals)
                self.totals["rep_computations"] += len(fresh)
                self.totals["fill_searches"] += 1

    def _live(self):
        """Non-empty buckets per block, or None when a block has none."""
        live = []
        for bi in range(len(self.problem.blocks)):
            bs = [b for b in self.partition.buckets(bi) if b.status == COMPUTED]
            if not bs:
                return None
            live.append(bs)
        return live

    def _pessimistic(self, live, rcost_of, scaled, exclude):
        """(results, columns) of the pessimistic search over the ``live``
        buckets at their representatives' vectors, priced by ``rcost_of``.
        A representative stays the same until its bucket refines, so
        without ``exclude`` the master would see the same column offered
        over and over."""
        tick = time.perf_counter()
        results = label_search(
            _layers(live, lambda b: b.rep.vector, rcost_of, scaled.convexity),
            *self.rules, top_k=COLUMNS_PER_CALL,
        )
        self.timers["pessimistic"] += time.perf_counter() - tick
        self.totals["pessimistic_runs"] += 1
        return results, _assemble(
            self.problem, results,
            lambda buckets: tuple(b.rep.subpath for b in buckets), scaled.denom,
            exclude,
        )

    # -- merge criterion ------------------------------------------------------

    def _merge_blocks(self, live, scaled):
        """One merge sweep per block.

        A pair may merge when no optimistic path through the merged bucket
        could be negative: the merged bucket inherits the lower box corner
        and the cheaper representative, so its best through-value equals
        the lower bucket's plus the representative discount.  Through-values
        are exact: the cheapest feasible optimistic path through each live
        bucket, an optimistic search with the bucket's block pinned to it
        (``labeling.through_values``).  Pairs of empty buckets merge
        unconditionally.
        """
        layers = _layers(live, lambda b: b.lo, lambda b: b.rep.rcost,
                         scaled.convexity)
        through = {
            bucket: value
            for layer, row in zip(layers, through_values(layers, *self.rules))
            for (bucket, _, _), value in zip(layer, row)
        }

        def can_merge(lower, upper):
            if lower.status == EMPTY or upper.status == EMPTY:
                keep = lower if lower.status == COMPUTED else upper
                return through.get(keep, math.inf) >= 0
            delta = upper.rep.rcost - lower.rep.rcost
            return through.get(lower, math.inf) + min(0, delta) >= 0

        return sum(
            self.partition.merge_pass(bi, can_merge)
            for bi in range(len(self.problem.blocks))
        )

    # -- main entry -----------------------------------------------------------

    def price(self, duals, banned=frozenset(), exclude=frozenset()) -> PricingOutcome:
        scaled = as_scaled(duals)
        denom = scaled.denom
        cfg = self.config
        banned = frozenset(banned)
        self._ensure_partition(banned)
        stats = {"refinements": 0, "merges": 0, "reuse_hit": False}

        if cfg.reuse:
            live = self._live()
            if live is not None:
                def stale_rc(bucket):
                    sp = bucket.rep.subpath
                    return sp.cost * denom - sum(scaled.value(k) for k in sp.nodes)

                _, columns = self._pessimistic(live, stale_rc, scaled, exclude)
                if columns:
                    self.totals["reuse_hits"] += 1
                    stats["reuse_hit"] = True
                    stats.update(self._snapshot())
                    return PricingOutcome(
                        columns=[p for _, p in columns],
                        optimistic=None,
                        pessimistic=min(rc for rc, _ in columns),
                        stats=stats,
                    )

        # representatives are per-duals quantities: everything computed on a
        # previous call is stale now (emptiness is not -- it never expires)
        for bucket in self.partition.all_buckets():
            if bucket.status == COMPUTED:
                bucket.status = FRESH

        outcome = None
        while outcome is None:
            tick = time.perf_counter()
            self._compute_fresh(scaled, banned)
            self.timers["fill"] += time.perf_counter() - tick
            live = self._live()
            if live is None:
                outcome = PricingOutcome([], None, None, infeasible=True, stats=stats)
                break

            tick = time.perf_counter()
            opt = label_search(
                _layers(live, lambda b: b.lo, lambda b: b.rep.rcost,
                        scaled.convexity),
                *self.rules,
            )
            self.timers["optimistic"] += time.perf_counter() - tick
            self.totals["optimistic_runs"] += 1
            if not opt:
                outcome = PricingOutcome(
                    [], None, None, infeasible=True, stats=stats
                )
                break
            opt_val = opt[0].rcost

            if opt_val >= 0 and cfg.until != "closure":
                # certificate: no path can price out
                outcome = PricingOutcome(
                    [], Fraction(opt_val, denom), None, stats=stats
                )
                break

            pes, columns = self._pessimistic(live, lambda b: b.rep.rcost, scaled,
                                             exclude)
            closed = bool(pes) and pes[0].rcost == opt_val
            if (columns and cfg.until == "column") or closed:
                outcome = PricingOutcome(
                    columns=[p for _, p in columns],
                    optimistic=Fraction(opt_val, denom),
                    pessimistic=(
                        Fraction(pes[0].rcost, denom)
                        if closed
                        else min((rc for rc, _ in columns), default=None)
                    ),
                    stats=stats,
                )
                break

            targets = [b for b in opt[0].nodes if not b.pinned]
            if not targets:
                raise PricingError(
                    "optimistic path fully pinned yet the sandwich is open"
                )
            for bucket in targets:
                self.partition.refine_bucket(bucket, cfg.strategy)
                self.refines_per_block[bucket.block] += 1
                self.totals["refinements"] += 1
                stats["refinements"] += 1

        if cfg.merge and not outcome.infeasible:
            live = self._live()
            if live is not None:
                tick = time.perf_counter()
                n = self._merge_blocks(live, scaled)
                self.timers["merge"] += time.perf_counter() - tick
                self.totals["merges"] += n
                stats["merges"] = n
        stats.update(self._snapshot())
        outcome.stats = stats
        return outcome

    def _snapshot(self):
        snap = dict(self.totals)
        for phase, secs in self.timers.items():
            snap[f"time_{phase}"] = secs
        if self.partition is not None:
            snap.update(self.partition.counts())
            snap["fill"] = self.partition.fill()
        return snap


# ---------------------------------------------------------------------------
# enumerative benchmark pricer
# ---------------------------------------------------------------------------


class ExactPricer:
    """Benchmark pricer: per-block enumeration of every subpath that can
    lie on a feasible path, per-call Pareto filter under the duals, then
    the same layered path search.  The bound it reports is the exact
    minimum reduced cost (swapping any subpath for one that dominates it
    keeps a path feasible and no dearer, so the Pareto front always
    contains an optimal path's subpaths).

    Each block's subpaths come from its dual-independent table
    (``labeling.BlockView.table``), already in (contribution vector,
    node sequence) order.  A subpath left out of it lies on no feasible
    path and dominates only subpaths that lie on none, so the front
    keeps every subpath a feasible path can use, in the same order.  A
    call only prices the table and keeps the front:

    * reduced costs take one addition per subpath.  Every prefix of a
      subpath is in the table, so a subpath's rcost is its prefix's plus
      the scaled cost of its last step less the dual of the element it
      reaches; those step values are listed once per call.
    * the front comes out in (rcost, vector, nodes) order.  Taken in that
      order, a subpath is dominated exactly when some earlier subpath has
      a componentwise smaller-or-equal vector: an earlier dominated one
      would have its own dominator earlier still.
    * with at most one coordinate, a subpath is kept when it is the first
      cheapest of its run of equal vectors and strictly cheaper than
      every smaller vector.  In table order those are the strict prefix
      minima of the rcosts that the next prefix minimum does not share a
      vector with: one pass, no sort.  The kept rcosts fall as the
      vectors rise, so the reversed list is in order.
    * with more, a stable sort by rcost alone gives (rcost, vector,
      nodes) order, and each subpath is tested against the kept ones.
    """

    def __init__(self, problem):
        self.problem = problem
        self.rules = problem.aggs, problem.predicates, problem.monotone
        self.totals = {"enumerated": 0, "kept": 0, "calls": 0}
        # wall time per phase, for reporting only
        self.timers = {"enumerate": 0.0, "front": 0.0, "search": 0.0}

    def price(self, duals, banned=frozenset(), exclude=frozenset()) -> PricingOutcome:
        scaled = as_scaled(duals)
        denom = scaled.denom
        self.totals["calls"] += 1

        kept = []                   # (rcost, vector, subpath), block after block
        items_per_block = []
        for bi in range(len(self.problem.blocks)):
            tick = time.perf_counter()
            view = block_view(self.problem, bi)
            table = view.table(banned)
            self.timers["enumerate"] += time.perf_counter() - tick
            if not table:
                return PricingOutcome([], None, None, infeasible=True,
                                      stats=self._snapshot())
            self.totals["enumerated"] += len(table)
            tick = time.perf_counter()
            front = _front(view, table, scaled)
            self.timers["front"] += time.perf_counter() - tick
            self.totals["kept"] += len(front)
            # items are indices into ``kept``: ints, so the search's
            # tie-break on item sequences stays well defined
            items_per_block.append(range(len(kept), len(kept) + len(front)))
            kept += front

        layers = _layers(items_per_block, lambda j: kept[j][1], lambda j: kept[j][0],
                         scaled.convexity)
        tick = time.perf_counter()
        results = label_search(layers, *self.rules, top_k=COLUMNS_PER_CALL)
        self.timers["search"] += time.perf_counter() - tick
        if not results:
            return PricingOutcome([], None, None, infeasible=True,
                                  stats=self._snapshot())

        best = Fraction(results[0].rcost, denom)
        columns = [path for _, path in _assemble(
            self.problem, results, lambda items: tuple(kept[j][2] for j in items),
            denom, exclude,
        )]
        return PricingOutcome(
            columns=columns,
            optimistic=best,
            pessimistic=best if columns else None,
            stats=self._snapshot(),
        )

    def _snapshot(self):
        snap = dict(self.totals)
        for phase, secs in self.timers.items():
            snap[f"time_{phase}"] = secs
        return snap


def _front(view, table, scaled):
    """The Pareto front of ``table``, a ``labeling.SubpathTable`` of block
    ``view``, under scaled duals, as (scaled rcost, vector, subpath)
    triples in (rcost, vector, nodes) order."""
    rcosts = view.reduced_costs(table, scaled)
    return [
        (rcosts[j], table.vectors[j], table.subpaths[j])
        for j in _pareto_keep(table.vectors, rcosts)
    ]


def _pareto_keep(vectors, rcosts):
    """Indices of the Pareto front of (rcost, vector) pairs listed in
    (vector, node sequence) order, in (rcost, vector, nodes) order; see
    :class:`ExactPricer`."""
    if not vectors:
        return []
    if len(vectors[0]) <= 1:
        lows = []                   # strict prefix minima of the rcosts
        floor = math.inf
        for j, rc in enumerate(rcosts):
            if rc < floor:
                lows.append(j)
                floor = rc
        out = [j for j, nxt in zip(lows, lows[1:]) if vectors[j] != vectors[nxt]]
        out.append(lows[-1])
        out.reverse()
        return out
    out = []
    skyline = []
    for j in sorted(range(len(rcosts)), key=rcosts.__getitem__):
        vec = vectors[j]
        if not any(all(map(le, v, vec)) for v in skyline):
            skyline.append(vec)
            out.append(j)
    return out
