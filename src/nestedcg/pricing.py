"""Path pricers over bucket graphs.

The adaptive pricer runs a sandwich loop per call.  Representatives give
every bucket a cheapest-member subpath.  The fill that computes them runs
one depth-first search per block over all of its stale buckets, not one
per bucket; each completed subpath goes to the box that holds it, where
the first by (reduced cost, vector, node sequence) is kept, so the shared
search yields each bucket exactly the representative its own
box-restricted search would (see ``labeling.elementary_rcspp``).  A fill
pays for its search and little else: each bucket packs its capped box on
its first fill and keeps it, each block's step weights are built once
per call and serve every round of its sandwich, and a representative
builds its ``Subpath`` only when a column, a merge or a reuse round reads
it.  A layered search over buckets then prices whole paths twice:

* *optimistic*: buckets contribute their box lower corner.  A block's
  buckets tile its reach (``labeling.BlockView.reach``), which holds
  every subpath a feasible path can use.  A representative is the
  cheapest member the block's headroom (``BlockView.headroom``) admits;
  a member above the headroom lies on no feasible path, so every
  feasible path takes only admitted members.  Lower corners
  underestimate every member's contribution componentwise, predicates
  are downward closed, and representatives underestimate admitted
  members' reduced costs, so the value is a valid lower bound on the
  true minimum reduced cost -- at any refinement stage -- and the
  pessimistic search loses no column.
* *pessimistic*: buckets contribute their representative's true vector.
  Any result is an actual feasible path built from representatives, hence
  an upper bound, and a usable column when negative.

While the two bounds differ, the buckets along the optimistic argmin
path are split and the loop repeats; the sandwich closes in finitely many
steps, and the closed value is the exact minimum reduced cost.  With the
representative splitting strategy each split lands the representative on
its child's lower corner, pinning a previously unpinned contribution
vector, so a block never sees more splits than it has distinct feasible
contribution vectors within its headroom.

The enumerative pricer is the benchmark: list once, as a
dual-independent table (``labeling.BlockView.table``), each block's
subpaths that no subpath with the same elements dominates, keep the
Pareto front of each block's rows that avoid the call's bans under its
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
from .labeling import block_view, label_search, through_values
from .model import ModelError, check_path_feasible


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


@dataclass
class PricingOutcome:
    columns: list                        # feasible Paths with negative reduced cost
    optimistic: Fraction | None          # min reduced cost (millicost), or None
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


def _assemble(problem, results, chain_of, exclude):
    """The Path of every negative-rcost search result, skipping node keys
    the caller already holds.  ``chain_of`` maps a result's items to its
    subpaths."""
    columns = []
    for res in results:
        if res.rcost >= 0:
            continue
        path = check_path_feasible(problem, chain_of(res.nodes))
        if path is None:
            raise PricingError("a priced path fails the path predicates")
        if path.node_key in exclude:
            continue
        columns.append(path)
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
            raise ModelError(
                f"unknown bucket splitting strategy {self.config.strategy!r}: "
                "expected 'representative' or 'midpoint'"
            )
        self.rules = problem.aggs, problem.predicates, problem.monotone
        self.partition: Partition | None = None
        self.banned = frozenset()
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

    def _compute_fresh(self, scaled, banned, weights):
        """Fill every stale bucket with one label search per block, block
        ``bi`` weighed by ``weights[bi]``, its ``step_weights`` of
        ``scaled``."""
        for bi in range(len(self.problem.blocks)):
            fresh = [b for b in self.partition.buckets(bi) if b.status == FRESH]
            if fresh:
                compute_representative(self.problem, fresh, scaled, weights[bi], banned,
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
            lambda buckets: tuple(b.rep.subpath for b in buckets), exclude,
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

    def price(self, scaled, banned=frozenset(), exclude=frozenset()) -> PricingOutcome:
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
                    return PricingOutcome(columns, None, stats=stats)

        # representatives are per-duals quantities: everything computed on a
        # previous call is stale now (emptiness is not -- it never expires)
        for bucket in self.partition.all_buckets():
            if bucket.status == COMPUTED:
                bucket.status = FRESH

        # every fill of this call weighs its block's steps alike
        tick = time.perf_counter()
        weights = [block_view(self.problem, bi).step_weights(scaled)
                   for bi in range(len(self.problem.blocks))]
        self.timers["fill"] += time.perf_counter() - tick
        while True:
            tick = time.perf_counter()
            self._compute_fresh(scaled, banned, weights)
            self.timers["fill"] += time.perf_counter() - tick
            live = self._live()
            opt = None
            if live is not None:
                tick = time.perf_counter()
                opt = label_search(
                    _layers(live, lambda b: b.lo, lambda b: b.rep.rcost,
                            scaled.convexity),
                    *self.rules,
                )
                self.timers["optimistic"] += time.perf_counter() - tick
                self.totals["optimistic_runs"] += 1
            if not opt:
                stats.update(self._snapshot())
                return PricingOutcome([], None, infeasible=True, stats=stats)

            pes, columns = self._pessimistic(live, lambda b: b.rep.rcost, scaled,
                                             exclude)
            if pes and pes[0].rcost == opt[0].rcost:
                break

            targets = [b for b in opt[0].nodes if not b.pinned]
            if not targets:
                raise PricingError(
                    "optimistic path fully pinned yet the sandwich is open"
                )
            for bucket in targets:
                self.partition.refine_bucket(bucket, cfg.strategy)
                self.totals["refinements"] += 1
                stats["refinements"] += 1

        if cfg.merge:
            tick = time.perf_counter()
            n = self._merge_blocks(live, scaled)
            self.timers["merge"] += time.perf_counter() - tick
            self.totals["merges"] += n
            stats["merges"] = n
        stats.update(self._snapshot())
        return PricingOutcome(columns, Fraction(opt[0].rcost, denom), stats=stats)

    def _snapshot(self):
        snap = dict(self.totals)
        for phase, secs in self.timers.items():
            snap[f"time_{phase}"] = secs
        if self.partition is not None:
            counts = self.partition.counts()
            snap.update(counts)
            # the share of buckets not known to be empty
            snap["fill"] = ((counts["computed"] + counts["fresh"]) / counts["total"]
                            if counts["total"] else 0.0)
        return snap


# ---------------------------------------------------------------------------
# enumerative benchmark pricer
# ---------------------------------------------------------------------------


class ExactPricer:
    """Benchmark pricer: per-block enumeration of the non-dominated
    subpaths that can lie on a feasible path, per-call Pareto filter
    under the duals, then the same layered path search.  The bound it
    reports is the exact minimum reduced cost (swapping any subpath for
    one that dominates it keeps a path feasible and no dearer, so the
    Pareto front always contains an optimal path's subpaths).

    Each block's subpaths come from its dual-independent table
    (``labeling.BlockView.table``), already in (contribution vector,
    node sequence) order.  A subpath left out of it lies on no feasible
    path, or a row with the same elements comes before it in the
    front's order and dominates it, so the front is the full
    enumeration's.  A call only prices the table and keeps the front:

    * reduced costs take one addition per subpath: its scaled cost less
      its elements' dual sum, which is the sum of a row whose elements
      are its own less its last one, plus that element's dual
      (``SubpathTable.rcosts``).
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

    def price(self, scaled, banned=frozenset(), exclude=frozenset()) -> PricingOutcome:
        self.totals["calls"] += 1

        kept = []                   # (rcost, vector, subpath), block after block
        items_per_block = []
        for bi in range(len(self.problem.blocks)):
            tick = time.perf_counter()
            view = block_view(self.problem, bi)
            table = view.table()
            self.timers["enumerate"] += time.perf_counter() - tick
            self.totals["enumerated"] += len(table)
            tick = time.perf_counter()
            front = _front(view, table, scaled, view._mask(banned))
            self.timers["front"] += time.perf_counter() - tick
            if not front:
                return PricingOutcome([], None, infeasible=True,
                                      stats=self._snapshot())
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
            return PricingOutcome([], None, infeasible=True,
                                  stats=self._snapshot())

        columns = _assemble(
            self.problem, results, lambda items: tuple(kept[j][2] for j in items),
            exclude,
        )
        return PricingOutcome(columns, Fraction(results[0].rcost, scaled.denom),
                              stats=self._snapshot())

    def _snapshot(self):
        snap = dict(self.totals)
        for phase, secs in self.timers.items():
            snap[f"time_{phase}"] = secs
        return snap


def _front(view, table, scaled, banned):
    """The Pareto front of the rows of ``table``, a
    ``labeling.SubpathTable`` of block ``view``, that visit no element of
    local mask ``banned``, under scaled duals, as (scaled rcost, vector,
    subpath) triples in (rcost, vector, nodes) order.  Every row is
    priced; under a nonzero mask only the rows that avoid it are
    scanned."""
    rcosts = table.rcosts(scaled, view.elements)
    rows = range(len(table))
    if banned:
        masks = table.masks
        rows = [j for j in rows if not masks[j] & banned]
    vectors = table.vectors
    return [(rcosts[j], vectors[j], table.subpaths[j])
            for j in _pareto_keep(vectors, rcosts, rows)]


def _pareto_keep(vectors, rcosts, rows):
    """The Pareto front of the (rcost, vector) pairs at indices ``rows``,
    listed in (vector, node sequence) order, as indices in (rcost, vector,
    nodes) order; see :class:`ExactPricer`."""
    if not rows:
        return []
    if len(vectors[rows[0]]) <= 1:
        lows = []                   # strict prefix minima of the rcosts
        floor = math.inf
        for j in rows:
            rc = rcosts[j]
            if rc < floor:
                lows.append(j)
                floor = rc
        out = [j for j, nxt in zip(lows, lows[1:]) if vectors[j] != vectors[nxt]]
        out.append(lows[-1])
        out.reverse()
        return out
    out = []
    skyline = []
    for j in sorted(rows, key=rcosts.__getitem__):
        vec = vectors[j]
        if not any(all(map(le, v, vec)) for v in skyline):
            skyline.append(vec)
            out.append(j)
    return out
