"""Path pricers over bucket graphs.

The adaptive pricer runs a sandwich loop per call.  Representatives give
every bucket a cheapest-member subpath.  The fill that computes them runs
one label search per block and dominance signature (the ``LE``/``EQ``
mode per coordinate that a bucket's box implies), not one per bucket;
the shared search yields each bucket exactly the representative its own
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

The enumerative pricer is the benchmark: enumerate every feasible
subpath per block once (dual-independent, cached), keep the per-block
Pareto front under the current duals, and run the same layered search
over individual subpaths.  Its bound is exact by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .buckets import COMPUTED, EMPTY, FRESH, Partition, compute_representative
from .labeling import block_view, label_search, through_values
from .model import (
    Duals,
    Path,
    ScaledDuals,
    Subpath,
    check_path_feasible,
)


# merge evaluates exact through-values while no block has more buckets
MERGE_EXACT_LIMIT = 64


class PricingError(RuntimeError):
    """Internal invariant violated while pricing."""


@dataclass(frozen=True)
class PricingConfig:
    width: int | tuple = 250
    strategy: str = "representative"     # bucket splitting: representative | midpoint
    merge: bool = False
    reuse: bool = False
    columns_per_call: int = 10
    until: str = "column"                # stop refining at first column, or "closure"


@dataclass
class PricingOutcome:
    columns: list                        # feasible Paths with negative reduced cost
    optimistic: Fraction | None          # lower bound on min reduced cost (millicost)
    pessimistic: Fraction | None         # best path reduced cost seen (millicost)
    infeasible: bool = False             # no feasible path exists under current bans
    infeasible_block: int | None = None  # a block with no feasible subpath, if that's why
    stats: dict = field(default_factory=dict)


def _scaled(duals) -> ScaledDuals:
    if duals is None:
        return ScaledDuals({}, 0, 1)
    if isinstance(duals, Duals):
        return duals.scaled()
    return duals


def _path_rules(problem):
    """Per-coordinate aggregators, sink predicates and prune flags of the
    layered search (``labeling.label_search``)."""
    aggs = tuple(r.agg for r in problem.path_resources for _ in range(r.dim))
    d = problem.total_coords
    checks = []
    for r, off in zip(problem.path_resources, problem.coord_offset):
        weights = [0] * d
        weights[off:off + r.dim] = list(r.a)
        checks.append((tuple(weights), r.b))
    return aggs, tuple(checks), problem.monotone


def _layers(items_per_block, vec_of, rcost_of, convexity):
    """One (item, scaled rcost, flat vector) list per block for the
    layered search; the first block carries the convexity dual."""
    layers = [
        [(item, rcost_of(item), vec_of(item)) for item in items]
        for items in items_per_block
    ]
    layers[0] = [(item, rc - convexity, vec) for item, rc, vec in layers[0]]
    return layers


def _through_values(problem, items_per_block, vec_of, rcost_of, convexity):
    """Exact optimistic through-value per item: the cheapest feasible path
    through it (``labeling.through_values``)."""
    layers = _layers(items_per_block, vec_of, rcost_of, convexity)
    values = through_values(layers, *_path_rules(problem))
    return {
        item: value
        for layer, row in zip(layers, values)
        for (item, _, _), value in zip(layer, row)
    }


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
        self.rules = _path_rules(problem)
        self.partition: Partition | None = None
        self.banned = frozenset()
        self.refines_per_block = [0] * len(problem.blocks)
        self.totals = {
            "rep_computations": 0,
            "fill_searches": 0,
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
            self.banned = frozenset(banned)
            return
        banned = frozenset(banned)
        if banned != self.banned:
            if banned >= self.banned:
                self.partition.invalidate(banned - self.banned)
            else:
                # bans shrank: emptiness markings are no longer valid
                self.partition = Partition.initial(self.problem, self.config.width)
            self.banned = banned

    def _compute_fresh(self, scaled, banned):
        """Fill every stale bucket with one label search per block and
        dominance signature."""
        groups = {}
        for bucket in self.partition.all_buckets():
            if bucket.status == FRESH:
                view = block_view(self.problem, bucket.block)
                key = (bucket.block, view.modes(bucket.box))
                groups.setdefault(key, []).append(bucket)
        for group in groups.values():
            compute_representative(self.problem, group, scaled, banned)
            self.totals["rep_computations"] += len(group)
            self.totals["fill_searches"] += 1

    def _live(self):
        """Non-empty buckets per block, or the index of a dead block."""
        live = []
        for bi in range(len(self.problem.blocks)):
            bs = [b for b in self.partition.buckets(bi) if b.status == COMPUTED]
            if not bs:
                return None, bi
            live.append(bs)
        return live, None

    def _assemble(self, results, denom, exclude):
        """Negative-rcost representative paths, skipping node keys the
        caller already holds -- a representative stays the same until its
        bucket refines, so the master would otherwise see the same column
        offered over and over."""
        columns = []
        for res in results:
            if res.rcost >= 0:
                continue
            subpaths = tuple(b.rep.subpath for b in res.nodes)
            path = check_path_feasible(self.problem, subpaths)
            if not isinstance(path, Path):
                raise PricingError("pessimistic assembly produced an infeasible path")
            if path.node_key in exclude:
                continue
            columns.append((Fraction(res.rcost, denom), path))
        return columns

    # -- merge criterion ------------------------------------------------------

    def _merge_blocks(self, live, scaled):
        """One merge sweep per block.

        A pair may merge when no optimistic path through the merged bucket
        could be negative: the merged bucket inherits the lower box corner
        and the cheaper representative, so its best through-value equals
        the lower bucket's plus the representative discount.  Small blocks
        evaluate through-values exactly by combining prefix/suffix Pareto
        sets; large blocks fall back to a resource-free bound (dropping
        the predicate only lowers the value, so it stays admissible).
        Pairs of empty buckets merge unconditionally.
        """
        merges = 0
        exact_through = {}
        use_exact = all(
            len(self.partition.buckets(bi)) <= MERGE_EXACT_LIMIT
            for bi in range(len(self.problem.blocks))
        )
        if use_exact:
            exact_through = _through_values(
                self.problem,
                live,
                lambda b: b.lo,
                lambda b: b.rep.rcost,
                scaled.convexity,
            )
        else:
            mins = [min(b.rep.rcost for b in bs) for bs in live]
            prefix = [0]
            for m in mins:
                prefix.append(prefix[-1] + m)
            total = prefix[-1]
            for bi, bs in enumerate(live):
                for b in bs:
                    exact_through[b] = (
                        total - mins[bi] + b.rep.rcost - scaled.convexity
                    )

        def can_merge(lower, upper):
            if lower.status == EMPTY or upper.status == EMPTY:
                keep = lower if lower.status == COMPUTED else upper
                return exact_through.get(keep, math.inf) >= 0
            delta = upper.rep.rcost - lower.rep.rcost
            return exact_through.get(lower, math.inf) + min(0, delta) >= 0

        for bi in range(len(self.problem.blocks)):
            merges += self.partition.merge_pass(bi, can_merge)
        return merges

    # -- main entry -----------------------------------------------------------

    def price(self, duals, banned=frozenset(), exclude=frozenset()) -> PricingOutcome:
        scaled = _scaled(duals)
        denom = scaled.denom
        cfg = self.config
        banned = frozenset(banned)
        self._ensure_partition(banned)
        stats = {"refinements": 0, "merges": 0, "reuse_hit": False}

        if cfg.reuse and any(
            b.status == COMPUTED for b in self.partition.all_buckets()
        ):
            live, _ = self._live()
            if live is not None:
                stale_rc = {}
                for bs in live:
                    for b in bs:
                        sp = b.rep.subpath
                        stale_rc[b] = sp.cost * denom - sum(
                            scaled.value(k) for k in sp.nodes
                        )
                tick = time.perf_counter()
                results = label_search(
                    _layers(live, lambda b: b.rep.vector, stale_rc.__getitem__,
                            scaled.convexity),
                    *self.rules, top_k=cfg.columns_per_call,
                )
                self.timers["pessimistic"] += time.perf_counter() - tick
                self.totals["pessimistic_runs"] += 1
                columns = self._assemble(results, denom, exclude)
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
            live, dead = self._live()
            if live is None:
                outcome = PricingOutcome(
                    [], None, None, infeasible=True, infeasible_block=dead,
                    stats=stats,
                )
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

            tick = time.perf_counter()
            pes = label_search(
                _layers(live, lambda b: b.rep.vector, lambda b: b.rep.rcost,
                        scaled.convexity),
                *self.rules, top_k=cfg.columns_per_call,
            )
            self.timers["pessimistic"] += time.perf_counter() - tick
            self.totals["pessimistic_runs"] += 1
            columns = self._assemble(pes, denom, exclude)
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
            live, _ = self._live()
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


def _enumerate_subpaths(problem, block_index, banned):
    """All feasible elementary subpaths of a block, iteratively (explicit
    stack).  Dual-independent; cached on the problem per banned set."""
    key = (block_index, banned)
    cache = problem._enum_cache
    if key in cache:
        return cache[key]
    block = problem.blocks[block_index]
    subs = problem.block_subs[block_index]
    resources = [problem.subpath_resources[ri] for ri in subs]
    d = problem.total_coords

    def pad(deltas):
        return deltas + (0,) * (len(subs) - len(deltas))

    def flat(item):
        if not item.path_deltas:
            return (0,) * d
        out = []
        for vec in item.path_deltas:
            out.extend(vec)
        return tuple(out)

    def advance(values, deltas, node):
        out = []
        for res, val, delta in zip(resources, values, pad(deltas)):
            val += delta
            lo, hi = res.window(node)
            if res.floor_at_lower and lo is not None and val < lo:
                val = lo
            if (lo is not None and val < lo) or (hi is not None and val > hi):
                return None
            out.append(val)
        return tuple(out)

    adjacency = {u: [] for u in block.elements}
    for (u, v), arc in sorted(block.arcs.items()):
        adjacency[u].append((v, arc))

    found = []
    stack = []
    for start in sorted(block.elements):
        if start in banned:
            continue
        entry = block.entry_at(start)
        values = advance((0,) * len(subs), entry.sub_deltas, start)
        if values is not None:
            stack.append(((start,), values, entry.cost, flat(entry)))
    while stack:
        seq, values, cost, contrib = stack.pop()
        exit_ = block.exit_at(seq[-1])
        found.append(
            (seq, cost + exit_.cost,
             tuple(c + e for c, e in zip(contrib, flat(exit_))))
        )
        for v, arc in adjacency[seq[-1]]:
            if v in seq or v in banned:
                continue
            nxt = advance(values, arc.sub_deltas, v)
            if nxt is None:
                continue
            stack.append(
                (seq + (v,), nxt, cost + arc.cost,
                 tuple(c + a for c, a in zip(contrib, flat(arc))))
            )

    out = []
    for seq, cost, contrib in sorted(found):
        vectors = []
        for r, off in zip(problem.path_resources, problem.coord_offset):
            vectors.append(tuple(contrib[off:off + r.dim]))
        out.append(Subpath(block_index, seq, cost, tuple(vectors)))
    cache[key] = tuple(out)
    return cache[key]


class ExactPricer:
    """Benchmark pricer: full per-block enumeration, per-call Pareto
    filter under the duals, then the same layered path search.  The bound
    it reports is the exact minimum reduced cost (swapping any subpath
    for one that dominates it keeps a path feasible and no dearer, so the
    Pareto front always contains an optimal path's subpaths)."""

    def __init__(self, problem, config: PricingConfig | None = None):
        self.problem = problem
        self.config = config or PricingConfig()
        self.rules = _path_rules(problem)
        self.totals = {"enumerated": 0, "kept": 0, "calls": 0}

    def price(self, duals, banned=frozenset(), exclude=frozenset()) -> PricingOutcome:
        scaled = _scaled(duals)
        denom = scaled.denom
        banned = frozenset(banned)
        stats = {}
        self.totals["calls"] += 1

        layers = []
        kept_subpaths = []
        for bi in range(len(self.problem.blocks)):
            subpaths = _enumerate_subpaths(self.problem, bi, banned)
            if not subpaths:
                stats.update(self.totals)
                return PricingOutcome(
                    [], None, None, infeasible=True, infeasible_block=bi,
                    stats=stats,
                )
            self.totals["enumerated"] += len(subpaths)
            priced = []
            for sp in subpaths:
                rc = sp.cost * denom - sum(scaled.value(k) for k in sp.nodes)
                flat = tuple(x for v in sp.contributions for x in v)
                priced.append((rc, flat, sp))
            priced.sort(key=lambda t: (t[0], t[1], t[2].nodes))
            kept = []
            for rc, flat, sp in priced:
                if not any(
                    rc2 <= rc and all(x <= y for x, y in zip(f2, flat))
                    for rc2, f2, _ in kept
                ):
                    kept.append((rc, flat, sp))
            self.totals["kept"] += len(kept)
            layers.append([(j, rc, flat) for j, (rc, flat, _) in enumerate(kept)])
            kept_subpaths.append([sp for _, _, sp in kept])
        layers[0] = [(j, rc - scaled.convexity, flat) for j, rc, flat in layers[0]]

        results = label_search(layers, *self.rules, top_k=self.config.columns_per_call)
        if not results:
            stats.update(self.totals)
            return PricingOutcome([], None, None, infeasible=True, stats=stats)

        columns = []
        best = Fraction(results[0].rcost, denom)
        for res in results:
            if res.rcost >= 0:
                continue
            chain = tuple(subs[j] for subs, j in zip(kept_subpaths, res.nodes))
            path = check_path_feasible(self.problem, chain)
            if not isinstance(path, Path):
                raise PricingError("exact pricer assembled an infeasible path")
            if path.node_key in exclude:
                continue
            columns.append(path)
        stats.update(self.totals)
        return PricingOutcome(
            columns=columns,
            optimistic=best,
            pessimistic=best if columns else None,
            stats=stats,
        )
