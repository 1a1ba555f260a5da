"""Adaptive box partitions of the contribution space.

Each block gets a partition of its range -- the problem's contribution
box, stretched where the block has a subpath outside it that a feasible
path may use -- into axis-aligned integer boxes ("buckets").  A bucket
caches the cheapest feasible subpath whose contribution vector lies in
its box and within the block's headroom (what the path predicates leave
the block, ``labeling.BlockView.headroom``) -- its *representative* --
or the fact that no such subpath exists, which is permanent: bans only
ever grow and the headroom depends on neither the duals nor the bans,
so an empty box stays empty.  A
subpath above the headroom lies on no feasible path, so every feasible
path still takes each of its subpaths from a bucket whose lower corner
and representative bound it from below.

The module owns geometry and state (tiling, splitting, merging,
invalidation).  What the bounds mean, and when a merge is admissible, is
the pricer's business; merge passes take a callback.

Contribution vectors are handled flat, in the problem's concatenated
coordinate space (``problem.total_coords`` entries).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import product

from .labeling import Representative, block_view, elementary_rcspp
from .model import ModelError

FRESH = "fresh"
COMPUTED = "computed"
EMPTY = "empty"

MAX_BUCKETS_PER_BLOCK = 50_000


class BucketError(ValueError):
    """Inconsistent partition state or oversize tiling."""


@dataclass(eq=False)  # identity semantics: buckets are stateful, unique objects
class Bucket:
    block: int
    lo: tuple
    hi: tuple
    serial: int
    status: str = FRESH
    rep: Representative | None = None
    # its box capped at the block's headroom, as the fill reads it
    # (``labeling.BlockView.fill_box``), from its first fill on
    corners: tuple | None = field(default=None, repr=False)

    def __lt__(self, other):
        # deterministic orderings (search tie-breaks) sort buckets by
        # geometry first, creation order last
        return (self.block, self.lo, self.hi, self.serial) < (
            other.block, other.lo, other.hi, other.serial
        )

    @property
    def box(self):
        return tuple(zip(self.lo, self.hi))

    @property
    def volume(self):
        v = 1
        for l, h in zip(self.lo, self.hi):
            v *= h - l + 1
        return v

    def contains(self, vec) -> bool:
        return all(l <= x <= h for x, l, h in zip(vec, self.lo, self.hi))

    @property
    def pinned(self) -> bool:
        """A computed bucket whose lower corner *is* its representative's
        contribution vector: its optimistic and true vectors coincide, so
        refining it cannot sharpen anything."""
        return (
            self.status == COMPUTED
            and self.rep is not None
            and self.rep.vector == self.lo
        )


def _tiles(lo: int, hi: int, width: int):
    n = hi - lo + 1
    if width >= n:
        return [(lo, hi)]
    k = n // width
    cuts = [(lo + i * width, lo + (i + 1) * width - 1) for i in range(k - 1)]
    cuts.append((lo + (k - 1) * width, hi))
    return cuts


class Partition:
    """Per-block bucket partitions of the contribution box."""

    def __init__(self, problem, per_block):
        self.problem = problem
        box = problem.contribution_box()
        # per block, the range its buckets tile (``BlockView.reach``)
        self.ranges = [block_view(problem, bi).reach(box) for bi in range(len(per_block))]
        self.per_block = [sorted(bs, key=lambda b: b.lo) for bs in per_block]
        self._serial = max(
            (b.serial for bs in per_block for b in bs), default=-1
        ) + 1
        self.validate()

    # -- construction -----------------------------------------------------

    @classmethod
    def initial(cls, problem, width):
        """Tile the contribution box uniformly, then give each block one
        extension tile per side of an axis where its range
        (``labeling.BlockView.reach``) stretches past the box.

        ``width`` is a positive integer (same for every coordinate) or a
        sequence with one width per concatenated coordinate.  Each
        coordinate range of the box splits into ``max(1, span // width)``
        tiles, the last one absorbing the remainder.
        """
        d = problem.total_coords
        if isinstance(width, int):
            widths = (width,) * d
        else:
            widths = tuple(width)
            if len(widths) != d:
                raise ModelError(
                    f"bucket widths {widths} for {d} contribution coordinates: "
                    "need one width per coordinate"
                )
        box = problem.contribution_box()
        if any(w < 1 for w in widths):
            raise ModelError(f"bucket width {width} over box {box}: must be positive")
        per_block = []
        serial = 0
        for bi in range(len(problem.blocks)):
            axes = []
            for (lo, hi), w, (low, high) in zip(box, widths,
                                                block_view(problem, bi).reach(box)):
                axes.append([(low, lo - 1)] * (low < lo) + _tiles(lo, hi, w)
                            + [(hi + 1, high)] * (high > hi))
            count = math.prod(map(len, axes))
            if count > MAX_BUCKETS_PER_BLOCK:
                raise ModelError(
                    f"bucket width {width} over box {box}: {count} buckets per block "
                    f"exceed the limit {MAX_BUCKETS_PER_BLOCK}; use a larger width"
                )
            buckets = []
            for cell in product(*axes):
                lo = tuple(c[0] for c in cell)
                hi = tuple(c[1] for c in cell)
                buckets.append(Bucket(bi, lo, hi, serial))
                serial += 1
            per_block.append(buckets)
        return cls(problem, per_block)

    # -- bookkeeping -------------------------------------------------------

    def buckets(self, block):
        return self.per_block[block]

    def all_buckets(self):
        for bs in self.per_block:
            yield from bs

    def next_serial(self):
        s = self._serial
        self._serial += 1
        return s

    def validate(self):
        for bi, (bs, span) in enumerate(zip(self.per_block, self.ranges)):
            vol = 0
            for b in bs:
                if b.block != bi:
                    raise BucketError(f"bucket {b.serial} filed under wrong block")
                for (l, h), (bl, bh) in zip(zip(b.lo, b.hi), span):
                    if not (bl <= l <= h <= bh):
                        raise BucketError(
                            f"bucket {b.serial} box escapes block {bi}'s range {span}"
                        )
                vol += b.volume
            full_volume = math.prod(hi - lo + 1 for lo, hi in span)
            if vol != full_volume:
                raise BucketError(
                    f"block {bi}: bucket volumes sum to {vol}, its range has {full_volume}"
                )
            # buckets are filed by lower corner: once one starts past a's
            # first-coordinate end, so do all after it
            for i, a in enumerate(bs):
                for j in range(i + 1, len(bs)):
                    b = bs[j]
                    if b.lo[0] > a.hi[0]:
                        break
                    if all(
                        al <= bh_ and bl_ <= ah
                        for al, ah, bl_, bh_ in zip(a.lo, a.hi, b.lo, b.hi)
                    ):
                        raise BucketError(
                            f"buckets {a.serial} and {b.serial} overlap"
                        )

    def counts(self):
        total = empty = computed = fresh = 0
        for b in self.all_buckets():
            total += 1
            if b.status == EMPTY:
                empty += 1
            elif b.status == COMPUTED:
                computed += 1
            else:
                fresh += 1
        return {"total": total, "empty": empty, "computed": computed, "fresh": fresh}

    def invalidate(self, banned):
        """Drop representatives that use newly banned elements.  Emptiness
        is left alone: a box empty under fewer bans stays empty."""
        banned = set(banned)
        for b in self.all_buckets():
            if b.status == COMPUTED and b.rep is not None:
                if banned.intersection(b.rep.nodes):
                    b.status = FRESH
                    b.rep = None

    # -- refinement ---------------------------------------------------------

    def refine_bucket(self, bucket: Bucket, strategy: str):
        """Split one bucket in place; returns the child buckets.

        ``strategy`` is "midpoint" (halve every non-singleton coordinate)
        or "representative" (cut at the representative's value, so the
        child that inherits the representative has it sitting exactly on
        its lower corner; coordinates where it already does fall back to a
        midpoint cut).  The child containing the representative's vector
        inherits it -- the minimum over a subset containing the argmin is
        the same argmin.
        """
        # lower corners are unique within a block and the list is sorted
        # by them, so the bucket can only sit at its corner's index
        bs = self.per_block[bucket.block]
        at = bisect_left(bs, bucket.lo, key=lambda b: b.lo)
        if at == len(bs) or bs[at] is not bucket:
            raise BucketError("bucket is not part of this partition")
        if all(l == h for l, h in zip(bucket.lo, bucket.hi)):
            raise BucketError(f"bucket {bucket.serial} is a single point")
        vec = bucket.rep.vector if bucket.rep is not None else None
        if strategy == "representative" and vec is None:
            raise BucketError("representative strategy needs a computed bucket")

        pieces = []
        for c, (lo, hi) in enumerate(zip(bucket.lo, bucket.hi)):
            if lo == hi:
                pieces.append([(lo, hi)])
                continue
            if strategy == "representative" and vec[c] > lo:
                pieces.append([(lo, vec[c] - 1), (vec[c], hi)])
            elif strategy in ("representative", "midpoint"):
                m = (lo + hi) // 2
                pieces.append([(lo, m), (m + 1, hi)])
            else:
                raise BucketError(f"unknown refinement strategy {strategy!r}")

        children = []
        for cell in product(*pieces):
            lo = tuple(c[0] for c in cell)
            hi = tuple(c[1] for c in cell)
            child = Bucket(bucket.block, lo, hi, self.next_serial())
            if vec is not None and child.contains(vec):
                child.status = COMPUTED
                child.rep = bucket.rep
            children.append(child)

        bs.pop(at)
        for child in children:
            insort(bs, child, key=lambda b: b.lo)
        return children

    # -- merging ------------------------------------------------------------

    def adjacent_pairs(self, block):
        """Ordered (lower, upper) bucket pairs whose boxes share a facet:
        identical on every coordinate except one, where the upper box
        starts right after the lower one ends.  Lower corners are unique
        within a block (the boxes are disjoint), so each bucket's upper
        neighbours are looked up by theirs."""
        bs = self.per_block[block]
        by_lo = {b.lo: b for b in bs}
        pairs = []
        for a in bs:
            for c, top in enumerate(a.hi):
                b = by_lo.get((*a.lo[:c], top + 1, *a.lo[c + 1:]))
                if b is not None and (*b.hi[:c], top, *b.hi[c + 1:]) == a.hi:
                    pairs.append((a, b))
        pairs.sort(key=lambda p: (p[0].lo, p[1].lo))
        return pairs

    def merge_pass(self, block, can_merge):
        """One deterministic merge sweep over a block.

        ``can_merge(lower, upper)`` decides admissibility for pairs with
        at least one non-empty side; two empty buckets always merge.  A
        bucket takes part in at most one merge per pass.  The merged
        bucket keeps the cheaper representative -- bucket subpath sets are
        disjoint and cover the union, so that *is* the union's minimum.
        """
        done = set()
        merged_buckets = []
        for lower, upper in self.adjacent_pairs(block):
            if lower.serial in done or upper.serial in done:
                continue
            if lower.status == FRESH or upper.status == FRESH:
                continue
            both_empty = lower.status == EMPTY and upper.status == EMPTY
            if not both_empty and not can_merge(lower, upper):
                continue
            merged = Bucket(
                block,
                tuple(min(a, b) for a, b in zip(lower.lo, upper.lo)),
                tuple(max(a, b) for a, b in zip(lower.hi, upper.hi)),
                self.next_serial(),
            )
            if both_empty:
                merged.status = EMPTY
            else:
                reps = [
                    b.rep for b in (lower, upper) if b.status == COMPUTED
                ]
                best = min(reps, key=lambda r: (r.rcost, r.nodes))
                merged.status = COMPUTED
                merged.rep = best
            done.add(lower.serial)
            done.add(upper.serial)
            merged_buckets.append(merged)
        if merged_buckets:
            bs = self.per_block[block]
            bs[:] = sorted(
                [b for b in bs if b.serial not in done] + merged_buckets,
                key=lambda b: b.lo,
            )
        return len(merged_buckets)


def compute_representative(problem, buckets, duals, weights, banned=frozenset(), tally=None):
    """(Re)compute representatives under the given scaled duals.

    ``buckets`` lists buckets of one block; a single depth-first search
    (``labeling.elementary_rcspp``) fills them all, and each bucket's
    representative is returned (None for an EMPTY one).  Each box is
    searched capped at the block's headroom
    (``labeling.BlockView.headroom``): a subpath above it lies on no
    feasible path, so a representative is the cheapest subpath in its box
    that the headroom admits.  A bucket packs that capped box, as the
    fill reads it, on its first fill and keeps it (``Bucket.corners``): a
    box never changes.  The shared search sends each completed subpath to
    the capped box holding its vector and keeps, per box, the first by
    (reduced cost, vector, node sequence), which is exactly the
    representative the bucket's own search would find.  It drops a state
    whose vector plus its node's least completion
    (``BlockView.least_completion``) is above the capped boxes' most upper
    end: every completion adds at least that much, so the state ends in
    no box.  ``weights`` are the duals' ``BlockView.step_weights``, which
    the adaptive pricer builds once per block and pricing call.  When
    ``tally`` is given, its ``"fill_labels"`` gains the states the search
    expands.

    A representative holds the fill's winner (reduced cost, vector, node
    sequence), and builds its ``Subpath`` only when one is read
    (``labeling.Representative``).

    Marks a bucket EMPTY -- permanently -- when its capped box holds no
    feasible subpath contribution vector at all (a box whose lower end
    lies above the headroom holds none); EMPTY buckets are not searched.
    The headroom depends on neither the duals nor the bans, so the
    marking stays true.  A subpath outside every box is dropped: the
    partition tiles each block's reach (``labeling.BlockView.reach``),
    so no feasible path can use it.
    """
    group = list(buckets)
    if len({b.block for b in group}) > 1:
        raise BucketError("buckets filled together must share a block")
    live = [b for b in group if b.status != EMPTY]
    if live:
        view = block_view(problem, live[0].block)
        for b in live:
            if b.corners is None:
                b.corners = view.fill_box(tuple(zip(b.lo, map(min, b.hi, view.headroom()))))
        found = elementary_rcspp(
            problem,
            live[0].block,
            duals,
            boxes=[b.corners for b in live],
            weights=weights,
            banned=banned,
            tally=tally,
        )
        for bucket, rep in zip(live, found):
            bucket.status = EMPTY if rep is None else COMPUTED
            bucket.rep = rep
    return [b.rep for b in group]
