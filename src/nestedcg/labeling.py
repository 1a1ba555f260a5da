"""Path search engines and the compiled block they run on.

* :func:`label_search` -- a layer-by-layer label-setting search over
  per-block item lists: every path takes one item (a bucket or a subpath)
  from each block, and the items' contribution vectors aggregate per
  coordinate by sum or max.  The pricers run it with bucket lower corners
  (optimistic bound), with representatives (pessimistic bound) and over
  Pareto-kept subpaths (enumerative benchmark); :func:`through_values`
  runs it once per item, with the item's layer pinned to it, for the
  merge criterion.
* :func:`elementary_rcspp` -- a depth-first search over the elementary
  subpaths of one block of a nested problem under a list of contribution
  boxes: the bucket fill.

Both the fill and the enumerative pricer work on :class:`BlockView`, the
one compiled form of a block (local element indices, padded subpath
deltas, flat contribution deltas, sorted adjacency);
:meth:`BlockView.table` enumerates every subpath of a block that can lie
on a feasible path once, as data for the enumerative pricer
(:class:`SubpathTable`), and filters it per ban set.  The enumeration
stops a subpath as soon as it and every extension of it end above what
the path predicates leave the block (:meth:`BlockView.headroom`, with
every block at the least an entry leg plus a least completion add).

The layered search stores labels only for the layers that a later
layer extends: per item, every label that fewer than ``top_k`` stored
labels dominate (:func:`_insert`).  A label dominates another when every
completion of it sorts before the same completion of the other by
(rcost, vector, items).  Dominance prunes partial paths, so the last
layer has none: each stored label of the layer before it is extended by
each last-layer item straight into one bounded selection of the first
``top_k`` admitted paths in that order.  The result list is therefore a
prefix of the fully enumerated, sorted solution list.

Bucket fill.  :func:`elementary_rcspp` answers every bucket box of one
block with a single search and sends each completed subpath to the box
that holds it, where it is kept when it sorts first by (reduced cost,
vector, node sequence); so every box gets exactly the result of its own
search.  It keeps no label store: a label could only dominate labels
with its own vector (two vectors may end in different boxes), and such
labels are too rare for a store to pay for its keys.  A state is
dropped when its vector plus the least that any completion from its node
can add (:meth:`BlockView.least_completion`, a dual-independent bound
cached on the view) is above the union's upper end: no extension of it
can end in a box.

All arithmetic is integer: callers pass duals through
``model.Duals.scaled()`` so reduced costs stay exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from operator import add, gt, itemgetter, mul

from .model import SUM, Subpath, as_scaled


class LabelingError(ValueError):
    """Raised for inputs the engines cannot handle."""


@dataclass(frozen=True)
class SearchResult:
    nodes: tuple        # one item per block
    rcost: int
    resources: tuple


class _Label:
    __slots__ = ("node", "rcost", "res", "pred", "alive")

    def __init__(self, node, rcost, res, pred=None):
        self.node = node
        self.rcost = rcost
        self.res = res
        self.pred = pred
        self.alive = True

    def sequence(self):
        out = []
        lab = self
        while lab is not None:
            out.append(lab.node)
            lab = lab.pred
        out.reverse()
        return tuple(out)


def _insert(store: list, label: _Label, dominates, top_k) -> bool:
    """Count-based retention: keep ``label`` unless top_k stored labels
    dominate it; afterwards drop stored labels that top_k others dominate."""
    dominators = 0
    for other in store:
        if other.alive and dominates(other, label):
            dominators += 1
            if dominators >= top_k:
                return False
    store.append(label)
    dropped = False
    for other in store:
        if other is label or not other.alive or not dominates(label, other):
            continue
        if top_k == 1:
            # ``label`` itself is the one dominator needed
            other.alive = False
            dropped = True
            continue
        count = 0
        for third in store:
            if third is not other and third.alive and dominates(third, other):
                count += 1
                if count >= top_k:
                    other.alive = False
                    dropped = True
                    break
    if dropped:
        store[:] = [lab for lab in store if lab.alive]
    return True


# ---------------------------------------------------------------------------
# layered search over per-block item lists
# ---------------------------------------------------------------------------


def _within(checks):
    """``ok(res)``: whether ``res`` satisfies every (weights, bound)."""

    def ok(res):
        for weights, bound in checks:
            if sum(map(mul, weights, res)) > bound:
                return False
        return True

    return ok


def _layer_rules(aggs, checks, prune):
    """(combine, dominates, admits, partial_ok) for flat vectors whose
    coordinates aggregate by ``aggs`` (``SUM`` or ``MAX``)."""
    ops = [add if agg == SUM else max for agg in aggs]
    if all(op is add for op in ops):
        def combine(x, y):
            return tuple(map(add, x, y))
    else:
        def combine(x, y):
            return tuple([op(a, b) for op, a, b in zip(ops, x, y)])
    coords = range(len(aggs))
    sums = [i for i, op in enumerate(ops) if op is add]

    def dominates(a: _Label, b: _Label) -> bool:
        if a.rcost > b.rcost:
            return False
        x, y = a.res, b.res
        for i in coords:
            if x[i] > y[i]:
                return False
        if a.rcost < b.rcost:
            return True
        for i in sums:
            if x[i] < y[i]:
                return True
        # the two can complete to paths equal in rcost and vector (a MAX
        # coordinate may catch up), which the sink orders by items
        return a.sequence() < b.sequence()

    partial = [check for check, flag in zip(checks, prune) if flag]
    return combine, dominates, _within(checks), _within(partial)


def label_search(layers, aggs, checks, prune=(), top_k: int = 1):
    """Up to ``top_k`` cheapest paths taking one item from every layer.

    ``layers`` holds one list per block of (item, rcost, vector) triples:
    any item token, its scaled reduced cost and its flat contribution
    vector.  Coordinate c of a path's vector is the sum or the max
    (``aggs[c]``) of its items' values.  ``checks`` holds (weights, bound)
    predicates every path's vector must satisfy; those that ``prune``
    marks also prune partial paths (only sound when the weighted value
    cannot decrease as blocks are added).

    A first-layer label takes its item's vector as it is; a later label
    extends a stored label of the previous layer by one item.  Only the
    layers that a later layer extends store and dominate labels; the last
    layer's paths go straight to :func:`_select`.  Returns
    :class:`SearchResult` objects for the first ``top_k`` feasible paths
    in (rcost, vector, items) order, so a smaller ``top_k`` returns a
    prefix of a larger one's list.
    """
    if top_k < 1:
        raise LabelingError("top_k must be positive")
    combine, dominates, admits, partial_ok = _layer_rules(aggs, checks, prune)
    *inner, last = layers
    if not inner:
        # a one-layer path is its item: extend the empty path, whose
        # vector is the identity of every aggregator
        empty = tuple(0 if agg == SUM else -math.inf for agg in aggs)
        return _select([(0, empty, None)], last, combine, admits, top_k)
    stores = [
        [_Label(item, rcost, tuple(vec))] if partial_ok(vec) else []
        for item, rcost, vec in inner[0]
    ]
    for layer in inner[1:]:
        new = [[] for _ in layer]
        for store in stores:
            for lab in store:
                rcost, res = lab.rcost, lab.res
                for (item, step, vec), target in zip(layer, new):
                    ext = combine(res, vec)
                    if partial_ok(ext):
                        _insert(target, _Label(item, rcost + step, ext, pred=lab),
                                dominates, top_k)
        stores = new
    heads = [(lab.rcost, lab.res, lab) for store in stores for lab in store]
    return _select(heads, last, combine, admits, top_k)


def _select(heads, layer, combine, admits, top_k):
    """The first ``top_k`` admitted paths in (rcost, vector, items) order
    among the (rcost, vector, label or None) ``heads`` each extended by
    each item of ``layer``.

    Heads go in rcost order and items in step order, so a row stops at
    the first candidate whose rcost sorts after the current top_k-th
    path's, and the search stops at the first row that starts there.  A
    candidate's vector is built only when its rcost can still sort
    first, and its items only when its (rcost, vector) can.  Keys meet
    with ``<`` alone: items need define nothing else."""
    steps = sorted(layer, key=itemgetter(1))
    if not steps:
        return []
    heads.sort(key=itemgetter(0))
    lowest = steps[0][1]
    best = []           # (rcost, vector, items) in order, at most top_k
    cut = math.inf      # the top_k-th rcost, once there are top_k
    for base, res, lab in heads:
        if base + lowest > cut:
            break
        prefix = None
        for item, step, vec in steps:
            rcost = base + step
            if rcost > cut:
                break
            ext = combine(res, vec)
            if not admits(ext) or (rcost == cut and best[-1][1] < ext):
                continue
            if prefix is None:
                prefix = () if lab is None else lab.sequence()
            insort(best, (rcost, ext, (*prefix, item)))
            if len(best) > top_k:
                best.pop()
            if len(best) == top_k:
                cut = best[-1][0]
    return [SearchResult(items, rcost, ext) for rcost, ext, items in best]


def through_values(layers, aggs, checks, prune=()):
    """Smallest rcost of a feasible path through each item, one list per
    layer (``math.inf`` where no feasible path passes the item): the
    cheapest :func:`label_search` result with the item's layer pinned to
    that item."""
    out = []
    for bi, layer in enumerate(layers):
        values = []
        for item in layer:
            pinned = [*layers[:bi], [item], *layers[bi + 1:]]
            best = label_search(pinned, aggs, checks, prune)
            values.append(best[0].rcost if best else math.inf)
        out.append(values)
    return out


# ---------------------------------------------------------------------------
# per-block elementary search
# ---------------------------------------------------------------------------


class BlockView:
    """Precomputed arrays for labeling over one block.

    Elements get local indices 0..m-1 (bit positions of the visited set,
    a Python int, so any block size works), path-resource deltas are
    flattened into the problem's concatenated coordinate space, and
    adjacency is sorted for determinism.
    """

    def __init__(self, problem, block_index):
        block = problem.blocks[block_index]
        self.problem = problem
        self.index = block_index
        self.elements = block.elements
        self.local = {k: i for i, k in enumerate(block.elements)}
        self.n_coords = problem.total_coords

        subs = problem.block_subs[block_index]
        self.n_sub = len(subs)
        floor = tuple(problem.subpath_resources[ri].floor_at_lower for ri in subs)

        def window(ri, v):
            lo, hi = problem.subpath_resources[ri].window(v)
            return (-math.inf if lo is None else lo, math.inf if hi is None else hi)

        # per element: one (floor_at_lower, lo, hi) triple per subpath
        # resource, an open end as -inf or inf
        self.sub_checks = [
            tuple((fl, *window(ri, v)) for fl, ri in zip(floor, subs))
            for v in block.elements
        ]

        def flat_coords(item):
            if not item.path_deltas:
                return (0,) * self.n_coords
            out = []
            for vec in item.path_deltas:
                out.extend(vec)
            return tuple(out)

        def padded_sub(item):
            d = item.sub_deltas
            if len(d) == self.n_sub:
                return d
            return d + (0,) * (self.n_sub - len(d))

        self.entry = [
            (block.entry_at(v).cost, padded_sub(block.entry_at(v)),
             flat_coords(block.entry_at(v)))
            for v in block.elements
        ]
        self.exit = [
            (block.exit_at(v).cost, padded_sub(block.exit_at(v)),
             flat_coords(block.exit_at(v)))
            for v in block.elements
        ]
        self.arcs_out = [[] for _ in block.elements]
        for (u, v), arc in sorted(block.arcs.items()):
            self.arcs_out[self.local[u]].append(
                (self.local[v], arc.cost, padded_sub(arc), flat_coords(arc))
            )
        # what a step adds to a subpath's cost, exit leg included: step t
        # starts a subpath at element t, step (u + 1) * m + t extends one
        # that ends at u to t (see ``SubpathTable``)
        m = len(block.elements)
        self._step_costs = [0] * ((m + 1) * m)
        for t, (cost, _, _) in enumerate(self.entry):
            self._step_costs[t] = cost + self.exit[t][0]
        for u, outs in enumerate(self.arcs_out):
            for t, cost, _, _ in outs:
                self._step_costs[(u + 1) * m + t] = cost + self.exit[t][0] - self.exit[u][0]

        legs = self.entry + self.exit + [arc[1:] for outs in self.arcs_out for arc in outs]
        self.coord_monotone = tuple(
            all(coords[c] >= 0 for _, _, coords in legs) for c in range(self.n_coords)
        )
        self._min_achievable = {}
        self._least = None
        self._tables = {}         # block-local banned mask -> SubpathTable

    def min_achievable(self, coord: int) -> int | None:
        """Smallest contribution value on one coordinate over all feasible
        subpaths of the block; None when the block admits none at all."""
        if coord not in self._min_achievable:
            unbounded = ((None, None),) * self.n_coords
            found = elementary_rcspp(
                self.problem, self.index, boxes=[unbounded],
                objective=("coord", coord),
            )[0]
            # when minimizing a coordinate the reported rcost is its value
            self._min_achievable[coord] = None if found is None else found[1]
        return self._min_achievable[coord]

    def least_completion(self) -> list:
        """Per local element v, the least amount on each monotone
        coordinate that any completion from v (zero or more arcs, then the
        exit leg) adds; -inf on the other coordinates.  It ignores
        elementarity, subpath windows and bans, so it is a lower bound
        under every ban set.  Dual-independent: shortest paths to the exit
        legs (Bellman-Ford, each arc relaxed from its head back to its
        tail), on first use."""
        if self._least is None:
            least = [
                tuple(d if mono else -math.inf for d, mono in zip(flat, self.coord_monotone))
                for _, _, flat in self.exit
            ]
            changed = True
            while changed:
                changed = False
                for u, outs in enumerate(self.arcs_out):
                    for t, _, _, flat in outs:
                        via = tuple(map(min, least[u], map(add, flat, least[t])))
                        if via != least[u]:
                            least[u], changed = via, True
            self._least = least
        return self._least

    def limits(self, top) -> list:
        """Per local element v, the most a subpath's contributions may
        hold on arrival at v (exit leg not yet added) for some completion
        from v to end at most at ``top``: ``top`` less v's least
        completion, inf wherever either is open."""
        return [tuple([hi - low for hi, low in zip(top, least)])
                for least in self.least_completion()]

    def headroom(self) -> tuple:
        """Per coordinate, the most a subpath's contributions can hold and
        still lie on a path that passes the predicates
        (``NestedProblem.headroom``), inf where nothing caps.  Each
        block's low is the least that an entry leg plus that element's
        least completion add, so it holds under any duals and any bans."""
        problem = self.problem
        lows = []
        for bi in range(len(problem.blocks)):
            view = block_view(problem, bi)
            starts = [tuple(map(add, flat, least))
                      for (_, _, flat), least in zip(view.entry, view.least_completion())]
            lows.append(tuple(map(min, zip(*starts))))
        tops = problem.headroom(lows)
        return (math.inf,) * self.n_coords if tops is None else tops[self.index]

    def _mask(self, banned) -> int:
        mask = 0
        for k in banned:
            if k in self.local:
                mask |= 1 << self.local[k]
        return mask

    def table(self, banned=frozenset()) -> "SubpathTable":
        """Every elementary subpath of the block that can lie on a
        feasible path and avoids ``banned``, as a :class:`SubpathTable`
        in (contribution vector, node sequence) order; it may hold some
        that cannot (see :meth:`_enumerate`).  Dual-independent, so
        cached per block-local ban set.

        The block is searched once, without bans; a ban set filters that
        table by element mask.  This is exact: a ban removes elements and
        never changes whether a subpath that avoids them is feasible, and
        the filter keeps the order."""
        mask = self._mask(banned)
        if mask not in self._tables:
            if 0 not in self._tables:
                self._tables[0] = self._enumerate()
            self._tables[mask] = self._tables[0].without(mask)
        return self._tables[mask]

    def reduced_costs(self, table, duals) -> list:
        """Scaled reduced cost of every subpath of ``table``, one of this
        block's tables, under scaled ``duals``: one addition per subpath,
        to its prefix's value."""
        m = len(self.elements)
        gain = [duals.value(k) for k in self.elements]
        return table.sums([
            cost * duals.denom - gain[step % m]
            for step, cost in enumerate(self._step_costs)
        ])

    def _enumerate(self) -> "SubpathTable":
        """Depth-first search over every elementary subpath that can lie
        on a feasible path.

        A state is dropped when its contributions exceed its element's
        :meth:`limits` under the block's :meth:`headroom`: the subpath
        and each extension of it end above the headroom, so no path that
        holds them passes the predicates.  A subpath that ends above it
        from a state within the limits stays in the table.  A dropped
        subpath dominates only subpaths with vectors at least as large,
        which cannot lie on a feasible path either, and every kept
        subpath's prefixes are kept."""
        elements, sub_checks = self.elements, self.sub_checks
        m = len(elements)
        limits = self.limits(self.headroom())
        stack = []
        for v, (cost, sub_d, flat) in enumerate(self.entry):
            if any(map(gt, flat, limits[v])):
                continue
            values = _extend_sub(sub_checks[v], (0,) * self.n_sub, sub_d)
            if values is not None:
                stack.append((v, (elements[v],), 1 << v, values, cost, flat, -1, v))
        found = []          # (vector, nodes, cost, mask, prefix row, step)
        while stack:
            u, nodes, visited, values, cost, flat, prefix, step = stack.pop()
            exit_cost, _, exit_flat = self.exit[u]
            row = len(found)
            found.append((tuple(map(add, flat, exit_flat)), nodes, cost + exit_cost,
                          visited, prefix, step))
            for t, arc_cost, sub_d, arc_flat in self.arcs_out[u]:
                if visited >> t & 1:
                    continue
                ext = tuple(map(add, flat, arc_flat))
                if any(map(gt, ext, limits[t])):
                    continue
                nxt = _extend_sub(sub_checks[t], values, sub_d)
                if nxt is not None:
                    stack.append((t, nodes + (elements[t],), visited | 1 << t, nxt,
                                  cost + arc_cost, ext, row, (u + 1) * m + t))
        if not found:
            return SubpathTable()
        # (vector, nodes) pairs are distinct, so the sort never looks further
        ranked = sorted(range(len(found)), key=found.__getitem__)
        rank = [-1] * (len(found) + 1)  # search row -> table row; -1 stays -1
        for row, i in enumerate(ranked):
            rank[i] = row
        vectors, nodes, costs, masks, prefixes, steps = zip(*found)
        return SubpathTable(
            tuple([Subpath(self.index, nodes[i], costs[i], vectors[i]) for i in ranked]),
            tuple([vectors[i] for i in ranked]),
            tuple([masks[i] for i in ranked]),
            tuple(rank[:-1]),
            tuple([rank[p] for p in prefixes]),
            steps,
        )


class SubpathTable:
    """Every subpath of a block that can lie on a feasible path, in
    (contribution vector, node sequence) order, with each one's
    ``vectors`` (its contributions) and ``masks`` (its local elements as
    a bit set) beside it.

    Every prefix of a subpath is a subpath too, so the table also lists
    its rows in search order, each after its prefix: row ``order[i]``
    extends row ``parents[i]`` (-1 for none) by step ``steps[i]``, the
    index of its last element (plus ``(u + 1) * m`` when it follows
    local element u of a block of m elements).  A sum along subpaths then
    takes one addition per row (:meth:`sums`)."""

    __slots__ = ("subpaths", "vectors", "masks", "order", "parents", "steps")

    def __init__(self, subpaths=(), vectors=(), masks=(),
                 order=(), parents=(), steps=()):
        self.subpaths = subpaths
        self.vectors = vectors
        self.masks = masks
        self.order = order
        self.parents = parents
        self.steps = steps

    def __len__(self):
        return len(self.subpaths)

    def without(self, mask) -> "SubpathTable":
        """The subpaths that visit no element of local ``mask``, in order.
        A kept subpath's prefixes are kept too."""
        if not mask:
            return self
        keep = [i for i, m in enumerate(self.masks) if not m & mask]
        new = [-1] * (len(self) + 1)    # old row -> new row; -1 stays -1
        for row, i in enumerate(keep):
            new[i] = row
        search = [
            (new[i], new[p], step)
            for i, p, step in zip(self.order, self.parents, self.steps)
            if new[i] >= 0
        ]
        return SubpathTable(
            *(tuple([column[i] for i in keep])
              for column in (self.subpaths, self.vectors, self.masks)),
            *zip(*search),
        )

    def sums(self, values) -> list:
        """Per row, the sum of ``values[s]`` over the steps s of its
        subpath."""
        out = [0] * (len(self) + 1)
        for i, p, step in zip(self.order, self.parents, self.steps):
            out[i] = out[p] + values[step]
        out.pop()
        return out


def block_view(problem, block_index) -> BlockView:
    views = problem._views
    if block_index not in views:
        views[block_index] = BlockView(problem, block_index)
    return views[block_index]


def _extend_sub(checks, values, deltas):
    """Subpath-resource values after adding ``deltas`` on arrival at an
    element with window ``checks``; None when a window is violated.
    Floored resources are lifted to a binding lower bound instead."""
    out = []
    for val, d, (floor, lo, hi) in zip(values, deltas, checks):
        val += d
        if val < lo:
            if not floor:
                return None
            val = lo
        if val > hi:
            return None
        out.append(val)
    return tuple(out)


def _box_locator(boxes):
    """``locate(vec)``: index of the box holding contribution vector
    ``vec``, or -1.  The boxes are disjoint; they are bisected on the
    first coordinate, then the candidates whose first-coordinate range
    can still reach the value are tested in full."""
    if not boxes[0]:
        return lambda vec: 0      # no coordinates: the one box holds ()

    def lo0(i):
        lo = boxes[i][0][0]
        return -math.inf if lo is None else lo

    order = sorted(range(len(boxes)), key=lo0)
    starts = [lo0(i) for i in order]
    reach = []                    # running max of first-coordinate upper ends
    top = -math.inf
    for i in order:
        hi = boxes[i][0][1]
        top = max(top, math.inf if hi is None else hi)
        reach.append(top)

    def locate(vec):
        x = vec[0]
        k = bisect_right(starts, x) - 1
        while k >= 0 and reach[k] >= x:
            i = order[k]
            for val, (lo, hi) in zip(vec, boxes[i]):
                if (lo is not None and val < lo) or (hi is not None and val > hi):
                    break
            else:
                return i
            k -= 1
        return -1

    return locate


def elementary_rcspp(
    problem,
    block_index: int,
    duals=None,
    *,
    boxes,
    banned=frozenset(),
    objective="rcost",
    tally=None,
):
    """The cheapest elementary subpath of one block under per-element
    duals, for each of a list of contribution boxes.

    ``boxes`` holds disjoint boxes; each restricts the final contribution
    vector to per-coordinate [lo, hi] ranges (concatenated coordinate
    space; None leaves an end open), and a single search answers them
    all.  ``banned`` elements are skipped entirely.
    ``objective`` is "rcost" or ("coord", c) to minimize one contribution
    coordinate instead (``BlockView.min_achievable``).  When ``tally`` is
    a dict, its ``"fill_labels"`` entry gains the number of states the
    search expands.

    The search is depth first and keeps no label store.  Each state
    carries its node sequence, and each completed subpath goes to the box
    holding its vector, where it replaces the box's answer when it sorts
    before it by (objective, vector, node sequence).  So every box gets
    the unique first subpath in that order, whatever order the states are
    visited in.

    A state is dropped, at entry and on extension, when its vector is
    above its node's ``BlockView.limits`` under the union's upper end on
    the monotone coordinates that every box bounds.  Every completion from
    node v adds at least v's least completion, and ``least[u] <=
    delta(u, t) + least[t]``, so neither the state nor any extension of
    it can end in a box.  A ``("coord", c)`` search, once every box has an
    answer, also lowers the limits on c to the worst answer's value less
    each node's least completion: a state dropped by that ends strictly
    above every answer, so ties are still searched.

    Returns one entry per box: the (Subpath, value) pair that sorts first,
    value being the scaled reduced cost (the scale is ``duals.denom``) or
    the coordinate's value, or None when no feasible subpath lies in the
    box.
    """
    view = block_view(problem, block_index)
    boxes = [tuple(box) for box in boxes]
    duals = as_scaled(duals)
    denom = duals.denom

    coord = None
    if objective != "rcost":
        kind, coord = objective
        if kind != "coord":
            raise LabelingError(f"unknown objective {objective!r}")

    n = view.n_coords
    top = [math.inf] * n
    for c in range(n):
        his = [box[c][1] for box in boxes]
        if view.coord_monotone[c] and None not in his:
            top[c] = max(his)
    limits = [list(limit) for limit in view.limits(top)]
    locate = _box_locator(boxes)

    banned_local = {view.local[k] for k in banned if k in view.local}
    gain = [duals.value(k) for k in view.elements]
    sub_checks = view.sub_checks
    arcs = [
        [
            (t, 1 << t, cost, cost * denom - gain[t], sub_d, coord_d,
             sub_checks[t], limits[t])
            for t, cost, sub_d, coord_d in outs
            if t not in banned_local
        ]
        for outs in view.arcs_out
    ]
    exits = [(cost, cost * denom, coord_d) for cost, _, coord_d in view.exit]

    # a state: (node, local node sequence, visited, rcost, cost, vector
    # on arrival, subpath-resource values)
    stack = []
    start = (0,) * view.n_sub
    for local, (cost, sub_d, contribs) in enumerate(view.entry):
        if local in banned_local or any(map(gt, contribs, limits[local])):
            continue
        values = _extend_sub(sub_checks[local], start, sub_d)
        if values is not None:
            stack.append((local, (local,), 1 << local, cost * denom - gain[local],
                          cost, contribs, values))
    kept = [None] * len(boxes)      # per box: (value, vector, nodes, cost)
    expanded = 0
    while stack:
        node, nodes, visited, rcost, cost, res, sub = stack.pop()
        expanded += 1
        exit_cost, scaled, exit_d = exits[node]
        contribs = tuple(map(add, res, exit_d))
        i = locate(contribs)
        if i >= 0:
            value = rcost + scaled if coord is None else contribs[coord]
            best = kept[i]
            if best is None or value < best[0] or value == best[0] and (
                    contribs < best[1] or contribs == best[1] and nodes < best[2]):
                kept[i] = (value, contribs, nodes, cost + exit_cost)
                if coord is not None and None not in kept:
                    cut = max(entry[0] for entry in kept)
                    for limit, least in zip(limits, view.least_completion()):
                        limit[coord] = min(limit[coord], cut - least[coord])
        for target, bit, arc_cost, step, sub_d, coord_d, checks, limit in arcs[node]:
            if visited & bit:
                continue
            ext = tuple(map(add, res, coord_d))
            if any(map(gt, ext, limit)):
                continue
            values = _extend_sub(checks, sub, sub_d)
            if values is not None:
                stack.append((target, nodes + (target,), visited | bit, rcost + step,
                              cost + arc_cost, ext, values))

    if tally is not None:
        tally["fill_labels"] += expanded
    elements = view.elements
    return [
        None if best is None else (
            Subpath(block_index, tuple([elements[i] for i in best[2]]), best[3], best[1]),
            best[0],
        )
        for best in kept
    ]
