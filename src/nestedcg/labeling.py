"""Label-setting search engines and the compiled block they run on.

Two searches share one count-based retention core (:func:`_insert`):

* :func:`label_search` -- a layer-by-layer search over per-block item
  lists: every path takes one item (a bucket or a subpath) from each
  block, and the items' contribution vectors aggregate per coordinate by
  sum or max.  The pricers run it with bucket lower corners (optimistic
  bound), with representatives (pessimistic bound) and over Pareto-kept
  subpaths (enumerative benchmark); :func:`through_values` runs it once
  per item, with the item's layer pinned to it, for the merge criterion.
* :func:`elementary_rcspp` -- elementary resource-constrained search over
  one block of a nested problem under a list of contribution boxes: the
  bucket fill.

Both the fill and the enumerative pricer work on :class:`BlockView`, the
one compiled form of a block (local element indices, padded subpath
deltas, flat contribution deltas, sorted adjacency);
:meth:`BlockView.table` enumerates every feasible subpath of a block
once, as data for the enumerative pricer (:class:`SubpathTable`), and
filters it per ban set.

The layered search keeps, per item, every label that fewer than
``top_k`` stored labels dominate.  A label dominates another when every
completion of it sorts before the same completion of the other by
(rcost, vector, items); the sink sorts the last layer's labels in that
order, so the result list is a prefix of the fully enumerated, sorted
solution list.  The bucket fill needs one cheapest subpath per box, so
it keeps the Pareto labels (``top_k`` = 1).

Bucket fill.  :func:`elementary_rcspp` answers every bucket box of one
block with a single search: it prunes with the union of their upper
ends and sends each completed subpath to the box that holds it.  Each
node's labels are stored under their whole contribution vector, so a
label only ever meets labels that end in the same boxes, and every box
gets exactly the result of its own search (the argument is in the
function's docstring).

All arithmetic is integer: callers pass duals through
``model.Duals.scaled()`` so reduced costs stay exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from operator import add, mul

from .model import SUM, Subpath, as_scaled


class LabelingError(ValueError):
    """Raised for inputs the engines cannot handle."""


@dataclass(frozen=True)
class SearchResult:
    nodes: tuple        # one item per block
    rcost: int
    resources: tuple


class _Label:
    __slots__ = ("node", "rcost", "res", "visited", "pred", "alive", "cost", "sub")

    def __init__(self, node, rcost, res, visited=0, pred=None, cost=0, sub=()):
        self.node = node
        self.rcost = rcost
        self.res = res
        self.visited = visited
        self.pred = pred
        self.alive = True
        self.cost = cost      # unscaled cost, tracked by the rcspp engine
        self.sub = sub        # subpath-resource values, rcspp only

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
    extends a stored label of the previous layer by one item.  Returns
    :class:`SearchResult` objects for the first ``top_k`` feasible paths
    in (rcost, vector, items) order, so a smaller ``top_k`` returns a
    prefix of a larger one's list.
    """
    if top_k < 1:
        raise LabelingError("top_k must be positive")
    combine, dominates, admits, partial_ok = _layer_rules(aggs, checks, prune)
    stores = [
        [_Label(item, rcost, tuple(vec))] if partial_ok(vec) else []
        for item, rcost, vec in layers[0]
    ]
    for layer in layers[1:]:
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
    sink = [lab for store in stores for lab in store if admits(lab.res)]
    sink.sort(key=lambda l: (l.rcost, l.res, l.sequence()))
    return [SearchResult(lab.sequence(), lab.rcost, lab.res) for lab in sink[:top_k]]


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
        self.sub_resources = subs
        self.n_sub = len(subs)
        floor = tuple(problem.subpath_resources[ri].floor_at_lower for ri in subs)
        # per element: one (floor_at_lower, lo, hi) triple per subpath resource
        self.sub_checks = [
            tuple(
                (fl, *problem.subpath_resources[ri].window(v))
                for fl, ri in zip(floor, subs)
            )
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

        self.coord_monotone = self._coord_monotone()
        self.sub_le = self._sub_le_safe()
        self._min_achievable = {}
        self._tables = {}         # block-local banned mask -> SubpathTable

    def _coord_monotone(self):
        mono = [True] * self.n_coords
        rows = self.entry + self.exit
        rows += [(c, s, f) for outs in self.arcs_out for (_, c, s, f) in outs]
        for _, _, coords in rows:
            for c, d in enumerate(coords):
                if d < 0:
                    mono[c] = False
        return tuple(mono)

    def _sub_le_safe(self):
        """Smaller-is-better dominance is sound per subpath resource when
        its lower window bounds can never bind."""
        out = []
        for j, ri in enumerate(self.sub_resources):
            res = self.problem.subpath_resources[ri]
            if res.floor_at_lower:
                out.append(True)
                continue
            lowers = [w[0] for w in (res.window(v) for v in self.elements)]
            finite = [lo for lo in lowers if lo is not None]
            if not finite:
                out.append(True)
                continue
            deltas_nonneg = True
            for cost, sub, _ in self.entry + self.exit:
                if sub[j] < 0:
                    deltas_nonneg = False
            for outs in self.arcs_out:
                for _, _, sub, _ in outs:
                    if sub[j] < 0:
                        deltas_nonneg = False
            out.append(deltas_nonneg and all(lo <= 0 for lo in finite))
        return tuple(out)

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

    def _mask(self, banned) -> int:
        mask = 0
        for k in banned:
            if k in self.local:
                mask |= 1 << self.local[k]
        return mask

    def table(self, banned=frozenset()) -> "SubpathTable":
        """Every feasible elementary subpath of the block that avoids
        ``banned``, as a :class:`SubpathTable` in (contribution vector,
        node sequence) order.  Dual-independent, so cached per
        block-local ban set.

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
        """Depth-first search over every feasible elementary subpath."""
        elements, sub_checks = self.elements, self.sub_checks
        m = len(elements)
        stack = []
        for v, (cost, sub_d, flat) in enumerate(self.entry):
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
                nxt = _extend_sub(sub_checks[t], values, sub_d)
                if nxt is not None:
                    stack.append((t, nodes + (elements[t],), visited | 1 << t, nxt,
                                  cost + arc_cost, tuple(map(add, flat, arc_flat)),
                                  row, (u + 1) * m + t))
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
    """A block's feasible subpaths in (contribution vector, node sequence)
    order, with each one's ``vectors`` (its contributions) and ``masks``
    (its local elements as a bit set) beside it.

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
        if lo is not None and val < lo:
            if not floor:
                return None
            val = lo
        if hi is not None and val > hi:
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


def _precedes(rcost, contribs, lab, entry) -> bool:
    """Whether a candidate sorts before a kept ``entry`` by (rcost,
    contribs, node sequence); sequences are built only to break ties."""
    if rcost != entry[0]:
        return rcost < entry[0]
    if contribs != entry[1]:
        return contribs < entry[1]
    return lab.sequence() < entry[2].sequence()


def elementary_rcspp(
    problem,
    block_index: int,
    duals=None,
    *,
    boxes,
    banned=frozenset(),
    objective="rcost",
):
    """The cheapest elementary subpath of one block under per-element
    duals, for each of a list of contribution boxes.

    ``boxes`` holds disjoint boxes; each restricts the final contribution
    vector to per-coordinate [lo, hi] ranges (concatenated coordinate
    space; None leaves an end open), and a single search answers them
    all.  ``banned`` elements are skipped entirely.
    ``objective`` is "rcost" or ("coord", c) to minimize one contribution
    coordinate instead (``BlockView.min_achievable``), which compares
    coordinates smaller-or-equal.

    Each node's labels are stored under their whole contribution vector
    and the values of the subpath resources whose lower windows can bind
    (``BlockView.sub_le``); labels with one key compare on reduced cost,
    visited set and the other subpath resources.  So a label only meets
    labels that end in the same boxes, and a dominating label reaches
    every completion of the dominated one at the same vector and no
    higher reduced cost.  Labels are pruned above the union's upper ends;
    a label above one box's upper end on a monotone coordinate, and its
    descendants, never meet a label that can end in that box, so those
    meet the same checks in the same FIFO order as in the box's own
    search.  Each completed subpath goes to the box holding its vector.

    Returns one entry per box: the (Subpath, scaled_rcost) pair that
    sorts first by (reduced cost, contribution vector, node sequence), or
    None when no feasible subpath lies in the box; the scale is
    ``duals.denom``.
    """
    view = block_view(problem, block_index)
    boxes = [tuple(box) for box in boxes]
    duals = as_scaled(duals)
    denom = duals.denom

    minimize_coord = None
    if objective != "rcost":
        kind, minimize_coord = objective
        if kind != "coord":
            raise LabelingError(f"unknown objective {objective!r}")

    n = view.n_coords
    le_coords = range(n) if minimize_coord is not None else ()
    eq_subs = [j for j, le in enumerate(view.sub_le) if not le]
    le_subs = [j for j, le in enumerate(view.sub_le) if le]
    # (coordinate, union upper bound) pairs that prune partial labels
    caps = []
    for c in range(n):
        his = [box[c][1] for box in boxes]
        if view.coord_monotone[c] and None not in his:
            caps.append((c, max(his)))
    locate = _box_locator(boxes)

    banned_local = {view.local[k] for k in banned if k in view.local}
    gain = [duals.value(k) for k in view.elements]
    arcs = [
        [
            (t, 1 << t, cost, cost * denom - gain[t], sub_d, coord_d)
            for t, cost, sub_d, coord_d in outs
            if t not in banned_local
        ]
        for outs in view.arcs_out
    ]

    def dominates(a, b):
        if a.rcost > b.rcost or a.visited & ~b.visited:
            return False
        x, y = a.res, b.res
        for c in le_coords:
            if x[c] > y[c]:
                return False
        x, y = a.sub, b.sub
        for j in le_subs:
            if x[j] > y[j]:
                return False
        return True

    store = [{} for _ in view.elements]   # node -> key -> labels
    queue = deque()
    kept = [None] * len(boxes)            # per box: the best candidate

    def offer(lab):
        """Insert a new label; on success queue and complete it."""
        key = (lab.res if minimize_coord is None else (), *[lab.sub[j] for j in eq_subs])
        labels = store[lab.node].get(key)
        if labels is None:
            labels = store[lab.node][key] = []
        if not _insert(labels, lab, dominates, 1):
            return
        queue.append(lab)
        cost, _, coord_d = view.exit[lab.node]
        contribs = tuple(map(add, lab.res, coord_d))
        i = locate(contribs)
        if i < 0:
            return
        if minimize_coord is None:
            rcost = lab.rcost + cost * denom
        else:
            rcost = contribs[minimize_coord]
        if kept[i] is None or _precedes(rcost, contribs, lab, kept[i]):
            kept[i] = (rcost, contribs, lab, lab.cost + cost)

    def too_high(contribs):
        """Whether a label is above the union's upper ends."""
        for c, hi in caps:
            if contribs[c] > hi:
                return True
        return False

    for local in range(len(view.elements)):
        if local in banned_local:
            continue
        cost, sub_d, contribs = view.entry[local]
        values = _extend_sub(view.sub_checks[local], (0,) * view.n_sub, sub_d)
        if values is None or too_high(contribs):
            continue
        if minimize_coord is None:
            rcost = cost * denom - gain[local]
        else:
            rcost = contribs[minimize_coord]
        offer(_Label(local, rcost, contribs, visited=1 << local, cost=cost, sub=values))

    sub_checks = view.sub_checks
    while queue:
        lab = queue.popleft()
        if not lab.alive:
            continue
        visited, res, sub = lab.visited, lab.res, lab.sub
        for target, bit, cost, step, sub_d, coord_d in arcs[lab.node]:
            if visited & bit:
                continue
            values = _extend_sub(sub_checks[target], sub, sub_d)
            if values is None:
                continue
            contribs = tuple(map(add, res, coord_d))
            if too_high(contribs):
                continue
            if minimize_coord is None:
                rcost = lab.rcost + step
            else:
                rcost = contribs[minimize_coord]
            offer(_Label(
                target, rcost, contribs, visited=visited | bit,
                pred=lab, cost=lab.cost + cost, sub=values,
            ))

    out = []
    for best in kept:
        if best is not None:
            rcost, contribs, lab, total_cost = best
            nodes = tuple(view.elements[i] for i in lab.sequence())
            best = (Subpath(block_index, nodes, total_cost, contribs), rcost)
        out.append(best)
    return out
