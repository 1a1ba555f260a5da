"""Label-setting search engines.

Two engines share one count-based retention core (:func:`_insert`):

* :func:`label_search` -- a layer-by-layer search over per-block item
  lists: every path takes one item (a bucket or a subpath) from each
  block, and the items' contribution vectors aggregate per coordinate by
  sum or max.  The pricers run it with bucket lower corners (optimistic
  bound), with representatives (pessimistic bound) and over Pareto-kept
  subpaths (enumerative benchmark); :func:`through_values` runs the same
  pass forward and over the reversed block list for the merge criterion.
* :func:`elementary_rcspp` -- elementary resource-constrained search over
  one block of a nested problem, used to compute bucket representatives
  and as the default per-block subpath pricer.

Dominance is configured per resource coordinate: ``LE`` (smaller-or-equal
dominates) or ``EQ`` (values must match); the layered search uses ``LE``
throughout.  Both engines keep up to ``top_k`` mutually non-dominated
labels per node -- a label is only discarded once at least ``top_k``
stored labels dominate it -- which makes the returned result list a
prefix of the fully enumerated, rcost-sorted solution list.

Bucket fill.  A contribution box fixes the dominance mode of every
coordinate -- its *dominance signature*: ``EQ`` where the box's lower
bound exceeds the smallest value the block can reach (so it can bind),
``LE`` elsewhere.  :func:`elementary_rcspp` answers a whole list of
disjoint boxes of one signature with a single search, pruning with the
union of their upper bounds and sending each completed subpath to the
box that holds it; every box gets exactly the result of its own search
(the argument is in the function's docstring).  Within a search, each
node's labels are stored under their ``EQ`` values, because labels with
different ``EQ`` values never dominate one another.

All arithmetic is integer: callers pass duals through
``model.Duals.scaled()`` so reduced costs stay exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from operator import add, mul

from .model import SUM, Duals, ScaledDuals, Subpath

LE = "le"
EQ = "eq"


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

    def dominates(a: _Label, b: _Label) -> bool:
        if a.rcost > b.rcost:
            return False
        x, y = a.res, b.res
        for i in coords:
            if x[i] > y[i]:
                return False
        return True

    partial = [check for check, flag in zip(checks, prune) if flag]
    return combine, dominates, _within(checks), _within(partial)


def _forward(layers, rules, top_k):
    """Label stores of every item, one list of stores per layer.

    A first-layer label takes its item's vector as it is; a later label
    extends a stored label of the previous layer by one item.  Labels are
    offered in a fixed order -- the previous layer's items in list order,
    each item's labels in store order, the new layer's items in list
    order -- so ties between equal labels always resolve the same way.
    """
    combine, dominates, _, partial_ok = rules
    stores = [[
        [_Label(item, rcost, tuple(vec))] if partial_ok(vec) else []
        for item, rcost, vec in layers[0]
    ]]
    for layer in layers[1:]:
        new = [[] for _ in layer]
        for store in stores[-1]:
            for lab in store:
                rcost, res = lab.rcost, lab.res
                for (item, step, vec), target in zip(layer, new):
                    ext = combine(res, vec)
                    if partial_ok(ext):
                        _insert(target, _Label(item, rcost + step, ext, pred=lab),
                                dominates, top_k)
        stores.append(new)
    return stores


def label_search(layers, aggs, checks, prune=(), top_k: int = 1):
    """Up to ``top_k`` cheapest paths taking one item from every layer.

    ``layers`` holds one list per block of (item, rcost, vector) triples:
    any item token, its scaled reduced cost and its flat contribution
    vector.  Coordinate c of a path's vector is the sum or the max
    (``aggs[c]``) of its items' values.  ``checks`` holds (weights, bound)
    predicates every path's vector must satisfy; those that ``prune``
    marks also prune partial paths (only sound when the weighted value
    cannot decrease as blocks are added).

    Returns :class:`SearchResult` objects sorted by (rcost, vector,
    items); the rcost sequence is a prefix of the sorted rcosts of all
    feasible paths.
    """
    if top_k < 1:
        raise LabelingError("top_k must be positive")
    rules = _layer_rules(aggs, checks, prune)
    _, dominates, admits, _ = rules
    sink = []
    for store in _forward(layers, rules, top_k)[-1]:
        for lab in store:
            if admits(lab.res):
                _insert(sink, lab, dominates, top_k)
    sink.sort(key=lambda l: (l.rcost, l.res, l.sequence()))
    return [SearchResult(lab.sequence(), lab.rcost, lab.res) for lab in sink[:top_k]]


def through_values(layers, aggs, checks, prune=()):
    """Smallest rcost of a feasible path through each item, one list per
    layer (``math.inf`` where no feasible path passes the item).

    An item's labels from the forward pass are joined with the labels
    that a pass over the reversed layers keeps at the next layer's items;
    Pareto dominance on both sides loses no minimum, since extending a
    dominating label keeps it dominating.
    """
    rules = _layer_rules(aggs, checks, prune)
    combine, _, admits, _ = rules
    fwd = _forward(layers, rules, 1)
    bwd = _forward(layers[::-1], rules, 1)[::-1]
    out = []
    for bi, stores in enumerate(fwd):
        tails = None
        if bi + 1 < len(layers):
            tails = sorted(
                ((lab.rcost, lab.res) for store in bwd[bi + 1] for lab in store),
                key=lambda t: t[0],
            )
        values = []
        for store in stores:
            best = math.inf
            for lab in store:
                if tails is None:
                    if lab.rcost < best and admits(lab.res):
                        best = lab.rcost
                    continue
                for rcost, res in tails:
                    total = lab.rcost + rcost
                    if total >= best:
                        break
                    if admits(combine(lab.res, res)):
                        best = total
            values.append(best)
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

        self.coord_monotone = self._coord_monotone()
        self.sub_modes = tuple(LE if safe else EQ for safe in self._sub_le_safe())
        self._min_achievable = {}

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
            results = elementary_rcspp(
                self.problem, self.index, objective=("coord", coord)
            )
            # when minimizing a coordinate the reported rcost is its value
            self._min_achievable[coord] = results[0][1] if results else None
        return self._min_achievable[coord]

    def modes(self, box) -> tuple:
        """Dominance mode per contribution coordinate under a contribution
        box (the box's *dominance signature*): a lower bound that can bind
        -- above the smallest value the block can reach -- forces ``EQ``;
        every other coordinate is ``LE``."""
        out = []
        for c, (lo, _) in enumerate(box):
            if lo is None:
                out.append(LE)
                continue
            reachable = self.min_achievable(c)
            out.append(LE if reachable is None or lo <= reachable else EQ)
        return tuple(out)


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
    contribution_box=None,
    boxes=None,
    banned=frozenset(),
    top_k: int = 1,
    objective="rcost",
):
    """Cheapest elementary subpaths of one block under per-element duals.

    ``contribution_box`` optionally restricts the final contribution
    vector to per-coordinate [lo, hi] ranges (concatenated coordinate
    space).  ``boxes`` instead takes a list of disjoint boxes that share
    one dominance signature (:meth:`BlockView.modes`) and answers all of
    them with a single search; a lone ``contribution_box`` is the
    one-element case.  ``banned`` elements are skipped entirely.
    ``objective`` is "rcost" or ("coord", c) to minimize one contribution
    coordinate instead (used to decide when a box lower bound can
    actually bind).

    Why one search answers every box exactly as its own search would:
    labels are only pruned above the union's upper bounds, and a label
    above a box's upper bound on a monotone coordinate is larger on an
    ``LE`` or ``EQ`` coordinate than every label that can still end in
    the box, so it dominates none of them; neither do its descendants,
    which stay above that bound.  The in-box labels therefore meet the
    same dominance checks in the same FIFO order as in the box's own
    search.  Each completed subpath goes to the box holding its
    contribution vector.

    Each node's labels are stored under their values on the ``EQ``
    coordinates and subpath resources: labels with different keys can
    never dominate one another, so insertion compares only within a key.

    Returns up to ``top_k`` (Subpath, scaled_rcost) pairs sorted by
    (reduced cost, contribution vector, node sequence) -- one such list
    per box when ``boxes`` is given; the scale is ``duals.denom``.
    """
    view = block_view(problem, block_index)
    single = boxes is None
    if single:
        boxes = [contribution_box]
    elif contribution_box is not None:
        raise LabelingError("pass contribution_box or boxes, not both")
    if not boxes:
        return []
    unbounded = ((None, None),) * view.n_coords
    boxes = [unbounded if box is None else tuple(box) for box in boxes]
    modes = view.modes(boxes[0])
    if any(view.modes(box) != modes for box in boxes[1:]):
        raise LabelingError("boxes searched together must share a dominance signature")

    if duals is None:
        duals = ScaledDuals({}, 0, 1)
    elif isinstance(duals, Duals):
        duals = duals.scaled()
    denom = duals.denom

    minimize_coord = None
    if objective != "rcost":
        kind, minimize_coord = objective
        if kind != "coord":
            raise LabelingError(f"unknown objective {objective!r}")

    n = view.n_coords
    eq_coords = [c for c in range(n) if modes[c] == EQ]
    le_coords = [c for c in range(n) if modes[c] == LE]
    eq_subs = [j for j, m in enumerate(view.sub_modes) if m == EQ]
    le_subs = [j for j, m in enumerate(view.sub_modes) if m == LE]
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

    store = [{} for _ in view.elements]   # node -> EQ key -> labels
    queue = deque()
    kept = [[] for _ in boxes]            # per box: best-first candidates

    def offer(lab):
        """Insert a new label; on success queue and complete it."""
        key = tuple([lab.res[c] for c in eq_coords] + [lab.sub[j] for j in eq_subs])
        labels = store[lab.node].get(key)
        if labels is None:
            labels = store[lab.node][key] = []
        if not _insert(labels, lab, dominates, top_k):
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
        best = kept[i]
        pos = len(best)
        while pos and _precedes(rcost, contribs, lab, best[pos - 1]):
            pos -= 1
        if pos < top_k:
            best.insert(pos, (rcost, contribs, lab, lab.cost + cost))
            del best[top_k:]

    def too_high(contribs):
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

    out = [
        [
            (
                Subpath(
                    block_index,
                    tuple(view.elements[i] for i in lab.sequence()),
                    total_cost,
                    _unflatten(problem, contribs),
                ),
                rcost,
            )
            for rcost, contribs, lab, total_cost in best
        ]
        for best in kept
    ]
    return out[0] if single else out


def _unflatten(problem, flat):
    out = []
    for r, off in zip(problem.path_resources, problem.coord_offset):
        out.append(tuple(flat[off:off + r.dim]))
    return tuple(out)
