"""Path search engines and the compiled block they run on.

* :func:`label_search` -- a layer-by-layer label-setting search over
  per-block item lists: every path takes one item (a bucket or a subpath)
  from each block, and the items' contribution vectors aggregate per
  coordinate by sum or max.  The pricers run it with bucket lower corners
  (optimistic bound), with representatives (pessimistic bound) and over
  Pareto-kept subpaths (enumerative benchmark); :func:`through_values`
  runs it once per item, with the item's layer pinned to it, for the
  merge criterion.
* :func:`elementary_rcspp` -- the bucket fill, the one depth-first search
  over the elementary subpaths of a block, on :class:`BlockView`, the
  compiled form of a block (local element indices, padded subpath
  deltas, flat contribution deltas, sorted adjacency).  A state is
  dropped when its vector plus the least that any completion from its
  node can add (:meth:`BlockView.least_completion`, dual-independent and
  cached on the view) is above a given top, so no extension of it ends
  below.

Weighed by scaled reduced cost under the most upper end of a list of
contribution boxes, the search fills buckets.  Run over one box under
zero duals, it tells :meth:`BlockView.reach` where the block's subpaths
lie past a box: the range that the bucket partition tiles.  The one
labeling pass, over the same extensions, lists once, as data for the
enumerative pricer, each block's subpaths that no subpath with the same
elements dominates (:meth:`BlockView.table`; each pricing call skips the
rows that meet its ban mask).

The layered search stores labels, plain (rcost, vector, items, packed
load) tuples, only for the layers that a later layer extends: per item,
every label that fewer than ``top_k`` labels stored before it dominate
(:func:`_insert`); a stored label is never dropped.  A label dominates
another when every completion of it sorts before the same completion of
the other by (rcost, vector, items).  A dominator is a partial path on
the same item, so it takes the same completions, and dominance is strict
and transitive: a prefix of one of the first ``top_k`` paths never has
``top_k`` dominators.  Dominance prunes partial paths, so the last layer
has none: each stored label of the layer before it is extended by each
last-layer item straight into one bounded selection of the first
``top_k`` admitted paths in that order.  The result list is therefore a
prefix of the fully enumerated, sorted solution list.  Most extensions
fail a check, so a check whose nonzero weights fall only on ``SUM``
coordinates (an additive one: a path's weighted value is the sum of its
items', their loads) is met before the extension's vector is built.  Each
item carries its loads on every additive check packed into one int, in
fields as :class:`Packing` lays them out, and each label the sum of its
items' (:func:`_load_packing`); an extension passes them all when
``(room - held - load) & guard == guard``, room packing each bound plus
its field's guard bit, fields wide enough that no prefix of a path
borrows from the next.  Only an extension that passes builds its vector,
for the other checks (those on a ``MAX`` coordinate) and for the
selection; in the inner layers only the checks that prune take part, the
partial guard holding their bits.  The rules (combine, dominance, the
split of the checks) are built once per (aggs, checks, prune)
(:func:`_layer_rules`).

Bucket fill.  :func:`elementary_rcspp` answers every bucket box of one
block with a single depth-first search: it pops a state, sends it to the
box that holds it (a bisect over the boxes' packed corners,
:meth:`Packing.box_tables`), where it is kept when it sorts
first by (reduced cost, vector, node sequence), and pushes its
extensions; so every box gets exactly the result of its own search,
whatever order the loop visits.  It keeps no label store: a label could
only dominate labels with its own vector (two vectors may end in
different boxes), and such labels are too rare for a store to pay for
its keys.  A fill pays for its search and little else.  Each box comes
packed (:meth:`BlockView.fill_box`): a bucket packs its capped box once,
on its first fill, and keeps it.  The per-step weights of the duals
(:meth:`BlockView.step_weights`) come from the caller, which builds them
once per block and pricing call.  The search's compiled setup
(:meth:`BlockView._prepare`: packed caps, start states, arc tuples that
carry step indices) depends only on the limits' top and the ban mask; the
view keeps the setups whose (top, ban mask) recurs.  And each box's
winner stays a raw (reduced cost, vector, nodes) triple in a
:class:`Representative`, whose ``Subpath`` is built only when read.

Packed vectors.  The searches carry each contribution vector as one int
(:class:`Packing`): coordinate c as x - low, in a field of
w = (high - low).bit_length() bits under a guard bit, where (low, high)
are the view's :attr:`BlockView.bounds`; coordinate 0 is highest, so int
order is tuple order.  An extension is one addition, and with
cap - low + 2**w per field (cap clamped into [low - 1, high]) vec <= cap
on every coordinate exactly when ``(cap - vec) & guard == guard``, since
no field borrows; box corners (:meth:`Packing.corners`, packed once per
bucket and once per distinct subpath-resource window of a view) are
tested alike.  The plain packed cap (cap - low per field, no guard) also
orders: a vector within the cap on every field is within it as an int,
each field's value being at most the cap's, even when a clamped field is
low - 1 (-1 packed).  So a packed vector above the plain cap is above
the cap on some coordinate; the searches
sort each element's arcs by slack, cap less delta, descending, and
stop at the first arc whose slack is below the state's vector, since
every later slack is smaller still.  With one coordinate the int test is
the coordinate's, so the break leaves no extension above its cap.  The
subpath-resource values ride in a second int
(:attr:`BlockView.sub_packing`), in fields that hold every value an entry
delta or a floored lower end plus m - 1 arc deltas can reach, and each
extension tests its element's window as a box,
``(hi - s) & (s - lo) & guard == guard``.  Only when that fails
on a view with a floored resource does a branch raise each floored
value below its lower end to that end and test the upper ends again.
Only what leaves a search is unpacked: exact's table rows and each
box's fill winner.

All arithmetic is integer: duals arrive as ``model.ScaledDuals``, so
reduced costs stay exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, repeat, zip_longest
from operator import add, itemgetter, mul

from .model import SUM, ScaledDuals, Subpath


class LabelingError(ValueError):
    """Raised for inputs the engines cannot handle."""


@dataclass(frozen=True)
class SearchResult:
    nodes: tuple        # one item per block
    rcost: int
    resources: tuple


def _insert(store: list, label: tuple, dominates, top_k) -> bool:
    """Count-based retention: keep ``label`` unless top_k stored labels
    dominate it.  A stored label dearer than ``label`` dominates it never,
    so it is passed over without the call."""
    dominators = 0
    rcost = label[0]
    for other in store:
        if other[0] <= rcost and dominates(other, label):
            dominators += 1
            if dominators >= top_k:
                return False
    store.append(label)
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


@lru_cache(maxsize=32)
def _layer_rules(aggs, checks, prune):
    """(combine, dominates, additive, rest, partial_rest) for flat vectors
    whose coordinates aggregate by ``aggs`` (``SUM`` or ``MAX``), built
    once per (aggs, checks, prune).

    A check is additive when its nonzero weights fall only on ``SUM``
    coordinates: a path's weighted value is then the sum of its items'
    values, their loads.  ``additive`` lists those checks as (weights,
    bound, whether ``prune`` marks it); ``rest`` tests the other checks
    on a path's vector and ``partial_rest`` those of them that ``prune``
    marks on a partial path's, each None when there are none."""
    ops = [add if agg == SUM else max for agg in aggs]
    if all(op is add for op in ops):
        def combine(x, y):
            return tuple(map(add, x, y))
    else:
        def combine(x, y):
            return tuple([op(a, b) for op, a, b in zip(ops, x, y)])
    coords = range(len(aggs))
    sums = [i for i, op in enumerate(ops) if op is add]

    def dominates(a, b) -> bool:
        if a[0] > b[0]:
            return False
        x, y = a[1], b[1]
        for i in coords:
            if x[i] > y[i]:
                return False
        if a[0] < b[0]:
            return True
        for i in sums:
            if x[i] < y[i]:
                return True
        # the two can complete to paths equal in rcost and vector (a MAX
        # coordinate may catch up), which the sink orders by items
        return a[2] < b[2]

    additive, rest, partial = [], [], []
    for (weights, bound), flag in zip(checks, chain(prune, repeat(False))):
        if all(w == 0 or op is add for w, op in zip(weights, ops)):
            additive.append((weights, bound, flag))
        else:
            rest.append((weights, bound))
            if flag:
                partial.append((weights, bound))
    return (combine, dominates, tuple(additive),
            _within(rest) if rest else None, _within(partial) if partial else None)


def _load_packing(layers, additive):
    """(weights, room, guard, partial guard) that pack loads on the
    ``additive`` checks of :func:`_layer_rules` over ``layers``.

    An item's packed load, ``sum(map(mul, weights, vec))`` of its vector,
    holds its load on every additive check in one int, laid out as
    :class:`Packing` lays out a vector: check j's load in a field of w_j
    bits under a guard bit.  ``room`` packs each bound b_j plus 2**w_j.
    A label carries the sum of its items' packed loads, and an item
    extends a head within check j exactly when the guard bit of field j
    is set in ``room`` less the head's and the item's packed loads: the
    field holds b_j - P_j + 2**w_j, P_j the extension's load.  No prefix
    of a path loads more, either way, than the number of layers times
    the largest magnitude of a vector value times the sum of the
    magnitudes of the check's weights, and 2**w_j exceeds that plus
    |b_j|, so no field borrows or carries.  ``guard`` holds every check's guard bit and the
    partial guard those of the checks that prune; with no additive check
    every packed load and both guards are 0, and every item passes."""
    vectors = map(itemgetter(2), chain.from_iterable(layers))
    top = max(map(abs, chain.from_iterable(vectors)), default=0)
    weights = ()
    room = guard = partial = shift = 0
    for ws, bound, prunes in additive:
        bit = 1 << shift + (abs(bound) + len(layers) * top * sum(map(abs, ws))).bit_length()
        room += (bound << shift) + bit
        guard += bit
        if prunes:
            partial += bit
        weights = [x + (w << shift) for x, w in zip_longest(weights, ws, fillvalue=0)]
        shift = bit.bit_length()
    return weights, room, guard, partial


def label_search(layers, aggs, checks, prune=(), top_k: int = 1):
    """Up to ``top_k`` cheapest paths taking one item from every layer.

    ``layers`` holds one list per block of (item, rcost, vector) triples:
    any item token, its scaled reduced cost and its flat contribution
    vector.  Coordinate c of a path's vector is the sum or the max
    (``aggs[c]``) of its items' values.  ``checks`` holds (weights, bound)
    predicates every path's vector must satisfy; those that ``prune``
    marks also prune partial paths (only sound when the weighted value
    cannot decrease as blocks are added).  ``aggs``, ``checks`` and
    ``prune`` are tuples, whose rules :func:`_layer_rules` builds once.

    A first-layer label takes its item's vector as it is; a later label
    extends a stored label of the previous layer by one item.  Only the
    layers that a later layer extends store and dominate labels; the last
    layer's paths go straight to :func:`_select`.  An extension meets the
    additive checks on packed loads (:func:`_load_packing`) before its
    vector is built.  Returns :class:`SearchResult` objects for the first
    ``top_k`` feasible paths in (rcost, vector, items) order, so a
    smaller ``top_k`` returns a prefix of a larger one's list.
    """
    if top_k < 1:
        raise LabelingError("top_k must be positive")
    combine, dominates, additive, rest, partial_rest = _layer_rules(aggs, checks, prune)
    weights, room, guard, partial = _load_packing(layers, additive)
    *inner, last = layers
    # labels are (rcost, vector, items, packed load)
    if not inner:
        # a one-layer path is its item: extend the empty path, whose
        # vector is the identity of every aggregator
        empty = tuple(0 if agg == SUM else -math.inf for agg in aggs)
        return _select([(0, empty, (), 0)], last, weights, combine, room, guard, rest, top_k)
    stores = []
    for item, rcost, vec in inner[0]:
        load = sum(map(mul, weights, vec))
        ok = (room - load) & partial == partial and (partial_rest is None or partial_rest(vec))
        stores.append([(rcost, tuple(vec), (item,), load)] if ok else [])
    for layer in inner[1:]:
        loads = [sum(map(mul, weights, vec)) for _, _, vec in layer]
        new = [[] for _ in layer]
        for store in stores:
            for rcost, res, items, held in store:
                free = room - held
                for (item, step, vec), load, target in zip(layer, loads, new):
                    if (free - load) & partial != partial:
                        continue
                    ext = combine(res, vec)
                    if partial_rest is None or partial_rest(ext):
                        _insert(target, (rcost + step, ext, (*items, item), held + load),
                                dominates, top_k)
        stores = new
    heads = [lab for store in stores for lab in store]
    return _select(heads, last, weights, combine, room, guard, rest, top_k)


def _select(heads, layer, weights, combine, room, guard, rest, top_k):
    """The first ``top_k`` paths that pass the checks in (rcost, vector,
    items) order among the labels ``heads`` each extended by each item of
    ``layer``, items and labels carrying loads packed by ``weights``
    (:func:`_load_packing`).

    Heads go in rcost order and items in step order, so a row stops at
    the first candidate whose rcost sorts after the current top_k-th
    path's, and the search stops at the first row that starts there.  A
    candidate whose rcost can still sort first meets the additive checks
    on packed loads; its vector is built only when it passes them, and
    its items only when its (rcost, vector) can sort first.  Keys meet
    with ``<`` alone: items need define nothing else."""
    steps = sorted([(item, step, vec, sum(map(mul, weights, vec))) for item, step, vec in layer],
                   key=itemgetter(1))
    if not steps:
        return []
    heads.sort(key=itemgetter(0))
    lowest = steps[0][1]
    best = []           # (rcost, vector, items) in order, at most top_k
    cut = math.inf      # the top_k-th rcost, once there are top_k
    for base, res, prefix, held in heads:
        if base + lowest > cut:
            break
        free = room - held
        for item, step, vec, load in steps:
            rcost = base + step
            if rcost > cut:
                break
            if (free - load) & guard != guard:
                continue
            ext = combine(res, vec)
            if rest is not None and not rest(ext) or (rcost == cut and best[-1][1] < ext):
                continue
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


class Packing:
    """Vectors within per-coordinate ``bounds`` as ints, laid out as the module docstring says."""

    def __init__(self, bounds):
        self.bounds = bounds
        self.masks = [(1 << (hi - lo).bit_length()) - 1 for lo, hi in bounds]
        self.shifts = [sum(mask.bit_length() + 1 for mask in self.masks[c + 1:])
                       for c in range(len(bounds))]
        self.guard = sum((mask + 1) << s for mask, s in zip(self.masks, self.shifts))
        self.base = self.delta([lo for lo, _ in bounds])

    def delta(self, values) -> int:
        """What adding ``values`` adds to a packed vector."""
        return sum([x << s for x, s in zip(values, self.shifts)])

    def pack(self, ends, above=0) -> int:
        """``ends`` clamped into [low - 1 + above, high + above], packed."""
        return sum([min(max(x - lo, above - 1), hi - lo + above) << s
                    for x, (lo, hi), s in zip(ends, self.bounds, self.shifts)])

    def unpack(self, p) -> tuple:
        return tuple([(p >> s & mask) + lo
                      for s, mask, (lo, _) in zip(self.shifts, self.masks, self.bounds)])

    def corners(self, box) -> tuple:
        """(lower, upper) packed corners of (lo, hi) ranges, None open."""
        return (self.pack([-math.inf if lo is None else lo for lo, _ in box], 1),
                self.pack([math.inf if hi is None else hi for _, hi in box]))

    def box_tables(self, boxes):
        """(starts, reach, tests) over disjoint boxes given by their packed
        (lower, upper) corners first, in the lower corners' order: those
        corners, the running most of the upper ones, and per box (index,
        lower corner less guard, upper corner plus guard).  The box holding
        packed ``vec`` is among the boxes up to ``bisect_right(starts, vec)
        - 1`` whose reach is at least vec, and is the one that passes
        ``(vec - lo) & (hi - vec) & guard == guard``."""
        g = self.guard
        order = sorted(range(len(boxes)), key=boxes.__getitem__)
        return ([boxes[i][0] for i in order],
                list(accumulate([boxes[i][1] for i in order], max)),
                [(i, boxes[i][0] - g, boxes[i][1] + g) for i in order])


class BlockView:
    """Precomputed arrays for labeling over one block: elements get local
    indices 0..m-1 in ascending order (bit positions of the visited set, a
    Python int, so any block size works), path-resource deltas are
    flattened into the problem's concatenated coordinate space, and
    adjacency is sorted for determinism."""

    def __init__(self, problem, block_index):
        block = problem.blocks[block_index]
        self.problem = problem
        self.index = block_index
        self.elements = elements = tuple(sorted(block.elements))
        self.local = {k: i for i, k in enumerate(elements)}
        self.n_coords = problem.total_coords

        subs = [problem.subpath_resources[ri] for ri in problem.block_subs[block_index]]
        self.n_sub = len(subs)

        def leg(item):
            """(cost, padded subpath deltas, flat contribution deltas)."""
            sub = tuple(item.sub_deltas)
            flat = tuple([x for vec in item.path_deltas for x in vec])
            return item.cost, sub + (0,) * (self.n_sub - len(sub)), flat or (0,) * self.n_coords

        self.entry = [leg(block.entry_at(v)) for v in elements]
        self.exit = [leg(block.exit_at(v)) for v in elements]
        self.arcs_out = [[] for _ in elements]
        for (u, v), arc in sorted(block.arcs.items()):
            self.arcs_out[self.local[u]].append((self.local[v], *leg(arc)))
        # what a step adds to a subpath's cost, exit leg included, per
        # step index as step_weights lays them out
        m = len(elements)
        self._step_costs = [0] * ((m + 1) * m)
        for t, (cost, _, _) in enumerate(self.entry):
            self._step_costs[t] = cost + self.exit[t][0]
        for u, outs in enumerate(self.arcs_out):
            for t, cost, _, _ in outs:
                self._step_costs[(u + 1) * m + t] = cost + self.exit[t][0] - self.exit[u][0]

        # per coordinate, the (least, most) entry, exit and arc (0 included)
        # deltas: whether none is below 0, and the (least, most) that an
        # elementary subpath (entry, <= m - 1 arcs, exit) holds
        arcs = [(0, (), (0,) * self.n_coords), *(a[1:] for outs in self.arcs_out for a in outs)]
        spans = list(zip(*([(min(col), max(col)) for col in zip(*[flat for *_, flat in legs])]
                           for legs in (self.entry, self.exit, arcs))))
        self.coord_monotone = tuple(min(e[0], x[0], a[0]) >= 0 for e, x, a in spans)
        self.bounds = tuple((e[0] + (m - 1) * a[0] + x[0], e[1] + (m - 1) * a[1] + x[1])
                            for e, x, a in spans)
        # the subpath-resource values packed alike, in fields that hold
        # every value a window test sees (an entry delta or a floored
        # lower end, plus m - 1 arc deltas), and per element its window's
        # packed ends, less and plus the guard
        windows = [tuple(res.window(v) for res in subs) for v in elements]
        sub_bounds = []
        for j, res in enumerate(subs):
            firsts = [sub[j] for _, sub, _ in self.entry] + [
                w[j][0] for w in windows if res.floor_at_lower and w[j][0] is not None]
            steps = [0, *(sub[j] for outs in self.arcs_out for _, _, sub, _ in outs)]
            sub_bounds.append((min(firsts) + (m - 1) * min(steps),
                               max(firsts) + (m - 1) * max(steps)))
        subs_packed = self.sub_packing = Packing(sub_bounds)
        g = subs_packed.guard
        packed = {w: subs_packed.corners(w) for w in set(windows)}    # often shared
        ends = [(lo - g, hi + g) for lo, hi in map(packed.__getitem__, windows)]
        # (guard bit, field mask) per floored resource; the hard ones' guard bits
        self._lifts = [((mask + 1) << s, mask << s) for res, mask, s
                       in zip(subs, subs_packed.masks, subs_packed.shifts) if res.floor_at_lower]
        self._hard = g - sum(bit for bit, _ in self._lifts)
        # the searches' packed starts and, per arc, its packed contributions
        # less its tail's exit plus its head's, and its subpath deltas
        packing = self.packing = Packing(self.bounds)
        exits = [packing.delta(flat) for _, _, flat in self.exit]
        self._starts = [(v, (elements[v],), 1 << v, packing.delta(flat) + exits[v] - packing.base,
                         subs_packed.delta(sub_d) - subs_packed.base, *ends[v])
                        for v, (_, sub_d, flat) in enumerate(self.entry)]
        self._arcs = [
            [(t, (elements[t],), 1 << t, (u + 1) * m + t,
              packing.delta(flat) + exits[t] - exits[u], subs_packed.delta(sub_d), *ends[t])
             for t, _, sub_d, flat in outs]
            for u, outs in enumerate(self.arcs_out)
        ]
        self._least = None
        self._headroom = None
        self._reach = {}          # box -> reach
        self._setups = {}         # (top, ban mask) -> a search's setup, None until it recurs
        self._table = None

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
        least completion add, so it holds under any duals and any bans;
        cached on first use."""
        if self._headroom is None:
            problem = self.problem
            lows = []
            for bi in range(len(problem.blocks)):
                view = block_view(problem, bi)
                starts = [tuple(map(add, flat, least))
                          for (_, _, flat), least in zip(view.entry, view.least_completion())]
                lows.append(tuple(map(min, zip(*starts))))
            tops = problem.headroom(lows)
            self._headroom = (math.inf,) * self.n_coords if tops is None else tops[self.index]
        return self._headroom

    def step_weights(self, duals) -> list:
        """Per step, what it adds to a subpath's scaled reduced cost under
        scaled ``duals``, exit leg included.  In a block of m elements,
        step t starts a subpath at local element t and step
        (u + 1) * m + t extends one that ends at local element u to t.
        The adaptive pricer builds them once per block and pricing call,
        and every fill of the call reads them."""
        m = len(self.elements)
        gain = [duals.value(k) for k in self.elements]
        return [cost * duals.denom - gain[step % m]
                for step, cost in enumerate(self._step_costs)]

    def fill_box(self, box) -> tuple:
        """What the fill (:func:`elementary_rcspp`) reads of ``box``, (lo,
        hi) ranges with None open: (packed lower corner, packed upper
        corner, upper ends with open ones inf).  A bucket keeps its
        capped box's from its first fill on."""
        return (*self.packing.corners(box),
                tuple([math.inf if hi is None else hi for _, hi in box]))

    def _prepare(self, top, banned):
        """The compiled setup of the searches under ``top`` and ban mask
        ``banned``: its one-element states that avoid ``banned``, fit
        :meth:`limits` and pass their windows, as (element, node, bit,
        packed vector, packed subpath values), each one's step index being
        its element; and per local element, its arcs outside ``banned`` as
        (slack, head, node, bit, step index, delta, cap plus guard,
        subpath delta, window ends), packed, in descending slack, the
        head's packed cap less the delta.  Neither holds a dual, so a
        setup can serve every call under its (top, ban mask).  Most are
        asked for once: a refinement round's fill has a top of its own.
        So the view notes a key when it is first asked for and keeps the
        setup from the second time on, when it has shown that it recurs
        (in practice the top of a block's whole live partition)."""
        key = (tuple(top), banned)
        setup = self._setups.get(key)
        if setup is None:
            guard, sguard = self.packing.guard, self.sub_packing.guard
            caps = [self.packing.pack(map(add, limit, flat))
                    for limit, (_, _, flat) in zip(self.limits(top), self.exit)]
            arcs = [sorted([(caps[t] - delta, t, node, bit, step, delta, caps[t] + guard,
                             sub_d, lo, hi)
                            for t, node, bit, step, delta, sub_d, lo, hi in outs
                            if not banned & bit], key=itemgetter(0), reverse=True)
                    for outs in self._arcs]
            starts = []
            for v, node, bit, vec, sub, lo, hi in self._starts:
                if banned & bit or (caps[v] + guard - vec) & guard != guard:
                    continue
                if (hi - sub) & (sub - lo) & sguard != sguard:
                    sub = self._lift(sub, lo, hi)
                if sub is not None:
                    starts.append((v, node, bit, vec, sub))
            setup = (starts, arcs)
            self._setups[key] = setup if key in self._setups else None
        return setup

    def _lift(self, s, lo, hi):
        """Packed subpath-resource values ``s`` that failed the window
        test of packed ends ``lo`` and ``hi`` in a search, with each
        floored value below its lower end raised to that end; None when a
        hard value is below its lower end or a value is above its upper
        end.  A floored lower end lies within the field, so the lifted
        value keeps extending without a borrow."""
        guard = self.sub_packing.guard
        below = ~(s - lo) & guard
        if below & self._hard:
            return None
        for bit, mask in self._lifts:
            if below & bit:
                s += ((lo + guard) & mask) - (s & mask)
        return s if (hi - s) & guard == guard else None

    def reach(self, box) -> tuple:
        """Per coordinate, ``box``'s (lo, hi), stretched on a side where
        the block has a subpath outside it that a feasible path may use.

        lo becomes the least of :attr:`bounds` when the block has a
        subpath below lo, and hi becomes their most, capped by
        :meth:`headroom`, when it has one in (hi, most].  Dual-independent,
        and bans only take subpaths away; cached per box."""
        if box not in self._reach:
            tops = self.headroom()
            out = []
            for c, ((lo, hi), (least, most)) in enumerate(zip(box, self.bounds)):
                most = min(tops[c], most)
                if least < lo and self._finds(c, None, lo - 1):
                    lo = least
                if most > hi and self._finds(c, hi + 1, most):
                    hi = most
                out.append((lo, hi))
            self._reach[box] = tuple(out)
        return self._reach[box]

    def _finds(self, c, lo, hi) -> bool:
        """Whether some subpath holds lo..hi on coordinate c (lo None
        open): one fill (:func:`elementary_rcspp`) under zero duals over
        that range, open on every other coordinate."""
        box = [(None, None)] * self.n_coords
        box[c] = (lo, hi)
        [found] = elementary_rcspp(self.problem, self.index, ScaledDuals({}, 0, 1),
                                   boxes=[self.fill_box(box)], weights=[0] * len(self._step_costs))
        return found is not None

    def _mask(self, banned) -> int:
        mask = 0
        for k in banned:
            if k in self.local:
                mask |= 1 << self.local[k]
        return mask

    def table(self) -> "SubpathTable":
        """The block's subpaths that can enter a pricing call's front
        (:meth:`_enumerate`), as a :class:`SubpathTable` in (contribution
        vector, node sequence) order.  Dual-independent, so built once,
        without bans, and cached: a ban set only takes away the rows whose
        element mask meets it (:meth:`_mask`)."""
        if self._table is None:
            self._table = self._enumerate()
        return self._table

    def _enumerate(self) -> "SubpathTable":
        """The subpaths that can enter a pricing call's front, as a
        :class:`SubpathTable`.

        A labeling pass one depth at a time weighs the subpaths that
        extend within the :meth:`limits` of the block's
        :meth:`headroom` by cost, and drops each that a label with the
        same key dominates: one no dearer, no larger on any coordinate and
        before it in (cost, vector, node sequence) order.  The key is
        (last element, visited mask, packed subpath-resource values), the
        values by equality: under a hard lower window end a smaller value
        may fail where a larger one passes.  Labels of one key take the
        same extensions, duals are per element and a ban removes both or
        neither, so a dropped subpath never enters a front; only
        survivors extend, so every survivor's prefix is a survivor.

        The table keeps the survivors that no survivor with the same
        element mask dominates, sifted as each depth ends: a mask's
        survivors are all made at the depth of its size, so the pass holds
        one depth's survivors at a time.  Two such subpaths differ in
        reduced cost by their cost difference under any duals, and a ban
        removes both or neither, so a dropped one never enters a front
        either.  Every mask that has a survivor keeps one, so a row's mask
        less its last element, its prefix's mask, always has a row: the
        row's link in the table's ``chain``."""
        guard, sguard = self.packing.guard, self.sub_packing.guard
        lift = self._lift if self._lifts else None
        multi = self.n_coords > 1
        costs = self._step_costs
        starts, arcs = self._prepare(self.headroom(), 0)
        rows = []
        # one depth's labels: key -> [(cost, vector, nodes)]
        labels = {(v, bit, sub): [(costs[v], vec, node)] for v, node, bit, vec, sub in starts}
        while labels:
            depth, labels = labels, {}
            found = {}      # element mask -> [(cost, vector, nodes)]
            for (u, visited, sub), mates in depth.items():
                found.setdefault(visited, []).extend(mates)
                for cost, vec, nodes in mates:
                    for slack, t, node, bit, step, delta, cap, sub_d, lo, hi in arcs[u]:
                        if vec > slack:
                            break
                        if visited & bit:
                            continue
                        ext = vec + delta
                        if multi and (cap - ext) & guard != guard:
                            continue
                        s = sub + sub_d
                        if (hi - s) & (s - lo) & sguard != sguard and (
                                lift is None or (s := lift(s, lo, hi)) is None):
                            continue
                        c = cost + costs[step]
                        label = (c, ext, nodes + node)
                        others = labels.setdefault((t, visited | bit, s), [])
                        # same-key dominance: no dearer, no larger on any
                        # coordinate, and first in (cost, vector, nodes) order
                        for a in others:
                            if a[0] <= c and (ext + guard - a[1]) & guard == guard and a < label:
                                break
                        else:
                            others[:] = [a for a in others if not (
                                c <= a[0] and (a[1] + guard - ext) & guard == guard and label < a)]
                            others.append(label)
            # every label of a mask of this depth's size is made at this
            # depth, so its masks are final: per mask, in (cost, vector,
            # nodes) order, a survivor is kept unless an earlier kept one,
            # whose cost is then no larger, has no larger vector
            for mask, mates in found.items():
                front = []
                for cost, vec, nodes in sorted(mates):
                    if all((vec + guard - v) & guard != guard for v in front):
                        front.append(vec)
                        rows.append((vec, nodes, cost, mask))
        # (vector, nodes) pairs are distinct, so the sort never looks further
        rows.sort()
        first = {}          # element mask -> its first row
        for row, (_, _, _, mask) in enumerate(rows):
            first.setdefault(mask, row)
        chain = []
        for row in sorted(range(len(rows)), key=lambda row: len(rows[row][1])):
            nodes, mask = rows[row][1], rows[row][3]
            t = self.local[nodes[-1]]
            chain.append((row, first[mask ^ 1 << t] if len(nodes) > 1 else -1, t))
        vectors = [self.packing.unpack(vec) for vec, _, _, _ in rows]
        return SubpathTable(
            tuple([Subpath(self.index, nodes, cost, v)
                   for (_, nodes, cost, _), v in zip(rows, vectors)]),
            tuple(vectors),
            tuple([mask for _, _, _, mask in rows]),
            tuple(chain),
        )


class SubpathTable:
    """A block's subpaths that can enter a pricing call's front
    (:meth:`BlockView._enumerate`) in (contribution vector, node
    sequence) order, with each one's ``vectors`` (its contributions) and
    ``masks`` (its local elements as a bit set) beside it; a block's one
    table serves every ban mask.

    ``chain`` lists every row once, in order of subpath length, as (row,
    link, element): ``element`` is the row's last local element and
    ``link`` a row whose mask is the row's less that element (-1 for a
    one-element row), so it comes earlier in the chain.  A row's dual sum
    is then its link's plus one element's dual (:meth:`rcosts`)."""

    __slots__ = ("subpaths", "vectors", "masks", "chain")

    def __init__(self, subpaths, vectors, masks, chain):
        self.subpaths = subpaths
        self.vectors = vectors
        self.masks = masks
        self.chain = chain

    def __len__(self):
        return len(self.subpaths)

    def rcosts(self, duals, elements) -> list:
        """Per row, its scaled reduced cost under scaled ``duals``, the
        block's local elements being ``elements``: cost times the
        denominator less the sum of its elements' duals, that sum taking
        one addition per row along the chain."""
        gain = [duals.value(k) for k in elements]
        held = [0] * (len(self) + 1)        # held[-1] stays 0
        for row, link, t in self.chain:
            held[row] = held[link] + gain[t]
        denom = duals.denom
        return [sp.cost * denom - h for sp, h in zip(self.subpaths, held)]


def block_view(problem, block_index) -> BlockView:
    views = problem._views
    if block_index not in views:
        views[block_index] = BlockView(problem, block_index)
    return views[block_index]


@dataclass(eq=False, slots=True)
class Representative:
    """The subpath of a box that sorts first by (scaled reduced cost,
    contribution vector, node sequence) under some scaled duals, as the
    fill (:func:`elementary_rcspp`) found it: ``rcost``, scaled by
    ``duals.denom``, ``vector`` and ``nodes``.

    Its :class:`~nestedcg.model.Subpath` is built on first read of
    :attr:`subpath`: most representatives only price optimistic and
    pessimistic searches, and only a column, a merge or a reuse round
    needs the subpath itself."""

    rcost: int
    vector: tuple
    nodes: tuple
    block: int
    duals: object = field(repr=False)
    _subpath: Subpath | None = field(default=None, init=False, repr=False)

    @property
    def subpath(self) -> Subpath:
        """rcost = cost * denom - the nodes' duals, so the cost comes back
        exactly."""
        if self._subpath is None:
            duals = self.duals
            cost = (self.rcost + sum(map(duals.value, self.nodes))) // duals.denom
            self._subpath = Subpath(self.block, self.nodes, cost, self.vector)
        return self._subpath


def elementary_rcspp(
    problem,
    block_index: int,
    duals,
    *,
    boxes,
    weights,
    banned=frozenset(),
    tally=None,
):
    """The cheapest elementary subpath of one block under per-element
    duals, for each of a list of contribution boxes.

    ``boxes`` holds disjoint boxes, each as :meth:`BlockView.fill_box`
    gives it (packed corners and upper ends), and a single search answers
    them all.  ``banned`` elements are skipped entirely.  ``weights`` are
    the duals' :meth:`BlockView.step_weights`.  When ``tally`` is a dict,
    its ``"fill_labels"`` entry gains the number of states the search
    expands.

    The search pops a state, sends it to its box and pushes its
    extensions.  It runs weighed by scaled reduced cost, under the
    :meth:`BlockView.limits` of the boxes' most upper end on each monotone
    coordinate (inf elsewhere), so a subpath it drops ends in no box; its
    setup comes from :meth:`BlockView._prepare`, each element's arcs in
    descending packed slack, and a state stops at the first arc whose
    slack is below its vector (see "Packed vectors" in the module
    docstring).  An extension that breaks its element's subpath-resource
    window is no state; only a failed window test on a view with a
    floored resource takes the branch that lifts (:meth:`BlockView._lift`).
    A state goes to the box holding its packed vector, found by a bisect
    over :meth:`Packing.box_tables`, where it replaces the box's answer
    when it sorts before it by (reduced cost, vector, node sequence), so
    every box gets the first subpath in that order, whatever the visiting
    order.

    Returns one entry per box: the :class:`Representative` that sorts
    first, or None when no feasible subpath lies in the box; an empty
    list, without a search, for no boxes.
    """
    if not boxes:
        return []
    view = block_view(problem, block_index)
    top = [max(his) if mono else math.inf
           for his, mono in zip(zip(*[box[2] for box in boxes]), view.coord_monotone)]
    starts, reach, tests = view.packing.box_tables(boxes)
    guard = view.packing.guard
    sguard = view.sub_packing.guard
    lift = view._lift if view._lifts else None
    multi = view.n_coords > 1
    states, arcs = view._prepare(top, view._mask(banned))

    kept = [None] * len(boxes)      # per box: (rcost, vector, nodes)
    stack = [(v, node, bit, weights[v], vec, sub) for v, node, bit, vec, sub in states]
    expanded = len(stack)
    while stack:
        u, nodes, visited, rcost, vec, sub = stack.pop()
        k = bisect_right(starts, vec) - 1
        while k >= 0 and reach[k] >= vec:
            i, lower, upper = tests[k]
            if (vec - lower) & (upper - vec) & guard == guard:
                best = kept[i]
                if best is None or rcost < best[0] or rcost == best[0] and (
                        vec < best[1] or vec == best[1] and nodes < best[2]):
                    kept[i] = (rcost, vec, nodes)
                break
            k -= 1
        for slack, t, node, bit, step, delta, cap, sub_d, lo, hi in arcs[u]:
            if vec > slack:
                break
            if visited & bit:
                continue
            ext = vec + delta
            if multi and (cap - ext) & guard != guard:
                continue
            s = sub + sub_d
            if (hi - s) & (s - lo) & sguard != sguard and (
                    lift is None or (s := lift(s, lo, hi)) is None):
                continue
            stack.append((t, nodes + node, visited | bit, rcost + weights[step], ext, s))
            expanded += 1

    if tally is not None:
        tally["fill_labels"] += expanded
    unpack = view.packing.unpack
    return [None if best is None else
            Representative(best[0], unpack(best[1]), best[2], block_index, duals)
            for best in kept]
