"""Core model for nested path problems.

An instance is a layered element graph.  Elements are grouped into ordered
blocks; arcs connect elements of the same block; consecutive blocks are
fully connected through *boundary* arcs that separate into an exit half
(attached to the predecessor element) and an entry half (attached to the
successor element), so inter-block connectivity is never stored explicitly.
A master-problem column is a path that traverses exactly one subpath per
block.

Two resource families constrain paths:

* subpath resources -- scalar window resources that only bind inside their
  own block (think vehicle load, or duty elapsed time).  Windows on
  elements of other blocks are implicitly infinite and arcs of other
  blocks leave the value unchanged.
* path resources -- d-dimensional resources whose per-block contribution
  vectors are aggregated over blocks with a monotone separable operator
  (componentwise sum or componentwise max) and tested against a single
  downward-closed linear predicate ``a . v <= b`` (``a >= 0``) at the sink.

Contribution data is flat: a subpath's contributions and a path's
aggregate are single vectors in the concatenated coordinate space (every
path resource's coordinates in declaration order).  The problem derives
once, in that space, the aggregator of each coordinate, the predicates as
(weights, bound) pairs and the contribution box; path assembly
(:func:`check_path_feasible`) and the pricers' path searches use them.
Window semantics -- stepping subpath resources along a node sequence --
live in ``labeling.BlockView``.

Costs live in integer millicost units and resource values are integers, so
every feasibility and reduced-cost comparison in the package is exact.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, inf
from operator import mul
from typing import Mapping

SUM = "sum"
MAX = "max"
COVER = "cover"
PARTITION = "partition"

MILLI = 1000  # millicost units per cost unit; all Arc/Boundary costs are ints


class ModelError(ValueError):
    """Raised for malformed instances or ill-typed model operations."""


# ---------------------------------------------------------------------------
# graph pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arc:
    """Intra-block arc: cost plus one additive delta per resource it extends.

    ``sub_deltas`` follows the declaration order of the owning block's
    subpath resources; ``path_deltas`` holds one vector per path resource.
    Empty tuples mean all-zero deltas.
    """

    cost: int = 0
    sub_deltas: tuple[int, ...] = ()
    path_deltas: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class Boundary:
    """Separable half of a boundary arc.

    The entry half is charged when a subpath starts at an element (coming
    from the source or from any element of the previous block); the exit
    half when it ends there.  The full cost of the implicit inter-block
    arc (u, v) is exit(u).cost + entry(v).cost, and likewise for deltas.
    """

    cost: int = 0
    sub_deltas: tuple[int, ...] = ()
    path_deltas: tuple[tuple[int, ...], ...] = ()


_ZERO_BOUNDARY = Boundary()


@dataclass(frozen=True)
class Block:
    elements: tuple[int, ...]
    arcs: dict = field(default_factory=dict)    # (u, v) -> Arc
    entry: dict = field(default_factory=dict)   # element -> Boundary
    exit: dict = field(default_factory=dict)    # element -> Boundary

    def entry_at(self, v) -> Boundary:
        return self.entry.get(v, _ZERO_BOUNDARY)

    def exit_at(self, u) -> Boundary:
        return self.exit.get(u, _ZERO_BOUNDARY)


# ---------------------------------------------------------------------------
# resources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubpathResource:
    """Scalar window resource bound to one block.

    The value starts at 0, is extended additively by entry/arc deltas, and
    is checked against ``windows[element]`` at every visited element.  With
    ``floor_at_lower`` the value snaps up to the window's lower bound after
    each extension (time-window semantics); otherwise both window ends are
    hard bounds.  Windows are stored only for the owning block's elements,
    which is exactly the "inactive outside its block" requirement.
    """

    block: int
    windows: dict = field(default_factory=dict)  # element -> (lo | None, hi | None)
    floor_at_lower: bool = False

    def window(self, v) -> tuple[int | None, int | None]:
        return self.windows.get(v, (None, None))


@dataclass(frozen=True)
class PathResource:
    """Global d-dimensional resource with a linear sink predicate.

    ``agg`` is "sum" or "max" (componentwise).  ``box`` gives, per
    coordinate, the integer range that per-block contributions usually
    take; it seeds the bucket partition and is not itself a feasibility
    constraint.  A block with a subpath outside it that a path may use
    gets one more bucket on that side (``labeling.BlockView.reach``); in
    the routing encoding ``hi`` is the distance cap, and none does.
    """

    dim: int
    agg: str
    a: tuple[int, ...]
    b: int
    box: tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subpath:
    """A feasible element sequence within one block.

    ``cost`` includes the entry and exit boundary legs.  ``contributions``
    is the flat contribution vector in the problem's concatenated
    coordinate space (every path resource's coordinates in declaration
    order), accumulated along the same trajectory.
    """

    block: int
    nodes: tuple[int, ...]
    cost: int
    contributions: tuple[int, ...]


@dataclass(frozen=True)
class Path:
    """One subpath per block; the master problem prices these as columns.
    ``aggregate`` is the subpaths' contributions folded coordinate by
    coordinate."""

    subpaths: tuple[Subpath, ...]
    cost: int
    aggregate: tuple[int, ...]

    @property
    def covered(self) -> frozenset:
        return frozenset(k for sp in self.subpaths for k in sp.nodes)

    @property
    def node_key(self) -> tuple:
        """Identity used for column deduplication."""
        return tuple(sp.nodes for sp in self.subpaths)


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Duals:
    """Element duals plus the optional cardinality-row dual, as rationals:
    the input form of ``synth``'s oracles.  The master hands the pricers
    :class:`ScaledDuals`, the only form they take.

    The cardinality (convexity) dual is charged exactly once per path, on
    the source side, never at subpath level.
    """

    by_element: Mapping
    convexity: Fraction | int = 0

    def value(self, k):
        return self.by_element.get(k, 0)


@dataclass(frozen=True)
class ScaledDuals:
    """Duals as integers over one positive denominator: element k's dual
    is ``by_element[k] / denom``, the convexity dual ``convexity / denom``.
    The one dual form on the column-generation path, from the master's
    simplex through smoothing and the Lagrangian bound to the pricers,
    which carry reduced costs as ints scaled by ``denom``."""

    by_element: Mapping
    convexity: int
    denom: int

    def value(self, k) -> int:
        return self.by_element.get(k, 0)

    @classmethod
    def lowest_terms(cls, by_element, convexity, denom) -> "ScaledDuals":
        """The duals ``v / denom`` (``denom`` > 0) over their least common
        denominator: every value divided by the gcd of ``denom`` and all
        numerators, the convexity one included.  The lcm of the reduced
        denominators of the v / denom is denom over that gcd, so these are
        the rationals scaled by the lcm of their denominators, int for int."""
        g = gcd(denom, convexity, *by_element.values())
        if g == 1:
            return cls(by_element, convexity, denom)
        return cls({k: v // g for k, v in by_element.items()}, convexity // g, denom // g)


# ---------------------------------------------------------------------------
# the problem
# ---------------------------------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_data(item) -> bool:
    """Whether an Arc or Boundary has an integer cost and integer deltas."""
    return {type(item.cost), *map(type, item.sub_deltas),
            *(type(x) for v in item.path_deltas for x in v)} <= {int}


@dataclass
class NestedProblem:
    """A nested path problem instance.  Treat as immutable once built."""

    blocks: list
    subpath_resources: list = field(default_factory=list)
    path_resources: list = field(default_factory=list)
    sense: str = COVER
    cardinality: int | None = None
    name: str = "instance"

    def __post_init__(self):
        self._validate()
        self._index()
        self._views = {}       # labeling block views, keyed by block index

    # -- validation ---------------------------------------------------

    def _validate(self):
        if not self.blocks:
            raise ModelError("a problem needs at least one block")
        if self.sense not in (COVER, PARTITION):
            raise ModelError(f"unknown sense {self.sense!r}")
        if self.cardinality is not None and (
            not _is_int(self.cardinality) or self.cardinality < 1
        ):
            raise ModelError(
                "cardinality row needs a positive integer right-hand side"
            )
        seen = set()
        for bi, block in enumerate(self.blocks):
            if not block.elements:
                raise ModelError(f"block {bi} is empty")
            for k in block.elements:
                if k in seen:
                    raise ModelError(f"element {k} appears in more than one block")
                seen.add(k)
            elems = set(block.elements)
            for (u, v) in block.arcs:
                if u not in elems or v not in elems:
                    raise ModelError(f"arc ({u}, {v}) leaves block {bi}")
                if u == v:
                    raise ModelError(f"self-loop on element {u}")
            for v in list(block.entry) + list(block.exit):
                if v not in elems:
                    raise ModelError(f"boundary data for {v} outside block {bi}")
            for what, data in (("arc", block.arcs),
                               ("entry boundary of element", block.entry),
                               ("exit boundary of element", block.exit)):
                for key, item in data.items():
                    if not _int_data(item):
                        raise ModelError(
                            f"{what} {key} needs an integer cost and integer deltas"
                        )
        for ri, res in enumerate(self.subpath_resources):
            if not 0 <= res.block < len(self.blocks):
                raise ModelError(f"subpath resource {ri} references block {res.block}")
            elems = set(self.blocks[res.block].elements)
            for v, bounds in res.windows.items():
                if v not in elems:
                    raise ModelError(
                        f"subpath resource {ri} has a window on {v}, "
                        f"outside its block"
                    )
                if not all(x is None or _is_int(x) for x in bounds):
                    raise ModelError(
                        f"subpath resource {ri} has a non-integer window "
                        f"bound on element {v}: {bounds!r}"
                    )
        for ri, res in enumerate(self.path_resources):
            if res.agg not in (SUM, MAX):
                raise ModelError(f"unknown aggregator {res.agg!r}")
            if len(res.a) != res.dim or len(res.box) != res.dim:
                raise ModelError(f"path resource {ri} has inconsistent dimension")
            values = (*res.a, res.b, *(x for iv in res.box for x in iv))
            if not all(map(_is_int, values)):
                raise ModelError(
                    f"path resource {ri} needs integer weights, bound and box"
                )
            if any(w < 0 for w in res.a):
                raise ModelError("predicate weights must be nonnegative")
            if any(lo > hi for lo, hi in res.box):
                raise ModelError(f"path resource {ri} has an empty box")
        self._check_delta_shapes()

    def _check_delta_shapes(self):
        n_path = len(self.path_resources)
        for bi, block in enumerate(self.blocks):
            n_sub = sum(1 for r in self.subpath_resources if r.block == bi)
            items = list(block.arcs.values())
            items += list(block.entry.values()) + list(block.exit.values())
            for item in items:
                if item.sub_deltas and len(item.sub_deltas) != n_sub:
                    raise ModelError(
                        f"block {bi}: expected {n_sub} subpath deltas, "
                        f"got {len(item.sub_deltas)}"
                    )
                if item.path_deltas:
                    if len(item.path_deltas) != n_path:
                        raise ModelError(
                            f"block {bi}: expected {n_path} path-delta vectors"
                        )
                    for r, vec in zip(self.path_resources, item.path_deltas):
                        if len(vec) != r.dim:
                            raise ModelError("path delta has wrong dimension")

    # -- derived indexes ----------------------------------------------

    def _index(self):
        # subpath resources per block, in declaration order
        self.block_subs = [
            [ri for ri, r in enumerate(self.subpath_resources) if r.block == bi]
            for bi in range(len(self.blocks))
        ]
        # concatenated path-resource coordinate layout; the path predicate
        # in it: each coordinate's aggregator, one (weights, bound) per
        # resource, and the per-coordinate contribution box
        self.coord_offset = []
        off = 0
        for r in self.path_resources:
            self.coord_offset.append(off)
            off += r.dim
        self.total_coords = off
        self.aggs = tuple(r.agg for r in self.path_resources for _ in range(r.dim))
        self.predicates = tuple(
            ((0,) * o + tuple(r.a) + (0,) * (off - o - r.dim), r.b)
            for r, o in zip(self.path_resources, self.coord_offset)
        )
        self._box = tuple(iv for r in self.path_resources for iv in r.box)
        self.monotone = tuple(self._monotone(ri) for ri in range(len(self.path_resources)))

    def _monotone(self, ri: int) -> bool:
        """True when the aggregate is componentwise non-decreasing in the
        number of blocks appended -- always for max, and for sum exactly
        when no delta is negative."""
        res = self.path_resources[ri]
        if res.agg == MAX:
            return True
        for block in self.blocks:
            items = list(block.arcs.values())
            items += list(block.entry.values()) + list(block.exit.values())
            for item in items:
                if item.path_deltas and any(d < 0 for d in item.path_deltas[ri]):
                    return False
        return True

    # -- conveniences ---------------------------------------------------

    @property
    def elements(self) -> tuple:
        return tuple(k for b in self.blocks for k in b.elements)

    def contribution_box(self) -> tuple[tuple[int, int], ...]:
        """Per-coordinate (lo, hi) over the concatenated coordinate space."""
        return self._box

    def headroom(self, lows):
        """Per block and coordinate, the most a block's contribution can
        hold and still lie on a path that passes every predicate; None
        when no path can pass.

        ``lows[b][c]`` is at most every contribution of block b on
        coordinate c, -inf where nothing is known.  With every block at
        its low the predicates leave a coordinate ``rise`` of headroom
        (inf where no predicate with a finite slack weighs it); a block
        may hold up to that above its own low under ``SUM`` and above the
        largest low under ``MAX``.
        Above that, the weights being nonnegative and the other blocks
        adding at least their lows, the path fails the predicate that set
        the rise.  A zero weight never multiplies a low, so nothing here
        is nan."""
        least = [sum(col) if agg == SUM else max(col)
                 for agg, col in zip(self.aggs, zip(*lows))]
        slack = [bound - sum(w * x for w, x in zip(weights, least) if w)
                 for weights, bound in self.predicates]
        if any(s < 0 for s in slack):
            return None
        rise = [
            min((s // weights[c] for (weights, _), s in zip(self.predicates, slack)
                 if weights[c] and s != inf), default=inf)
            for c in range(self.total_coords)
        ]
        return [
            tuple(inf if r == inf else r + (own if agg == SUM else most)
                  for r, own, agg, most in zip(rise, low, self.aggs, least))
            for low in lows
        ]


# ---------------------------------------------------------------------------
# path assembly
# ---------------------------------------------------------------------------


def check_path_feasible(problem: NestedProblem, subpaths):
    """Assemble one subpath per block into a Path; None when the folded
    contribution vector fails a path predicate.

    Subpaths are assumed individually feasible (as the block tables of
    ``labeling.BlockView.table`` and the fill list them); only the
    ordering and the path-level predicates are checked here.
    """
    subpaths = tuple(subpaths)
    if len(subpaths) != len(problem.blocks):
        raise ModelError(
            f"need one subpath per block, got {len(subpaths)} "
            f"for {len(problem.blocks)} blocks"
        )
    for bi, sp in enumerate(subpaths):
        if sp.block != bi:
            raise ModelError("subpaths out of block order")
    aggregate = subpaths[0].contributions
    for sp in subpaths[1:]:
        aggregate = tuple([
            x + y if agg == SUM else max(x, y)
            for agg, x, y in zip(problem.aggs, aggregate, sp.contributions)
        ])
    for weights, bound in problem.predicates:
        if sum(map(mul, weights, aggregate)) > bound:
            return None
    return Path(subpaths, sum(sp.cost for sp in subpaths), aggregate)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------
#
# Schema, informally:
#
# {
#   "name": str, "sense": "cover" | "partition", "cardinality": int | null,
#   "blocks": [
#     {"elements": [int, ...],
#      "arcs": [[u, v, cost, [deltas...]], ...]}
#   ],
#   "source_arcs": [[v, cost, [deltas...]], ...],   # block-entry halves
#   "sink_arcs":   [[u, cost, [deltas...]], ...],   # block-exit halves
#   "subpath_resources": [
#     {"block": int, "floor": bool, "windows": {"elem": [lo|null, hi|null]}}
#   ],
#   "path_resources": [
#     {"dim": int, "agg": "sum"|"max", "a": [...], "b": int,
#      "box": [[lo, hi], ...]}
#   ]
# }
#
# A delta list is flat: the owning block's subpath-resource deltas in
# declaration order, then every path-resource coordinate in order.


def _flatten_deltas(sub_deltas, path_deltas, n_sub, n_coords):
    flat = list(sub_deltas) + [0] * (n_sub - len(sub_deltas))
    if path_deltas:
        for vec in path_deltas:
            flat.extend(vec)
    else:
        flat.extend([0] * n_coords)
    return flat


def _split_deltas(flat, n_sub, dims):
    flat = [_int(x) for x in flat]
    expected = n_sub + sum(dims)
    if len(flat) != expected:
        raise ModelError(f"expected {expected} deltas, got {len(flat)}")
    sub = tuple(flat[:n_sub])
    path = []
    off = n_sub
    for d in dims:
        path.append(tuple(flat[off:off + d]))
        off += d
    return sub, tuple(path)


def problem_to_json(problem: NestedProblem) -> dict:
    dims = [r.dim for r in problem.path_resources]
    n_coords = sum(dims)
    blocks = []
    source_arcs = []
    sink_arcs = []
    for bi, block in enumerate(problem.blocks):
        n_sub = len(problem.block_subs[bi])
        arcs = [
            [u, v, a.cost,
             _flatten_deltas(a.sub_deltas, a.path_deltas, n_sub, n_coords)]
            for (u, v), a in sorted(block.arcs.items())
        ]
        blocks.append({"elements": list(block.elements), "arcs": arcs})
        for v in block.elements:
            e = block.entry_at(v)
            source_arcs.append(
                [v, e.cost,
                 _flatten_deltas(e.sub_deltas, e.path_deltas, n_sub, n_coords)]
            )
            x = block.exit_at(v)
            sink_arcs.append(
                [v, x.cost,
                 _flatten_deltas(x.sub_deltas, x.path_deltas, n_sub, n_coords)]
            )
    return {
        "name": problem.name,
        "sense": problem.sense,
        "cardinality": problem.cardinality,
        "blocks": blocks,
        "source_arcs": source_arcs,
        "sink_arcs": sink_arcs,
        "subpath_resources": [
            {
                "block": r.block,
                "floor": r.floor_at_lower,
                "windows": {
                    str(v): [lo, hi] for v, (lo, hi) in sorted(r.windows.items())
                },
            }
            for r in problem.subpath_resources
        ],
        "path_resources": [
            {"dim": r.dim, "agg": r.agg, "a": list(r.a), "b": r.b,
             "box": [list(iv) for iv in r.box]}
            for r in problem.path_resources
        ],
    }


@contextmanager
def _entry(where):
    """Report a malformed part of a problem document as a ModelError
    that names it."""
    try:
        yield
    except KeyError as exc:
        raise ModelError(f"{where}: missing key {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ModelError(f"{where}: {exc}") from None


def _int(value):
    """An integral JSON number as an int; ModelError for anything else."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelError(f"expected an integer, got {value!r}")
    return value


def _bound(value):
    return None if value is None else _int(value)


def problem_from_json(data: dict) -> NestedProblem:
    """Build a problem from its JSON form (schema above).  A malformed
    document raises a ModelError that names the offending entry."""
    with _entry("problem"):
        raw_blocks = list(data["blocks"])
        cardinality = _bound(data.get("cardinality"))
    path_resources = []
    for ri, r in enumerate(data.get("path_resources", [])):
        with _entry(f"path_resources[{ri}]"):
            path_resources.append(PathResource(
                dim=_int(r["dim"]),
                agg=r["agg"],
                a=tuple(_int(w) for w in r["a"]),
                b=_int(r["b"]),
                box=tuple((_int(lo), _int(hi)) for lo, hi in r["box"]),
            ))
    dims = [r.dim for r in path_resources]

    elements = []
    block_of = {}
    for bi, rb in enumerate(raw_blocks):
        with _entry(f"blocks[{bi}]"):
            elements.append(tuple(_int(k) for k in rb["elements"]))
        for k in elements[-1]:
            block_of[k] = bi

    sub_resources = []
    for ri, r in enumerate(data.get("subpath_resources", [])):
        with _entry(f"subpath_resources[{ri}]"):
            sub_resources.append(SubpathResource(
                block=_int(r["block"]),
                windows={
                    int(v): (_bound(lo), _bound(hi))
                    for v, (lo, hi) in r.get("windows", {}).items()
                },
                floor_at_lower=bool(r.get("floor", False)),
            ))
    n_sub_of = [
        sum(1 for r in sub_resources if r.block == bi) for bi in range(len(raw_blocks))
    ]

    halves = {"source_arcs": [{} for _ in raw_blocks],
              "sink_arcs": [{} for _ in raw_blocks]}
    for key, per_block in halves.items():
        for i, item in enumerate(data.get(key, [])):
            with _entry(f"{key}[{i}]"):
                v, cost, flat = item
                v = _int(v)
                if v not in block_of:
                    raise ModelError(f"element {v} is in no block")
                bi = block_of[v]
                per_block[bi][v] = Boundary(
                    _int(cost), *_split_deltas(flat, n_sub_of[bi], dims)
                )

    blocks = []
    for bi, rb in enumerate(raw_blocks):
        arcs = {}
        for i, item in enumerate(rb.get("arcs", [])):
            with _entry(f"blocks[{bi}].arcs[{i}]"):
                u, v, cost, flat = item
                arcs[(_int(u), _int(v))] = Arc(
                    _int(cost), *_split_deltas(flat, n_sub_of[bi], dims)
                )
        blocks.append(Block(
            elements[bi], arcs, halves["source_arcs"][bi], halves["sink_arcs"][bi]
        ))
    return NestedProblem(
        blocks=blocks,
        subpath_resources=sub_resources,
        path_resources=path_resources,
        sense=data.get("sense", COVER),
        cardinality=cardinality,
        name=data.get("name", "instance"),
    )


def save_problem(problem: NestedProblem, path):
    with open(path, "w") as fh:
        json.dump(problem_to_json(problem), fh, indent=1)


def load_problem(path) -> NestedProblem:
    with open(path) as fh:
        return problem_from_json(json.load(fh))
