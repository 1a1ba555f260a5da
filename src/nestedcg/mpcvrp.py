"""Multi-period capacitated vehicle routing with a fleet distance cap.

Blocks are days.  A column is a vehicle *schedule*: one depot-to-depot
route on every day of the horizon.  Vehicle load is a subpath resource
(running demand total, capped by Q at every stop); cumulative route
distance is a one-dimensional path resource summed over days and capped
by D per vehicle.  Customers are partitioned (each visited exactly once,
on its assigned day) and a cardinality row pins the number of schedules
to the fleet size K.

Distances follow the classical rounded-Euclidean convention (nearest
integer, which is unambiguous for integer coordinates); model costs are
those integers in millicost units so that bucket coordinates stay small
while LP arithmetic stays exact.

The distance cap of a generated instance interpolates between two
calibrated anchors: ``d_min``, the per-vehicle share of the summed
optimal daily routing costs, and ``d_max``, the best max-workload
assignment of those same optimal routes to vehicles.  Both anchors are
computed exactly: Held-Karp over each day's capacity-feasible customer
sets prices every possible route, and a split of the day into one route
per vehicle is searched only over the customer sets the full day's
split reaches.  Both still grow as 2^n in the customers per day, which
is why the generator enforces a desk-scale limit on them.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from operator import add
from pathlib import Path

from .model import (
    MILLI,
    PARTITION,
    SUM,
    Arc,
    Block,
    Boundary,
    ModelError,
    NestedProblem,
    PathResource,
    SubpathResource,
    _bound,
    _entry,
    _int,
)

# Exact calibration prices every capacity-feasible customer set of a day,
# up to 2^14 of them, and refuses a larger day.  The limit also fixes
# which instances exist, so raising it is a change to the generator.
MAX_DAY_SIZE = 14

_INF = math.inf


def euclidean(a, b) -> int:
    """Rounded-Euclidean distance between two integer points."""
    return int(math.hypot(a[0] - b[0], a[1] - b[1]) + 0.5)


# ---------------------------------------------------------------------------
# instance model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapDerivation:
    """How a distance cap was derived: anchors, interpolation, and seed."""

    d_min: Fraction
    d_max: int
    delta: Fraction
    seed: int | None = None


@dataclass(frozen=True)
class MpcvrpInstance:
    days: int
    vehicles: int
    capacity: int
    depot: tuple[int, int]
    customers: tuple[tuple[int, int], ...]
    demands: tuple[int, ...]
    day_of: tuple[int, ...]
    distance_cap: int
    derivation: CapDerivation | None = None
    name: str = "mpcvrp"

    def __post_init__(self):
        if self.days < 1 or self.vehicles < 1 or self.capacity < 1:
            raise ModelError("days, vehicles and capacity must be positive")
        if self.distance_cap <= 0:
            raise ModelError("distance cap must be positive")
        if not (len(self.customers) == len(self.demands) == len(self.day_of)):
            raise ModelError("customers, demands and day_of must align")
        for i, d in enumerate(self.demands):
            if not 1 <= d <= self.capacity:
                raise ModelError(f"demand of customer {i} outside [1, Q]")
        seen_days = set()
        for i, t in enumerate(self.day_of):
            if not 0 <= t < self.days:
                raise ModelError(f"customer {i} assigned to unknown day {t}")
            seen_days.add(t)
        if len(seen_days) != self.days:
            raise ModelError("every day needs at least one customer")

    def day_members(self, day: int) -> tuple[int, ...]:
        """Customer indices visited on ``day``, in index order."""
        return tuple(i for i, t in enumerate(self.day_of) if t == day)


# ---------------------------------------------------------------------------
# nested-problem encoding
# ---------------------------------------------------------------------------


def build_nested(instance: MpcvrpInstance) -> NestedProblem:
    """Encode an instance as a nested path problem.

    One block per day over that day's customers, complete intra-day arcs,
    and depot legs carried by the boundary halves.  The load window is
    checked at every stop; the distance contribution of a day is the full
    route length including both depot legs.
    """
    blocks = []
    sub_resources = []
    for day in range(instance.days):
        members = instance.day_members(day)
        entry = {}
        exits = {}
        arcs = {}
        for u in members:
            leg_in = euclidean(instance.depot, instance.customers[u])
            leg_out = euclidean(instance.customers[u], instance.depot)
            entry[u] = Boundary(
                cost=leg_in * MILLI,
                sub_deltas=(instance.demands[u],),
                path_deltas=((leg_in,),),
            )
            exits[u] = Boundary(cost=leg_out * MILLI, path_deltas=((leg_out,),))
            for w in members:
                if w == u:
                    continue
                hop = euclidean(instance.customers[u], instance.customers[w])
                arcs[(u, w)] = Arc(
                    cost=hop * MILLI,
                    sub_deltas=(instance.demands[w],),
                    path_deltas=((hop,),),
                )
        blocks.append(Block(members, arcs, entry, exits))
        sub_resources.append(
            SubpathResource(
                block=day,
                windows={u: (None, instance.capacity) for u in members},
            )
        )
    distance = PathResource(
        dim=1,
        agg=SUM,
        a=(1,),
        b=instance.distance_cap,
        box=((0, instance.distance_cap),),
    )
    return NestedProblem(
        blocks=blocks,
        subpath_resources=sub_resources,
        path_resources=[distance],
        sense=PARTITION,
        cardinality=instance.vehicles,
        name=instance.name,
    )


# ---------------------------------------------------------------------------
# exact daily routing (calibration backend)
# ---------------------------------------------------------------------------


def _route_costs(instance: MpcvrpInstance, day: int):
    """route_cost[mask] for one day: the length of the cheapest closed
    route over the day's customers in ``mask`` (local bit positions), or
    inf when their demand exceeds capacity.

    Held-Karp over the capacity-feasible sets only, one set size at a
    time: a set's row holds, for each local j, the length of the cheapest
    depot-start path visiting exactly the set and ending at j.
    Demands are at least 1, so a set over capacity has no feasible
    superset, and a set grows only by the customers that still fit.
    """
    members = instance.day_members(day)
    m = len(members)
    if m > MAX_DAY_SIZE:
        raise ModelError(
            f"day {day} has {m} customers; exact calibration handles at most "
            f"{MAX_DAY_SIZE}"
        )
    pts = [instance.customers[i] for i in members]
    dist = [[euclidean(a, b) for b in pts] for a in pts]
    leg = [euclidean(instance.depot, p) for p in pts]
    demand = [instance.demands[i] for i in members]
    by_demand = sorted(range(m), key=demand.__getitem__)

    route_cost = [_INF] * (1 << m)
    # longer than any open path, it stands for "no path" in a row (int
    # sums run faster than sums with a float inf)
    longer = 1 + max(leg) + m * max(map(max, dist))
    steps = [(j, 1 << j, dist[j]) for j in range(m)]
    loads = {}
    rows = {}
    for j in range(m):
        loads[1 << j] = demand[j]
        rows[1 << j] = row = [longer] * m
        row[j] = leg[j]
    while rows:
        grown = {}
        for mask, row in rows.items():
            route_cost[mask] = min(map(add, row, leg))
            load = loads[mask]
            room = instance.capacity - load
            for w in by_demand:
                if demand[w] > room:
                    break
                if not mask >> w & 1:
                    grown[mask | 1 << w] = load + demand[w]
        # every one-smaller subset of a grown set is feasible, so in rows
        shorter, rows, loads = rows, {}, grown
        for mask in grown:
            rows[mask] = row = [longer] * m
            for j, bit, hop in steps:
                if mask & bit:
                    row[j] = min(map(add, shorter[mask ^ bit], hop))
    return route_cost


def solve_day(instance: MpcvrpInstance, day: int):
    """Exact daily routing: cheapest partition of the day's customers into
    exactly one capacity-feasible route per vehicle.

    Returns (total_distance, route_lengths), one length per route.
    Raises ModelError when no such partition exists.

    A split of a mask into r routes takes the route holding the mask's
    lowest customer first (so every split is met once), then splits the
    rest into r - 1.  Routes are tried in decreasing mask order and the
    first strict minimum wins, which fixes the route lengths that
    ``d_max`` reads when partitions tie.  Splits into r >= 2 routes are
    evaluated only at the masks a split into r + 1 reads, starting from
    the full mask; one route is ``route_cost`` itself.
    """
    k = instance.vehicles
    route_cost = _route_costs(instance, day)
    m = len(instance.day_members(day))
    full = (1 << m) - 1
    if k > m:
        raise ModelError(f"day {day}: {k} routes need at least {k} customers")

    # split[r][mask]: (cost, first route) of mask's cheapest split into r
    split = [{} for _ in range(k + 1)]

    def cheapest(r, mask):
        if r == 1:
            return route_cost[mask], mask
        hit = split[r].get(mask)
        if hit is not None:
            return hit
        low = mask & -mask
        others = mask ^ low
        best, arg = _INF, 0
        sub = others
        while sub:
            sub = (sub - 1) & others
            route = sub | low
            cost = route_cost[route]
            if cost < best:  # not an infeasible route (inf), nor too long
                if r == 2:
                    cost += route_cost[mask ^ route]
                else:
                    cost += cheapest(r - 1, mask ^ route)[0]
                if cost < best:
                    best, arg = cost, route
        split[r][mask] = best, arg
        return best, arg

    total, _ = cheapest(k, full)
    if total == _INF:
        raise ModelError(
            f"day {day}: no partition into {k} capacity-feasible routes"
        )

    lengths = []
    mask = full
    for r in range(k, 0, -1):
        route = cheapest(r, mask)[1]
        lengths.append(route_cost[route])
        mask ^= route
    return total, tuple(reversed(lengths))


def calibrate_caps(instance: MpcvrpInstance, delta, seed=None) -> CapDerivation:
    """Compute the cap anchors for an instance.

    ``d_min`` spreads the summed optimal daily routing cost evenly over
    the fleet.  ``d_max`` keeps those same optimal routes but assigns
    them to vehicles so the largest per-vehicle total is smallest; with K
    routes per day that is an exact enumeration of per-day assignments
    (vehicles are interchangeable, so the first day is pinned).

    ``delta`` is taken as ``Fraction(str(delta))`` unless it is a
    Fraction, and checked before any day is solved: anything but a
    finite number in [0, 1] raises a ``ModelError``.
    """
    try:
        value = delta if isinstance(delta, Fraction) else Fraction(str(delta))
    except (ValueError, ZeroDivisionError):     # 'nan', 'inf', '1/0', ...
        value = None
    if value is None or not 0 <= value <= 1:
        raise ModelError(f"delta must be a finite number in [0, 1], got {delta!r}")
    k = instance.vehicles
    day_routes = []
    total = 0
    for day in range(instance.days):
        cost, lengths = solve_day(instance, day)
        total += cost
        day_routes.append(lengths)

    best = _INF
    tail = [list(itertools.permutations(range(k))) for _ in day_routes[1:]]
    for assignment in itertools.product(*tail):
        loads = list(day_routes[0])
        for lengths, perm in zip(day_routes[1:], assignment):
            for v in range(k):
                loads[v] += lengths[perm[v]]
        worst = max(loads)
        if worst < best:
            best = worst
    return CapDerivation(d_min=Fraction(total, k), d_max=int(best), delta=value, seed=seed)


# ---------------------------------------------------------------------------
# point pools
# ---------------------------------------------------------------------------


def parse_points(text: str):
    """Parse NODE_COORD_SECTION / DEMAND_SECTION data into aligned
    (coords, demands) tuples ordered by 1-based node id.

    Every value must be an integer, though it may be written as one
    (``12.0``); a fractional value or a node id given twice in a section
    raises a ModelError that names the node."""
    coords = {}
    demands = {}
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "EOF":
            section = None
            continue
        upper = line.upper()
        if upper.startswith("NODE_COORD_SECTION"):
            section = "NODE_COORD_SECTION"
            continue
        if upper.startswith("DEMAND_SECTION"):
            section = "DEMAND_SECTION"
            continue
        if ":" in line and section is None:
            continue  # header key/value
        if upper.endswith("_SECTION"):
            section = None
            continue
        fields = line.split()
        if section == "NODE_COORD_SECTION" and len(fields) == 3:
            table = coords
        elif section == "DEMAND_SECTION" and len(fields) == 2:
            table = demands
        else:
            continue
        node = _whole(fields[0], fields[0])
        if node in table:
            raise ModelError(f"node {node}: listed twice in {section}")
        table[node] = tuple(_whole(f, node) for f in fields[1:])
    if not coords:
        raise ModelError("no NODE_COORD_SECTION entries found")
    ids = sorted(coords)
    if ids != list(range(1, len(ids) + 1)):
        raise ModelError("node ids must be contiguous from 1")
    out_coords = tuple(coords[i] for i in ids)
    out_demands = tuple(demands.get(i, (1,))[0] for i in ids)
    return out_coords, out_demands


def _whole(field: str, node) -> int:
    """A point-file value as an int; ``node`` names the line's node."""
    try:
        value = Fraction(field)
    except ValueError:
        value = None
    if value is None or value.denominator != 1:
        raise ModelError(f"node {node}: {field!r} is not an integer")
    return int(value)


def load_points(path=None):
    """The bundled desk-scale point pool, parsed once per process, or any
    file in the same format, read on every call."""
    if path is None:
        return _bundled_points()
    return parse_points(Path(path).read_text())


@functools.cache
def _bundled_points():
    return parse_points(
        resources.files("nestedcg").joinpath("data/points.txt").read_text()
    )


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def generate_instance(
    points=None,
    *,
    n: int,
    days: int,
    vehicles: int,
    delta,
    seed: int,
    capacity: int | None = None,
    name: str | None = None,
) -> MpcvrpInstance:
    """Draw a desk-scale instance from a point pool.

    Samples (n + 1) * days distinct pool points: ``n`` customers for each
    day plus one depot (the draw beyond the customer chunks).  Unless
    given, the capacity is set just high enough that every day provably
    splits into ``vehicles`` feasible routes while single-route days stay
    excluded.  The distance cap interpolates the calibration anchors:
    floor(d_min + delta * (d_max - d_min)).
    """
    if n < vehicles:
        raise ModelError("need at least as many customers per day as vehicles")
    coords, demands = points if points is not None else load_points()
    need = (n + 1) * days
    if need > len(coords):
        raise ModelError(f"pool has {len(coords)} points, need {need}")
    rng = random.Random(seed)
    drawn = rng.sample(range(len(coords)), need)
    chosen = drawn[: n * days]
    depot = coords[drawn[n * days]]
    day_of = tuple(i // n for i in range(n * days))
    cust = tuple(coords[i] for i in chosen)
    dem = tuple(demands[i] for i in chosen)

    if capacity is None:
        worst_day = max(
            sum(dem[i] for i in range(t * n, (t + 1) * n)) for t in range(days)
        )
        capacity = -(-worst_day // vehicles) + max(dem)

    probe = MpcvrpInstance(
        days=days,
        vehicles=vehicles,
        capacity=capacity,
        depot=depot,
        customers=cust,
        demands=dem,
        day_of=day_of,
        distance_cap=1,  # placeholder until calibrated
    )
    derivation = calibrate_caps(probe, delta, seed)
    cap = math.floor(
        derivation.d_min + derivation.delta * (derivation.d_max - derivation.d_min)
    )
    if name is None:
        name = (
            f"mpcvrp-n{n}-t{days}-k{vehicles}"
            f"-d{float(derivation.delta):g}-s{seed}"
        )
    return replace(probe, distance_cap=cap, derivation=derivation, name=name)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def instance_to_json(instance: MpcvrpInstance) -> dict:
    data = {
        "kind": "mpcvrp",
        "name": instance.name,
        "days": instance.days,
        "vehicles": instance.vehicles,
        "capacity": instance.capacity,
        "distance_cap": instance.distance_cap,
        "depot": list(instance.depot),
        "customers": [list(c) for c in instance.customers],
        "demands": list(instance.demands),
        "day_of": list(instance.day_of),
    }
    if instance.derivation is not None:
        d = instance.derivation
        data["derivation"] = {
            "d_min": str(d.d_min),
            "d_max": d.d_max,
            "delta": str(d.delta),
            "seed": d.seed,
        }
    return data


def _point(value):
    x, y = value
    return _int(x), _int(y)


def instance_from_json(data: dict) -> MpcvrpInstance:
    """Build an instance from its JSON form (:func:`instance_to_json`).  A
    malformed document raises a ModelError that names the offending
    field."""

    def field(key, parse=_int):
        with _entry(key):
            return parse(data[key])

    derivation = None
    if data.get("derivation"):
        with _entry("derivation"):
            d = data["derivation"]
            derivation = CapDerivation(
                # as calibrate_caps reads them: a float 0.3 is 3/10
                d_min=Fraction(str(d["d_min"])),
                d_max=_int(d["d_max"]),
                delta=Fraction(str(d["delta"])),
                seed=_bound(d.get("seed")),
            )
    return MpcvrpInstance(
        days=field("days"),
        vehicles=field("vehicles"),
        capacity=field("capacity"),
        depot=field("depot", _point),
        customers=field("customers", lambda cs: tuple(map(_point, cs))),
        demands=field("demands", lambda ds: tuple(map(_int, ds))),
        day_of=field("day_of", lambda ts: tuple(map(_int, ts))),
        distance_cap=field("distance_cap"),
        derivation=derivation,
        name=data.get("name", "mpcvrp"),
    )


def save_instance(instance: MpcvrpInstance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_json(instance), indent=2) + "\n")
