"""Helpers shared by several test modules."""

import itertools
from collections import Counter, defaultdict
from math import lcm
from operator import le, sub
from unittest import mock

from nestedcg import driver, synth
from nestedcg.buckets import Partition
from nestedcg.labeling import block_view, elementary_rcspp
from nestedcg.model import Path, ScaledDuals, Subpath, check_path_feasible
from nestedcg.pricing import AdaptivePricer, ExactPricer, PricingConfig


def scaled(duals):
    """Rational ``Duals`` as the ``ScaledDuals`` the pricers and the fill
    take: every value times the lcm of all denominators, so reduced costs
    are ints scaled by that lcm."""
    mu = duals.convexity
    denom = lcm(mu.denominator, *(v.denominator for v in duals.by_element.values()))
    lam = {k: v.numerator * (denom // v.denominator) for k, v in duals.by_element.items()}
    return ScaledDuals(lam, mu.numerator * (denom // mu.denominator), denom)


def reduced_cost(obj, duals):
    """Cost minus covered-element duals; paths also pay the convexity dual."""
    if isinstance(obj, Subpath):
        covered, convexity = obj.nodes, 0
    elif isinstance(obj, Path):
        covered = [k for sp in obj.subpaths for k in sp.nodes]
        convexity = duals.convexity
    else:
        raise TypeError(f"cannot price a {type(obj).__name__}")
    return obj.cost - sum(duals.value(k) for k in covered) - convexity


def usable_subpaths(problem, block_index, banned=frozenset()):
    """The oracle's subpaths of one block that avoid ``banned`` and that
    some choice of the other blocks' oracle subpaths completes to a path
    passing the predicates.  The predicates are downward closed and both
    aggregators grow with each block's vector, so only one subpath per
    componentwise-least vector of each other block needs trying."""
    choices = []
    for bi in range(len(problem.blocks)):
        subs = synth.enumerate_block_subpaths(problem, bi, banned)
        if bi != block_index:
            least = {sp.contributions: sp for sp in subs}
            subs = [sp for vec, sp in least.items()
                    if not any(other != vec and all(map(le, other, vec))
                               for other in least)]
        choices.append(subs)
    own, out = choices[block_index], set()
    for sp in own:
        choices[block_index] = [sp]
        if any(check_path_feasible(problem, path) is not None
               for path in itertools.product(*choices)):
            out.add(sp)
    return out


def limited_subpaths(problem, block_index, top, banned=frozenset()):
    """The oracle's subpaths of one block that avoid ``banned`` and whose
    every prefix, on arrival at its last element (exit leg not yet added),
    is within that element's limit under ``top`` (``BlockView.limits``):
    the states of a depth-first search of the block under ``top``, such
    as the fill's.  Every prefix of an oracle subpath is one too."""
    view = block_view(problem, block_index)
    limits = view.limits(top)
    subpaths = synth.enumerate_block_subpaths(problem, block_index, banned)
    within = {}
    for sp in subpaths:
        v = view.local[sp.nodes[-1]]
        within[sp.nodes] = all(map(le, map(sub, sp.contributions, view.exit[v][2]), limits[v]))
    return [sp for sp in subpaths
            if all(within[sp.nodes[:j]] for j in range(1, len(sp.nodes) + 1))]


def check_table(problem, block_index, rows, banned=frozenset()):
    """Assert the contract of a block's subpath table on its ``rows``
    that avoid ``banned``: every row is an oracle subpath, no row
    dominates another with the same elements, every multi-element row's
    elements less its last one are some row's elements, and every usable
    subpath has a row with the same elements that is no dearer, no larger
    on any coordinate and, on a full tie, not later by node sequence."""
    rows = set(rows)
    assert rows <= set(synth.enumerate_block_subpaths(problem, block_index, banned))
    mates = defaultdict(list)
    for sp in rows:
        mates[frozenset(sp.nodes)].append(sp)
    assert undominated(rows) == rows
    assert all(frozenset(sp.nodes[:-1]) in mates for sp in rows if len(sp.nodes) > 1)
    for sp in usable_subpaths(problem, block_index, banned):
        key = (sp.cost, sp.contributions, sp.nodes)
        assert any(row.cost <= sp.cost and all(map(le, row.contributions, sp.contributions))
                   and (row.cost, row.contributions, row.nodes) <= key
                   for row in mates[frozenset(sp.nodes)]), sp


def undominated(subpaths):
    """The set of ``subpaths`` that no other of them with the same
    elements dominates: no dearer, no larger on any coordinate and before
    it by (cost, contributions, nodes)."""
    mates = defaultdict(list)
    for sp in subpaths:
        mates[frozenset(sp.nodes)].append((sp.cost, sp.contributions, sp.nodes, sp))
    return {sp for group in mates.values() for cost, vec, nodes, sp in group
            if not any(c <= cost and all(map(le, v, vec)) and (c, v, n) < (cost, vec, nodes)
                       for c, v, n, _ in group)}


def fill_boxes(problem, block_index, duals, boxes, **kwargs):
    """``labeling.elementary_rcspp`` over plain boxes, (lo, hi) per
    coordinate with None open, weighed by scaled ``duals``: per box, its
    winner as a (Subpath, scaled reduced cost) pair, or None."""
    view = block_view(problem, block_index)
    found = elementary_rcspp(problem, block_index, duals,
                             boxes=[view.fill_box(tuple(box)) for box in boxes],
                             weights=view.step_weights(duals), **kwargs)
    return [None if rep is None else (rep.subpath, rep.rcost) for rep in found]


def in_box(vec, box):
    """Whether ``vec`` lies in a box of (lo, hi) ranges, None leaving an
    end open."""
    return all((lo is None or lo <= x) and (hi is None or x <= hi)
               for x, (lo, hi) in zip(vec, box))


def quarter_width(problem):
    """Bucket widths a quarter of the contribution box on every coordinate."""
    return tuple(max(1, (hi - lo + 1) // 4) for lo, hi in problem.contribution_box())


def count_refinements(monkeypatch):
    """Split counts per block, filled in by every ``Partition.refine_bucket``
    call made while ``monkeypatch`` is active."""
    counts = Counter()
    refine = Partition.refine_bucket

    def counted(self, bucket, strategy):
        counts[bucket.block] += 1
        return refine(self, bucket, strategy)

    monkeypatch.setattr(Partition, "refine_bucket", counted)
    return counts


def replay_exact_calls(problem):
    """Solve ``problem`` with the exact pricer and dive on, recording every
    pricing call's duals, bans and exclusions; then replay those calls in
    order into one default adaptive pricer with quarter-box buckets.
    Returns one ``((infeasible, optimistic) of exact, the same of
    adaptive)`` pair per call."""
    calls = []

    class Recording(ExactPricer):
        def price(self, duals, banned=frozenset(), exclude=frozenset()):
            out = super().price(duals, banned, exclude)
            calls.append((duals, banned, exclude, (out.infeasible, out.optimistic)))
            return out

    with mock.patch.object(driver, "ExactPricer", Recording):
        driver.solve(problem, driver.DriverConfig(pricer="exact", dive=True))
    adaptive = AdaptivePricer(problem, PricingConfig(width=quarter_width(problem)))
    pairs = []
    for duals, banned, exclude, exact in calls:
        out = adaptive.price(duals, banned, exclude)
        pairs.append((exact, (out.infeasible, out.optimistic)))
    return pairs
