"""Adaptive and enumerative pricers against the exhaustive oracle: bound
sandwich, closure exactness, refinement budgets, merge safety, reuse."""

import itertools

import pytest

from nestedcg import synth
from nestedcg.buckets import COMPUTED, Partition, compute_representative
from nestedcg.labeling import label_search
from nestedcg.model import Duals, reduced_cost
from nestedcg.pricing import (
    AdaptivePricer,
    ExactPricer,
    PricingConfig,
    PricingError,
    _layers,
    _path_rules,
)

SEEDS = range(1, 13)


def _rel_width(problem, tiles):
    """Width that splits every contribution coordinate into ~`tiles` tiles."""
    return tuple(
        max(1, (hi - lo + 1) // tiles) for lo, hi in problem.contribution_box()
    )


def _case(seed):
    problem = synth.random_tiny_instance(seed)
    duals = synth.random_duals(problem, seed + 1000)
    return problem, duals


def _distinct_vectors(problem, block_index):
    return {
        tuple(x for vec in sp.contributions for x in vec)
        for sp in synth.enumerate_block_subpaths(problem, block_index)
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_closure_equals_the_oracle(seed):
    problem, duals = _case(seed)
    oracle = synth.oracle_min_rcost(problem, duals)
    pricer = AdaptivePricer(problem, PricingConfig(width=_rel_width(problem, 3), until="closure"))
    out = pricer.price(duals)
    if oracle is None:
        assert out.infeasible
        return
    assert not out.infeasible
    assert out.optimistic == oracle[0]
    assert out.pessimistic == oracle[0]


@pytest.mark.parametrize("tiles", (1, 2, 7))
@pytest.mark.parametrize("strategy", ("representative", "midpoint"))
def test_closure_is_width_and_strategy_independent(tiles, strategy):
    for seed in (2, 5, 11):
        problem, duals = _case(seed)
        oracle = synth.oracle_min_rcost(problem, duals)
        cfg = PricingConfig(
            width=_rel_width(problem, tiles), strategy=strategy, until="closure"
        )
        out = AdaptivePricer(problem, cfg).price(duals)
        if oracle is None:
            assert out.infeasible
        else:
            assert (out.optimistic, out.pessimistic) == (oracle[0], oracle[0])


@pytest.mark.parametrize("seed", SEEDS)
def test_column_mode_bounds_sandwich_the_oracle(seed):
    problem, duals = _case(seed)
    oracle = synth.oracle_min_rcost(problem, duals)
    out = AdaptivePricer(
        problem, PricingConfig(width=_rel_width(problem, 4))
    ).price(duals)
    if oracle is None:
        assert out.infeasible
        return
    assert out.optimistic <= oracle[0]
    if out.pessimistic is not None:
        assert oracle[0] <= out.pessimistic
    for path in out.columns:
        assert reduced_cost(path, duals) < 0


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_pricer_reports_the_oracle_bound(seed):
    problem, duals = _case(seed)
    oracle = synth.oracle_min_rcost(problem, duals)
    out = ExactPricer(problem).price(duals)
    if oracle is None:
        assert out.infeasible
        return
    assert out.optimistic == oracle[0]
    for path in out.columns:
        assert reduced_cost(path, duals) < 0


@pytest.mark.parametrize("seed", (1, 4, 7, 9))
def test_refinement_is_monotone_under_frozen_duals(seed):
    problem, duals = _case(seed)
    oracle = synth.oracle_min_rcost(problem, duals)
    if oracle is None:
        pytest.skip("no feasible path for this seed")
    scaled = duals.scaled()
    part = Partition.initial(problem, 10**9)  # one bucket per block to start
    for b in part.all_buckets():
        compute_representative(problem, b, scaled)

    opts, pess = [], []
    for _ in range(200):
        live = [
            [b for b in part.buckets(bi) if b.status == COMPUTED]
            for bi in range(len(problem.blocks))
        ]
        assert all(live), "oracle found a path, so every block is alive"
        opt = label_search(
            _layers(live, lambda b: b.lo, lambda b: b.rep.rcost,
                    scaled.convexity),
            *_path_rules(problem),
        )
        pes = label_search(
            _layers(live, lambda b: b.rep.vector, lambda b: b.rep.rcost,
                    scaled.convexity),
            *_path_rules(problem),
        )
        opts.append(opt[0].rcost)
        pess.append(pes[0].rcost)
        if opt[0].rcost == pes[0].rcost:
            break
        targets = [b for b in opt[0].nodes if not b.pinned]
        assert targets, "an open sandwich must leave something to refine"
        for bucket in targets:
            for child in part.refine_bucket(bucket, "representative"):
                if child.rep is None:
                    compute_representative(problem, child, scaled)
    else:
        pytest.fail("sandwich did not close")

    scale = scaled.denom
    assert all(a <= b for a, b in zip(opts, opts[1:]))
    assert all(a >= b for a, b in zip(pess, pess[1:]))
    assert all(o <= oracle[0] * scale <= p for o, p in zip(opts, pess))
    assert opts[-1] == oracle[0] * scale


@pytest.mark.parametrize("seed", SEEDS)
def test_refinements_never_exceed_distinct_vectors(seed):
    problem, duals = _case(seed)
    cfg = PricingConfig(width=10**6, strategy="representative", until="closure")
    pricer = AdaptivePricer(problem, cfg)
    out = pricer.price(duals)
    if out.infeasible:
        pytest.skip("no feasible path for this seed")
    for bi in range(len(problem.blocks)):
        assert pricer.refines_per_block[bi] <= len(_distinct_vectors(problem, bi))


def test_merge_keeps_closure_exact_across_calls():
    merged_any = 0
    for seed in (1, 3, 6, 8, 12):
        problem = synth.random_tiny_instance(seed)
        cfg = PricingConfig(width=_rel_width(problem, 2), until="closure", merge=True)
        pricer = AdaptivePricer(problem, cfg)
        for round_ in range(3):
            duals = synth.random_duals(problem, seed * 31 + round_)
            oracle = synth.oracle_min_rcost(problem, duals)
            out = pricer.price(duals)
            if oracle is None:
                assert out.infeasible
            else:
                assert out.optimistic == oracle[0] == out.pessimistic
        merged_any += pricer.totals["merges"]
    assert merged_any > 0, "the sweep should find at least one admissible merge"


def test_reuse_serves_stale_columns_and_suppresses_the_bound():
    problem = synth.random_tiny_instance(3)
    pricer = AdaptivePricer(problem, PricingConfig(width=_rel_width(problem, 3), reuse=True))
    big = Duals({k: 10**9 for k in problem.elements})
    first = pricer.price(big)
    assert first.columns and pricer.totals["reuse_hits"] == 0

    # still wildly negative under slightly different duals: the stale
    # representatives alone must produce columns, with no bound claimed
    nudged = Duals({k: 10**9 - i for i, k in enumerate(problem.elements)})
    second = pricer.price(nudged)
    assert second.columns
    assert second.optimistic is None
    assert second.stats["reuse_hit"] is True
    assert pricer.totals["reuse_hits"] == 1
    for path in second.columns:
        assert reduced_cost(path, nudged) < 0

    # nothing prices out under zero duals: reuse cannot serve, the full
    # sandwich runs and certifies with a real bound
    third = pricer.price(Duals({}))
    assert third.columns == []
    assert third.optimistic is not None and third.optimistic >= 0
    assert pricer.totals["reuse_hits"] == 1


def test_excluded_node_keys_are_not_offered_again():
    problem = synth.random_tiny_instance(5)
    duals = Duals({k: 10**6 for k in problem.elements})
    for pricer in (
        AdaptivePricer(
            problem, PricingConfig(width=_rel_width(problem, 2), until="closure")
        ),
        ExactPricer(problem),
    ):
        first = pricer.price(duals)
        assert first.columns
        seen = {p.node_key for p in first.columns}
        again = pricer.price(duals, exclude=frozenset(seen))
        assert all(p.node_key not in seen for p in again.columns)


def test_banning_a_whole_block_reports_the_dead_block():
    problem = synth.random_tiny_instance(2)
    pricer = AdaptivePricer(problem, PricingConfig(width=_rel_width(problem, 2)))
    out = pricer.price(Duals({}), banned=frozenset(problem.blocks[0].elements))
    assert out.infeasible and out.infeasible_block == 0
    assert out.columns == [] and out.optimistic is None


def test_shrinking_bans_rebuilds_the_partition():
    problem = synth.random_tiny_instance(4)
    pricer = AdaptivePricer(problem, PricingConfig(width=_rel_width(problem, 2)))
    victim = problem.blocks[0].elements[0]
    pricer.price(synth.random_duals(problem, 1), banned=frozenset({victim}))
    banned_partition = pricer.partition
    out = pricer.price(synth.random_duals(problem, 2))
    assert pricer.partition is not banned_partition
    oracle = synth.oracle_min_rcost(problem, synth.random_duals(problem, 2))
    if oracle is None:
        assert out.infeasible
    elif out.optimistic is not None and out.pessimistic is None:
        assert out.optimistic <= oracle[0]


def test_growing_bans_invalidate_in_place():
    problem = synth.random_tiny_instance(6)
    pricer = AdaptivePricer(
        problem, PricingConfig(width=_rel_width(problem, 2), until="closure")
    )
    duals = synth.random_duals(problem, 9)
    pricer.price(duals)
    kept = pricer.partition
    victim = problem.blocks[0].elements[0]
    out = pricer.price(duals, banned=frozenset({victim}))
    assert pricer.partition is kept
    oracle = synth.oracle_min_rcost(problem, duals, banned=frozenset({victim}))
    if oracle is None:
        assert out.infeasible
    else:
        assert out.optimistic == oracle[0]


def test_unknown_strategy_is_rejected():
    problem = synth.random_tiny_instance(1)
    with pytest.raises(PricingError):
        AdaptivePricer(problem, PricingConfig(strategy="thirds"))


def test_adaptive_and_exact_agree_on_every_dual_vector():
    problem = synth.random_tiny_instance(7)
    for seed in range(20):
        duals = synth.random_duals(problem, seed)
        cfg = PricingConfig(width=_rel_width(problem, 2), until="closure")
        a = AdaptivePricer(problem, cfg).price(duals)
        e = ExactPricer(problem).price(duals)
        assert a.infeasible == e.infeasible
        if not a.infeasible:
            assert a.optimistic == e.optimistic
