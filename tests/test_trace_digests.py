"""Pinned iteration traces: the sha256 of ``RunReport.trace_lines()`` on
small cells that run every pricing path -- enumeration, the adaptive
sandwich, merge, the reuse fast path and midpoint refinement -- each with
a dive.  A refactor that should not change what the solver does must
leave every digest as it is; a change that does alter a trace updates
its digest here and says why."""

import hashlib
from fractions import Fraction

import pytest

from nestedcg import driver, mpcvrp, synth
from nestedcg.pricing import PricingConfig


def _routing(n, days, delta):
    return lambda: mpcvrp.build_nested(mpcvrp.generate_instance(
        n=n, days=days, vehicles=2, delta=delta, seed=1
    ))


PROBLEMS = {
    "tiny1": lambda: synth.random_tiny_instance(1),
    "tiny2": lambda: synth.random_tiny_instance(2),
    "tiny3": lambda: synth.random_tiny_instance(3),
    "chain1": lambda: synth.random_chain_instance(1),
    "span1": lambda: synth.build_span_problem(synth.random_span_instance(1)),
    "mpcvrp-n4-t2": _routing(4, 2, Fraction(9, 10)),
    "mpcvrp-n4-t3": _routing(4, 3, Fraction(1, 2)),
}

# adaptive pricing options besides the width, a quarter of the box
CONFIGS = {
    "exact": None,
    "adaptive": {},
    "merge-reuse": {"merge": True, "reuse": True},
    "midpoint-merge": {"strategy": "midpoint", "merge": True},
}

# Capping each fill box at the block's headroom (``buckets.compute_representative``)
# moved the adaptive, merge-reuse and midpoint-merge digests of tiny1, tiny2,
# chain1 and mpcvrp-n4-t3: fewer fill states, and representatives only from
# subpaths the headroom admits.  Each of the twelve kept its status, LP value,
# dive and iteration count.
DIGESTS = {
    "tiny1": {
        "exact": "a96e134cea46851ae62152659eb99fbc30f331ec16db8bab2e41630dc61d32c3",
        "adaptive": "1acd8c63549dcc576e898a0ee3d2edd3667beb3fa99894682185939aee8a5a01",
        "merge-reuse": "0c4f6ed4024cb2a7f328b413ba782ad4255d77346025373c06f49bdf99c77920",
        "midpoint-merge": "48a32f92e2f5af848c95d66b8b7e0334bd59ccb068240c9d42f6ca2584ffa17f",
    },
    "tiny2": {
        "exact": "de183211dd86b38c8eb599b5930e2a6402cf9856b906a9273ea4ab217307b61b",
        "adaptive": "2026de8dbc89bc4369412c6f8a6adde531dc4c3cc6e977f2d6fc28af03655eb0",
        "merge-reuse": "2277e09c4d359b962988cd12404ebe2d56e270cab1b35ed07d1cbbff78aeeee7",
        "midpoint-merge": "2277e09c4d359b962988cd12404ebe2d56e270cab1b35ed07d1cbbff78aeeee7",
    },
    "tiny3": {
        "exact": "2abc9606d261b1d36dd4d580d539b0244323e4d8c87802a478ca00e104ecdf41",
        "adaptive": "03132442b1aacd5d0e767e6c39a92e7cc1c504b2afb14e37aab9950c0552492a",
        "merge-reuse": "c775624ab8253fcb13d25230ee21a60ab47ef5a80a284e33f5ed84486de1f310",
        "midpoint-merge": "c3a84da69674a7971cd26c6ec0c3502230fda7759841d7eadf3416f9b54538c3",
    },
    "chain1": {
        "exact": "cfd6ee3a5b3be0ba7fed9a272ba5b90a4e7c1c8f71e7f09d758d56cc8669e906",
        "adaptive": "b0137ae03d46d1314544b855bdb56a52a30d0ea18e19a17b8caee6d2d8220824",
        "merge-reuse": "dafb8d8ce2c51c087ad3826a7d5e9c347b462804fadf80b5ddd8a716db4f746e",
        "midpoint-merge": "dafb8d8ce2c51c087ad3826a7d5e9c347b462804fadf80b5ddd8a716db4f746e",
    },
    "span1": {
        "exact": "32c45788af61190181c816952a9c65ec620e751ad09167b59be3f807cd8448b2",
        "adaptive": "37a9deb4e464d21e0a8015499c1e528f7cdf63a6ff2ca4f63e154debfc43cd42",
        "merge-reuse": "15253c4cafa91d2a3489c421e56f51971a8e9efdd31cd63aadc3a919ae3293f3",
        "midpoint-merge": "6055863e1e990e80413176c09eb1bd2588cb82bb7d5b3753f9e573281c341a23",
    },
    "mpcvrp-n4-t2": {
        "exact": "d69681b886bfbc550f49c6c104980144a2d29eba1d8f71cf17014a0dafe533fc",
        "adaptive": "fdb1b9f4b8b03d4002251768dcd2f0c5909a99157889b40bb3f728c140b4ed90",
        "merge-reuse": "bc43d26ca680004781af647c399e0587ea8933655e18bbf058d3a315262c3608",
        "midpoint-merge": "f4a8edd8b1963ae8a49fc392297c0a55a9da41c4aa195be6de39d9456d52ac5d",
    },
    "mpcvrp-n4-t3": {
        "exact": "2ca52488fef17e96ed7c9633cde6fcf831774552a8822dad14cdf61435024e00",
        "adaptive": "31ef4a83391eca11ed40daa65334028c710f85cd00eaa8f27ad237884d89dabd",
        "merge-reuse": "a7efc2be327c95103e9c045e6ca548d0b231f86c6d28ba057c0d2fe83f501312",
        "midpoint-merge": "b4689db5e24a391ced9c4570c8ed94e05217ba5b39b050f592068b8907ba7c31",
    },
}


def _config(problem, options):
    if options is None:
        return driver.DriverConfig(pricer="exact", dive=True)
    width = tuple(max(1, (hi - lo + 1) // 4) for lo, hi in problem.contribution_box())
    return driver.DriverConfig(
        pricer="adaptive", pricing=PricingConfig(width=width, **options), dive=True
    )


def _digest(name, config):
    problem = PROBLEMS[name]()
    report = driver.solve(problem, _config(problem, CONFIGS[config]))
    text = "\n".join(report.trace_lines())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", PROBLEMS)
@pytest.mark.parametrize("config", CONFIGS)
def test_trace_digest_is_pinned(name, config):
    assert _digest(name, config) == DIGESTS[name][config]
