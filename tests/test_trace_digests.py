"""Pinned iteration traces: the sha256 of ``RunReport.trace_lines()`` on
small cells that run every pricing path -- enumeration, the adaptive
sandwich, merge, the reuse fast path and midpoint refinement -- each with
a dive.  A refactor that should not change what the solver does must
leave every digest as it is; a change that does alter a trace updates
its digest here and says why."""

import hashlib
from fractions import Fraction

import pytest
from helpers import quarter_width

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

# Refining every pricing call until the sandwich closes (``AdaptivePricer.price``)
# moved the adaptive, merge-reuse and midpoint-merge digests of tiny1, tiny3,
# span1, mpcvrp-n4-t2 and mpcvrp-n4-t3: each call now reports the exact minimum
# reduced cost, and its columns come from the closed partition.  Each of the
# fifteen kept its status, LP value and dive; none took more iterations.
DIGESTS = {
    "tiny1": {
        "exact": "a96e134cea46851ae62152659eb99fbc30f331ec16db8bab2e41630dc61d32c3",
        "adaptive": "ca0116f14b36a8650e123618530731b2531f57b0196cc679770d8aed5b145a71",
        "merge-reuse": "752ec759d149809c827b1919494c39b8231f753e592a8cd14c181907c5b980bb",
        "midpoint-merge": "56c10314b659a58a024ac63b67fc849c959e66813773542a3428a470a7f88a98",
    },
    "tiny2": {
        "exact": "de183211dd86b38c8eb599b5930e2a6402cf9856b906a9273ea4ab217307b61b",
        "adaptive": "2026de8dbc89bc4369412c6f8a6adde531dc4c3cc6e977f2d6fc28af03655eb0",
        "merge-reuse": "2277e09c4d359b962988cd12404ebe2d56e270cab1b35ed07d1cbbff78aeeee7",
        "midpoint-merge": "2277e09c4d359b962988cd12404ebe2d56e270cab1b35ed07d1cbbff78aeeee7",
    },
    "tiny3": {
        "exact": "2abc9606d261b1d36dd4d580d539b0244323e4d8c87802a478ca00e104ecdf41",
        "adaptive": "e4476b398e3719d806ab5857f5351484635eeb4bcb6946fe0878be2c00064b4f",
        "merge-reuse": "095453b415d67a4439922c3de63b532bf291fc2ccb5ea6192b50bc340ac06a0a",
        "midpoint-merge": "b84165ce8ed8ea96c84e347a1ff9e3e04ac5b746137c884f5a502d9fc1f5253a",
    },
    "chain1": {
        "exact": "cfd6ee3a5b3be0ba7fed9a272ba5b90a4e7c1c8f71e7f09d758d56cc8669e906",
        "adaptive": "b0137ae03d46d1314544b855bdb56a52a30d0ea18e19a17b8caee6d2d8220824",
        "merge-reuse": "dafb8d8ce2c51c087ad3826a7d5e9c347b462804fadf80b5ddd8a716db4f746e",
        "midpoint-merge": "dafb8d8ce2c51c087ad3826a7d5e9c347b462804fadf80b5ddd8a716db4f746e",
    },
    "span1": {
        "exact": "32c45788af61190181c816952a9c65ec620e751ad09167b59be3f807cd8448b2",
        "adaptive": "bbccf67d9cf2a1edc2118911ac5b3c7153523991251124a23c03275eb971caf6",
        "merge-reuse": "6763c58c3044a5c85efeacb14efbab488cd861ab63dce58f44c5c89ea3351c30",
        "midpoint-merge": "9e5f8b8d1fd121593af296527c512fdf30fbea73d32055e9ea749ab07755af1e",
    },
    "mpcvrp-n4-t2": {
        "exact": "d69681b886bfbc550f49c6c104980144a2d29eba1d8f71cf17014a0dafe533fc",
        "adaptive": "f4dae52a82709dec9f51f41eb573131c2e7ceae6ac064cff7c5efd6f36585e7a",
        "merge-reuse": "9d1deea4d1fc6c7dd2bf28a11674d40208124997c4a554b6c4bac457c6e87744",
        "midpoint-merge": "8b1783f1d8840ed378838f63a9b7155c71f1973a2c265f88c29e4b45df52064e",
    },
    "mpcvrp-n4-t3": {
        "exact": "2ca52488fef17e96ed7c9633cde6fcf831774552a8822dad14cdf61435024e00",
        "adaptive": "a591a2a7d2ff0bbde0010fe26f223357e5ac71e70d2e32fb9b9ff4c1968a3f6d",
        "merge-reuse": "6ec84b8562eba2503bab32e0b36e15a56100a82b509d50e621af9f808d4e7e55",
        "midpoint-merge": "a1da7d0fa24de4452c3b5cfab96582a741ccb17e336ab946b91b1feffb06e3b9",
    },
}


def _config(problem, options):
    if options is None:
        return driver.DriverConfig(pricer="exact", dive=True)
    return driver.DriverConfig(
        pricer="adaptive",
        pricing=PricingConfig(width=quarter_width(problem), **options),
        dive=True,
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
