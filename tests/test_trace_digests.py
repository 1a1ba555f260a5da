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

DIGESTS = {
    "tiny1": {
        "exact": "a96e134cea46851ae62152659eb99fbc30f331ec16db8bab2e41630dc61d32c3",
        "adaptive": "0c83cfabeae2e33b8a84b4d9859bdb202c5e5c726d4d23b6a6e6712f28d14208",
        "merge-reuse": "dfbf30f79811f50997624aacd8be7cd4a893883ea387412e2c22bed7380e7562",
        "midpoint-merge": "b1f70083d5feed729bbf3c210c04d0f6e43850c70ae9c2f6b5fdc9558646e57e",
    },
    "tiny2": {
        "exact": "de183211dd86b38c8eb599b5930e2a6402cf9856b906a9273ea4ab217307b61b",
        "adaptive": "888be25c001eebc5c23b01b47ae632f6f058184b2ee0bc715b673fc605f4d801",
        "merge-reuse": "91fc5995bda560e052e7cb23834337aa4abc6106ef44f63e8f010ba5311607fe",
        "midpoint-merge": "91fc5995bda560e052e7cb23834337aa4abc6106ef44f63e8f010ba5311607fe",
    },
    "tiny3": {
        "exact": "2abc9606d261b1d36dd4d580d539b0244323e4d8c87802a478ca00e104ecdf41",
        "adaptive": "03132442b1aacd5d0e767e6c39a92e7cc1c504b2afb14e37aab9950c0552492a",
        "merge-reuse": "c775624ab8253fcb13d25230ee21a60ab47ef5a80a284e33f5ed84486de1f310",
        "midpoint-merge": "c3a84da69674a7971cd26c6ec0c3502230fda7759841d7eadf3416f9b54538c3",
    },
    "chain1": {
        "exact": "cfd6ee3a5b3be0ba7fed9a272ba5b90a4e7c1c8f71e7f09d758d56cc8669e906",
        "adaptive": "356dedd302e36a98506e8dd8c3bff67716df6bd84835465137cea20e7b4e376f",
        "merge-reuse": "cf21035548e0a9bc6a661d29e8c411883a0b00e840adcb249771f4414f83c664",
        "midpoint-merge": "cf21035548e0a9bc6a661d29e8c411883a0b00e840adcb249771f4414f83c664",
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
        "adaptive": "5161c745c042a1ef37487e982da3858041cb53a22ed99a468dd771065294f1fc",
        "merge-reuse": "85688a628b120d6279d74d940b8d7d5da7f83f41af9727692a69d54c5ddaa923",
        "midpoint-merge": "d1cab7c920846a34a8d2b12aee87a68db4f110a5b138b09d7273377ad1be22b2",
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
