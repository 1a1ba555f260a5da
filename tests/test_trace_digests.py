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

# Fixing the smoothing weight at 1/2 (Wentges) and dropping the trace's
# ``alpha`` key moved all 28 digests.  Each cell kept its status, LP value
# and dive (LP/dive in millicost; the same under all four configurations):
#   tiny1: optimal, 140000/140000
#   tiny2: optimal, 97000/97000
#   tiny3: optimal, 165000/165000
#   chain1: optimal, 52000/52000
#   span1: optimal, 2505000/2505000
#   mpcvrp-n4-t2: optimal, 5999000/5999000
#   mpcvrp-n4-t3: infeasible, no LP, no dive
# Iterations before -> after, for exact, adaptive, merge-reuse and
# midpoint-merge in that order:
#   tiny1: 8, 6, 9, 7 -> 9
#   tiny2: 4, 6, 6, 6
#   tiny3: 7, 6 -> 5, 7, 7
#   chain1: 4, 6, 6, 6
#   span1: 13, 13 -> 9, 19 -> 14, 13 -> 10
#   mpcvrp-n4-t2: 5, 5, 6, 6
#   mpcvrp-n4-t3: 13, 14 -> 13, 17 -> 18, 13 -> 12
DIGESTS = {
    "tiny1": {
        "exact": "72d7fd12501e596de697a54f337a2540a1e999139717772f5545ef0948da6765",
        "adaptive": "3822c901f6a13ea8283065b234238c38e43c5081cff2b1b1698441507610eaca",
        "merge-reuse": "e8f4d22a9a6cc53dc5529265f319712dc2703640063bcecc0ce34279755e5931",
        "midpoint-merge": "3fdea7c7f93eee52b2b8ebbf4bfc849f33ccaf35e37b6c626efa4d9b996c9083",
    },
    "tiny2": {
        "exact": "17df12d3dea5a5d462623fb09ee5aac108ad83a021e6d65cd9ff0ef1f2065a2d",
        "adaptive": "de48c97f6825ef813c03116617f158a59d9a2cf1e213aca15e012e7895b1f92d",
        "merge-reuse": "54df81b57bfe0033fd2fea6d3eec7f796a413cd9587720eebd89607d62a583aa",
        "midpoint-merge": "54df81b57bfe0033fd2fea6d3eec7f796a413cd9587720eebd89607d62a583aa",
    },
    "tiny3": {
        "exact": "a29dd96242fee256c6ca560d378ba61ba2a12af929ff14a5c779cd6fee6f5262",
        "adaptive": "89e3fc1f94abe2648b7af67e48dc22d127d821e57cee2c4b6cf65043456d614a",
        "merge-reuse": "ff998b31d9375c72d6360fb05fc6274e8d7726bec104d3df75190a6adac35b12",
        "midpoint-merge": "b91f2b3f694d908b501d86e7c5514ef2ebe79733e0fbced01ece77d6797e8072",
    },
    "chain1": {
        "exact": "072bbcfeec4f0c297dfc0d1272c4bc09caa2b0dc735f4a066440e3afd93feeca",
        "adaptive": "7469bbad08734dacc25330e59993ad4e005ba6e49af303735568e1b079ddd72b",
        "merge-reuse": "472a2fd5c4ca8ec2379872fc65d7542ad267c048aa9a24d2c648904d58f55566",
        "midpoint-merge": "472a2fd5c4ca8ec2379872fc65d7542ad267c048aa9a24d2c648904d58f55566",
    },
    "span1": {
        "exact": "2e2e1ef840d754b34c18691a8b277da2e1bc670e0018d3d3c96c7745230c8dcb",
        "adaptive": "adfdd1a64998db3ab26ff090e4e64d7bfc06b29224f5d6abdf3c550080ab2f88",
        "merge-reuse": "72e63a4d969733239a8f23998329a357961e9d2787219646839c06c33035c1c6",
        "midpoint-merge": "37fdced77ece0f9146487b03056763127d8977ab62993ef30647f06092cac0ad",
    },
    "mpcvrp-n4-t2": {
        "exact": "2154192b92c61840c20f3ab252754980a5988b77d00b33a1fb1a6697a52cf7a0",
        "adaptive": "83cefdc2c1db1e14e9a9d73e4d54b55627276c3ab96544755ef810c94bdb2214",
        "merge-reuse": "c50bc256155a6cf2e22bff641f354cc0795cca1df47fe99e6d10dc5a9646b78b",
        "midpoint-merge": "4c7987af9c90abf0d9808d420848987fe0a8fb5ea40b6300baca6696cf5f862f",
    },
    "mpcvrp-n4-t3": {
        "exact": "e03ae3dffe9bbcce458cbb499cb6bd11579f3c9643edc8a176f489ebf7733cde",
        "adaptive": "2bb4a61f2375b8707ba1d8ef5212c8a26f8f28b2eddd13983e574f2a30056f56",
        "merge-reuse": "cfff26194c08670e82a26e0da59eb0909e4753ad56de5b45139ecfe08a887b23",
        "midpoint-merge": "ea4f33547da1c84fc2eb3d3fb5856a2db92c3225643f846db07f297bd1983157",
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
