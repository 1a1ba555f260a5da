"""Helpers shared by several test modules."""

import itertools
from operator import le

from nestedcg import synth
from nestedcg.model import Path, Subpath, check_path_feasible


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
