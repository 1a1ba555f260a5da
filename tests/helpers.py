"""Helpers shared by several test modules."""

from nestedcg.model import Path, Subpath


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
