"""The literal basis-activity route, which the tests hold
``crapo.tutte_crapo`` to: ``enumerate_bases`` walks the bases with an
incremental integer echelon, and ``tutte_crapo_exact`` tallies
``crapo.activity`` over them, with no exchange table and no numpy.
"""

from idealtutte.crapo import DEFAULT_MAX_BASIS_SUBSETS, _check_basis_guard, _Echelon, activity
from idealtutte.exactpoly import BivariatePolynomial


def enumerate_bases(cfg, max_subsets=DEFAULT_MAX_BASIS_SUBSETS):
    """Yield every basis (size-rank independent subset) as an index tuple, in
    lexicographic order.

    Uses depth-first search with an incremental echelon so dependent prefixes
    are pruned without ever touching their supersets.
    """
    m, r = len(cfg), cfg.rank
    _check_basis_guard(m, r, max_subsets)
    if r == 0:
        yield ()
        return

    def walk(start, chosen, ech):
        if len(chosen) == r:
            yield tuple(chosen)
            return
        # not enough elements left to finish
        for i in range(start, m - (r - len(chosen)) + 1):
            ech2 = ech.snapshot()
            if ech2.add(cfg.vectors[i]):
                chosen.append(i)
                yield from walk(i + 1, chosen, ech2)
                chosen.pop()

    yield from walk(0, [], _Echelon())


def tutte_crapo_exact(cfg, max_subsets=DEFAULT_MAX_BASIS_SUBSETS):
    """The basis-activity sum by the literal route: every basis from
    ``enumerate_bases`` and its activities from ``activity``, all in exact
    integer arithmetic.  Slow; the reference for ``tutte_crapo``."""
    hist = {}
    for basis in enumerate_bases(cfg, max_subsets=max_subsets):
        act = activity(cfg, basis)
        k = (act.internal, act.external)
        hist[k] = hist.get(k, 0) + 1
    return BivariatePolynomial(hist, ("x", "y"))
