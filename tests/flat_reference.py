"""The reference build of a lattice of flats, which the tests hold
``flats.orbit_lattice`` to: ``build_lattice`` enumerates the flats of any
integer configuration of at most ``flats.MAX_VECTORS`` vectors by linear
algebra, with no Weyl group, and returns the same ``flats.FlatLattice``.
"""

from idealtutte import crapo
from idealtutte.errors import GuardExceeded
from idealtutte.flats import MAX_VECTORS, FlatLattice


def build_lattice(vectors):
    """The ``FlatLattice`` of a configuration of at most ``MAX_VECTORS``
    integer vectors: the general-configuration reference that the tests hold
    ``orbit_lattice`` to (no production path calls it).

    Works on the vectors restricted to their pivot columns (the same
    matroid, in r coordinates) and enumerates the flats bottom up.  A flat F
    carries a basis B_F of its own vectors and a fraction-free basis N_F of
    the vectors orthogonal to it, so the images N_F w of the vectors w off F
    are nonzero, and the covers of F are their parallel classes: one sort
    per rank groups the primitive, sign-normalized images, and each new flat
    takes one ``crapo.bareiss_step`` from the first pair that reaches it.
    Then ``_characteristic_rows`` fills chi_{M/F} top down and numbers the
    distinct rows as kinds.  The flats of each kind, the kinds in the order
    of their first flats, are the orbits ``FlatLattice`` takes, and the rows
    it fills must equal theirs.  Raises
    ``GuardExceeded`` for more than ``MAX_VECTORS`` vectors or coordinates
    whose eliminations could overflow int64, and ``InconsistencyError``
    unless the chi_{M/F} sum to q^r.
    """
    import numpy as np

    cfg = crapo.VectorConfig(vectors)
    m, r = len(cfg), cfg.rank
    coords = cfg.pivot_coordinates()
    if m > MAX_VECTORS or (r and not crapo.int64_safe(coords, r)):
        raise GuardExceeded(
            f"flats of {m} vectors of rank {r} need at most {MAX_VECTORS} vectors "
            "whose eliminations fit int64"
        )
    W = np.array(coords, dtype=np.int64).reshape(m, r)
    bits = np.left_shift(np.uint64(1), np.arange(m, dtype=np.uint64))
    # the least flat holds the zero vectors
    levels = [np.bitwise_or.reduce(bits[~W.any(axis=1)], keepdims=True)]
    bases = [np.zeros((1, 0), dtype=np.intp)]
    normals = np.eye(r, dtype=np.int64)[None]
    pivots = np.ones(1, dtype=np.int64)
    for _ in range(r):
        u = normals @ W.T  # (flats, r - k, m): each vector's image off each flat
        f, y = np.nonzero(u.any(axis=1))
        img = u[f, :, y]
        img //= np.gcd.reduce(img, axis=1)[:, None]
        img *= np.sign(img[np.arange(len(img)), (img != 0).argmax(axis=1)])[:, None]
        # the parallel classes: equal (flat, primitive image) rows
        key = np.column_stack((f, img))
        order = np.lexsort(key.T[::-1])
        key = key[order]
        start = np.flatnonzero(np.r_[True, (key[1:] != key[:-1]).any(axis=1)])
        covers = np.bitwise_or.reduceat(bits[y[order]], start) | levels[-1][f[order[start]]]
        level, first = np.unique(covers, return_index=True)
        pair = order[start[first]]
        f, y = f[pair], y[pair]
        normals, pivots = crapo.bareiss_step(normals[f], u[f, :, y], pivots[f])
        levels.append(level)
        bases.append(np.column_stack((bases[-1][f], y)))
    ranks = np.repeat(np.arange(r + 1), [len(level) for level in levels])
    kind, kinds = _characteristic_rows(levels, bases, m)
    orbits = {}
    for f, k, rank in zip(np.concatenate(levels).tolist(), kind.tolist(), ranks.tolist()):
        orbits.setdefault(k, (rank, []))[1].append(f)
    lattice = FlatLattice(list(orbits.values()))
    assert lattice.kinds == kinds[list(orbits)].tolist(), (
        "FlatLattice's chi rows differ from the reference's"
    )
    return lattice


def _characteristic_rows(levels, bases, m):
    """``FlatLattice``'s (kind, kinds) of chi_{M/F}(q) = q^(r - r(F)) minus
    the chi_{M/G} of every flat G strictly above F, filled top down, for the
    flats of each rank (``levels``, uint64 masks over m vectors) with a basis
    of each (``bases``).

    A flat G contains F exactly when it holds F's basis, so the flats above F
    are the AND of the bitsets, over the flats above, of F's basis vectors;
    their chi rows are summed as a count per distinct row.
    """
    import numpy as np

    r = len(levels) - 1
    chi = np.zeros((sum(map(len, levels)), r + 1), dtype=np.int64)
    kind = np.zeros(len(chi), dtype=np.intp)
    index = {}  # distinct chi row -> kind
    vectors = np.arange(m, dtype=np.uint64)[:, None]
    hi = len(chi)
    for k in range(r, -1, -1):
        lo = hi - len(levels[k])
        above = np.concatenate(levels[k + 1 :] or [np.zeros(0, dtype=np.uint64)])
        # holds[v]: bit j set when vector v lies on the j-th flat above
        holds = _bitsets((above >> vectors) & np.uint64(1))
        of_kind = _bitsets(kind[hi:] == np.arange(len(index))[:, None])
        up = np.bitwise_and.reduce(holds[bases[k]], axis=1)
        counts = np.bitwise_count(up[:, None, :] & of_kind).sum(axis=2, dtype=np.int64)
        rows = np.array(list(index), dtype=np.int64).reshape(len(index), r + 1)
        chi[lo:hi] = -(counts @ rows)
        chi[lo:hi, r - k] = 1
        kind[lo:hi] = _kinds(chi[lo:hi], index)
        hi = lo
    return kind, np.array(list(index), dtype=np.int64).reshape(len(index), r + 1)


def _bitsets(rows):
    """Each row of a 0/1 matrix as a bitset in uint64 words."""
    import numpy as np

    packed = np.packbits(rows.astype(bool), axis=1, bitorder="little")
    return np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)


def _kinds(rows, index):
    """The number of each row in ``index``, adding the rows it lacks."""
    return [index.setdefault(row, len(index)) for row in map(tuple, rows.tolist())]
