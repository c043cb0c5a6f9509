"""Test-side helper: the exhaustive MDS check over ``mds.first_singular``."""

import itertools

from tpir import mds


def is_mds(spec):
    """Whether every k-row submatrix of the generator is invertible.

    Exhaustive over all C(n, k) row subsets, n at a time through
    ``first_singular``, so memory stays bounded.
    """
    subsets = itertools.combinations(range(spec.n), spec.k)
    batches = iter(lambda: list(itertools.islice(subsets, spec.n)), [])
    return all(mds.first_singular(spec, batch) is None for batch in batches)
