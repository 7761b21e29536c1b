"""Hand-built discrete examples combining the catalog with the rack types.

The cyclic subgroup of order three inside the symmetric group on three
letters gives two instructive crossed modules: the honest inclusion (with
conjugation action), which satisfies equivariance everywhere, and a relaxed
variant with the trivial action, where equivariance survives only on the
even permutations and every transposition violates it.
"""

from __future__ import annotations

import numpy as np

from . import catalog
from .racks import GroupCrossedModule, conjugation_rack

# index layout of symmetric3(): identity first, then lexicographic; the even
# permutations (1,2,0) and (2,0,1) land at positions 3 and 4
A3_INDICES = (0, 3, 4)


def inclusion_crossed_module_z3_s3() -> GroupCrossedModule:
    """Z3 included into S3 as the even permutations, with conjugation.

    Conjugation preserves the image, so the boundary map is equivariant for
    every group element: a strict (unrestricted) crossed module.
    """
    s3, mu = catalog.symmetric3(), np.array(A3_INDICES, dtype=np.int64)
    # n mu(m) n^-1 is an even permutation; its position in the sorted mu is
    # its preimage under mu
    eta = np.searchsorted(mu, conjugation_rack(s3).op_table[:, mu])
    return GroupCrossedModule(catalog.cyclic_group(3), s3, mu, eta)


def relaxed_crossed_module_z3_s3() -> GroupCrossedModule:
    """The same boundary map with the trivial action, restricted to A3.

    On the abelian subgroup of even permutations, conjugating the image is a
    no-op, so trivial eta still satisfies equivariance there; transpositions
    invert three-cycles under conjugation and all violate it.
    """
    z3, s3 = catalog.cyclic_group(3), catalog.symmetric3()
    eta = np.tile(np.arange(z3.size, dtype=np.int64), (s3.size, 1))
    return GroupCrossedModule(z3, s3, A3_INDICES, eta, n_prime=A3_INDICES)
