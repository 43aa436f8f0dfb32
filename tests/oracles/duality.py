"""Reference route for the direct-side positions of the BC_n duality map.

`intlab.sutherland.duality_map` reads q off one Hermitian eigensolve of
the Cayley transform of the unitary M = -(h A h)^*.  This module keeps
the earlier route, independent of that transform: the general
eigensolver's phases of M itself, sorted, of which the n largest are
2 q_j.  tests/test_sutherland.py compares the two at general z.
"""

import numpy as np

from intlab.sutherland import dual_h_matrix, dual_lax_global


def eigvals_q(z, c):
    """Half the n largest eigenphases of -(h A h)^*, descending."""
    glob = dual_lax_global(z, c)
    h = dual_h_matrix(glob.lam, c.kappa)
    args = np.angle(np.linalg.eigvals(-(h @ glob.lax @ h).conj().T))
    return np.sort(args)[::-1][: glob.lam.size] / 2.0
