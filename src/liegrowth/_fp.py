"""Dense linear algebra modulo a prime, on top of numpy integer arrays.

Every numpy path picks its dtype through :func:`int_dtype`: int64 when each
intermediate provably stays below 2^63, otherwise an ``object`` array of
Python ints run through the same code.  Nothing here is exposed publicly;
the exact Z/p^s machinery lives in :mod:`liegrowth.zpmod`.
"""

from __future__ import annotations

import numpy as np

INT64_MAX = 2 ** 63 - 1
_pyint = np.frompyfunc(int, 1, 1)


def int_dtype(modulus: int, terms: int = 1):
    """int64 when a sum of ``terms`` products of two residues mod ``modulus``
    stays below 2^63, else ``object`` (Python ints).  For rref, terms = 1:
    int64 exactly for p <= 3037000499."""
    return np.int64 if terms * modulus * modulus <= INT64_MAX else object


def residues(matrix, modulus: int, terms: int = 1) -> np.ndarray:
    """``matrix`` reduced mod ``modulus``, in the dtype ``int_dtype`` picks.

    The object path converts every entry to a Python int first, so no numpy
    scalar can wrap around inside it.
    """
    dtype = int_dtype(modulus, terms)
    a = np.asarray(matrix)
    if dtype is object or a.dtype == object:
        a = _pyint(a) % modulus
        return a if dtype is object else a.astype(np.int64)
    return a.astype(np.int64, copy=False) % modulus


def as_fp(matrix, p: int) -> np.ndarray:
    a = residues(matrix, p)
    return a.reshape(1, -1) if a.ndim == 1 else a


def rref(matrix, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p.

    Returns (nonzero rows, pivot column indices).  Rows are scaled so each
    pivot entry is 1 and pivot columns are cleared above and below.  The
    input is left unchanged.  A 0 x n matrix has no pivots.
    """
    m = as_fp(matrix, p)  # residues always allocates (% or astype): safe to edit
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        hit = np.nonzero(m[:, c])[0]
        hit = hit[hit != r]
        if hit.size:
            m[hit] = (m[hit] - np.outer(m[hit, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(matrix, p: int) -> int:
    _, pivots = rref(matrix, p)
    return len(pivots)

