"""Dense linear algebra modulo a prime, on top of numpy integer arrays.

Every numpy path picks its dtype through :func:`int_dtype`: int64 when each
intermediate provably stays below 2^63, otherwise an ``object`` array of
Python ints run through the same code; rref narrows further to int16 where
that is safe.  Nothing here is exposed publicly;
the exact Z/p^s machinery lives in :mod:`liegrowth.zpmod`.
"""

from __future__ import annotations

import numpy as np

INT16_MAX = 2 ** 15 - 1
INT64_MAX = 2 ** 63 - 1
_pyint = np.frompyfunc(int, 1, 1)


def int_dtype(modulus: int, terms: int = 1, narrow: bool = False):
    """The dtype in which a sum of ``terms`` products of two residues mod
    ``modulus`` cannot overflow: int16 if ``narrow`` and it stays below 2^15
    (for rref, terms = 1: p <= 181), else int64 if it stays below 2^63
    (p <= 3037000499), else ``object`` (Python ints)."""
    bound = terms * modulus * modulus
    if narrow and bound <= INT16_MAX:
        return np.int16
    return np.int64 if bound <= INT64_MAX else object


def residues(matrix, modulus: int, terms: int = 1, narrow: bool = False) -> np.ndarray:
    """``matrix`` reduced mod ``modulus``, in the dtype ``int_dtype`` picks.

    The object path converts every entry to a Python int first, so no numpy
    scalar can wrap around inside it.  An int16 result is reduced straight
    into its own buffer, with no full-size int64 copy in between.
    """
    dtype = int_dtype(modulus, terms, narrow)
    a = np.asarray(matrix)
    if dtype is object or a.dtype == object:
        a = _pyint(a) % modulus
        return a if dtype is object else a.astype(dtype)
    out = np.empty(a.shape, dtype)
    return np.remainder(a.astype(np.int64, copy=False), modulus, out=out, casting="unsafe")


def rref(matrix, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p.

    Returns (nonzero rows, pivot column indices).  Rows are scaled so each
    pivot entry is 1 and pivot columns are cleared above and below.  The
    input is left unchanged.  A 0 x n matrix has no pivots.

    The elimination runs in int16 for p <= 181 (see ``int_dtype``) and the
    rows come back as int64 there, as on the int64 path.  The next pivot
    column is found by ``any`` over column chunks of 8, 32, 128, ... and
    every row operation touches only the columns from the pivot on: the
    rows at and below the pivot row are zero before it, so the others gain
    nothing there.
    """
    m = residues(matrix, p, narrow=True)  # always a fresh array: safe to edit
    if m.ndim == 1:
        m = m.reshape(1, -1)
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = c = 0
    while r < nrows and c < ncols:
        chunk = 8
        while c < ncols and not (found := m[r:, c:c + chunk].any(axis=0)).any():
            c += chunk
            chunk *= 4
        if c >= ncols:
            break
        c += int(np.flatnonzero(found)[0])
        i = r + int(m[r:, c].nonzero()[0][0])
        if i != r:
            m[[r, i], c:] = m[[i, r], c:]
        inv = pow(int(m[r, c]), -1, p)
        m[r, c:] = m[r, c:] * inv % p
        hit = np.nonzero(m[:, c])[0]
        hit = hit[hit != r]
        if hit.size:
            m[hit, c:] = (m[hit, c:] - np.outer(m[hit, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
        c += 1
    return (m[:r].astype(np.int64) if m.dtype == np.int16 else m[:r]), pivots


def rank(matrix, p: int) -> int:
    _, pivots = rref(matrix, p)
    return len(pivots)
