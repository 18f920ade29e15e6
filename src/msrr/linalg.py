"""Exact linear algebra over GF(p): rank, and power-moment solves.

Matrices are numpy int64 arrays holding canonical representatives in
[0, p - 1]; all arithmetic is modular, so there are no tolerances anywhere.
rank is the dense elimination that verify_mds falls back to where its
level-order certificate fails; vandermonde_solve is the Lagrange-basis solve
behind the codec and repair.  A general dense solver is kept only as a test
oracle, in tests/oracle.py.  Pivoting during elimination is for
zero-avoidance only.  Entries stay below 2^16, hence products fit
comfortably in int64 without intermediate reduction.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError


def rank(a, p: int) -> int:
    """Rank over GF(p) via forward elimination."""
    a = np.array(a, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    rows, cols = a.shape
    rk = 0
    for col in range(cols):
        if rk == rows:
            break
        nz = np.nonzero(a[rk:, col])[0]
        if nz.size == 0:
            continue
        piv = rk + int(nz[0])
        if piv != rk:
            a[[rk, piv]] = a[[piv, rk]]
        inv = pow(int(a[rk, col]), p - 2, p)
        a[rk, col:] = a[rk, col:] * inv % p
        below = np.nonzero(a[rk + 1:, col])[0]
        if below.size:
            rows_idx = rk + 1 + below
            a[rows_idx, col:] = (
                a[rows_idx, col:] - np.outer(a[rows_idx, col], a[rk, col:])) % p
        rk += 1
    return rk


def vandermonde_solve(points, moments, p: int) -> np.ndarray:
    """Solve sum_j points[j]^i * x[j] = moments[i] for i in [0, len(points)).

    The coefficient matrix is the power-moment (transposed Vandermonde) system
    on the given evaluation points; the solution is read off the coefficients
    of the Lagrange basis polynomials in O(n^2) instead of O(n^3) elimination.
    moments may be a vector or a matrix whose columns are independent
    instances; the result has the same shape.
    """
    pts = [int(x) % p for x in points]
    n = len(pts)
    if len(set(pts)) != n:
        raise SingularMatrixError("repeated evaluation points", len(set(pts)))
    moments = np.array(moments, dtype=np.int64) % p
    if moments.shape[0] != n:
        raise ValueError(f"got {moments.shape[0]} moments for {n} points")

    # master(y) = prod_j (y - points[j]), coefficients ascending in degree
    master = [1]
    for x in pts:
        nxt = [0] * (len(master) + 1)
        for i, c in enumerate(master):
            nxt[i] = (nxt[i] - c * x) % p
            nxt[i + 1] = (nxt[i + 1] + c) % p
        master = nxt

    # Row j holds the coefficients of the j-th Lagrange basis polynomial:
    # master / (y - points[j]) by synthetic division, scaled by its value at
    # points[j].  Then x = L @ moments.
    lagrange = np.zeros((n, n), dtype=np.int64)
    for j, x in enumerate(pts):
        quot = [0] * n
        quot[n - 1] = master[n]
        for i in range(n - 1, 0, -1):
            quot[i - 1] = (master[i] + x * quot[i]) % p
        denom = 0
        for c in reversed(quot):
            denom = (denom * x + c) % p
        lagrange[j] = np.array(quot, dtype=np.int64) * pow(denom, p - 2, p) % p
    return lagrange @ moments % p
