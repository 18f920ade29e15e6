"""Exact linear algebra over GF(p): rank, power-moment solves, and exact
float64 products.

Matrices are numpy int64 arrays holding canonical representatives in
[0, p - 1]; all arithmetic is modular, so there are no tolerances anywhere.
rank is the dense elimination that verify_mds falls back to where its
level-order certificate fails; vandermonde_solve is the Lagrange-basis solve
behind the codec and repair.  A general dense solver is kept only as a test
oracle, in tests/oracle.py.  Pivoting during elimination is for
zero-avoidance only.  Entries stay below 2^16, hence products fit
comfortably in int64 without intermediate reduction.

The codec's products run in float64, which holds integers below 2^53
exactly: Fold reduces sums to signed residues, term_groups splits a product
whose sums could pass n terms, and exact_product and accumulate run it in
pieces into work arrays that callers keep (work_arrays).
"""

from __future__ import annotations

import math

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
    lagrange = []
    for j, x in enumerate(pts):
        quot = [0] * n
        quot[n - 1] = master[n]
        for i in range(n - 1, 0, -1):
            quot[i - 1] = (master[i] + x * quot[i]) % p
        denom = 0
        for c in reversed(quot):
            denom = (denom * x + c) % p
        inverse = pow(denom, p - 2, p)
        lagrange.append([c * inverse % p for c in quot])
    return np.array(lagrange, dtype=np.int64) @ moments % p


class Fold:
    """Signed residues mod p of float64 integers, reduced in place.

    fold(a, scratch) replaces a by a - q*p with q = rint(a * (1/p)).  For
    integer |a| < 2^53 and p >= 5 (p > n >= 4 always holds) the result is
    congruent to a with |result| <= p/2 + 2 <= p - 1: a * (1/p) is off from
    a/p by less than 2/p, so |q - a/p| < 1/2 + 2/p.  q*p itself may pass 2^53
    and round, so q and then q*(p - 1) are subtracted; each intermediate is
    an integer below 2^53 in magnitude, so every step is exact.  scratch is a
    float64 array of a's shape.  The scalars are kept as 0-d arrays, which
    numpy broadcasts faster than Python floats.
    """

    def __init__(self, p: int):
        self.p = p
        self._inverse = np.array(1.0 / p)
        self._below = np.array(p - 1.0)
        self._modulus = np.array(float(p))

    def __call__(self, a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        np.multiply(a, self._inverse, out=scratch)
        np.rint(scratch, out=scratch)
        np.subtract(a, scratch, out=a)
        np.multiply(scratch, self._below, out=scratch)
        np.subtract(a, scratch, out=a)
        return a

    def nonnegative(self, a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """A folded a (|a| <= p - 1) moved into [0, p) in place: a*(1/p) lies in
        (-1, 1), so its floor is -1 exactly where a < 0."""
        np.multiply(a, self._inverse, out=scratch)
        np.floor(scratch, out=scratch)
        np.multiply(scratch, self._modulus, out=scratch)
        np.subtract(a, scratch, out=a)
        return a


def term_groups(n: int, base: int, base_terms: int, racks: int,
                width: int) -> tuple[tuple[int, int], ...]:
    """Column ranges that split a product into sums of at most n terms.

    The columns are base columns, carrying base_terms nonzero terms per row,
    then one block of width columns per rack.  The first range holds the
    base columns and as many blocks as fit beside them; every later range is
    added to a folded sum, a term of its own, so it holds at most n - 1.
    """
    end = base + racks * width
    if not width:
        return ((0, end),)
    edges = [0, base + min(racks, (n - base_terms) // width) * width]
    while edges[-1] < end:
        edges.append(min(end, edges[-1] + (n - 1) // width * width))
    return tuple(zip(edges, edges[1:]))


# The OpenBLAS that numpy bundles runs a product of about 2^20 multiply-adds
# or more on several threads (0.3.31: from between 0.96 and 1.05 million).
# At these shapes that gains little, and waking an idle worker took 6-8 ms
# per product on a 2-vCPU virtual machine, so products are cut along their
# columns into pieces of at most this many multiply-adds.
_PRODUCT_WORK = 1 << 19


def pieces(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> list:
    """a @ b into out, cut along the columns: (a, b block, out block) each."""
    step = max(1, _PRODUCT_WORK // max(1, a.size))
    if out.shape[1] <= step:
        return [(a, b, out)]
    return [(a, b[:, j:j + step], out[:, j:j + step]) for j in range(0, out.shape[1], step)]


def multiply(products: list) -> None:
    for a, b, out in products:
        np.matmul(a, b, out=out)


def exact_product(coef: np.ndarray, groups, operand: np.ndarray, out: np.ndarray,
                  scratch: np.ndarray) -> list:
    """The pieces of out = coef @ operand, one list per column range of groups:
    the first range goes to out, every later one to scratch, to be added
    after out is folded (accumulate)."""
    return [pieces(np.ascontiguousarray(coef[:, lo:hi]), operand[lo:hi],
                   scratch if i else out) for i, (lo, hi) in enumerate(groups)]


def accumulate(products: list, out: np.ndarray, scratch: np.ndarray, fold: Fold) -> None:
    """Run exact_product's pieces, folding out after each column range and
    adding the next range's sum to it."""
    for i, ranged in enumerate(products):
        multiply(ranged)
        if i:
            np.add(out, scratch, out=out)
        fold(out, scratch)


def work_arrays(store: dict, shapes: dict, width: int) -> dict:
    """Views shape + (width,) of flat float64 arrays kept in store under the
    same names.  An array is replaced only when width outgrows it, so the
    views of a narrower call share the memory of a wider one; what a view
    held at another width is left over."""
    views = {}
    for name, shape in shapes.items():
        size = math.prod(shape) * width
        if name not in store or store[name].size < size:
            store[name] = np.empty(size)
        views[name] = store[name][:size].reshape(tuple(shape) + (width,))
    return views
