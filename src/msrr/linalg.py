"""Exact linear algebra over GF(p): rank, power-moment solves, and the exact
float programs that encode, decode and repair run.

Matrices are numpy int64 arrays holding canonical representatives in
[0, p - 1]; all arithmetic is modular, so there are no tolerances anywhere.
rank is the dense elimination that verify_mds falls back to where its
level-order certificate fails; vandermonde_solve is the Lagrange-basis solve
behind the codec and repair.  A general dense solver is kept only as a test
oracle, in tests/oracle.py.  Pivoting during elimination is for
zero-avoidance only.  Primes up to about 2^25 pass Codec's bound; rank's
int64 products stay below p^2, and vandermonde_solve's sums of n of them
stay far inside int64.

Encode, decode and repair are each a Program: a sequence of Steps over one
plan-owned source array.  A step gathers rows of the source, takes one exact
product and folds it into signed residues (Fold), written back into the
source for later steps to gather.  Every term of a product is at most
(p - 1)^2, and split cuts each product into column ranges that keep every
sum within capacity(p, dtype) such terms: 255 in float32 at p = 257, 230 at
p = 271, the bound of delayed modular reduction (Dumas, Giorgi and Pernet,
FFLAS-FFPACK).  exact_float picks the narrowest float whose capacity holds
the n terms of a node-by-node sum: float32 where n * (p - 1)^2 + p < 2^24,
as at the benchmark codes' fields (p = 257 and 271), else float64, which
holds integers below 2^53.  It is the one place that decides; coefficients
are built in its type and work arrays follow them.
"""

from __future__ import annotations

import copy
import math
from typing import NamedTuple

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


def capacity(p: int, dtype: type) -> int:
    """The most terms of at most (p - 1)^2 that one sum holds exactly in
    dtype: floor((2^24 - p - 1) / (p - 1)^2) in float32, whose Fold needs
    every sum below 2^24 - p, and floor((2^53 - 1) / (p - 1)^2) in float64."""
    top = 2**24 - p - 1 if np.dtype(dtype) == np.float32 else 2**53 - 1
    return top // (p - 1) ** 2


def exact_float(n: int, p: int) -> type:
    """The float type of every Program over GF(p) of a code of n nodes:
    float32 when its capacity holds n terms, n * (p - 1)^2 + p < 2^24, else
    float64 (Codec requires n * (p - 1)^2 < 2^53)."""
    return np.float32 if capacity(p, np.float32) >= n else np.float64


class Fold:
    """Signed residues mod p of integers held in a float array, reduced in
    place in the array's type: float32 or float64, of significand width
    t = 24 or 53.

    fold(a, scratch) replaces a by a - q*p with q = rint(a * (1/p)).  A
    Program's a is an integer of at most capacity(p, dtype) terms of at most
    (p - 1)^2, below 2^24 - p in float32 and below 2^53 in float64; p > n >=
    4, so p >= 5.  Then the result is congruent to a with |result|
    <= p/2 + 2 <= p - 1: 1/p and the product each round by a relative 2^-t
    at most (1/p in float32 by a hair more, as it is rounded from float64,
    which the margin of p below 2^24 absorbs), so a * (1/p) is off from a/p
    by less than 2/p and |q - a/p| < 1/2 + 2/p.  q*p itself may pass 2^t
    and round, so q and then q*(p - 1) are subtracted.  q has a's sign and
    |q| <= |a|, so |a - q| <= |a|; and q*(p - 1) = (a - q) - result.  In
    float32 that bounds |q*(p - 1)| by |a| + p/2 + 2 < 2^24.  In float64,
    |q*(p - 1)| < |a| - |a|/p + p/2 + 2 is at most |a| once |a| >= p^2/2 +
    2p, and far below 2^53 before.  So every intermediate is an integer
    below 2^t in magnitude, and every step is exact.  scratch is an array of
    a's shape and type.  The scalars are kept as 0-d arrays of that type,
    which numpy broadcasts faster than Python floats and which keep each
    pass in the array's type.
    """

    def __init__(self, p: int, dtype: type = np.float64):
        self.p = p
        self._inverse = np.array(1.0 / p, dtype=dtype)
        self._below = np.array(p - 1, dtype=dtype)
        self._modulus = np.array(p, dtype=dtype)

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


def split(coef, terms: int, dtype: type = np.float64) -> tuple:
    """coef's column ranges, (lo, hi, coef[:, lo:hi] as dtype), cut greedily:
    no row holds more than terms nonzero coefficients in the first range, or
    more than terms - 1 in a later one, which is added to the folded sum of
    the ranges before it, a term of its own.  dtype is the Program's float
    type and terms at most capacity(p, dtype)."""
    nonzero = np.asarray(coef) != 0
    if nonzero.sum(axis=1).max(initial=0) <= terms:  # the common case, cheaply
        return ((0, nonzero.shape[1], np.ascontiguousarray(coef, dtype=dtype)),)
    counts = np.cumsum(nonzero, axis=1)
    edges = [0]
    while edges[-1] < counts.shape[1]:
        lo = edges[-1]
        over = (counts - (counts[:, lo - 1:lo] if lo else 0) > terms - bool(lo)).any(axis=0)
        edges.append(int(over.argmax()) if over.any() else counts.shape[1])
    return tuple((lo, hi, np.ascontiguousarray(coef[:, lo:hi], dtype=dtype))
                 for lo, hi in zip(edges, edges[1:]))


def _rows(index) -> slice | np.ndarray:
    """Source rows index as a slice when they are one contiguous run, read as
    a view; else flat, for np.take."""
    flat = np.ravel(index).astype(np.intp, copy=False)
    if flat.size:
        first, last = int(flat[0]), int(flat[-1])
        if last - first == flat.size - 1 and (flat[1:] > flat[:-1]).all():
            return slice(first, last + 1)
    return flat


class Step(NamedTuple):
    """Source rows out to out + R*M, as (R, M), set to the signed residues of
    coef @ source[index] for index, shape (K, M), of source rows: gathered as
    a view when the rows are one contiguous run, else by np.take.  ranges are
    split's column ranges of coef, (R, K)."""

    index: slice | np.ndarray
    shape: tuple[int, int]
    ranges: tuple
    out: int


def step(index, ranges, out: int) -> Step:
    index = np.asarray(index)
    return Step(_rows(index), index.shape, ranges, int(out))


# The OpenBLAS that numpy bundles runs a product of about 2^20 multiply-adds
# or more on several threads (0.3.31: from between 0.96 and 1.05 million).
# At these shapes that gains little, and waking an idle worker took 6-8 ms
# per product on a 2-vCPU virtual machine, so products are cut along their
# columns into pieces of at most this many multiply-adds.  float32 products
# (sgemm) stay on one thread too: encoding, decoding (r nodes lost) and
# repairing 1 MiB on each grid code ran every product in float32, none
# above 2^19 multiply-adds, and left OpenBLAS 0.3.31's worker thread no CPU
# time (/proc/self/task/*/schedstat), where twenty 512^3 sgemms gave it
# 0.25 s.
_PRODUCT_WORK = 1 << 19


def _pieces(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> list:
    """a @ b into out, cut along the columns: (a, b block, out block) each."""
    cut = max(1, _PRODUCT_WORK // max(1, a.size))
    if out.shape[1] <= cut:
        return [(a, b, out)]
    return [(a, b[:, j:j + cut], out[:, j:j + cut]) for j in range(0, out.shape[1], cut)]


class Program:
    """Steps over one source array of rows rows, one column per stripe,
    whose row 0 stays zero: the row a gather reads for an absent term.  The
    source, every work array and the folds are of the steps' coefficient
    type, as split built them.

    run stages vectors[inputs], symbols in [0, p), in the rows from first on
    and runs steps[start:stop]; a call runs the rest once steps[:start] ran
    at width w and returns the output rows, output.shape + (w,), in [0, p).
    Every operand is a symbol or a signed residue and every coefficient is
    in [0, p), so each term is at most (p - 1)^2, and split keeps each sum
    within capacity(p, dtype) of them.  Work arrays are bound per width w
    and kept from call to call, so results are overwritten by the next call:
    a Program is not for concurrent use, but fresh ones over its tables are.
    """

    def __init__(self, p: int, rows: int, steps, first: int, output: np.ndarray,
                 inputs: slice = slice(None)):
        self.rows, self.steps = rows, tuple(steps)
        dtypes = {coef.dtype for s in self.steps for _, _, coef in s.ranges}
        if len(dtypes) != 1:
            raise ValueError(f"steps mix coefficient types {sorted(map(str, dtypes))}")
        self.dtype = dtypes.pop()
        self.fold = Fold(p, self.dtype)
        self.first, self.output, self.inputs = first, np.asarray(output), inputs
        # The widest gather: besides the source, the largest work array.
        self.widest = max(s.shape[0] * s.shape[1] for s in self.steps)
        self._scratch = max([self.output.size]
                            + [len(s.ranges[0][2]) * s.shape[1] for s in self.steps])
        self._output = _rows(self.output)
        self._store, self._width = {}, None

    def fresh(self) -> Program:
        """A Program over these same tables with work arrays of its own."""
        program = copy.copy(self)
        program._store, program._width = {}, None
        return program

    def _array(self, name: str, size: int) -> np.ndarray:
        """A flat work array of size, replaced only when size outgrows it, so
        a narrower width shares the memory of a wider one."""
        if name not in self._store or self._store[name].size < size:
            self._store[name] = np.empty(size, dtype=self.dtype)
        return self._store[name][:size]

    def _bind(self, i: int) -> tuple:
        """Step i's views: its index, the array np.take fills (None for a
        view), its output block and scratch, and per range the product's
        pieces."""
        s, source, width = self.steps[i], self.source, self._width
        (terms, span), rows = s.shape, len(s.ranges[0][2])
        if isinstance(s.index, slice):
            gathered, take = source[s.index].reshape(terms, span * width), None
        else:
            gathered = self._array("operand", self.widest * width)[:s.index.size * width]
            gathered, take = (gathered.reshape(terms, span * width),
                             gathered.reshape(s.index.size, width))
        out = source[s.out:s.out + rows * span].reshape(rows, span * width)
        spill = self._array("scratch", self._scratch * width)[:out.size].reshape(out.shape)
        self._bound[i] = (s.index, take, out, spill, [
            _pieces(coef, gathered[lo:hi], spill if lo else out) for lo, hi, coef in s.ranges])
        return self._bound[i]

    def run(self, vectors: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Stage vectors[inputs], (..., w), and run steps[start:stop]; returns
        the source, (rows, w).  A step's views are bound on its first run at
        width w, so a run of some steps only (a message step) binds only those."""
        width, staged = vectors.shape[-1], vectors[self.inputs]
        if self._width != width:
            self.source = self._array("source", self.rows * width).reshape(self.rows, width)
            self.source[0] = 0
            shape = self.output.shape + (width,)
            if isinstance(self._output, slice):
                output = self.source[self._output]
            else:
                output = self._array("output", self.output.size * width)
            scratch = self._array("scratch", self._scratch * width)[:output.size]
            self._results = output.reshape(shape), scratch.reshape(shape)
            self._bound, self._width = [None] * len(self.steps), width
        source, count = self.source, math.prod(staged.shape[:-1])
        np.copyto(source[self.first:self.first + count].reshape(staged.shape), staged)
        for i in range(start, len(self.steps) if stop is None else stop):
            index, take, out, spill, ranges = self._bound[i] or self._bind(i)
            if take is not None:
                np.take(source, index, axis=0, mode="clip", out=take)
            for j, products in enumerate(ranges):
                for a, b, c in products:
                    np.matmul(a, b, out=c)
                if j:
                    np.add(out, spill, out=out)
                self.fold(out, spill)
        return source

    def __call__(self, vectors: np.ndarray, start: int = 0) -> np.ndarray:
        if start and (vectors.shape[-1] != self._width or None in self._bound[:start]):
            raise ValueError(f"steps before {start} have not all run at width {vectors.shape[-1]}")
        source = self.run(vectors, start)
        output, scratch = self._results
        if not isinstance(self._output, slice):
            np.take(source, self._output, axis=0, mode="clip",
                    out=output.reshape(self._output.size, self._width))
        return self.fold.nonnegative(output, scratch)
