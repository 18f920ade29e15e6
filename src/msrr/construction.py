"""Code constants and the sparse parity-check system.

Each node (e, g) gets a distinct locator: primitive_root^e * unity_root^g.
The parity-check matrix has r row blocks of alpha rows each.  Per column
group (e, g), block t carries locator^t on its diagonal; if t = residue(e)
(mod u), each row whose rack-owned digit is zero also reads its s_bar - 1
digit siblings, with values locator^residue(e) * extra_point^(t // u).  Those
blocks, rows, siblings and extra-point powers are built once per rack
(ParityCheckMatrix.sibling_terms, and flat in off_diagonal), and every reader
of the matrix uses these tables.
Positions come from the digit table, ParityCheckMatrix.digits: the base-s_bar
digits of every coordinate, computed once.  The level order, the zero-digit
rows and their digit siblings are read off it; no other module expands digits.

Summed over a set of nodes, the column groups act on their vectors through a
few small products (NodeProduct): one diagonal product, one that forms the
locator^residue-weighted rack aggregates, and per rack one product of the
extra-point powers with the aggregate's digit siblings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalError
from .field import FieldCtx
from .params import CodeParams


@dataclass(frozen=True)
class CodeConstants:
    """Field elements that define one concrete code.

    locators[e][g] are pairwise distinct; rack_points[e] = locators[e][g]^u
    (independent of g) serve as the per-rack evaluation points of the repair
    systems; extra_points are s_bar - 1 further distinct nonzero points kept
    disjoint from the rack points.
    """

    field: FieldCtx
    locators: tuple[tuple[int, ...], ...]
    rack_points: tuple[int, ...]
    extra_points: tuple[int, ...]


def build_constants(params: CodeParams, field: FieldCtx) -> CodeConstants:
    """Derive locators, rack points, and extra points for (params, field).

    The extra points are chosen canonically: ascending integer representatives
    of nonzero elements, skipping rack points, taking the first s_bar - 1.
    """
    if field.u != params.u:
        raise InternalError(
            f"field built for u={field.u}, params have u={params.u}")
    if field.p <= params.n:
        raise InternalError(f"field size {field.p} not above n={params.n}")
    root, unity, p = field.primitive_root, field.unity_root, field.p
    locators = tuple(
        tuple(pow(root, e, p) * pow(unity, g, p) % p for g in range(params.u))
        for e in range(params.n_bar))
    rack_points = tuple(pow(root, e * params.u, p) for e in range(params.n_bar))

    taken = set(rack_points)
    extra = []
    for x in range(1, p):
        if len(extra) == params.s_bar - 1:
            break
        if x not in taken:
            extra.append(x)
    if len(extra) < params.s_bar - 1:
        raise InternalError("field too small for the extra evaluation points")

    flat = [x for row in locators for x in row]
    if len(set(flat)) != params.n or len(set(rack_points)) != params.n_bar:
        raise InternalError("locators collide; field selection is broken")
    return CodeConstants(
        field=field, locators=locators, rack_points=rack_points,
        extra_points=tuple(extra))


class ParityCheckMatrix:
    """The r*alpha x n*alpha parity-check system in sparse block form.

    Depends only on (params, p); rebuilding yields identical contents.
    Immutable after construction.
    """

    def __init__(self, params: CodeParams, constants: CodeConstants):
        self.params = params
        self.constants = constants
        p = constants.field.p
        r, n_bar, u, s_bar = params.r, params.n_bar, params.u, params.s_bar

        # diag[t, e, g] = locator^t; extra_pow[t, v-1] = extra_points[v-1]^t.
        lam = np.array(constants.locators, dtype=np.int64)  # (n_bar, u)
        extra = np.array(constants.extra_points, dtype=np.int64)
        self.diag = np.ones((r, n_bar, u), dtype=np.int64)
        extra_pow = np.ones((r, s_bar - 1), dtype=np.int64)
        for t in range(1, r):
            self.diag[t] = self.diag[t - 1] * lam % p
            extra_pow[t] = extra_pow[t - 1] * extra % p

        # The digit table, (alpha, m), least-significant digit first, with the
        # place value of each digit position.
        self.place = s_bar ** np.arange(params.m)
        self.digits = np.arange(params.alpha)[:, None] // self.place % s_bar
        # Zero-digit count per coordinate: the level order of every solve.
        self.level = np.count_nonzero(self.digits == 0, axis=1)
        # Per digit position tau: the beta rows whose digit tau is zero, and,
        # shape (s_bar - 1, beta), those rows with digit tau raised from 0 to v.
        self.zero_rows = [np.flatnonzero(self.digits[:, tau] == 0)
                          for tau in range(params.m)]
        self.sibling_cols = [rows + np.arange(1, s_bar)[:, None] * self.place[tau]
                             for tau, rows in enumerate(self.zero_rows)]

        # sibling_terms[e] = (blocks, zero, cols, mu): the blocks
        # t = residue(e) + i*u, the rows zero_rows[tau] that read siblings in
        # each, their sibling columns sibling_cols[tau], and
        # mu[i, v-1] = extra_points[v-1]^(t // u).  Node g's entry is
        # locator^residue(e) * mu[i, v-1].  off_diagonal[e] = (rows, cols,
        # values) lists the same entries flat: rows t*alpha + a, shape (R,),
        # the sibling columns each row reads, (R, s_bar - 1), and per node g
        # the values, (u, R, s_bar - 1).
        self.sibling_terms = []
        self.off_diagonal = []
        for e in range(n_bar):
            res, tau = params.rack_residue(e), params.rack_digit(e)
            blocks, zero, cols = np.arange(res, r, u), self.zero_rows[tau], self.sibling_cols[tau]
            mu = extra_pow[blocks // u]
            self.sibling_terms.append((blocks, zero, cols, mu))
            self.off_diagonal.append((
                (blocks[:, None] * params.alpha + zero).ravel(),
                np.tile(cols.T, (blocks.size, 1)),
                self.diag[res, e][:, None, None] * np.repeat(mu, zero.size, axis=0) % p))

    @property
    def p(self) -> int:
        return self.constants.field.p

    def product(self, nodes) -> "NodeProduct":
        """The column groups of the given node indices, summed (NodeProduct)."""
        params = self.params
        nodes = np.asarray(nodes, dtype=np.int64)
        racks, slots = np.divmod(nodes, params.u)
        residues = [params.rack_residue(e) for e in racks]
        listed = np.unique(racks) if params.s_bar > 1 else racks[:0]
        weights = np.where(racks == listed[:, None], self.diag[residues, racks, slots], 0)
        first = int(nodes[0]) if nodes.size else 0
        contiguous = np.array_equal(nodes, np.arange(first, first + nodes.size))
        return NodeProduct(
            p=self.p,
            index=slice(first, first + nodes.size) if contiguous else nodes,
            diag=self.diag[:, racks, slots].astype(np.float64),
            weights=weights.astype(np.float64),
            siblings=tuple((blocks, zero, cols, mu.astype(np.float64))
                           for blocks, zero, cols, mu in
                           (self.sibling_terms[e] for e in listed)))

    def dense_node(self, e: int, g: int) -> np.ndarray:
        """Materialize column group (e, g) as a dense (r*alpha, alpha) matrix."""
        params = self.params
        alpha = params.alpha
        block = np.zeros((params.r, alpha, alpha), dtype=np.int64)
        idx = np.arange(alpha)
        block[:, idx, idx] = self.diag[:, e, g, None]
        block = block.reshape(params.r * alpha, alpha)
        rows, cols, values = self.off_diagonal[e]
        block[rows[:, None], cols] = values[g]
        return block


@dataclass(frozen=True)
class NodeProduct:
    """Sum over a fixed node list of each node's column group times its vector.

    diag[t, j] is locator_j^t, shape (r, K).  weights[i, j] is
    locator_j^residue(e) when node j lies in the i-th listed rack e, else 0,
    so weights @ x are the rack aggregates that repair helpers send.
    siblings holds the sibling_terms of each listed rack, mu in float64.
    With s_bar = 1 no rack is listed.
    """

    p: int
    index: slice | np.ndarray   # the node indices, as a slice when contiguous
    diag: np.ndarray
    weights: np.ndarray
    siblings: tuple

    def __call__(self, vectors: np.ndarray) -> np.ndarray:
        """H[:, nodes] applied to vectors[nodes], (r, alpha, w) int64.

        vectors is (n', alpha, w), indexed by node, with symbols in [0, p).
        The result is congruent to the product mod p, nonnegative and
        unreduced.  Each float64 product sums at most K diagonal terms, u
        aggregate terms or s_bar - 1 sibling terms, each at most (p - 1)^2;
        Codec checks that n such terms stay below 2^53.
        """
        x = np.ascontiguousarray(vectors[self.index], dtype=np.float64)
        alpha = x.shape[1]
        x = x.reshape(x.shape[0], -1)
        out = (self.diag @ x).astype(np.int64).reshape(self.diag.shape[0], alpha, -1)
        if self.siblings:
            agg = (self.weights @ x).astype(np.int64) % self.p
            agg = agg.astype(np.float64).reshape(len(self.siblings), alpha, -1)
            for aggregate, (blocks, zero, cols, mu) in zip(agg, self.siblings):
                terms = mu @ aggregate[cols].reshape(cols.shape[0], -1)
                out[blocks[:, None], zero] += terms.astype(np.int64).reshape(
                    blocks.size, zero.size, -1)
        return out
