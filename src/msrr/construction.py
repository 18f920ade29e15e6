"""Code constants and the sparse parity-check system.

Each node (e, g) gets a distinct locator: primitive_root^e * unity_root^g.
The parity-check matrix has r row blocks of alpha rows each.  Per column
group (e, g), block t carries locator^t on its diagonal; if t = residue(e)
(mod u), each row whose rack-owned digit is zero also reads its s_bar - 1
digit siblings, with values locator^residue(e) * extra_point^(t // u).  The
factor extra_point^(t // u) is one power table for every rack, of which a
rack's blocks read a prefix.  The same entries are listed flat per rack in
off_diagonal, and ParityCheckMatrix.sibling_table lays them out for the
products below.
Positions come from the digit table, ParityCheckMatrix.digits: the base-s_bar
digits of every coordinate, computed once.  The level order, the zero-digit
rows and their digit siblings are read off it; no other module expands digits.

Summed over a set of nodes, the column groups act on their vectors through a
few small float64 products (NodeProduct): one that forms the
locator^residue-weighted rack aggregates, one gather of each aggregate at the
rows' digit siblings, and one product of the diagonals and the extra-point
powers with the vectors and the gathered siblings.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InternalError
from .field import FieldCtx
from .linalg import Fold, accumulate, exact_product, multiply, pieces, term_groups, work_arrays
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

        # off_diagonal[e] = (rows, cols, values) lists rack e's entries flat:
        # the blocks t = residue(e) + i*u, rows t*alpha + a for a in
        # zero_rows[tau], shape (R,); the sibling columns each row reads,
        # sibling_cols[tau], (R, s_bar - 1); and per node g the values
        # locator^residue(e) * extra_pow[i, v-1], (u, R, s_bar - 1).
        self.extra_pow = extra_pow
        self.off_diagonal = []
        for e in range(n_bar):
            res, tau = params.rack_residue(e), params.rack_digit(e)
            blocks, zero, cols = np.arange(res, r, u), self.zero_rows[tau], self.sibling_cols[tau]
            self.off_diagonal.append((
                (blocks[:, None] * params.alpha + zero).ravel(),
                np.tile(cols.T, (blocks.size, 1)),
                self.diag[res, e][:, None, None]
                * np.repeat(extra_pow[blocks // u], zero.size, axis=0) % p))

    @property
    def p(self) -> int:
        return self.constants.field.p

    def sibling_table(self, racks, targets, sources) -> tuple[np.ndarray, np.ndarray]:
        """The listed racks' off-diagonal terms at the target coordinates, as
        one gather and one product.

        Row (i, v) of index, for rack racks[i] and sibling value v = 1 ..
        s_bar - 1, holds per target coordinate a the row 1 + i*len(sources) +
        j, where sources[j] is a with rack i's digit raised from 0 to v, or 0
        where that digit of a is not zero.  Gathered from rows whose row 0 is
        zero and whose rows 1 + i*len(sources) + j are rack i's aggregate at
        sources[j], it yields every sibling term.  coef[t, (i, v)] is
        extra_point_v^(t // u) where t = residue(racks[i]) (mod u), else 0:
        one prefix table for every rack, so racks that share a residue add
        into the same rows inside the product.
        """
        params = self.params
        racks, targets, sources = (np.asarray(x, dtype=np.intp) for x in (racks, targets, sources))
        slot = np.full(params.alpha, -1)
        slot[sources] = np.arange(sources.size)
        width = params.u - params.u0
        tau, residue = racks // width, racks % width
        zero = (self.digits[targets][:, tau] == 0).T[:, None, :]              # (R, 1, T)
        siblings = targets + np.arange(1, params.s_bar)[:, None] * self.place[tau][:, None, None]
        position = slot[np.where(zero, siblings, sources[0] if sources.size else 0)]
        if (zero & (position < 0)).any():
            raise InternalError("a digit sibling is missing from the sources")
        index = np.where(zero, 1 + np.arange(racks.size)[:, None, None] * sources.size
                         + position, 0)
        blocks = np.arange(params.r)[:, None]
        coef = np.where((blocks % params.u == residue)[:, :, None],
                        self.extra_pow[blocks[:, 0] // params.u][:, None, :], 0)
        return index.reshape(-1, targets.size), coef.reshape(params.r, -1)

    def product(self, nodes) -> "NodeProduct":
        """The column groups of the given node indices, summed (NodeProduct)."""
        params = self.params
        nodes = np.asarray(nodes, dtype=np.int64)
        span = np.arange(nodes.min(), nodes.max() + 1)
        listed = np.isin(span, nodes)
        racks, slots = np.divmod(span, params.u)
        residues = [params.rack_residue(e) for e in racks]
        known = np.unique(nodes // params.u) if params.s_bar > 1 else racks[:0]
        weights = np.where((racks == known[:, None]) & listed,
                           self.diag[residues, racks, slots], 0)
        coords = np.arange(params.alpha)
        gather, coef = self.sibling_table(known, coords, coords)
        return NodeProduct(
            fold=Fold(self.p),
            index=slice(int(span[0]), int(span[-1]) + 1),
            coef=np.hstack([np.where(listed, self.diag[:, racks, slots], 0), coef]).astype(
                np.float64),
            groups=term_groups(params.n, span.size, nodes.size, known.size, params.s_bar - 1),
            weights=weights.astype(np.float64),
            gather=gather)

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


@dataclass(eq=False)
class NodeProduct:
    """Sum over a fixed node list of each node's column group times its vector.

    The nodes lie in the node range index; nodes of the range that are not
    listed get zero columns.  weights[i, j] is locator_j^residue(e) when node
    j lies in the i-th listed rack e, else 0, so weights @ x are the rack
    aggregates that repair helpers send.  gather reads the aggregates at the
    rows' digit siblings (ParityCheckMatrix.sibling_table), and coef =
    [locator_j^t | the sibling coefficients] weighs the vectors and the
    gathered siblings into the r*alpha parity-check rows, one product per
    column range of groups.  With s_bar = 1 no rack is listed.

    Work arrays are kept from call to call, so a NodeProduct is not for
    concurrent use.
    """

    fold: Fold
    index: slice
    coef: np.ndarray
    groups: tuple[tuple[int, int], ...]
    weights: np.ndarray
    gather: np.ndarray
    _store: dict = dc_field(default_factory=dict)
    _bound: tuple = (None, None)

    def _bind(self, alpha: int, out: np.ndarray) -> tuple:
        """Work-array views and product pieces that write into out, an
        (r, alpha, w) array."""
        (racks, span), (r, width) = self.weights.shape, (out.shape[0], out.shape[2])
        rows = span + self.gather.shape[0]
        work = work_arrays(self._store, {
            "operand": (rows, alpha), "aggregates": (1 + racks * alpha,),
            "scratch": (max(r, racks) * alpha,)}, width)
        operand, aggregates, scratch = work["operand"], work["aggregates"], work["scratch"]
        aggregates[0] = 0  # the row that gathers read as a zero term
        terms, flat = operand.reshape(rows, -1), out.reshape(r, -1)
        own = aggregates[1:].reshape(racks, alpha * width)
        return (operand[:span], operand[span:], aggregates,
                pieces(self.weights, terms[:span], own),
                own, scratch[:racks * alpha].reshape(own.shape),
                exact_product(self.coef, self.groups, terms, flat,
                              scratch[:r * alpha].reshape(flat.shape)),
                flat, scratch[:r * alpha].reshape(flat.shape))

    def __call__(self, vectors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """H[:, nodes] applied to vectors[nodes], (r, alpha, w) float64.

        vectors is (n', alpha, w), indexed by node, with symbols in [0, p).
        The result, written to out when given, holds signed residues:
        congruent to the product mod p, of magnitude at most p - 1.  Each
        float64 product sums at most n terms of at most (p - 1)^2: u in an
        aggregate, at most n per column range of groups.  Codec checks that
        n such terms stay below 2^53.
        """
        alpha, width = vectors.shape[1:]
        if out is None:
            out = np.empty((self.coef.shape[0], alpha, width))
        if self._bound[0] is not out:
            self._bound = (out, self._bind(alpha, out))
        (known, siblings, aggregates, aggregate_products, own, own_scratch, products,
         flat, scratch) = self._bound[1]
        np.copyto(known, vectors[self.index])
        if self.gather.size:
            multiply(aggregate_products)
            self.fold(own, own_scratch)
            np.take(aggregates, self.gather, axis=0, mode="clip", out=siblings)
        accumulate(products, flat, scratch, self.fold)
        return out
