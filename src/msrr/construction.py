"""Code constants and the sparse parity-check system.

Each node (e, g) gets a distinct locator: primitive_root^e * unity_root^g.
The parity-check matrix has r row blocks of alpha rows each.  Per column
group (e, g), block t carries locator^t on its diagonal; if t = residue(e)
(mod u), each row whose rack-owned digit is zero also reads its s_bar - 1
digit siblings, with values locator^residue(e) * extra_point^(t // u).  These
off-diagonal entries are built once, one table per rack
(ParityCheckMatrix.off_diagonal), and every reader of the matrix uses it.
Positions come from the digit table, ParityCheckMatrix.digits: the base-s_bar
digits of every coordinate, computed once.  The level order, the zero-digit
rows and their digit siblings are read off it; no other module expands digits.
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

        # off_diagonal[e] = (rows, cols, values): flat rows t*alpha + a of the
        # blocks t = residue(e) + i*u, a in zero_rows[tau], shape (R,); the
        # sibling columns each row reads, (R, s_bar - 1); and per node g the
        # values locator^residue(e) * extra_points^(t // u), (u, R, s_bar - 1).
        self.off_diagonal = []
        for e in range(n_bar):
            res, tau = params.rack_residue(e), params.rack_digit(e)
            blocks, zero = np.arange(res, r, u), self.zero_rows[tau]
            rows = (blocks[:, None] * params.alpha + zero).ravel()
            cols = np.tile(self.sibling_cols[tau].T, (blocks.size, 1))
            mu = np.repeat(extra_pow[blocks // u], zero.size, axis=0)
            self.off_diagonal.append(
                (rows, cols, self.diag[res, e][:, None, None] * mu % p))

    @property
    def p(self) -> int:
        return self.constants.field.p

    def apply_node(self, e: int, g: int, vec: np.ndarray) -> np.ndarray:
        """Product of column group (e, g) with a node vector.

        vec has shape (alpha,) or (alpha, w) for w stacked stripes; the result
        is (r*alpha,) or (r*alpha, w).
        """
        params = self.params
        p = self.p
        vec = np.asarray(vec, dtype=np.int64) % p
        if vec.shape[0] != params.alpha:
            raise ValueError(
                f"node vector has {vec.shape[0]} coordinates, expected {params.alpha}")
        tail = vec.shape[1:]
        ones = (1,) * len(tail)
        out = (self.diag[:, e, g].reshape((-1, 1) + ones) * vec).reshape(
            (params.r * params.alpha,) + tail)
        rows, cols, values = self.off_diagonal[e]
        out[rows] += (values[g].reshape(values.shape[1:] + ones) * vec[cols]).sum(axis=1)
        out %= p
        return out

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
