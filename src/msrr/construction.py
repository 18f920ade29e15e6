"""Code constants and the sparse parity-check system.

Each node (e, g) gets a distinct locator: primitive_root^e * unity_root^g.
The parity-check matrix has r row blocks of alpha rows each; per column group
(e, g) a block t carries locator^t on its diagonal, and rows whose rack-owned
digit is zero additionally carry a short run of off-diagonal entries that tie
the coordinate to its digit siblings.  A row never holds more than s_bar
nonzero entries per column group, so blocks are stored as a diagonal value
plus the off-diagonal run template.  Row and column positions come from the
digit table, ParityCheckMatrix.digits: the base-s_bar digits of every
coordinate, computed once.  The level order, the zero-digit rows and their
digit siblings are read off it, and no other module expands digits.
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

        lam = np.array(constants.locators, dtype=np.int64)  # (n_bar, u)
        self.diag = np.ones((r, n_bar, u), dtype=np.int64)
        for t in range(1, r):
            self.diag[t] = self.diag[t - 1] * lam % p

        # Off-diagonal run for block (t, e, g), present iff t = residue(e) mod u:
        # value at digit-sibling v is locator^residue(e) * extra_points[v-1]^(t//u).
        self.off_mask = np.zeros((r, n_bar), dtype=bool)
        self.off_values = np.zeros((r, n_bar, u, s_bar - 1), dtype=np.int64)
        extra = np.array(constants.extra_points, dtype=np.int64)
        for e in range(n_bar):
            res = params.rack_residue(e)
            lam_res = np.array(
                [pow(int(lam[e, g]), res, p) for g in range(u)], dtype=np.int64)
            for t in range(res, r, u):
                self.off_mask[t, e] = True
                mu_pow = np.array(
                    [pow(int(x), t // u, p) for x in extra], dtype=np.int64)
                self.off_values[t, e] = lam_res[:, None] * mu_pow[None, :] % p

        # The digit table, (alpha, m), least-significant digit first, with the
        # place value of each digit position.
        self.place = s_bar ** np.arange(params.m)
        self.digits = np.arange(params.alpha)[:, None] // self.place % s_bar
        # Zero-digit count per coordinate: the level order of every solve.
        self.level = np.count_nonzero(self.digits == 0, axis=1)
        # Per digit position tau: the beta rows whose digit tau is zero, and
        # for v in [1, s_bar) those rows with digit tau raised from 0 to v.
        self.zero_rows = [np.flatnonzero(self.digits[:, tau] == 0)
                          for tau in range(params.m)]
        self.sibling_cols = [[rows + v * self.place[tau] for v in range(1, s_bar)]
                             for tau, rows in enumerate(self.zero_rows)]

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
        tau = params.rack_digit(e)
        ones = (1,) * vec.ndim
        out = self.diag[:, e, g].reshape((-1,) + ones) * vec
        # All off-diagonal blocks of the column group at once: (blocks, beta, ...).
        blocks = np.flatnonzero(self.off_mask[:, e])[:, None]
        rows = self.zero_rows[tau]
        acc = out[blocks, rows]
        for v in range(1, params.s_bar):
            acc += (self.off_values[blocks, e, g, v - 1].reshape((-1,) + ones)
                    * vec[self.sibling_cols[tau][v - 1]])
        out[blocks, rows] = acc
        out %= p
        return out.reshape((params.r * params.alpha,) + vec.shape[1:])

    def dense_node(self, e: int, g: int) -> np.ndarray:
        """Materialize column group (e, g) as a dense (r*alpha, alpha) matrix."""
        params = self.params
        alpha = params.alpha
        block = np.zeros((params.r, alpha, alpha), dtype=np.int64)
        idx = np.arange(alpha)
        block[:, idx, idx] = self.diag[:, e, g, None]
        tau = params.rack_digit(e)
        rows = self.zero_rows[tau]
        for t in range(params.r):
            if self.off_mask[t, e]:
                for v in range(1, params.s_bar):
                    block[t, rows, self.sibling_cols[tau][v - 1]] = \
                        self.off_values[t, e, g, v - 1]
        return block.reshape(params.r * alpha, alpha)
