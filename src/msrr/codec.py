"""Systematic encoding, syndrome computation, erasure decoding, MDS sweeps.

A stripe is one codeword: n node vectors of alpha symbols, any k of which
determine it.  encode_batch, syndrome_batch and decode_batch take stripes
as arrays only, one as (n, alpha) symbols or w of them as (n, alpha, w),
and decode takes an erasure as a presence mask of n booleans, False at each
missing node.  Each refuses any other shape, and decode any other mask
shape.  Data occupies the lexicographically first k nodes; encoding is
decoding with the r parity nodes erased.  Off its diagonal, parity-check
row a of a column group refers only to digit siblings of a with one fewer
zero digit.  So with the coordinates taken level by level in ascending
zero-digit count, each coordinate is an r x r Vandermonde system V[t, j] =
locator_j^t in the r unknown nodes, whose right-hand side needs only values
solved at the level before.  The locators are distinct, so each system is
invertible.

The solve is level-major, one linalg.Program of m + 1 gather-product-fold
steps, one per level, that ParityCheckMatrix.product builds with -V^-1 as
its left factor, exact in floats as linalg sets out; natural coordinate
order comes back once per chunk, on output.  The syndrome is the same
program over every node, with no unknowns and the identity in place of
-V^-1.  A solve's steps are shared and its work arrays are the Codec's own,
by the construction module's sharing rule.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import linalg
from .construction import CodeConstants, ParityCheckMatrix, code_tables
from .errors import InternalError, ParameterError, SingularMatrixError
from .field import FieldCtx
from .params import CodeParams


@dataclass
class MdsReport:
    """Outcome of an invertibility sweep over r-subsets of nodes."""

    mode: str
    subsets_checked: int
    failures: list = dc_field(default_factory=list)  # (node subset, rank found)

    @property
    def ok(self) -> bool:
        return not self.failures


# Most r-subsets, or repair jobs, that an exhaustive verify walks.
SWEEP_CAP = 100_000

# The stripes per chunk of a solve, of a file pass and of a repair are
# chosen so that no work array exceeds about this many symbols.
_CHUNK_SYMBOLS = 1 << 17
_PLANS_KEPT = 3   # the most solves whose Programs, and work arrays, a Codec keeps


def stripes_per_chunk(rows: int) -> int:
    """The stripes per chunk of a plan whose widest per-stripe array is
    rows symbols: a codec solve's, a file pass's or a repair's."""
    return max(1, _CHUNK_SYMBOLS // rows)


@dataclass(eq=False)
class _Plan:
    """The solve for r unknown nodes, ascending, or none for the syndrome,
    as one Program (Codec._tables).  rows, the widest per-stripe array of a
    solve (a codeword or the program's widest gather), sizes its chunks."""

    unknowns: tuple[int, ...]
    program: linalg.Program
    rows: int


class Codec:
    """Encoder/decoder for one concrete code over one field.

    Its tables, pcm and constants, and its solves' steps (pcm.plans) are
    shared (construction.code_tables).  It keeps the Programs of its last
    _PLANS_KEPT solves, and their work arrays, so it serves one thread at a
    time; give each thread its own.
    """

    def __init__(self, params: CodeParams, field: FieldCtx | None = None,
                 min_field: int = 0):
        self.params = params
        self.field = field if field is not None else FieldCtx.for_code(params, min_field)
        # The steps' float64 capacity, linalg.capacity, must hold n terms.
        if params.n * (self.p - 1) ** 2 >= 2**53:
            raise InternalError(
                f"n={params.n}, p={self.p} overflow the exact float64 product")
        self.pcm: ParityCheckMatrix = code_tables(params, self.field)
        self.constants: CodeConstants = self.pcm.constants
        self._plans: dict[tuple[int, ...], _Plan] = {}

    @property
    def p(self) -> int:
        return self.field.p

    def _reduce(self, a) -> np.ndarray:
        """a as symbols in [0, p); unsigned input already below p is returned
        as is, anything else as a fresh int64 array."""
        a = np.asarray(a)
        if a.dtype.kind == "u" and (a.size == 0 or int(a.max()) < self.p):
            return a
        return np.asarray(a, dtype=np.int64) % self.p

    def _plan(self, unknowns) -> _Plan:
        """The solve for unknowns, r node indices ascending (the parity nodes'
        is the encode) or none (the syndrome): shared tables (pcm.plans) and
        a Program of this Codec's own, kept with its last _PLANS_KEPT."""
        unknowns = tuple(unknowns)
        plan = self._plans.pop(unknowns, None)
        if plan is None:
            tables = self.pcm.plans.get(unknowns, lambda: self._tables(unknowns))
            plan = replace(tables, program=tables.program.fresh())
        self._plans[unknowns] = plan
        if len(self._plans) > _PLANS_KEPT:
            del self._plans[next(iter(self._plans))]
        return plan

    def _tables(self, unknowns: tuple[int, ...]) -> _Plan:
        """_plan's tables: the known nodes' product solved for the unknowns,
        -V^-1 its left factor; its call takes every node's vectors."""
        params, p, left = self.params, self.p, None
        if unknowns:
            try:
                left = -linalg.vandermonde_solve(
                    [self.constants.locators[e][g] for e, g in map(params.node_pair, unknowns)],
                    np.eye(params.r, dtype=np.int64), p) % p
            except SingularMatrixError as exc:  # locators are distinct by construction
                raise InternalError("erasure system singular; constants are broken") from exc
        program = self.pcm.product([i for i in range(params.n) if i not in unknowns],
                                   unknowns, left)
        return _Plan(unknowns, program, max(params.n * params.alpha, program.widest))

    def _solve(self, plan: _Plan, vectors: np.ndarray):
        """Per chunk of at most stripes_per_chunk(plan.rows) stripes, (lo,
        hi, values): the values of plan.unknowns at stripes lo to hi, (r,
        alpha, hi - lo) in [0, p), from vectors[i], (n', alpha, w), of every
        other node i.  vectors holds symbols in [0, p); the values are a work
        array of the plan, valid until the next chunk."""
        chunk = stripes_per_chunk(plan.rows)
        for lo in range(0, vectors.shape[2], chunk):
            hi = min(lo + chunk, vectors.shape[2])
            yield lo, hi, plan.program(vectors[:, :, lo:hi])

    def _stripes(self, a: np.ndarray, nodes: int, name: str) -> np.ndarray:
        """a, (nodes, alpha) or (nodes, alpha, w), as a (nodes, alpha, w) view,
        which the calls that write in place write through; refuses any other
        shape."""
        alpha = self.params.alpha
        if a.shape[:2] != (nodes, alpha) or a.ndim > 3:
            raise ValueError(
                f"{name} must be ({nodes}, {alpha}) or ({nodes}, {alpha}, w), got shape {a.shape}")
        return a if a.ndim == 3 else a[..., None]

    # -- encoding ------------------------------------------------------------

    def encode_batch(self, data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Encode data of shape (k, alpha) or (k, alpha, w) into full stripes,
        (n, alpha) or (n, alpha, w): a new int64 array, or out, an array of
        that shape whose dtype holds p - 1."""
        params = self.params
        data = self._reduce(data)
        if out is None:
            out = np.empty((params.n,) + data.shape[1:], dtype=np.int64)
        data, stripes = self._stripes(data, params.k, "data"), self._stripes(out, params.n, "out")
        stripes[:params.k] = data
        for lo, hi, values in self._solve(self._plan(range(params.k, params.n)), data):
            stripes[params.k:, :, lo:hi] = values
        return out

    # -- syndrome ------------------------------------------------------------

    def syndrome_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Parity-check residual of vectors, (n, alpha[, w]), of shape
        (r*alpha[, w]); zero iff each stripe is a codeword."""
        params = self.params
        vectors = self._reduce(vectors)
        residual = self._plan(()).program(self._stripes(vectors, params.n, "vectors"))
        return residual.astype(np.int64).reshape((params.r * params.alpha,) + vectors.shape[2:])

    # -- erasure decoding ------------------------------------------------------

    def decode_batch(self, vectors: np.ndarray, present: np.ndarray) -> np.ndarray:
        """vectors, (n, alpha[, w]) integers, with the missing nodes solved:
        a new int64 array of symbols in [0, p).  present is decode_plan's
        mask.  A missing node's rows may hold any value: the plan's program
        may stage them with the present nodes around them, but does not read
        them, and they are overwritten."""
        # _reduce returns only unsigned input as is, which this converts.
        vectors = np.asarray(self._reduce(vectors), dtype=np.int64)
        stripes = self._stripes(vectors, self.params.n, "vectors")
        plan = self.decode_plan(present)
        if plan is None:
            return vectors
        slots = [(i, slot) for slot, i in enumerate(plan.unknowns) if not present[i]]
        for lo, hi, values in self._solve(plan, stripes):
            for i, slot in slots:
                stripes[i, :, lo:hi] = values[slot]
        return vectors

    def decode_plan(self, present: np.ndarray) -> _Plan | None:
        """The solve for the erasure present, shape (n,), False at each
        missing node, at most r; None if none is.  The missing nodes are
        padded with the smallest present ones to r unknowns.  A chunked
        decode binds its Program once per width (_plan)."""
        params = self.params
        present = np.asarray(present, dtype=bool)
        if present.shape != (params.n,):
            raise ValueError(f"present shape {present.shape} is not {(params.n,)}")
        missing = [i for i in range(params.n) if not present[i]]
        if len(missing) > params.r:
            raise ValueError(
                f"{len(missing)} nodes missing, more than r={params.r}")
        if not missing:
            return None
        pad = [i for i in range(params.n) if present[i]][:params.r - len(missing)]
        return self._plan(sorted(missing + pad))

    # -- MDS sweep ---------------------------------------------------------------

    def verify_mds(self, mode: str = "exhaustive", samples: int = 0,
                   seed: int = 0) -> MdsReport:
        """Check invertibility of the r-column-group concatenations.

        mode "exhaustive" walks every r-subset of nodes (refused above SWEEP_CAP);
        mode "sample" draws `samples` subsets from the given seed.

        Certificate: a subset's dense matrix h, its column groups side by
        side, has rank r*alpha if (a) no group has an entry at row (t, a),
        column b != a with level(b) >= level(a), so h is block lower
        triangular in level order; (b) each group has the same diagonal
        column at every coordinate; and (c) the r x r block of those columns
        is invertible.  Rack e's u nodes share its entry positions,
        pcm.off_diagonal[e]; (a) and (b) hold for them when each entry reads a
        column of lower level than its row, so none lands on the diagonal,
        which is pcm.diag's at every coordinate.  (c) holds when every column
        is a Vandermonde column [x^t] and the x are distinct; otherwise
        linalg.rank decides it.  A subset that fails, if only by an entry
        valued 0, is the only one whose h is built, and its rank is
        linalg.rank(h); so the report equals that of dense rank on any input.
        """
        params, p = self.params, self.p
        if mode == "exhaustive":
            total = math.comb(params.n, params.r)
            if total > SWEEP_CAP:
                raise ParameterError(
                    "cap_exceeded",
                    f"{total} subsets exceed the exhaustive cap {SWEEP_CAP}")
            subsets = itertools.combinations(range(params.n), params.r)
        elif mode == "sample":
            rng = random.Random(seed)
            subsets = [
                tuple(sorted(rng.sample(range(params.n), params.r)))
                for _ in range(samples)]
        else:
            raise ValueError(f"unknown mode {mode!r}")

        r, alpha, level = params.r, params.alpha, self.pcm.level
        holds = np.repeat([bool((level[cols] < level[rows % alpha][:, None]).all())
                           for rows, cols, _ in self.pcm.off_diagonal], params.u)
        # Each node's diagonal column, as x if that is the Vandermonde column [x^t].
        columns, points = self.pcm.diag.reshape(r, params.n), []
        for column in columns.T.tolist():
            x = column[1] if r > 1 else 1
            points.append(x if column == [pow(x, t, p) for t in range(r)] else None)
        report = MdsReport(mode=mode, subsets_checked=0)
        for subset in subsets:
            distinct = {points[i] for i in subset}
            certified = all(holds[i] for i in subset) and (
                None not in distinct and len(distinct) == r
                or linalg.rank(columns[:, subset], p) == r)
            rk = r * alpha if certified else linalg.rank(
                np.hstack([self.pcm.dense_node(*params.node_pair(i)) for i in subset]), p)
            report.subsets_checked += 1
            if rk != r * alpha:
                report.failures.append((subset, rk))
        report.failures.sort()
        return report
