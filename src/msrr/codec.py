"""Systematic encoding, syndrome computation, erasure decoding, MDS sweeps.

A stripe is one codeword: n node vectors of alpha symbols, any k of which
determine it.  encode_batch, syndrome_batch, decode_batch and decode_into
take stripes as arrays only, one as (n, alpha) symbols or w of them as
(n, alpha, w), and decode takes an erasure as a presence mask of n
booleans, False at each missing node.  Each refuses any other shape, and
decode any other mask shape.  Data occupies the
lexicographically first k nodes; encoding is decoding with the r parity nodes
erased.  Off its diagonal, parity-check row a of a column group refers only
to digit siblings of a with one fewer zero digit.  So with the coordinates
taken level by level in ascending zero-digit count, each coordinate is an
r x r Vandermonde system V[t, j] = locator_j^t in the r unknown nodes, whose
right-hand side needs only values solved at the level before.  The locators
are distinct, so each system is invertible.

The solve is level-major: the coordinates are ordered by level, once per
plan.  The known nodes move to the right-hand side in one exact product
(ParityCheckMatrix.product).  The unknowns' off-diagonal terms follow the
construction as the known nodes' do: they are the unknown racks' aggregates
of the level before, read at the digit siblings and weighed by the
extra-point powers.  So a level is one gather, of the right-hand side at the
level's coordinates and of those aggregates, and one product with
[-V^-1 | -V^-1 times the extra-point powers].  The whole solve is one
linalg.Program of such gather-product-fold steps over one source array that
the plan owns and reuses from chunk to chunk and call to call; natural
coordinate order comes back once per chunk, on output.

Arithmetic is exact in floats.  Sums are folded into signed residues,
a - rint(a/p)*p, which have |r| <= p/2 + 2 <= p - 1 (linalg.Fold), so every
product term is at most (p - 1)^2.  linalg.split cuts each product, by its
coefficients, into column ranges folded one after another, so that no row
sums more than n nonzero terms, a folded sum counting as one.  So every sum
is at most n * (p - 1)^2, and linalg.exact_float runs the whole solve in
float32 where n * (p - 1)^2 + p < 2^24, as at the benchmark codes' fields
(p = 257 and 271), and in float64 otherwise, where Codec requires
n * (p - 1)^2 < 2^53.  Values move into
[0, p) once, on output.  verify_mds certifies full rank of each r-subset's
column groups from the same level order, read off the sparse tables
ParityCheckMatrix.off_diagonal and diag, and from distinct Vandermonde
diagonal columns; only where the certificate fails is a dense column group
built and eliminated.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .construction import CodeConstants, ParityCheckMatrix, build_constants
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

# The stripes per chunk of a solve, and of a file pass, are chosen so that
# no work array exceeds about this many symbols.
_CHUNK_SYMBOLS = 1 << 17


@dataclass(eq=False)
class _Plan:
    """The level-major solve for r unknown nodes, ascending, as one Program
    (see Codec._plan); chunk stripes or fewer per call."""

    unknowns: tuple[int, ...]
    program: linalg.Program
    chunk: int


class Codec:
    """Encoder/decoder for one concrete code over one field.

    A Codec keeps its plans' work arrays from call to call, so it is not for
    concurrent use; give each thread its own.
    """

    def __init__(self, params: CodeParams, field: FieldCtx | None = None,
                 min_field: int = 0):
        self.params = params
        self.field = field if field is not None else FieldCtx.for_code(params, min_field)
        # Every product here is a linalg.Program step: each term is a
        # coefficient in [0, p) times a symbol or a signed residue, |r| <=
        # p/2 + 2 <= p - 1, so at most (p - 1)^2, and linalg.split keeps each
        # row of a column range within n nonzero terms, a folded sum counting
        # as one.  The steps run in linalg.exact_float(n, p), float32 where
        # n * (p - 1)^2 + p < 2^24; float64 holds integers below 2^53, so
        # n * (p - 1)^2 < 2^53 keeps every sum exact in either type.
        if params.n * (self.p - 1) ** 2 >= 2**53:
            raise InternalError(
                f"n={params.n}, p={self.p} overflow the exact float64 product")
        self.constants: CodeConstants = build_constants(params, self.field)
        self.pcm = ParityCheckMatrix(params, self.constants)
        # Plans cached besides encode_plan: one decode plan for the last
        # erasure pattern, so a file decoded chunk by chunk plans once; and
        # the tables of repair plans that depend on the host rack alone.
        self._decode_plan: _Plan | None = None
        self._repair_layouts: dict[int, tuple] = {}

    @property
    def p(self) -> int:
        return self.field.p

    @functools.cached_property
    def encode_plan(self) -> _Plan:
        """The solve for the r parity nodes, planned on first use; encode_batch
        runs it once per chunk of encode_plan.chunk stripes."""
        return self._plan(list(range(self.params.k, self.params.n)))

    def _reduce(self, a) -> np.ndarray:
        """a as symbols in [0, p); unsigned input already below p is returned
        as is, anything else as a fresh int64 array."""
        a = np.asarray(a)
        if a.dtype.kind == "u" and (a.size == 0 or int(a.max()) < self.p):
            return a
        return np.asarray(a, dtype=np.int64) % self.p

    def _plan(self, unknowns: list[int]) -> _Plan:
        """The solve for r unknown node indices, ascending.

        Its program is the known nodes' product (ParityCheckMatrix.product),
        whose call takes every node's vectors and uses the known ones, then
        two steps per level in ascending zero-digit count, whose coordinates
        are positions lo to hi of the level-major order.  The first gathers
        the right-hand side at those coordinates and the unknown racks'
        aggregates of the level before at their digit siblings, and maps them
        by [-V^-1 | -V^-1 times the sibling coefficients] to the level's
        solution, an (r, hi - lo) block.  The second weighs that block into
        the unknown racks' aggregates, a (racks, hi - lo) block after it; the
        last level has none.  The output reads the solution in natural order.
        """
        params, pcm, p, n, dtype = self.params, self.pcm, self.p, self.params.n, self.pcm.dtype
        r, alpha, s1 = params.r, params.alpha, params.s_bar - 1
        pairs = [params.node_pair(i) for i in unknowns]
        try:
            inverse = linalg.vandermonde_solve(
                [self.constants.locators[e][g] for e, g in pairs], np.eye(r, dtype=np.int64), p)
        except SingularMatrixError as exc:  # locators are distinct by construction
            raise InternalError("erasure system singular; constants are broken") from exc
        negated = -inverse % p
        racks = sorted({e for e, _ in pairs}) if s1 else []
        weights = np.zeros((len(racks), r), dtype=np.int64)
        for slot, (e, g) in enumerate(pairs):
            if e in racks:
                weights[racks.index(e), slot] = pcm.diag[params.rack_residue(e), e, g]
        known = pcm.product([i for i in range(n) if i not in unknowns])
        # held[q, j], past the known product's rows: unknown q's solution at
        # level-major position j for q < r, else rack racks[q - r]'s aggregate.
        order, bounds, held = pcm.level_blocks(np.arange(alpha), r + len(racks))
        held += known.rows
        # One table of the unknown racks' sibling terms over the level-major
        # order, cut by level; rows of racks with no term in a level drop out.
        gather, sibling_coef = pcm.sibling_table(racks, order, order)
        gather = np.concatenate([[0], held[r:].ravel()])[gather]
        sibling_coef = negated @ sibling_coef % p
        steps, aggregate = list(known.steps), linalg.split(weights, n, dtype)
        for lo, hi in zip(bounds, bounds[1:]):
            used = gather[:, lo:hi].any(axis=1)
            steps.append(linalg.step(
                np.vstack([known.output[:, order[lo:hi]], gather[used, lo:hi]]),
                linalg.split(np.hstack([negated, sibling_coef[:, used]]), n, dtype), held[0, lo]))
            if racks and hi < alpha:
                steps.append(linalg.step(held[:r, lo:hi], aggregate, held[r, lo]))
        natural = np.empty((r, alpha), dtype=np.intp)
        natural[:, order] = held[:r]
        program = linalg.Program(p, known.rows + (r + len(racks)) * alpha, steps, known.first,
                                 natural, known.inputs)
        return _Plan(tuple(unknowns), program,
                     max(1, _CHUNK_SYMBOLS // max(n * alpha, program.widest)))

    def _solve(self, plan: _Plan, vectors: np.ndarray):
        """Per chunk of at most plan.chunk stripes, (lo, hi, values): the
        values of plan.unknowns at stripes lo to hi, (r, alpha, hi - lo) in
        [0, p), from vectors[i], (n', alpha, w), of every other node i.
        vectors holds symbols in [0, p); the values are a work array of the
        plan, valid until the next chunk."""
        for lo in range(0, vectors.shape[2], plan.chunk):
            hi = min(lo + plan.chunk, vectors.shape[2])
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
        for lo, hi, values in self._solve(self.encode_plan, data):
            stripes[params.k:, :, lo:hi] = values
        return out

    # -- syndrome ------------------------------------------------------------

    def syndrome_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Parity-check residual of vectors, (n, alpha[, w]), of shape
        (r*alpha[, w]); zero iff each stripe is a codeword."""
        params = self.params
        vectors = self._reduce(vectors)
        product = self.pcm.product(range(params.n))
        residual = product(self._stripes(vectors, params.n, "vectors")).astype(np.int64)
        return residual.reshape((params.r * params.alpha,) + vectors.shape[2:])

    # -- erasure decoding ------------------------------------------------------

    def decode_batch(self, vectors: np.ndarray, present: np.ndarray) -> np.ndarray:
        """decode_into on a new int64 copy of vectors, which may hold any
        integers; returns the copy."""
        restored = np.array(self._reduce(vectors), dtype=np.int64)  # never the caller's
        return self.decode_into(restored, present)

    def decode_into(self, vectors: np.ndarray, present: np.ndarray) -> np.ndarray:
        """Write the missing nodes of vectors, (n, alpha[, w]) symbols in
        [0, p) of a dtype that holds p - 1, in place; returns vectors.
        present, shape (n,), is False at each missing node, at most r of
        them.  A missing node's rows may hold any value of the dtype: the
        known product may stage them with the present nodes around them, but
        weighs them by zero, and they are overwritten."""
        params = self.params
        stripes = self._stripes(vectors, params.n, "vectors")
        present = np.asarray(present, dtype=bool)
        if present.shape != (params.n,):
            raise ValueError(f"present shape {present.shape} is not {(params.n,)}")
        missing = [i for i in range(params.n) if not present[i]]
        if not missing:
            return vectors
        if len(missing) > params.r:
            raise ValueError(
                f"{len(missing)} nodes missing, more than r={params.r}")
        # Pad with the smallest present nodes so the sub-system is square; the
        # unique solution restores their known values alongside the missing ones.
        pad = [i for i in range(params.n) if present[i]][:params.r - len(missing)]
        unknowns = tuple(sorted(missing + pad))
        if self._decode_plan is None or self._decode_plan.unknowns != unknowns:
            self._decode_plan = self._plan(list(unknowns))
        slots = [(i, unknowns.index(i)) for i in missing]
        for lo, hi, values in self._solve(self._decode_plan, stripes):
            for i, slot in slots:
                stripes[i, :, lo:hi] = values[slot]
        return vectors

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
