"""Systematic encoding, syndrome computation, erasure decoding, MDS sweeps.

A stripe is one codeword: n node vectors of alpha symbols.  Data occupies the
lexicographically first k nodes; encoding is decoding with the r parity nodes
erased.  The known nodes move to the right-hand side as float64 GEMMs
(construction.NodeProduct): one diagonal product, the rack aggregates, and
one small product per rack on the aggregate's digit siblings.  Each of those
products, and each level inverse below, sums at most n terms of at most
(p - 1)^2, so Codec requires n * (p - 1)^2 < 2^53 to keep them exact.  Off its
diagonal, parity-check row a of a column group refers only to digit siblings
of a with one fewer zero digit.  So with the coordinates taken level by level
in ascending zero-digit count, each coordinate is an r x r Vandermonde system
V[t, j] = locator_j^t in the r unknown nodes, whose right-hand side needs only
values solved at the level before.  The locators are distinct, so each system
is invertible.  verify_mds certifies full rank of each r-subset's dense column
groups from this same level order, with dense elimination where the
certificate fails.  Batch variants carry a trailing stripe axis so that file
striping can encode and decode a chunk of stripes in one shot.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .construction import CodeConstants, NodeProduct, ParityCheckMatrix, build_constants
from .errors import InternalError, ParameterError, SingularMatrixError
from .field import FieldCtx
from .params import CodeParams


@dataclass
class Stripe:
    """One codeword: vectors has shape (n, alpha); present marks live nodes.

    vectors may carry a trailing stripe axis, (n, alpha[, stripes]), to hold
    a batch of codewords sharing one erasure pattern.
    """

    params: CodeParams
    vectors: np.ndarray
    present: np.ndarray

    @classmethod
    def complete(cls, params: CodeParams, vectors: np.ndarray) -> "Stripe":
        vectors = np.asarray(vectors, dtype=np.int64)
        if vectors.shape != (params.n, params.alpha):
            raise ValueError(
                f"stripe shape {vectors.shape} != {(params.n, params.alpha)}")
        return cls(params, vectors.copy(), np.ones(params.n, dtype=bool))

    def node(self, e: int, g: int) -> np.ndarray:
        return self.vectors[self.params.node_index(e, g)]

    def rack(self, e: int) -> np.ndarray:
        """The u node vectors of rack e, shape (u, alpha[, stripes])."""
        u = self.params.u
        return self.vectors[e * u:(e + 1) * u]

    def erase(self, nodes) -> "Stripe":
        """Copy with the given (e, g) nodes zeroed and flagged missing."""
        vectors = self.vectors.copy()
        present = self.present.copy()
        for e, g in nodes:
            i = self.params.node_index(e, g)
            vectors[i] = 0
            present[i] = False
        return Stripe(self.params, vectors, present)

    @property
    def is_complete(self) -> bool:
        return bool(self.present.all())


@dataclass(frozen=True)
class ErasurePattern:
    """A set of erased node identities, at most r of them."""

    nodes: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, params: CodeParams, nodes) -> "ErasurePattern":
        listed = [(int(e), int(g)) for e, g in nodes]
        uniq = sorted(set(listed))
        if len(uniq) != len(listed):
            raise ValueError("erasure pattern contains duplicate nodes")
        for e, g in uniq:
            params.node_index(e, g)
        if len(uniq) > params.r:
            raise ValueError(
                f"{len(uniq)} erasures exceed the decoding limit r={params.r}")
        return cls(tuple(uniq))


@dataclass
class MdsReport:
    """Outcome of an invertibility sweep over r-subsets of nodes."""

    mode: str
    subsets_checked: int
    failures: list = dc_field(default_factory=list)  # (node subset, rank found)

    @property
    def ok(self) -> bool:
        return not self.failures


# Stripes per chunk of a solve, and of a file pass, are chosen so that no
# temporary exceeds about this many symbols.
_CHUNK_SYMBOLS = 1 << 17


@dataclass(frozen=True)
class _Plan:
    """Level-ordered solve for r unknown nodes.  known is the right-hand-side
    product of every other node; inverse is V^-1.  Each level is
    (rows, src, coef, starts, tgt): its right-hand-side rows (r, coords), and
    off-diagonal terms coef * solution[src], summed per run from starts and
    added to right-hand-side row tgt."""

    unknowns: tuple[int, ...]
    known: NodeProduct
    inverse: np.ndarray
    levels: tuple[tuple[np.ndarray, ...], ...]
    chunk: int


class Codec:
    """Encoder/decoder for one concrete code over one field."""

    def __init__(self, params: CodeParams, field: FieldCtx | None = None,
                 min_field: int = 0):
        self.params = params
        self.field = field if field is not None else FieldCtx.for_code(params, min_field)
        # float64 holds integers below 2^53 exactly.  Every float64 dot
        # product here sums terms of at most (p - 1)^2: r of them in a level
        # inverse, k in the known nodes' diagonal (n in a syndrome), u in a
        # rack aggregate, s_bar - 1 in a sibling product.  Each count is at
        # most n, so n * (p - 1)^2 < 2^53 keeps every sum exact.
        if params.n * (self.p - 1) ** 2 >= 2**53:
            raise InternalError(
                f"n={params.n}, p={self.p} overflow the exact float64 product")
        self.constants: CodeConstants = build_constants(params, self.field)
        self.pcm = ParityCheckMatrix(params, self.constants)
        # Plans cached: the encode plan, and one decode plan for the last
        # erasure pattern, so a file decoded chunk by chunk plans once.
        self._encode_plan: _Plan | None = None
        self._decode_plan: _Plan | None = None

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

    def _plan(self, unknowns: list[int]) -> _Plan:
        """Solve tables for r unknown node indices, ascending."""
        params, pcm, p = self.params, self.pcm, self.p
        r, alpha = params.r, params.alpha
        locators = [self.constants.locators[e][g]
                    for e, g in map(params.node_pair, unknowns)]
        try:
            inverse = linalg.vandermonde_solve(
                locators, np.eye(r, dtype=np.int64), p).astype(np.float64)
        except SingularMatrixError as exc:  # locators are distinct by construction
            raise InternalError("erasure system singular; constants are broken") from exc
        # Off-diagonal entries of the unknown column groups, as flat indices:
        # right-hand-side row tgt reads coef * solution row slot*alpha + sibling.
        entries = []
        for slot, (e, g) in enumerate(map(params.node_pair, unknowns)):
            rows, cols, values = pcm.off_diagonal[e]
            entries.append((np.repeat(rows, cols.shape[1]), slot * alpha + cols.ravel(),
                            values[g].ravel()))
        tgt, src, coef = map(np.concatenate, zip(*entries))
        order = np.argsort(tgt)
        tgt, src, coef = tgt[order], src[order], coef[order, None]
        levels = []
        for lvl in np.unique(pcm.level):
            sel = pcm.level[tgt % alpha] == lvl
            starts = np.flatnonzero(np.diff(tgt[sel], prepend=-1))
            rows = np.arange(r)[:, None] * alpha + np.flatnonzero(pcm.level == lvl)
            levels.append((rows, src[sel], coef[sel], starts, tgt[sel][starts]))
        known = pcm.product([i for i in range(params.n) if i not in unknowns])
        widest = max([params.n * alpha] + [s.size for _, s, *_ in levels])
        return _Plan(tuple(unknowns), known, inverse, tuple(levels),
                     max(1, _CHUNK_SYMBOLS // widest))

    def _solve(self, plan: _Plan, vectors: np.ndarray) -> np.ndarray:
        """Values of plan.unknowns, (r, alpha) + tail, from vectors[i] of every
        other node i; vectors holds symbols in [0, p)."""
        params, p = self.params, self.p
        r, alpha = params.r, params.alpha
        tail = vectors.shape[2:]
        vectors = vectors.reshape(vectors.shape[:2] + (-1,))
        out = np.empty((r * alpha, vectors.shape[2]), dtype=np.int64)
        for lo in range(0, vectors.shape[2], plan.chunk):
            # b is H_known x; the unknowns solve H_unknown y = -b, level by level.
            b = plan.known(vectors[:, :, lo:lo + plan.chunk]).reshape(r * alpha, -1)
            x = out[:, lo:lo + plan.chunk]
            for rows, src, coef, starts, tgt in plan.levels:
                if src.size:
                    b[tgt] += np.add.reduceat(coef * x[src], starts, axis=0)
                level_rhs = (-b[rows] % p).reshape(r, -1).astype(np.float64)
                x[rows] = ((plan.inverse @ level_rhs).astype(np.int64) % p).reshape(
                    rows.shape + (-1,))
        return out.reshape((r, alpha) + tail)

    # -- encoding ------------------------------------------------------------

    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        """Encode data of shape (k, alpha) or (k, alpha, w) into full int64
        stripes."""
        params = self.params
        data = self._reduce(data)
        if data.shape[:2] != (params.k, params.alpha):
            raise ValueError(
                f"data shape {data.shape} does not start with {(params.k, params.alpha)}")
        if self._encode_plan is None:
            self._encode_plan = self._plan(list(range(params.k, params.n)))
        return np.concatenate([data, self._solve(self._encode_plan, data)], axis=0)

    def encode_systematic(self, data: np.ndarray) -> Stripe:
        """Encode k data vectors of length alpha into a complete stripe."""
        data = np.asarray(data, dtype=np.int64)
        if data.shape != (self.params.k, self.params.alpha):
            raise ValueError(
                f"data shape {data.shape} != {(self.params.k, self.params.alpha)}")
        return Stripe.complete(self.params, self.encode_batch(data))

    # -- syndrome ------------------------------------------------------------

    def syndrome_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Parity-check residual of shape (r*alpha,) + tail; zero iff codeword."""
        params = self.params
        vectors = self._reduce(vectors)
        product = self.pcm.product(range(params.n))
        residual = product(vectors.reshape(vectors.shape[:2] + (-1,))) % self.p
        return residual.reshape((params.r * params.alpha,) + vectors.shape[2:])

    def syndrome(self, stripe: Stripe) -> np.ndarray:
        if not stripe.is_complete:
            raise ValueError("syndrome needs a complete stripe")
        return self.syndrome_batch(stripe.vectors)

    # -- erasure decoding ------------------------------------------------------

    def decode_batch(self, vectors: np.ndarray, present: np.ndarray) -> np.ndarray:
        """Fill in missing node vectors; vectors (n, alpha) + optional stripe
        axis.  Returns a new int64 array."""
        params = self.params
        vectors = self._reduce(vectors)
        restored = vectors.astype(np.int64, copy=False)  # never the caller's array
        present = np.asarray(present, dtype=bool)
        missing = [i for i in range(params.n) if not present[i]]
        if not missing:
            return restored
        if len(missing) > params.r:
            raise ValueError(
                f"{len(missing)} nodes missing, more than r={params.r}")
        # Pad with the smallest present nodes so the sub-system is square; the
        # unique solution restores their known values alongside the missing ones.
        pad = [i for i in range(params.n) if present[i]][:params.r - len(missing)]
        unknowns = tuple(sorted(missing + pad))
        if self._decode_plan is None or self._decode_plan.unknowns != unknowns:
            self._decode_plan = self._plan(list(unknowns))
        sol = self._solve(self._decode_plan, vectors)
        restored[missing] = sol[[unknowns.index(i) for i in missing]]
        return restored

    def decode_erasures(self, stripe: Stripe, pattern) -> Stripe:
        """Reconstruct the erased nodes of a stripe; all other nodes must be live."""
        params = self.params
        if not isinstance(pattern, ErasurePattern):
            pattern = ErasurePattern.of(params, pattern)
        erased = {params.node_index(e, g) for e, g in pattern.nodes}
        for i in range(params.n):
            if i not in erased and not stripe.present[i]:
                raise ValueError(
                    f"node {params.node_pair(i)} is missing but not in the pattern")
        present = np.ones(params.n, dtype=bool)
        present[list(erased)] = False
        restored = self.decode_batch(stripe.vectors, present)
        return Stripe(params, restored, np.ones(params.n, dtype=bool))

    # -- MDS sweep ---------------------------------------------------------------

    def verify_mds(self, mode: str = "exhaustive", samples: int = 0,
                   seed: int = 0, cap: int = 100_000) -> MdsReport:
        """Check invertibility of the r-column-group concatenations.

        mode "exhaustive" walks every r-subset of nodes (refused above cap);
        mode "sample" draws `samples` subsets from the given seed.

        Certificate: a subset's dense matrix h that is block lower triangular
        in level order, with one invertible r x r diagonal block at every
        coordinate, has rank r*alpha.  Otherwise its rank is linalg.rank(h),
        so the report equals that of dense rank on any input.
        """
        params, p = self.params, self.p
        if mode == "exhaustive":
            total = math.comb(params.n, params.r)
            if total > cap:
                raise ParameterError(
                    "cap_exceeded",
                    f"{total} subsets exceed the exhaustive cap {cap}")
            subsets = itertools.combinations(range(params.n), params.r)
        elif mode == "sample":
            rng = random.Random(seed)
            subsets = [
                tuple(sorted(rng.sample(range(params.n), params.r)))
                for _ in range(samples)]
        else:
            raise ValueError(f"unknown mode {mode!r}")

        r, alpha, level = params.r, params.alpha, self.pcm.level
        dense = [self.pcm.dense_node(e, g) for e, g in params.nodes()]
        # Row (t, a), column (j, b) entries that must vanish for h to be block
        # lower triangular in level order: b != a with level(b) >= level(a).
        above_a, above_b = np.nonzero(
            (level[None, :] >= level[:, None]) & ~np.eye(alpha, dtype=bool))
        coords = np.arange(alpha)
        report = MdsReport(mode=mode, subsets_checked=0)
        for subset in subsets:
            h = np.hstack([dense[i] for i in subset])
            h4 = h.reshape(r, alpha, r, alpha)
            blocks = h4[:, coords, :, coords]  # (alpha, r, r) diagonal blocks
            certified = (not h4[:, above_a, :, above_b].any()
                         and (blocks == blocks[0]).all()
                         and linalg.rank(blocks[0], p) == r)
            rk = r * alpha if certified else linalg.rank(h, p)
            report.subsets_checked += 1
            if rk != r * alpha:
                report.failures.append((subset, rk))
        report.failures.sort()
        return report
