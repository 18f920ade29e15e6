"""Systematic encoding, syndrome computation, erasure decoding, MDS sweeps.

A stripe is one codeword: n node vectors of alpha symbols.  Data occupies the
lexicographically first k nodes; the remaining r node vectors are the unique
solution of the parity-check system given the data (the required square
sub-system is invertible for every choice of r column groups, which is what
verify_mds sweeps).  Batch variants carry a trailing stripe axis so that file
striping can encode and decode many stripes in one shot.
"""

from __future__ import annotations

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


class Codec:
    """Encoder/decoder for one concrete code over one field."""

    def __init__(self, params: CodeParams, field: FieldCtx | None = None,
                 min_field: int = 0):
        self.params = params
        self.field = field if field is not None else FieldCtx.for_code(params, min_field)
        self.constants: CodeConstants = build_constants(params, self.field)
        self.pcm = ParityCheckMatrix(params, self.constants)
        self._dense_nodes: list[np.ndarray] | None = None
        self._parity_inv: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.field.p

    def dense_nodes(self) -> list[np.ndarray]:
        """Dense (r*alpha, alpha) column group per node, cached."""
        if self._dense_nodes is None:
            self._dense_nodes = [
                self.pcm.dense_node(e, g) for e, g in self.params.nodes()]
        return self._dense_nodes

    def _parity_inverse(self) -> np.ndarray:
        # Factorization of the square sub-system on the r parity nodes is
        # shared by every stripe of the code.
        if self._parity_inv is None:
            dense = self.dense_nodes()
            parity = np.hstack([dense[i] for i in range(self.params.k, self.params.n)])
            self._parity_inv = linalg.inverse(parity, self.p)
        return self._parity_inv

    # -- encoding ------------------------------------------------------------

    def encode_batch(self, data: np.ndarray) -> np.ndarray:
        """Encode data of shape (k, alpha) or (k, alpha, w) into full stripes."""
        params, p = self.params, self.p
        data = np.asarray(data, dtype=np.int64) % p
        if data.shape[:2] != (params.k, params.alpha):
            raise ValueError(
                f"data shape {data.shape} does not start with {(params.k, params.alpha)}")
        tail = data.shape[2:]
        rhs = np.zeros((params.r * params.alpha,) + tail, dtype=np.int64)
        for i in range(params.k):
            e, g = params.node_pair(i)
            rhs = (rhs - self.pcm.apply_node(e, g, data[i])) % p
        parity = self._parity_inverse() @ rhs.reshape(rhs.shape[0], -1) % p
        parity = parity.reshape((params.r, params.alpha) + tail)
        return np.concatenate([data, parity], axis=0)

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
        params, p = self.params, self.p
        vectors = np.asarray(vectors, dtype=np.int64)
        out = np.zeros((params.r * params.alpha,) + vectors.shape[2:], dtype=np.int64)
        for i in range(params.n):
            e, g = params.node_pair(i)
            out = (out + self.pcm.apply_node(e, g, vectors[i])) % p
        return out

    def syndrome(self, stripe: Stripe) -> np.ndarray:
        if not stripe.is_complete:
            raise ValueError("syndrome needs a complete stripe")
        return self.syndrome_batch(stripe.vectors)

    # -- erasure decoding ------------------------------------------------------

    def decode_batch(self, vectors: np.ndarray, present: np.ndarray) -> np.ndarray:
        """Fill in missing node vectors; vectors (n, alpha) + optional stripe axis."""
        params, p = self.params, self.p
        vectors = np.asarray(vectors, dtype=np.int64) % p
        present = np.asarray(present, dtype=bool)
        missing = [i for i in range(params.n) if not present[i]]
        if not missing:
            return vectors.copy()
        if len(missing) > params.r:
            raise ValueError(
                f"{len(missing)} nodes missing, more than r={params.r}")
        # Pad with the smallest present nodes so the sub-system is square; the
        # unique solution restores their known values alongside the missing ones.
        unknowns = list(missing)
        for i in range(params.n):
            if len(unknowns) == params.r:
                break
            if present[i]:
                unknowns.append(i)
        unknowns.sort()
        unknown_set = set(unknowns)
        dense = self.dense_nodes()
        system = np.hstack([dense[i] for i in unknowns])
        tail = vectors.shape[2:]
        rhs = np.zeros((params.r * params.alpha,) + tail, dtype=np.int64)
        for i in range(params.n):
            if i not in unknown_set:
                e, g = params.node_pair(i)
                rhs = (rhs - self.pcm.apply_node(e, g, vectors[i])) % p
        try:
            sol = linalg.solve(system, rhs.reshape(rhs.shape[0], -1), p)
        except SingularMatrixError as exc:  # impossible for a correct build
            raise InternalError(
                "erasure sub-system singular; the construction is broken") from exc
        sol = sol.reshape((params.r, params.alpha) + tail)
        out = vectors.copy()
        for slot, i in enumerate(unknowns):
            if i in missing:
                out[i] = sol[slot]
        return out

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

        dense = self.dense_nodes()
        report = MdsReport(mode=mode, subsets_checked=0)
        for subset in subsets:
            rk = linalg.rank(np.hstack([dense[i] for i in subset]), p)
            report.subsets_checked += 1
            if rk != params.r * params.alpha:
                report.failures.append((subset, rk))
        report.failures.sort()
        return report
