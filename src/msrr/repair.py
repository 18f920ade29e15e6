"""Single-node repair with minimal cross-rack traffic.

Each helper rack collapses its u node vectors into one aggregate (a fixed
locator-weighted sum) and ships only the beta coordinates whose digit owned
by the host rack is zero.  The replacement node solves those coordinates
level by level, in ascending zero-digit count.  At every coordinate the
selected parity blocks yield a power-moment system over r_bar distinct points
(the host rack point, the extra points, and the rack points of non-helper
racks) whose unknowns are the host aggregate at the coordinate's digit
siblings plus the non-helper aggregates at the coordinate itself.  Its
right-hand side combines helper aggregates at the coordinate with correction
terms: aggregates of racks sharing the host's residue at sibling coordinates
one level down, which the level before has already solved.  So all
coordinates of a level are solved at once by one product with the points'
Lagrange matrix.  The engine only ever sees helper messages and host-rack
survivors, so reading beyond the allowed beta symbols per helper node is
structurally impossible.

The engine is a plan and an apply.  RepairPlan.create builds, once per codec
and job, everything that depends on the job alone: the step matrix (Lagrange
matrix times moment weights), the correction gather table, the row sets of
each level, and the weights that peel the survivors out of the host
aggregate.  Applying the plan to a stripe-last chunk runs one float64 product
per level and one for the peel.  repair_node validates its inputs and applies
a fresh plan to the whole batch; stripe_io.repair_shard applies one plan to a
shard directory chunk by chunk.

Every float64 product here sums at most max(u, d_bar + s_bar - 1) terms of
at most (p - 1)^2: u in a helper message and in the peel, d_bar + s_bar - 1
in a level step.  Since u >= 2, d_bar + s_bar - 1 <= 2*n_bar - 3 < n, so the
bound n * (p - 1)^2 < 2^53 that Codec checks keeps them all exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .codec import Codec, Stripe
from .errors import InternalError, SingularMatrixError
from .params import CodeParams


@dataclass(frozen=True)
class RepairJob:
    """A failed node (e_star, g_star) and the d_bar helper racks serving it."""

    e_star: int
    g_star: int
    helpers: tuple[int, ...]

    @classmethod
    def create(cls, params: CodeParams, e_star: int, g_star: int,
               helpers=None) -> "RepairJob":
        params.node_index(e_star, g_star)
        if helpers is None:
            # Deterministic default: the d_bar smallest racks besides the host.
            helpers = [e for e in range(params.n_bar) if e != e_star][:params.d_bar]
        helpers = tuple(sorted(int(e) for e in helpers))
        if len(set(helpers)) != params.d_bar:
            raise ValueError(
                f"need {params.d_bar} distinct helper racks, got {helpers}")
        for e in helpers:
            if not 0 <= e < params.n_bar or e == e_star:
                raise ValueError(f"invalid helper rack {e}")
        return cls(e_star=e_star, g_star=g_star, helpers=helpers)

    def digit_position(self, params: CodeParams) -> int:
        return params.rack_digit(self.e_star)


@dataclass
class RepairTranscript:
    """Everything a repair produced, with exact symbol accounting.

    Symbol counts are per stripe; stripe_count says how many stripes the
    transcript covers when messages carried a batch axis.  repair_shard
    streams the node to its shard file, so its transcript carries the job and
    the accounting only: no messages, no side aggregates, recovered None.
    """

    job: RepairJob
    messages: dict[int, np.ndarray] = dc_field(default_factory=dict)
    recovered: np.ndarray | None = None
    side_aggregates: dict[int, np.ndarray] = dc_field(default_factory=dict)
    cross_rack_symbols: int = 0
    intra_rack_symbols: int = 0
    accessed_symbols_per_helper_rack: int = 0
    stripe_count: int = 1

    @classmethod
    def of(cls, params: CodeParams, job: RepairJob, stripe_count: int,
           **results) -> "RepairTranscript":
        """The job's per-stripe accounting over stripe_count stripes, with
        whatever results the caller keeps."""
        return cls(job=job, cross_rack_symbols=len(job.helpers) * params.beta,
                   intra_rack_symbols=(params.u - 1) * params.alpha,
                   accessed_symbols_per_helper_rack=params.u * params.beta,
                   stripe_count=stripe_count, **results)


def helper_message(codec: Codec, rack_vectors: np.ndarray, e: int,
                   job: RepairJob) -> np.ndarray:
    """The beta symbols helper rack e ships for the job.

    The message reads only the zero-digit coordinates of each node vector
    (alpha/s_bar symbols per node): they are selected before anything else
    touches the rack, then summed with weights locator^residue(e_star) in one
    float64 product and one reduction.
    """
    params, p = codec.params, codec.p
    if e not in job.helpers:
        raise ValueError(f"rack {e} is not a helper of this job")
    rack_vectors = np.asarray(rack_vectors)
    if rack_vectors.shape[:2] != (params.u, params.alpha):
        raise ValueError(
            f"rack needs shape ({params.u}, {params.alpha}, ...), got {rack_vectors.shape}")
    rows = codec.pcm.zero_rows[job.digit_position(params)]
    selected = codec._reduce(rack_vectors[:, rows])
    res = params.rack_residue(job.e_star)
    weights = np.array([pow(codec.constants.locators[e][g], res, p)
                        for g in range(params.u)], dtype=np.float64)
    message = (weights @ selected.reshape(params.u, -1)).astype(np.int64) % p
    return message.reshape(selected.shape[1:])


@dataclass(frozen=True)
class RepairPlan:
    """The tables of one repair job over one codec, applied chunk by chunk.

    step maps a level's terms (the helper aggregates and the summed
    corrections at its rows) to the host aggregate at the rows' s_bar digit
    siblings and the non-helper aggregates at the rows.  Each level, in
    ascending zero-digit count, is (helper_rows, gather, other_rows,
    host_rows): flat indices into the n_bar * beta rack aggregate rows of the
    helpers' aggregates (d_bar, R), of each correction's terms
    (s_bar - 1, R, racks) and of the non-helper aggregates the level solves
    (others, R), and the host aggregate rows it solves (s_bar, R).  peel
    weighs the host aggregate and the survivors, in node order, into the
    failed node.
    """

    p: int
    n_bar: int
    helpers: np.ndarray
    others: np.ndarray
    step: np.ndarray
    levels: tuple[tuple[np.ndarray, ...], ...]
    peel: np.ndarray

    @classmethod
    def create(cls, codec: Codec, job: RepairJob) -> "RepairPlan":
        params, p = codec.params, codec.p
        consts, pcm = codec.constants, codec.pcm
        alpha, s_bar, beta = params.alpha, params.s_bar, params.beta
        e_star, g_star = job.e_star, job.g_star
        tau_star = job.digit_position(params)
        res_star = params.rack_residue(e_star)
        rows = pcm.zero_rows[tau_star]
        helpers = np.array(job.helpers, dtype=np.intp)
        others = np.array([e for e in range(params.n_bar)
                           if e != e_star and e not in job.helpers], dtype=np.intp)

        # Correction terms of each row, (s_bar - 1, beta, racks) indices into
        # the aggregates: for extra point v and rack e of the host's residue,
        # e's aggregate at the row's sibling with e's digit set to v, if that
        # digit is zero.  Otherwise the host's aggregate row, which stays zero.
        racks = [e for e in range(params.n_bar)
                 if e != e_star and params.rack_residue(e) == res_star]
        taus = [params.rack_digit(e) for e in racks]
        digit = pcm.digits[rows][:, taus]
        pos = np.zeros(alpha, dtype=np.intp)
        pos[rows] = np.arange(beta)
        v = np.arange(1, s_bar)[:, None, None]
        gather = np.where(digit == 0, np.array(racks, dtype=np.intp) * beta
                          + pos[rows[:, None] + (v - digit) * pcm.place[taus]], e_star * beta)

        # A row's moments are minus its helper aggregates at rack-point powers
        # minus its summed corrections at extra-point powers; the points'
        # Lagrange matrix maps them to the host aggregate at the row's s_bar
        # digit siblings and the non-helper aggregates at the row.  step is
        # both maps in one.
        points = ([consts.rack_points[e_star]] + list(consts.extra_points)
                  + [consts.rack_points[e] for e in others])
        try:
            lagrange = linalg.vandermonde_solve(
                points, np.eye(params.r_bar, dtype=np.int64), p)
        except SingularMatrixError as exc:  # points are distinct by construction
            raise InternalError("repair system singular; constants are broken") from exc
        weighted = [consts.rack_points[e] for e in job.helpers] + list(consts.extra_points)
        weights = np.array([[pow(x, i, p) for x in weighted] for i in range(params.r_bar)])
        step = (-(lagrange @ weights) % p).astype(np.float64)

        host_rows = np.vstack([rows, pcm.sibling_cols[tau_star]])
        level = pcm.level[rows]
        levels = []
        for lvl in np.unique(level):
            sel = np.flatnonzero(level == lvl)
            levels.append((helpers[:, None] * beta + sel, gather[:, sel],
                           others[:, None] * beta + sel, host_rows[:, sel]))

        # The host aggregate is sum_g locator_g^res_star * node_g.
        scales = [pow(consts.locators[e_star][g], res_star, p) for g in range(params.u)]
        inverse = pow(scales[g_star], p - 2, p)
        peel = [inverse] + [-inverse * scales[g] % p for g in range(params.u) if g != g_star]
        return cls(p=p, n_bar=params.n_bar, helpers=helpers, others=others,
                   step=step, levels=tuple(levels), peel=np.array(peel, dtype=np.float64))

    def __call__(self, messages: np.ndarray,
                 survivors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Recover the failed node over a chunk of w stripes.

        messages (d_bar, beta, w) are the helper racks' in job.helpers order,
        survivors (u - 1, alpha, w) the host rack's other nodes in node order,
        all symbols in [0, p).  Returns the failed node, (alpha, w) int64, and
        the rack aggregates at the zero-digit rows, (n_bar, beta, w) int64,
        where the non-helpers' are the solved ones and the host's is zero.
        """
        p = self.p
        _, beta, w = messages.shape
        known = np.zeros((self.n_bar * beta, w), dtype=np.int64)
        known.reshape(self.n_bar, beta, w)[self.helpers] = messages
        # stack[0] is the host aggregate, stack[1:] the survivors.
        stack = np.empty((1 + len(survivors),) + survivors.shape[1:], dtype=np.float64)
        stack[1:] = survivors
        # A step sums d_bar + s_bar - 1 terms below p^2 and the peel u, both
        # fewer than n: exact under Codec's n * (p - 1)^2 < 2^53.
        for helper_rows, gather, other_rows, host_rows in self.levels:
            terms = np.concatenate([known[helper_rows], known[gather].sum(axis=2) % p])
            solved = (self.step @ terms.reshape(len(terms), -1)).astype(np.int64) % p
            solved = solved.reshape((len(solved),) + terms.shape[1:])
            stack[0][host_rows] = solved[:len(host_rows)]
            known[other_rows] = solved[len(host_rows):]
        recovered = (self.peel @ stack.reshape(len(stack), -1)).astype(np.int64) % p
        return recovered.reshape(stack.shape[1:]), known.reshape(self.n_bar, beta, w)


def repair_node(codec: Codec, job: RepairJob, messages: dict[int, np.ndarray],
                survivors: dict[int, np.ndarray]) -> RepairTranscript:
    """Recover the failed node vector from helper messages and host survivors."""
    params, p = codec.params, codec.p
    alpha, beta = params.alpha, params.beta

    if set(messages) != set(job.helpers):
        absent = sorted(set(job.helpers) - set(messages))
        raise ValueError(f"missing helper messages from racks {absent}")
    msgs = {e: np.asarray(messages[e], dtype=np.int64) % p for e in job.helpers}
    tail = msgs[job.helpers[0]].shape[1:]
    for e, msg in msgs.items():
        if msg.shape != (beta,) + tail:
            raise ValueError(
                f"message from rack {e} has shape {msg.shape}, expected {(beta,) + tail}")
    if sorted(survivors) != [g for g in range(params.u) if g != job.g_star]:
        raise ValueError("survivors must cover every host-rack node but the failed one")
    surv = {g: np.asarray(v, dtype=np.int64) % p for g, v in survivors.items()}
    for g, v in surv.items():
        if v.shape != (alpha,) + tail:
            raise ValueError(
                f"survivor {g} has shape {v.shape}, expected {(alpha,) + tail}")

    plan = RepairPlan.create(codec, job)
    width = math.prod(tail)
    recovered, aggregates = plan(
        np.stack([msgs[e] for e in job.helpers]).reshape(len(msgs), beta, width),
        np.stack([surv[g] for g in sorted(surv)]).reshape(len(surv), alpha, width))
    return RepairTranscript.of(
        params, job, width, messages=msgs, recovered=recovered.reshape((alpha,) + tail),
        side_aggregates={int(e): aggregates[e].reshape((beta,) + tail)
                         for e in plan.others})


def repair_from_stripe(codec: Codec, stripe: Stripe, job: RepairJob) -> RepairTranscript:
    """Run the full protocol against one stripe (or a batch of stripes):
    helpers compute their messages, survivors hand over their vectors, the
    engine recovers the rest."""
    params = codec.params
    for e in job.helpers:
        for g in range(params.u):
            if not stripe.present[params.node_index(e, g)]:
                raise ValueError(f"helper rack {e} is missing node {(e, g)}")
    messages = {e: helper_message(codec, stripe.rack(e), e, job)
                for e in job.helpers}
    survivors = {}
    for g in range(params.u):
        if g == job.g_star:
            continue
        if not stripe.present[params.node_index(job.e_star, g)]:
            raise ValueError(f"host-rack survivor {(job.e_star, g)} is missing")
        survivors[g] = stripe.node(job.e_star, g)
    return repair_node(codec, job, messages, survivors)
