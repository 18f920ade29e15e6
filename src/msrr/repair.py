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
"""

from __future__ import annotations

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
    transcript covers when messages carried a batch axis.
    """

    job: RepairJob
    messages: dict[int, np.ndarray]
    recovered: np.ndarray
    side_aggregates: dict[int, np.ndarray] = dc_field(default_factory=dict)
    cross_rack_symbols: int = 0
    intra_rack_symbols: int = 0
    accessed_symbols_per_helper_rack: int = 0
    stripe_count: int = 1


def helper_message(codec: Codec, rack_vectors: np.ndarray, e: int,
                   job: RepairJob) -> np.ndarray:
    """The beta symbols helper rack e ships for the job.

    The message reads only the zero-digit coordinates of each node vector
    (alpha/s_bar symbols per node).
    """
    params, p = codec.params, codec.p
    if e not in job.helpers:
        raise ValueError(f"rack {e} is not a helper of this job")
    rack_vectors = np.asarray(rack_vectors, dtype=np.int64)
    if rack_vectors.shape[:2] != (params.u, params.alpha):
        raise ValueError(
            f"rack needs shape ({params.u}, {params.alpha}, ...), got {rack_vectors.shape}")
    rows = codec.pcm.zero_rows[job.digit_position(params)]
    rack_rows = rack_vectors[:, rows] % p
    res = params.rack_residue(job.e_star)
    out = np.zeros((params.beta,) + rack_vectors.shape[2:], dtype=np.int64)
    for g in range(params.u):
        weight = pow(codec.constants.locators[e][g], res, p)
        out = (out + weight * rack_rows[g]) % p
    return out


def repair_node(codec: Codec, job: RepairJob, messages: dict[int, np.ndarray],
                survivors: dict[int, np.ndarray]) -> RepairTranscript:
    """Recover the failed node vector from helper messages and host survivors."""
    params, p = codec.params, codec.p
    consts, pcm = codec.constants, codec.pcm
    alpha, s_bar, beta = params.alpha, params.s_bar, params.beta
    e_star, g_star = job.e_star, job.g_star
    tau_star = job.digit_position(params)
    res_star = params.rack_residue(e_star)
    rows = pcm.zero_rows[tau_star]

    if set(messages) != set(job.helpers):
        absent = sorted(set(job.helpers) - set(messages))
        raise ValueError(f"missing helper messages from racks {absent}")
    msgs = {e: np.asarray(messages[e], dtype=np.int64) % p for e in job.helpers}
    tail = msgs[job.helpers[0]].shape[1:]
    for e, msg in msgs.items():
        if msg.shape != (beta,) + tail:
            raise ValueError(
                f"message from rack {e} has shape {msg.shape}, expected {(beta,) + tail}")
    if sorted(survivors) != [g for g in range(params.u) if g != g_star]:
        raise ValueError("survivors must cover every host-rack node but the failed one")
    surv = {g: np.asarray(v, dtype=np.int64) % p for g, v in survivors.items()}
    for g, v in surv.items():
        if v.shape != (alpha,) + tail:
            raise ValueError(
                f"survivor {g} has shape {v.shape}, expected {(alpha,) + tail}")

    # Rack aggregates on the zero-digit rows: helpers' off the wire, the others'
    # filled in level by level; the host's stays zero and pads the gather.
    known = np.zeros((params.n_bar, beta) + tail, dtype=np.int64)
    helpers = np.array(job.helpers)
    known[helpers] = [msgs[e] for e in job.helpers]
    others = np.array([e for e in range(params.n_bar)
                       if e != e_star and e not in job.helpers], dtype=np.intp)

    # Correction terms of each row, (s_bar - 1, beta, racks) indices into
    # known: for extra point v and rack e of the host's residue, e's aggregate
    # at the row's sibling with e's digit set to v, if that digit is zero.
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
    # minus its summed corrections at extra-point powers; the points' Lagrange
    # matrix maps them to the host aggregate at the row's s_bar digit siblings
    # and the non-helper aggregates at the row.  step is both maps in one; its
    # int64 products stay below (d_bar + s_bar) * (p - 1)^2, so they are exact.
    points = ([consts.rack_points[e_star]] + list(consts.extra_points)
              + [consts.rack_points[e] for e in others])
    try:
        lagrange = linalg.vandermonde_solve(points, np.eye(params.r_bar, dtype=np.int64), p)
    except SingularMatrixError as exc:  # points are distinct by construction
        raise InternalError("repair system singular; constants are broken") from exc
    weighted = [consts.rack_points[e] for e in job.helpers] + list(consts.extra_points)
    weights = np.array([[pow(x, i, p) for x in weighted] for i in range(params.r_bar)])
    step = -(lagrange @ weights) % p

    host_aggregate = np.zeros((alpha,) + tail, dtype=np.int64)
    host_rows = np.vstack([rows, pcm.sibling_cols[tau_star]])
    flat = known.reshape((params.n_bar * beta,) + tail)
    level = pcm.level[rows]
    for lvl in np.unique(level):
        sel = np.flatnonzero(level == lvl)
        terms = np.concatenate([known[helpers[:, None], sel],
                                flat[gather[:, sel]].sum(axis=2) % p])
        solved = (step @ terms.reshape(len(terms), -1) % p).reshape(
            (params.r_bar, sel.size) + tail)
        host_aggregate[host_rows[:, sel]] = solved[:s_bar]
        known[others[:, None], sel] = solved[s_bar:]

    # Peel the survivors out of the host aggregate.
    acc = host_aggregate
    for g, v in surv.items():
        weight = pow(consts.locators[e_star][g], res_star, p)
        acc = (acc - weight * v) % p
    scale = pow(consts.locators[e_star][g_star], res_star, p)
    recovered = acc * pow(scale, p - 2, p) % p

    side = {int(e): known[e] for e in others}
    return RepairTranscript(
        job=job,
        messages=msgs,
        recovered=recovered,
        side_aggregates=side,
        cross_rack_symbols=sum(m.shape[0] for m in msgs.values()),
        intra_rack_symbols=(params.u - 1) * alpha,
        accessed_symbols_per_helper_rack=params.u * beta,
        stripe_count=int(np.prod(tail)) if tail else 1,
    )


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
