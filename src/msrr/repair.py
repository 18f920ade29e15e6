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
and job, everything that depends on the job alone, and the plan keeps its
work arrays from chunk to chunk.  helper_message writes each helper rack's
message into the plan's rows; an apply then runs each level as one gather,
one exact product and one fold.  The level products peel the survivors out
of the host aggregate as they solve it, so they yield the failed node, which
moves into natural coordinate order once, on output.  repair_node validates
its inputs and applies a fresh plan to the whole batch;
stripe_io.repair_shard applies one plan to a shard directory in chunks whose
widest array, RepairPlan.rows symbols per stripe, holds about _CHUNK_SYMBOLS.

Arithmetic is float64, as in the codec: every term is a coefficient in
[0, p) times a symbol or a signed residue (linalg.Fold), so at most
(p - 1)^2, and no sum has more than n terms (a level's is split by
linalg.term_groups), so Codec's bound n * (p - 1)^2 < 2^53 keeps all exact.
Values move into [0, p) once, on output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .codec import Codec, Stripe
from .errors import InternalError, SingularMatrixError
from .linalg import Fold, accumulate, exact_product, multiply, pieces, term_groups, work_arrays
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
                   job: RepairJob, plan: RepairPlan | None = None) -> np.ndarray:
    """The beta symbols helper rack e ships for the job: the locator^residue
    (e_star)-weighted sum of its nodes' zero-digit coordinates, read through
    a view, in one float64 product.  Without a plan they are returned as
    int64 symbols in [0, p), shape (beta,) + tail.  With plan, from
    rack_vectors (u, alpha, w) of symbols in [0, p), they go into the plan's
    rows for rack e, which are returned: a float64 sum of u terms that the
    plan's next apply at width w folds.
    """
    params, p = codec.params, codec.p
    if e not in job.helpers:
        raise ValueError(f"rack {e} is not a helper of this job")
    rack_vectors = np.asarray(rack_vectors)
    if rack_vectors.shape[:2] != (params.u, params.alpha):
        raise ValueError(
            f"rack needs shape ({params.u}, {params.alpha}, ...), got {rack_vectors.shape}")
    # With alpha split as (s_bar^(m-1-tau), s_bar, s_bar^tau), the middle
    # axis is digit tau; index 0 of it is pcm.zero_rows[tau], in order.
    u, s_bar, tail = params.u, params.s_bar, rack_vectors.shape[2:]
    place = int(codec.pcm.place[job.digit_position(params)])
    selected = rack_vectors.reshape(
        (u, rack_vectors.shape[1] // (s_bar * place), s_bar, place) + tail)[:, :, 0]
    shape = (params.beta,) + tail
    if plan is not None:
        work, slot = plan._work(math.prod(tail)), job.helpers.index(e)
        np.copyto(work["selected"].reshape(selected.shape), selected)
        multiply(pieces(plan.weights[slot:slot + 1], work["selected"].reshape(u, -1),
                        work["messages"][slot].reshape(1, -1)))
        return work["messages"][slot].reshape(shape)
    weights = codec.pcm.diag[params.rack_residue(job.e_star), e][None].astype(np.float64)
    operand = np.asarray(codec._reduce(selected), dtype=np.float64).reshape(u, -1)
    message = np.empty((1, operand.shape[1]))
    multiply(pieces(weights, operand, message))  # u terms below p^2: exact
    return (message % p).astype(np.int64).reshape(shape)


@dataclass(eq=False)
class RepairPlan:
    """One repair job's tables over one codec, and the work arrays they are
    applied in.

    An apply to w stripes works in one source array of rows w wide: a zero
    row, helper i's message at its k-th zero-digit row at 1 + i*beta + k,
    the survivors, then each level's solution block.  The zero-digit rows
    are taken in level-major order, and a level, (lo, hi, index), is
    positions lo to hi of it.  index gathers the level's terms from the
    source: the helper messages, the survivors at the rows' s_bar digit
    siblings and, for each rack of the host's residue, its s_bar - 1
    correction terms (its aggregate one level down, or the zero row).  coef
    maps them, one product per column range of groups, to the block: the
    failed node at the rows' digit siblings, then the non-helper aggregates
    at the rows.  Its columns are step's helper columns, the survivors' peel
    weights and step's extra-point columns once per rack, and its
    failed-node rows of step are scaled by the peel's inverse.  host[a] and
    side are the source rows of the failed node at coordinate a and of the
    non-helper aggregates per zero-digit row; weights[i] weigh helper i's
    nodes into its message.  rows, the widest per-stripe array of a repair
    (the source, a level's gather or a rack's u nodes), sizes chunks.  Work
    arrays are kept from call to call, so a plan is not for concurrent use.
    """

    weights: np.ndarray
    levels: tuple[tuple[int, int, np.ndarray], ...]
    coef: np.ndarray
    groups: tuple[tuple[int, int], ...]
    host: np.ndarray
    side: np.ndarray
    fold: Fold
    rows: int
    _store: dict = dc_field(default_factory=dict)
    _views: tuple = (None, None)

    @classmethod
    def create(cls, codec: Codec, job: RepairJob) -> "RepairPlan":
        params, p, consts = codec.params, codec.p, codec.constants
        u, beta, d_bar, r_bar = params.u, params.beta, params.d_bar, params.r_bar
        e_star, g_star, s_bar = job.e_star, job.g_star, params.s_bar
        res_star = params.rack_residue(e_star)
        if e_star not in codec._repair_layouts:
            codec._repair_layouts[e_star] = _layout(codec, e_star)
        order, bounds, solved, host, side, survived, racks, sibling, present = \
            codec._repair_layouts[e_star]
        helpers = list(job.helpers)
        others = [e for e in range(params.n_bar) if e != e_star and e not in job.helpers]
        # source[e, j] is the source row of rack e's aggregate at position j,
        # the zero row for the host, whose aggregate no level reads.
        source = np.zeros((params.n_bar, beta), dtype=np.intp)
        source[helpers] = 1 + np.arange(d_bar)[:, None] * beta + order
        source[others] = solved[s_bar:]
        index = np.vstack([source[helpers], survived, np.where(
            present, source[racks[:, None, None], sibling], 0).reshape(-1, beta)])

        # A row's moments are minus its helper aggregates at rack-point powers
        # minus its summed corrections at extra-point powers; the points'
        # Lagrange matrix maps them to the host aggregate at the row's s_bar
        # digit siblings and the non-helper aggregates at the row.  step is
        # both maps in one.
        points = ([consts.rack_points[e_star]] + list(consts.extra_points)
                  + [consts.rack_points[e] for e in others])
        try:
            lagrange = linalg.vandermonde_solve(points, np.eye(r_bar, dtype=np.int64), p)
        except SingularMatrixError as exc:  # points are distinct by construction
            raise InternalError("repair system singular; constants are broken") from exc
        weighted = [consts.rack_points[e] for e in job.helpers] + list(consts.extra_points)
        weights = np.array([[pow(x, i, p) for x in weighted] for i in range(r_bar)])
        step = -(lagrange @ weights) % p
        # The host aggregate is sum_g locator_g^res_star * node_g, so the
        # failed node is inverse times it plus the survivors weighed by peel.
        scales = codec.pcm.diag[res_star, e_star]
        inverse = pow(int(scales[g_star]), p - 2, p)
        step[:s_bar] = step[:s_bar] * inverse % p
        peel = np.zeros((r_bar, u - 1, s_bar), dtype=np.int64)
        peel[np.arange(s_bar), :, np.arange(s_bar)] = [
            -inverse * int(scale) % p for g, scale in enumerate(scales) if g != g_star]
        coef = np.hstack([step[:, :d_bar], peel.reshape(r_bar, -1)]
                         + [step[:, d_bar:]] * len(racks))
        return cls(weights=codec.pcm.diag[res_star, helpers].astype(np.float64),
                   levels=tuple((lo, hi, np.ascontiguousarray(index[:, lo:hi]))
                                for lo, hi in zip(bounds, bounds[1:])),
                   coef=coef.astype(np.float64),
                   groups=term_groups(params.n, d_bar + (u - 1) * s_bar, d_bar + u - 1,
                                      len(racks), s_bar - 1),
                   host=host, side=side, fold=Fold(p),
                   rows=max(1 + d_bar * beta + (u - 1) * params.alpha + r_bar * beta,
                            len(index) * int(np.diff(bounds).max()), u * params.alpha))

    def _work(self, width: int) -> dict:
        """Work-array views and product pieces for chunks of width stripes."""
        if self._views[0] == width:
            return self._views[1]
        (d_bar, u), r_bar = self.weights.shape, len(self.coef)
        beta, alpha = self.side.shape[1], self.host.size
        kept = 1 + d_bar * beta
        base = kept + (u - 1) * alpha
        work = work_arrays(self._store, {
            "source": (base + r_bar * beta,), "selected": (u, beta), "node": (alpha,),
            "operand": (max(index.size for *_, index in self.levels),),
            "scratch": (max(d_bar, r_bar) * beta,)}, width)
        source, scratch = work["source"], work["scratch"]
        source[0] = 0  # the row that gathers read as a zero term
        levels = []
        for lo, hi, index in self.levels:
            operand = work["operand"][:index.size].reshape(len(index), -1)
            block = source[base + r_bar * lo:base + r_bar * hi].reshape(r_bar, -1)
            block_scratch = scratch[:r_bar * (hi - lo)].reshape(block.shape)
            levels.append((index, operand.reshape(index.shape + (width,)), block, block_scratch,
                           exact_product(self.coef, self.groups, operand, block, block_scratch)))
        work.update(sent=source[1:kept], messages=source[1:kept].reshape(d_bar, beta, width),
                    survivors=source[kept:base].reshape(u - 1, alpha, width), levels=levels)
        self._views = (width, work)
        return work

    def __call__(self, survivors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Recover the failed node over a chunk of w stripes from the helper
        messages written into this plan at width w, by helper_message or
        into its "messages" rows, (d_bar, beta, w) in job.helpers order, and
        the survivors, (u - 1, alpha, w) in node order, all symbols in
        [0, p).  Returns the failed node, (alpha, w) symbols in [0, p), in out
        (an array of that shape whose dtype holds p - 1) or else in a new
        int64 array, never in a work array.
        """
        work, fold = self._work(survivors.shape[-1]), self.fold
        source, scratch, node = work["source"], work["scratch"], work["node"]
        fold(work["sent"], scratch[:len(work["sent"])])
        np.copyto(work["survivors"], survivors)
        for index, operand, block, block_scratch, products in work["levels"]:
            np.take(source, index, axis=0, mode="clip", out=operand)
            accumulate(products, block, block_scratch, fold)
        np.take(source, self.host, axis=0, mode="clip", out=node)
        fold.nonnegative(node, scratch[:len(node)])
        if out is None:
            return node.astype(np.int64)
        np.copyto(out, node, casting="unsafe")
        return out


def _layout(codec: Codec, e_star: int) -> tuple:
    """The tables of a RepairPlan that depend on the failed node's rack
    alone, which the codec keeps.  sibling[i, v - 1, j] is the position of
    rack racks[i]'s correction term for extra point v at position j: the
    row with that rack's digit set to v, where present[i, 0, j], the digit
    is zero."""
    params, pcm = codec.params, codec.pcm
    u, alpha, s_bar, beta = params.u, params.alpha, params.s_bar, params.beta
    r_bar, kept, tau = params.r_bar, 1 + params.d_bar * params.beta, params.rack_digit(e_star)
    rows = pcm.zero_rows[tau]
    order = np.argsort(pcm.level[rows], kind="stable")
    targets = rows[order]
    level = pcm.level[targets] - pcm.level[targets[0]]
    bounds = np.searchsorted(level, np.arange(level[-1] + 2))
    # Solution row q at position j, in the block of the level that starts at
    # position starts[j] and holds sizes[j] rows, is source row solved[q, j].
    starts, sizes = bounds[level], bounds[level + 1] - bounds[level]
    solved = (kept + (u - 1) * alpha + (r_bar - 1) * starts + np.arange(beta)
              + np.arange(r_bar)[:, None] * sizes)
    siblings = targets + np.arange(s_bar)[:, None] * pcm.place[tau]
    host = np.empty(alpha, dtype=np.intp)
    host[siblings] = solved[:s_bar]
    side = np.empty_like(solved[s_bar:])
    side[:, order] = solved[s_bar:]
    survived = (kept + np.arange(u - 1)[:, None, None] * alpha + siblings).reshape(-1, beta)
    racks = np.array([e for e in range(params.n_bar) if e != e_star and
                      params.rack_residue(e) == params.rack_residue(e_star)], dtype=np.intp)
    position = np.zeros(alpha, dtype=np.intp)
    position[targets] = np.arange(beta)
    digit = pcm.digits[targets][:, racks // (u - params.u0)].T[:, None]
    sibling = position[targets + (np.arange(1, s_bar)[:, None] - digit)
                       * pcm.place[racks // (u - params.u0), None, None]]
    return order, bounds, solved, host, side, survived, racks, sibling, digit == 0


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
    work = plan._work(width)
    work["messages"][...] = np.stack([msgs[e] for e in job.helpers]).reshape(
        len(msgs), beta, width)
    recovered = plan(np.stack([surv[g] for g in sorted(surv)]).reshape(len(surv), alpha, width))
    # The non-helper racks' aggregates, solved on the way, in rack order.
    others = [e for e in range(params.n_bar) if e != job.e_star and e not in job.helpers]
    return RepairTranscript.of(
        params, job, width, messages=msgs, recovered=recovered.reshape((alpha,) + tail),
        side_aggregates={e: (aggregate % p).astype(np.int64).reshape((beta,) + tail)
                         for e, aggregate in zip(others, work["source"][plan.side])})


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
