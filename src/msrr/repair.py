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
and job, everything that depends on the job alone, as one linalg.Program
whose work arrays the plan keeps from chunk to chunk.  helper_message runs
the step that writes a helper rack's message into the plan's rows; an apply
then runs each level as one step: a gather, one exact product and a fold.
The level products peel the survivors out of the host aggregate as they
solve it, so they yield the failed node, which moves into natural coordinate
order once, on output.  stripe_io.repair_shard applies one plan to a shard
directory in chunks whose widest array, RepairPlan.rows symbols per stripe,
holds about _CHUNK_SYMBOLS; apply_plan runs the same steps in memory.
Without a plan, helper_message runs a fresh plan's step.

Arithmetic is float64, as in the codec: every term is a coefficient in
[0, p) times a symbol or a signed residue (linalg.Fold), so at most
(p - 1)^2, and linalg.split keeps every sum within n nonzero terms, so
Codec's bound n * (p - 1)^2 < 2^53 keeps all exact.  Values move into
[0, p) once, on output.
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
    streams the node to its shard file, and verify compares it in place, so
    their transcripts carry the job and the accounting only: no messages, no
    side aggregates, recovered None.
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
    a view, as the plan's step for rack e writes them into its rows.  With
    plan, from rack_vectors (u, alpha, w) of symbols in [0, p), the rows are
    returned: float64 signed residues, kept for the plan's next apply at
    width w.  Without one, a fresh plan's step runs on rack_vectors, (u,
    alpha) + tail, taken mod p, and the message is returned as int64
    symbols in [0, p), shape (beta,) + tail.
    """
    params = codec.params
    if e not in job.helpers:
        raise ValueError(f"rack {e} is not a helper of this job")
    rack_vectors = np.asarray(rack_vectors)
    if rack_vectors.shape[:2] != (params.u, params.alpha):
        raise ValueError(
            f"rack needs shape ({params.u}, {params.alpha}, ...), got {rack_vectors.shape}")
    # With alpha split as (s_bar^(m-1-tau), s_bar, s_bar^tau), the middle
    # axis is digit tau; index 0 of it is pcm.zero_rows[tau], in order.
    u, s_bar, beta, tail = params.u, params.s_bar, params.beta, rack_vectors.shape[2:]
    place = int(codec.pcm.place[job.digit_position(params)])
    selected = rack_vectors.reshape(
        (u, rack_vectors.shape[1] // (s_bar * place), s_bar, place) + tail)[:, :, 0]
    fresh = plan is None
    if fresh:
        plan = RepairPlan.create(codec, job)
        selected = codec._reduce(selected).reshape(u, beta, math.prod(tail))
    slot = job.helpers.index(e)
    source = plan.program.run(selected, slot, slot + 1)
    message = source[1 + slot * beta:1 + (slot + 1) * beta].reshape((beta,) + tail)
    return (message % codec.p).astype(np.int64) if fresh else message


@dataclass(eq=False)
class RepairPlan:
    """One repair job's tables over one codec, as one linalg.Program, and
    the work arrays it runs in.

    An apply to w stripes works in one source array of rows w wide: a zero
    row, helper i's message at its k-th zero-digit row at 1 + i*beta + k,
    the survivors, then each level's solution block.  The first messages
    steps, one per helper in job.helpers order, weigh the helper rack's
    nodes, staged where the survivors go, into its message; helper_message
    runs them.  The zero-digit rows are taken in level-major order, and each
    later step is a level, positions lo to hi of that order.  It gathers the
    level's terms from the source: the helper messages, the survivors at the
    rows' s_bar digit siblings and, for each rack of the host's residue, its
    s_bar - 1 correction terms (its aggregate one level down, or the zero
    row).  Its coefficients map them to the block: the failed node at the
    rows' digit siblings, then the non-helper aggregates at the rows.  They
    are step's helper columns, the survivors' peel weights and step's
    extra-point columns once per rack, and the failed-node rows of step are
    scaled by the peel's inverse.  The output reads the failed node at each
    coordinate; side holds the source rows of the non-helper aggregates per
    zero-digit row.  rows, the widest per-stripe array of a repair (the
    source, a level's gather or a rack's u nodes), sizes chunks.  Work
    arrays are kept from call to call, so a plan is not for concurrent use.
    """

    program: linalg.Program
    side: np.ndarray
    messages: int
    rows: int

    @classmethod
    def create(cls, codec: Codec, job: RepairJob) -> "RepairPlan":
        params, p, consts = codec.params, codec.p, codec.constants
        u, beta, d_bar, r_bar = params.u, params.beta, params.d_bar, params.r_bar
        e_star, g_star, s_bar = job.e_star, job.g_star, params.s_bar
        res_star = params.rack_residue(e_star)
        if e_star not in codec._repair_layouts:
            codec._repair_layouts[e_star] = _layout(codec, e_star)
        order, bounds, solved, host, side, survived, racks, sibling, present, selected, messages = \
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
        kept = 1 + d_bar * beta
        base = kept + (u - 1) * params.alpha
        steps = [linalg.Step(*selected[:2], messages[e], 1 + i * beta)
                 for i, e in enumerate(helpers)]
        ranges = linalg.split(coef, params.n)
        steps += [linalg.step(index[:, lo:hi], ranges, base + r_bar * lo)
                  for lo, hi in zip(bounds, bounds[1:])]
        program = linalg.Program(p, base + r_bar * beta, steps, kept, host)
        return cls(program=program, side=side, messages=d_bar,
                   rows=max(program.rows, program.widest, u * params.alpha))

    def __call__(self, survivors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Recover the failed node over a chunk of w stripes from the helper
        messages in this plan at width w, written by helper_message, and the
        survivors, (u - 1, alpha, w) in node order, symbols in [0, p).
        Returns the failed node, (alpha, w) symbols in [0, p), in out (an
        array of that shape whose dtype holds p - 1) or else in a new int64
        array, never in a work array.
        """
        node = self.program(survivors, self.messages)
        if out is None:
            return node.astype(np.int64)
        np.copyto(out, node, casting="unsafe")
        return out


def _layout(codec: Codec, e_star: int) -> tuple:
    """The tables of a RepairPlan that depend on the failed node's rack
    alone, which the codec keeps.  sibling[i, v - 1, j] is the position of
    rack racks[i]'s correction term for extra point v at position j: the
    row with that rack's digit set to v, where present[i, 0, j], the digit
    is zero.  selected is a message step's gather and messages[e] its
    column ranges for rack e."""
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
    # A helper rack's nodes' zero-digit rows are staged from row kept on,
    # where the survivors and the levels go once every message is in (u*beta
    # rows fit, as beta <= alpha and r_bar >= 1), and weighed by messages[e]
    # for rack e.  A split's ranges hold for any of its rows.
    selected = linalg.step(kept + np.arange(u * beta).reshape(u, beta), (), 0)
    weights = linalg.split(pcm.diag[params.rack_residue(e_star)], params.n)
    messages = [tuple((lo, hi, c[e:e + 1]) for lo, hi, c in weights) for e in range(params.n_bar)]
    return (order, bounds, solved, host, side, survived, racks, sibling, digit == 0, selected,
            messages)


def apply_plan(codec: Codec, plan: RepairPlan, job: RepairJob,
               vectors: np.ndarray) -> np.ndarray:
    """The failed node, (alpha, w) int64 symbols in [0, p), from vectors,
    (n, alpha, w) symbols in [0, p) of every node, by plan's steps in the
    order repair_shard runs them: each helper rack's message into the plan,
    then the host rack's survivors.  No other node is read."""
    u = codec.params.u
    for e in job.helpers:
        helper_message(codec, vectors[e * u:(e + 1) * u], e, job, plan)
    return plan(vectors[[job.e_star * u + g for g in range(u) if g != job.g_star]])


def repair_from_stripe(codec: Codec, stripe: Stripe, job: RepairJob) -> RepairTranscript:
    """Run the full protocol against one stripe (or a batch of stripes) by
    apply_plan.  The transcript also holds what the plan's source keeps: the
    helper messages and the non-helper racks' aggregates, solved on the way."""
    params, u, beta = codec.params, codec.params.u, codec.params.beta
    read = [(e, g) for e in job.helpers for g in range(u)] + [
        (job.e_star, g) for g in range(u) if g != job.g_star]
    for e, g in read:
        if not stripe.present[params.node_index(e, g)]:
            raise ValueError(f"node {(e, g)}, which the repair reads, is missing")
    vectors = codec._reduce(stripe.vectors)
    tail, width = vectors.shape[2:], math.prod(vectors.shape[2:])
    plan = RepairPlan.create(codec, job)
    recovered = apply_plan(codec, plan, job, vectors.reshape(params.n, params.alpha, width))
    source = (plan.program.source % codec.p).astype(np.int64).reshape((-1,) + tail)
    others = [e for e in range(params.n_bar) if e != job.e_star and e not in job.helpers]
    return RepairTranscript.of(
        params, job, width, recovered=recovered.reshape((params.alpha,) + tail),
        messages={e: source[1 + i * beta:1 + (i + 1) * beta] for i, e in enumerate(job.helpers)},
        side_aggregates=dict(zip(others, source[plan.side])))
