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

The engine is a plan and an apply, and the plan is its whole interface.  The
host rack's level order, gathers and power tables (_Layout) and a job's
gather index and coefficients, one linalg.Program, are shared by the
construction module's sharing rule; RepairPlan.create adds work arrays of
the plan's own.  helper_message(plan, rack_vectors, e) runs the step that
writes helper rack e's message into the plan's rows; an apply then runs each
level as one step: a gather, one exact product and a fold.  The level
products peel the survivors out of the host aggregate as they solve it, so
they yield the failed node, which moves into natural coordinate order once,
on output.  The level order and the correction gather are read off
ParityCheckMatrix (level_blocks, sibling_table), as the codec's are.
stripe_io.repair_shard applies one plan to a shard directory in chunks of
codec.stripes_per_chunk(RepairPlan.rows) stripes; apply_plan(plan, vectors)
runs the same steps in memory.
Arithmetic is exact in floats, in ParityCheckMatrix.dtype, as in the codec
(linalg); values move into [0, p) once, on output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import linalg
from .codec import Codec
from .construction import ParityCheckMatrix, read_only
from .errors import InternalError, SingularMatrixError
from .params import CodeParams, is_int


@dataclass(frozen=True)
class RepairJob:
    """A failed node (e_star, g_star) and the d_bar helper racks serving it."""

    e_star: int
    g_star: int
    helpers: tuple[int, ...]

    @classmethod
    def create(cls, params: CodeParams, e_star: int, g_star: int,
               helpers=None) -> "RepairJob":
        if helpers is None:
            # Deterministic default: the d_bar smallest racks besides the host.
            helpers = [e for e in range(params.n_bar) if e != e_star][:params.d_bar]
        helpers = tuple(helpers)
        if not all(map(is_int, (e_star, g_star) + helpers)):
            raise ValueError(f"racks and nodes must be integers, got {(e_star, g_star, helpers)}")
        params.node_index(e_star, g_star)
        helpers = tuple(sorted(helpers))
        if len(set(helpers)) != params.d_bar:
            raise ValueError(
                f"need {params.d_bar} distinct helper racks, got {helpers}")
        for e in helpers:
            if not 0 <= e < params.n_bar or e == e_star:
                raise ValueError(f"invalid helper rack {e}")
        return cls(e_star=e_star, g_star=g_star, helpers=helpers)


def helper_message(plan: RepairPlan, rack_vectors: np.ndarray, e: int) -> np.ndarray:
    """Run plan's step for helper rack e on its nodes' vectors, (u, alpha, w)
    symbols in [0, p), and return the message it writes into the plan's
    rows: the locator^residue(e_star)-weighted sum of the nodes' zero-digit
    coordinates, read through a view, as (beta, w) signed residues in the
    plan's float type, kept for the plan's next apply at width w."""
    helpers, (u, outer, s_bar, place) = plan.job.helpers, plan.view
    if e not in helpers:
        raise ValueError(f"rack {e} is not a helper of this job")
    if rack_vectors.ndim != 3 or rack_vectors.shape[:2] != (u, outer * s_bar * place):
        raise ValueError(f"rack needs shape ({u}, {outer * s_bar * place}, w), "
                         f"got {rack_vectors.shape}")
    # With alpha split as (s_bar^(m-1-tau), s_bar, s_bar^tau), the middle
    # axis is digit tau; index 0 of it is pcm.zero_rows[tau], in order.
    slot, beta = helpers.index(e), outer * place
    source = plan.program.run(
        rack_vectors.reshape(plan.view + rack_vectors.shape[2:])[:, :, 0], slot, slot + 1)
    return source[1 + slot * beta:1 + (slot + 1) * beta]


@dataclass(eq=False)
class RepairPlan:
    """One repair job's tables over one codec, as one linalg.Program, and
    the work arrays it runs in.

    An apply to w stripes works in one source array of rows w wide: a zero
    row, helper i's message at its k-th zero-digit row at 1 + i*beta + k,
    the survivors, then each level's solution block.  The first steps, one
    per helper in job.helpers order, weigh the helper rack's nodes, staged
    where the survivors go, into its message; helper_message runs them on
    the rack's view of shape view + (w,), whose index 0 on axis 2 is the
    zero-digit rows.  Each later step is a level of their level-major order,
    positions lo to hi.  It gathers the level's terms from the source: the
    helper messages, the survivors at the rows' s_bar digit siblings and,
    for each rack of the host's residue, its s_bar - 1 correction terms (its
    aggregate one level down, or the zero row).  Its coefficients map them
    to the block: the failed node at the rows' digit siblings, then the
    non-helper aggregates at the rows.  They are step's helper columns, the
    survivors' peel weights and step's extra-point columns once per rack,
    and the failed-node rows of step are scaled by the peel's inverse.  The
    output reads the failed node at each coordinate.  rows, the widest
    per-stripe array of a repair (the source, a level's gather or a rack's
    u nodes), sizes chunks.  Only the program's work arrays are the plan's
    own (create), so a plan is not for concurrent use.
    """

    job: RepairJob
    program: linalg.Program
    view: tuple[int, int, int, int]
    rows: int

    @classmethod
    def create(cls, codec: Codec, job: RepairJob) -> "RepairPlan":
        """job's plan: shared tables (codec.pcm.plans) and own work arrays."""
        plan = codec.pcm.plans.get(job, lambda: cls._tables(codec.pcm, job))
        return replace(plan, program=plan.program.fresh())

    @classmethod
    def _tables(cls, pcm: ParityCheckMatrix, job: RepairJob) -> "RepairPlan":
        params, p, consts = pcm.params, pcm.p, pcm.constants
        u, beta, d_bar, r_bar = params.u, params.beta, params.d_bar, params.r_bar
        e_star, g_star, s_bar = job.e_star, job.g_star, params.s_bar
        res_star = params.rack_residue(e_star)
        if e_star not in pcm.repair_layouts:
            read_only(layout := _layout(pcm, e_star))
            pcm.repair_layouts[e_star] = layout
        layout = pcm.repair_layouts[e_star]
        helpers = list(job.helpers)
        others = [e for e in range(params.n_bar) if e != e_star and e not in job.helpers]
        # source[e, j] is the source row of rack e's aggregate at position j,
        # the zero row for the host, whose aggregate no level reads.
        source = np.zeros((params.n_bar, beta), dtype=np.intp)
        source[helpers] = layout.messages_at
        source[others] = layout.solved[s_bar:]
        index = np.vstack([layout.messages_at, layout.survived,
                           np.concatenate([[0], source[layout.racks].ravel()])[layout.corrections]])

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
        weights = np.hstack([layout.powers[:, helpers], layout.powers[:, params.n_bar:]])
        step = -(lagrange @ weights) % p
        # The host aggregate is sum_g locator_g^res_star * node_g, so the
        # failed node is inverse times it plus the survivors weighed by peel.
        scales = pcm.diag[res_star, e_star]
        inverse = pow(int(scales[g_star]), p - 2, p)
        step[:s_bar] = step[:s_bar] * inverse % p
        peel = np.zeros((r_bar, u - 1, s_bar), dtype=np.int64)
        peel[np.arange(s_bar), :, np.arange(s_bar)] = [
            -inverse * int(scale) % p for g, scale in enumerate(scales) if g != g_star]
        coef = np.hstack([step[:, :d_bar], peel.reshape(r_bar, -1)]
                         + [step[:, d_bar:]] * len(layout.racks))
        kept = 1 + d_bar * beta
        base = kept + (u - 1) * params.alpha
        steps = [linalg.Step(*layout.selected[:2], layout.messages[e], 1 + i * beta)
                 for i, e in enumerate(helpers)]
        ranges = pcm.split(coef)
        steps += [linalg.step(index[:, lo:hi], ranges, base + r_bar * lo)
                  for lo, hi in zip(layout.bounds, layout.bounds[1:])]
        program = linalg.Program(p, base + r_bar * beta, steps, kept, layout.host)
        place = s_bar ** params.rack_digit(e_star)
        view = (u, params.alpha // (s_bar * place), s_bar, place)
        return cls(job, program, view,
                   max(program.rows, program.widest, u * params.alpha))

    def __call__(self, survivors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Recover the failed node over a chunk of w stripes from the helper
        messages in this plan at width w, written by helper_message, and the
        survivors, (u - 1, alpha, w) in node order, symbols in [0, p).
        Returns the failed node, (alpha, w) symbols in [0, p), in out (an
        array of that shape whose dtype holds p - 1) or else in a new int64
        array, never in a work array; refuses survivors of any other shape,
        and unless all messages are at w.
        """
        u, outer, s_bar, place = self.view
        if survivors.ndim != 3 or survivors.shape[:2] != (u - 1, outer * s_bar * place):
            raise ValueError(f"survivors need shape ({u - 1}, {outer * s_bar * place}, w), "
                             f"got {survivors.shape}")
        node = self.program(survivors, len(self.job.helpers))
        if out is None:
            return node.astype(np.int64)
        np.copyto(out, node, casting="unsafe")
        return out


class _Layout(NamedTuple):
    """The tables of a RepairPlan that depend on the failed node's rack
    alone, which the code's tables keep (pcm.repair_layouts).  The
    zero-digit rows are taken in their pcm.level_blocks order, whose levels
    bounds delimits; solved[q, j] is the source row of a level solution's
    row q at position j, and host reads the failed node's rows back in
    coordinate order.  messages_at[i] holds the i-th helper's message rows,
    1 + i*beta + the order; survived the survivors' rows at each position's
    s_bar digit siblings; racks the other racks of the host's residue, and
    corrections pcm.sibling_table's index of them over the order.  selected
    is a message step's gather and messages[e] its column ranges for rack
    e.  powers[i, x] is rack point x, or extra point x - n_bar, to the i-th
    power, for i < r_bar."""

    bounds: np.ndarray
    solved: np.ndarray
    host: np.ndarray
    survived: np.ndarray
    racks: np.ndarray
    corrections: np.ndarray
    selected: linalg.Step
    messages: list
    messages_at: np.ndarray
    powers: np.ndarray


def _layout(pcm: ParityCheckMatrix, e_star: int) -> _Layout:
    """Host rack e_star's _Layout."""
    params, consts, p = pcm.params, pcm.constants, pcm.p
    u, alpha, s_bar, beta = params.u, params.alpha, params.s_bar, params.beta
    kept, tau = 1 + params.d_bar * params.beta, params.rack_digit(e_star)
    rows = pcm.zero_rows[tau]
    order, bounds, solved = pcm.level_blocks(rows, params.r_bar)
    solved += kept + (u - 1) * alpha
    targets = rows[order]
    siblings = targets + np.arange(s_bar)[:, None] * pcm.place[tau]
    host = np.empty(alpha, dtype=np.intp)
    host[siblings] = solved[:s_bar]
    survived = (kept + np.arange(u - 1)[:, None, None] * alpha + siblings).reshape(-1, beta)
    racks = np.array([e for e in range(params.n_bar) if e != e_star and
                      params.rack_residue(e) == params.rack_residue(e_star)], dtype=np.intp)
    # A helper rack's nodes' zero-digit rows are staged from row kept on,
    # where the survivors and the levels go once every message is in (u*beta
    # rows fit, as beta <= alpha and r_bar >= 1), and weighed by messages[e]
    # for rack e.  A split's ranges hold for any of its rows.
    selected = linalg.step(kept + np.arange(u * beta).reshape(u, beta), (), 0)
    weights = pcm.split(pcm.diag[params.rack_residue(e_star)])
    messages = [tuple((lo, hi, c[e:e + 1]) for lo, hi, c in weights) for e in range(params.n_bar)]
    points = np.array(consts.rack_points + consts.extra_points, dtype=np.int64)
    powers = np.ones((params.r_bar, points.size), dtype=np.int64)
    for i in range(1, params.r_bar):
        powers[i] = powers[i - 1] * points % p
    return _Layout(bounds, solved, host, survived, racks,
                   pcm.sibling_table(racks, targets, targets)[0], selected, messages,
                   1 + np.arange(params.d_bar)[:, None] * beta + order, powers)


def apply_plan(plan: RepairPlan, vectors: np.ndarray) -> np.ndarray:
    """The failed node, (alpha, w) int64 symbols in [0, p), from vectors,
    (n, alpha, w) symbols in [0, p) of every node, by plan's steps in the
    order repair_shard runs them: each helper rack's message into the plan,
    then the host rack's survivors.  No other node is read."""
    job, u = plan.job, plan.view[0]
    for e in job.helpers:
        helper_message(plan, vectors[e * u:(e + 1) * u], e)
    return plan(vectors[[job.e_star * u + g for g in range(u) if g != job.g_star]])
