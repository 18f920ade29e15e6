"""Code constants and the sparse parity-check system.

Each node (e, g) gets a distinct locator: primitive_root^e * unity_root^g.
The parity-check matrix has r row blocks of alpha rows each.  Per column
group (e, g), block t carries locator^t on its diagonal; if t = residue(e)
(mod u), each row whose rack-owned digit is zero also reads its s_bar - 1
digit siblings, with values locator^residue(e) * extra_point^(t // u).  The
factor extra_point^(t // u) is one power table for every rack, of which a
rack's blocks read a prefix.  The same entries are listed flat per rack in
off_diagonal, and ParityCheckMatrix.sibling_table lays them out for the
products below.
Positions come from the digit table, ParityCheckMatrix.digits: the base-s_bar
digits of every coordinate, computed once.  The level order, the zero-digit
rows and their digit siblings are read off it; no other module expands digits.

Summed over a set of nodes, and solved for the unknown ones, the column
groups act on the nodes' vectors as a linalg.Program of one step per level
(ParityCheckMatrix.product), the encode, decode and syndrome programs alike;
no rack aggregate is formed, as those belong to the repair protocol.  Every
Program of the code, repair's too, runs in ParityCheckMatrix.dtype,
linalg.exact_float(n, p), and its products are cut at linalg.capacity(p,
dtype) terms.

The sharing rule: what is a pure function of the code is built once per
process, read-only, and shared by every Codec in any thread; only work arrays
belong to one plan (a linalg.Program.fresh), which serves one thread at a
time.  code_tables keeps, per (params, field), the constants, the
ParityCheckMatrix, each host rack's repair tables (repair_layouts) and every
plan's steps (plans): a solve's by its unknowns, a job's by the RepairJob.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import InternalError, ParameterError
from .field import FieldCtx
from .linalg import Program, capacity, exact_float, split, step
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


def read_only(tables) -> int:
    """Make every array in tables, its tuples, lists and objects' attributes
    read-only, and return their bytes; tables must hold no cycle."""
    size, stack = 0, [tables]
    while stack:
        item = stack.pop()
        if isinstance(item, (int, slice, type)):  # the most common leaves first
            continue
        if isinstance(item, np.ndarray):
            item.setflags(write=False)
            size += item.nbytes
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return size


# The most symbols per node of a code whose tables are built.  The tables
# grow with alpha: at alpha = 2^16, on 16 racks of 2 nodes with k = 3 and
# 2 helper racks, they peak at about 420 MiB.
MAX_ALPHA = 1 << 16

# The most plans, and bytes of their arrays, that one code's PlanCache keeps.
PLAN_ENTRIES, PLAN_BYTES = 256, 2 << 20


class PlanCache:
    """Plan tables by key: get(key, build) returns key's, or else build()'s,
    kept read-only in entries, key to (tables, bytes of their arrays), the
    least recently used dropped first past PLAN_ENTRIES entries or
    PLAN_BYTES bytes.  Thread-safe."""

    def __init__(self):
        self.lock, self.entries, self.nbytes = threading.Lock(), OrderedDict(), 0

    def get(self, key, build):
        with self.lock:
            if key in self.entries:
                self.entries.move_to_end(key)
                return self.entries[key][0]
        tables = build()
        size = read_only(tables)
        with self.lock:
            if key not in self.entries:
                self.entries[key], self.nbytes = (tables, size), self.nbytes + size
            while len(self.entries) > 1 and (len(self.entries) > PLAN_ENTRIES
                                             or self.nbytes > PLAN_BYTES):
                self.nbytes -= self.entries.popitem(last=False)[1][1]
        return tables


class ParityCheckMatrix:
    """The r*alpha x n*alpha parity-check system in sparse block form.

    Depends only on (params, p); rebuilding yields identical contents, and
    code_tables keeps one per code.  Every array of it is read-only.  All
    that is added after construction is read-only too, and built on first
    use: each host rack's repair tables, repair_layouts, and plans.
    dtype is the float type that the code's Programs run in,
    exact_float(n, p); their coefficients are built in it.
    """

    def __init__(self, params: CodeParams, constants: CodeConstants):
        if params.alpha > MAX_ALPHA:
            raise ParameterError("alpha_too_large", f"alpha={params.alpha} exceeds "
                                 f"{MAX_ALPHA}, the most whose tables are built")
        self.params = params
        self.constants = constants
        p = constants.field.p
        r, n_bar, u, s_bar = params.r, params.n_bar, params.u, params.s_bar
        self.dtype = exact_float(params.n, p)

        # diag[t, e, g] = locator^t; extra_pow[t, v-1] = extra_points[v-1]^t.
        lam = np.array(constants.locators, dtype=np.int64)  # (n_bar, u)
        extra = np.array(constants.extra_points, dtype=np.int64)
        self.diag = np.ones((r, n_bar, u), dtype=np.int64)
        extra_pow = np.ones((r, s_bar - 1), dtype=np.int64)
        for t in range(1, r):
            self.diag[t] = self.diag[t - 1] * lam % p
            extra_pow[t] = extra_pow[t - 1] * extra % p

        # The digit table, (alpha, m), least-significant digit first, with the
        # place value of each digit position.
        self.place = s_bar ** np.arange(params.m)
        self.digits = np.arange(params.alpha)[:, None] // self.place % s_bar
        # Zero-digit count per coordinate: the level order of every solve.
        self.level = np.count_nonzero(self.digits == 0, axis=1)
        # Per digit position tau: the beta rows whose digit tau is zero, and,
        # shape (s_bar - 1, beta), those rows with digit tau raised from 0 to v.
        self.zero_rows = [np.flatnonzero(self.digits[:, tau] == 0)
                          for tau in range(params.m)]
        self.sibling_cols = [rows + np.arange(1, s_bar)[:, None] * self.place[tau]
                             for tau, rows in enumerate(self.zero_rows)]

        # off_diagonal[e] = (rows, cols, values) lists rack e's entries flat:
        # the blocks t = residue(e) + i*u, rows t*alpha + a for a in
        # zero_rows[tau], shape (R,); the sibling columns each row reads,
        # sibling_cols[tau], (R, s_bar - 1); and per node g the values
        # locator^residue(e) * extra_pow[i, v-1], (u, R, s_bar - 1).
        self.off_diagonal = []
        for e in range(n_bar):
            res, tau = params.rack_residue(e), params.rack_digit(e)
            blocks, zero, cols = np.arange(res, r, u), self.zero_rows[tau], self.sibling_cols[tau]
            self.off_diagonal.append((
                (blocks[:, None] * params.alpha + zero).ravel(),
                np.tile(cols.T, (blocks.size, 1)),
                self.diag[res, e][:, None, None]
                * np.repeat(extra_pow[blocks // u], zero.size, axis=0) % p))
        # Per residue res, (r, s_bar - 1): extra_pow[t // u] in the blocks t =
        # res (mod u), else 0, one prefix table for every rack of the residue.
        blocks = np.arange(r)[:, None]
        self.sibling_coef = np.where(blocks % u == np.arange(u - params.u0)[:, None, None],
                                     extra_pow[blocks[:, 0] // u], 0)
        # What every product reads: level_blocks of all alpha coordinates
        # for r rows, and every node's sibling table over that order.
        self.order, self.bounds, self.block = self.level_blocks(np.arange(params.alpha), r)
        self.siblings = self.node_siblings(range(params.n), self.order, self.order)
        read_only(tuple(vars(self).values()))
        self.repair_layouts: dict[int, tuple] = {}
        self.plans = PlanCache()

    @property
    def p(self) -> int:
        return self.constants.field.p

    def split(self, coef) -> tuple:
        """linalg.split of coef in dtype, at dtype's capacity over GF(p)."""
        return split(coef, capacity(self.p, self.dtype), self.dtype)

    def level_blocks(self, coords, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """order, coords' positions by ascending zero-digit count (stably);
        bounds, with positions bounds[i] to bounds[i + 1] of order one level;
        and block[q, j], the offset of row q at order position j in a layout
        of one (count, level size) block per level, back to back."""
        order = np.argsort(self.level[coords], kind="stable")
        level = self.level[coords[order]]
        level -= level[0]
        bounds = np.searchsorted(level, np.arange(level[-1] + 2))
        starts, sizes = bounds[level], bounds[level + 1] - bounds[level]
        return order, bounds, ((count - 1) * starts + np.arange(level.size)
                               + np.arange(count)[:, None] * sizes)

    def sibling_table(self, racks, targets, sources) -> tuple[np.ndarray, np.ndarray]:
        """The off-diagonal terms of the listed racks at the target
        coordinates, as one gather and one product.

        Row (i, v) of index, for rack racks[i] and sibling value v = 1 ..
        s_bar - 1, holds per target coordinate a the row 1 + i*len(sources) +
        j, where sources[j] is a with rack i's digit raised from 0 to v, or 0
        where that digit of a is not zero.  Gathered from rows whose row 0 is
        zero and whose rows 1 + i*len(sources) + j hold entry i at sources[j]
        (a rack's aggregate in repair, a node in node_siblings), it yields
        every sibling term.  coef[t, (i, v)] is sibling_coef[residue(racks[i]),
        t, v - 1], so entries that share a residue add into the same rows
        inside the product.  A rack may be listed more than once.
        """
        params = self.params
        racks = np.asarray(racks, dtype=np.intp)
        tau, residue = racks // (params.u - params.u0), racks % (params.u - params.u0)
        # A sibling missing from sources gets a negative row.
        slot = np.full(params.alpha, -params.alpha * (racks.size + 1))
        slot[sources] = np.arange(len(sources))
        digit = self.digits[targets, tau[:, None, None]]                      # (R, 1, T)
        index = slot[targets + (np.arange(1, params.s_bar)[:, None] - digit)
                     * self.place[tau][:, None, None]]
        index += 1 + np.arange(racks.size)[:, None, None] * len(sources)
        index *= digit == 0
        if index.min(initial=0) < 0:
            raise InternalError("a digit sibling is missing from the sources")
        coef = self.sibling_coef[residue].transpose(1, 0, 2).reshape(params.r, -1)
        return index.reshape(-1, len(targets)), coef

    def node_siblings(self, nodes, targets, sources) -> tuple[np.ndarray, np.ndarray]:
        """sibling_table of each listed node's own rack, one entry per node,
        with node (e, g)'s columns weighed by locator^residue(e): gathered
        from rows whose rows 1 + i*len(sources) + j are node nodes[i] at
        sources[j], it yields every off-diagonal term of the nodes' column
        groups at the targets."""
        params = self.params
        racks, slots = np.divmod(np.asarray(nodes, dtype=np.intp), params.u)
        index, coef = self.sibling_table(racks, targets, sources)
        weights = self.diag[racks % (params.u - params.u0), racks, slots]
        return index, coef * np.repeat(weights, params.s_bar - 1) % self.p

    def product(self, nodes, unknowns=(), left=None) -> Program:
        """The column groups of the listed node indices, summed and solved
        for the unknown ones, as a Program of one step per level.

        Called on vectors (n', alpha, w) indexed by node, symbols in [0, p),
        it returns y, (r, alpha, w) in [0, p), a work array, such that at
        every coordinate y = left @ (H[:, nodes] @ vectors[nodes] + the
        off-diagonal terms of H[:, unknowns] @ y), left an r x r matrix over
        GF(p), the identity by default.  With no unknowns that is
        H[:, nodes] @ vectors[nodes]; with left = -V^-1, V the unknowns'
        diagonal columns, y is the unknowns' solution.  Its source holds the
        zero row, the vectors of the node range inputs (nodes of the range
        that are not listed are staged but not read), and y in level-major
        blocks.  The step of a level, in ascending zero-digit count, gathers
        at the level's coordinates each listed node's vector, and the listed
        and unknown nodes at their digit siblings (node_siblings; an
        unknown's siblings lie a level down, solved), dropping each sibling
        row with no term in the level; it maps them by left @ [locator_j^t |
        the weighed sibling coefficients], reduced mod p once.
        """
        params, p, alpha = self.params, self.p, self.params.alpha
        order, bounds = self.order, self.bounds
        nodes = np.asarray(nodes, dtype=np.intp)
        first, last = int(nodes.min()), int(nodes.max())
        held = self.block + (1 + (last + 1 - first) * alpha)
        # rows[i, j]: the source row of node i at level-major position j, or
        # the zero row for a node that is neither listed nor unknown.
        rows = np.zeros((params.n, alpha), dtype=np.intp)
        rows[nodes] = 1 + (nodes[:, None] - first) * alpha + order
        rows[list(unknowns)] = held[:len(unknowns)]
        index, coef = self.siblings
        gather = np.vstack([rows[nodes], np.concatenate([[0], rows.ravel()])[index]])
        coef = np.hstack([self.diag.reshape(params.r, -1)[:, nodes], coef])
        coef = coef if left is None else left @ coef % p
        used = np.logical_or.reduceat(gather != 0, bounds[:-1], axis=1).T
        natural = np.empty_like(held)
        natural[:, order] = held
        return Program(p, held.max() + 1,
                       [step(gather[keep, lo:hi], self.split(coef[:, keep]), held[0, lo])
                        for lo, hi, keep in zip(bounds, bounds[1:], used)],
                       1, natural, slice(first, last + 1))

    def dense_node(self, e: int, g: int) -> np.ndarray:
        """Materialize column group (e, g) as a dense (r*alpha, alpha) matrix."""
        params = self.params
        alpha = params.alpha
        block = np.zeros((params.r, alpha, alpha), dtype=np.int64)
        idx = np.arange(alpha)
        block[:, idx, idx] = self.diag[:, e, g, None]
        block = block.reshape(params.r * alpha, alpha)
        rows, cols, values = self.off_diagonal[e]
        block[rows[:, None], cols] = values[g]
        return block


@functools.lru_cache(maxsize=8)
def code_tables(params: CodeParams, field: FieldCtx) -> ParityCheckMatrix:
    """The ParityCheckMatrix of params over field, with its constants, built
    on first use and kept for the process, with the repair tables it
    gathers: the one cache of a code's tables, bounded to the 8 codes used
    last.  Clearing it (code_tables.cache_clear) drops them all."""
    return ParityCheckMatrix(params, build_constants(params, field))
