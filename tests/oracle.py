"""Independent reference implementations the library is checked against.

Dense Gauss-Jordan elimination over GF(p), the coordinate digit layout
computed one coordinate at a time with Python integers, parity-check rows
computed entry by entry from the code constants, and the product of one column
group with a node vector in int64.  The library solves through Vandermonde
systems in level order and applies column groups together through float64
products; only apply_node reads ParityCheckMatrix's tables, diag and
off_diagonal.  read_shards loads a whole shard directory at once, where the
library streams it chunk by chunk, and symbols_to_bytes maps symbols back
to payload bytes.
"""

from __future__ import annotations

import numpy as np

from pathlib import Path

from msrr.errors import ShardFormatError, SingularMatrixError
from msrr.linalg import rank
from msrr.stripe_io import read_manifest, shard_name


# -- dense linear algebra over GF(p) -------------------------------------------

def _as_field_matrix(a, p: int) -> np.ndarray:
    out = np.array(a, dtype=np.int64) % p
    if out.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={out.ndim}")
    return out


def invertible(a, p: int) -> bool:
    """True iff the square matrix has full rank over GF(p)."""
    a = _as_field_matrix(a, p)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    return rank(a, p) == a.shape[0]


def solve(a, b, p: int) -> np.ndarray:
    """Solve A x = b over GF(p) by Gauss-Jordan elimination.

    b may be a vector or a matrix of stacked right-hand-side columns; the
    result has the same shape.  Raises SingularMatrixError (carrying the rank
    of A) when A is not invertible.
    """
    a = _as_field_matrix(a, p)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    b = np.array(b, dtype=np.int64) % p
    vector = b.ndim == 1
    rhs = b[:, None] if vector else b
    if rhs.shape[0] != n:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {n}")
    aug = np.concatenate([a, rhs], axis=1)
    for col in range(n):
        nz = np.nonzero(aug[col:, col])[0]
        if nz.size == 0:
            raise SingularMatrixError("singular system", rank(a, p))
        piv = col + int(nz[0])
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        inv = pow(int(aug[col, col]), p - 2, p)
        aug[col, col:] = aug[col, col:] * inv % p
        others = np.nonzero(aug[:, col])[0]
        others = others[others != col]
        if others.size:
            aug[others, col:] = (
                aug[others, col:] - np.outer(aug[others, col], aug[col, col:])) % p
    x = aug[:, n:]
    return x[:, 0] if vector else x


def inverse(a, p: int) -> np.ndarray:
    """Matrix inverse over GF(p)."""
    a = _as_field_matrix(a, p)
    return solve(a, np.eye(a.shape[0], dtype=np.int64), p)


# -- coordinate digits, one coordinate at a time --------------------------------

def digits(params, a: int) -> tuple[int, ...]:
    """Base-s_bar expansion of a coordinate, least-significant digit first.

    For s_bar = 1 the single coordinate 0 expands to m zero digits.
    """
    if not 0 <= a < params.alpha:
        raise IndexError(f"coordinate {a} out of range [0, {params.alpha})")
    if params.s_bar == 1:
        return (0,) * params.m
    out = []
    for _ in range(params.m):
        a, d = divmod(a, params.s_bar)
        out.append(d)
    return tuple(out)


def replace_digit(params, a: int, tau: int, v: int) -> int:
    """Coordinate equal to a except digit tau set to v."""
    if not 0 <= tau < params.m:
        raise IndexError(f"digit position {tau} out of range")
    if not 0 <= v < params.s_bar:
        raise IndexError(f"digit value {v} out of range")
    if not 0 <= a < params.alpha:
        raise IndexError(f"coordinate {a} out of range")
    scale = params.s_bar**tau
    old = (a // scale) % params.s_bar
    return a + (v - old) * scale


def zero_digit_count(params, a: int) -> int:
    """Number of zero digits; drives the level order of the repair recursion."""
    return sum(1 for d in digits(params, a) if d == 0)


def zero_digit_rows(params, tau: int) -> list[int]:
    """All coordinates whose digit tau is zero, ascending; exactly beta of them."""
    if not 0 <= tau < params.m:
        raise IndexError(f"digit position {tau} out of range")
    rows = [a for a in range(params.alpha)
            if (a // params.s_bar**tau) % params.s_bar == 0]
    assert len(rows) == params.beta
    return rows


def repair_blocks(params, e_star: int) -> list[int]:
    """Parity-check block indices used to repair nodes of rack e_star.

    These are the r_bar blocks t with t = rack_residue(e_star) (mod u);
    the same list serves every node in the rack.
    """
    res = params.rack_residue(e_star)
    blocks = [res + i * params.u for i in range(params.r_bar)]
    assert blocks[-1] <= params.r - 1
    return blocks


# -- parity-check rows -------------------------------------------------------------

def row_entries(pcm, t: int, e: int, g: int, a: int) -> list[tuple[int, int]]:
    """Nonzero entries of row a of block (t, (e, g)): diagonal first,
    then off-diagonals in ascending digit-sibling order.

    Each entry comes from the code constants by the construction's formulas:
    locator^t on the diagonal and, in blocks t = residue(e) (mod u) on rows
    whose rack-owned digit is zero, locator^residue(e) * extra_point^(t // u)
    at each digit sibling.
    """
    params, consts = pcm.params, pcm.constants
    p = consts.field.p
    if not 0 <= t < params.r:
        raise IndexError(f"block {t} out of range")
    if not 0 <= a < params.alpha:
        raise IndexError(f"row {a} out of range")
    params.node_index(e, g)
    locator = consts.locators[e][g]
    entries = [(a, pow(locator, t, p))]
    res, tau = params.rack_residue(e), params.rack_digit(e)
    if t % params.u == res and digits(params, a)[tau] == 0:
        entries.extend(
            (replace_digit(params, a, tau, v),
             pow(locator, res, p) * pow(consts.extra_points[v - 1], t // params.u, p) % p)
            for v in range(1, params.s_bar))
    return entries


def apply_node(pcm, e: int, g: int, vec) -> np.ndarray:
    """Column group (e, g) times a node vector, reduced mod p, in int64.

    vec has shape (alpha,) or (alpha, w) for w stacked stripes; the result
    is (r*alpha,) or (r*alpha, w).  Reads pcm.diag and pcm.off_diagonal.
    """
    params, p = pcm.params, pcm.p
    vec = np.asarray(vec, dtype=np.int64) % p
    if vec.shape[0] != params.alpha:
        raise ValueError(
            f"node vector has {vec.shape[0]} coordinates, expected {params.alpha}")
    tail = vec.shape[1:]
    ones = (1,) * len(tail)
    out = (pcm.diag[:, e, g].reshape((-1, 1) + ones) * vec).reshape(
        (params.r * params.alpha,) + tail)
    rows, cols, values = pcm.off_diagonal[e]
    out[rows] += (values[g].reshape(values.shape[1:] + ones) * vec[cols]).sum(axis=1)
    return out % p


# -- shard directories, whole -----------------------------------------------------

def symbols_to_bytes(data: np.ndarray, length: int) -> bytes:
    """Inverse of stripe_io.bytes_to_symbols: data, (k, alpha, stripes), as
    the payload's first length bytes, stripe by stripe; refuses a symbol
    outside the byte range or too few symbols."""
    flat = np.asarray(data).transpose(2, 0, 1).ravel()
    if flat.size < length:
        raise ValueError(f"{flat.size} symbols cannot cover {length} payload bytes")
    if (flat >= 256).any():
        raise ValueError("symbol outside byte range; not a byte payload")
    return flat[:length].astype(np.uint8).tobytes()


def read_shards(directory):
    """Load a stripe directory.

    Returns (manifest, vectors (n, alpha, stripes) int64, present (n,));
    missing shard files come back zeroed with their present flag cleared,
    corrupt ones raise ShardFormatError naming the file.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    params = manifest.params
    width = manifest.symbol_width_bytes
    expected = manifest.stripe_count * params.alpha * width
    vectors = np.zeros((params.n, params.alpha, manifest.stripe_count), dtype=np.int64)
    present = np.zeros(params.n, dtype=bool)
    for i, (e, g) in enumerate(params.nodes()):
        path = directory / shard_name(e, g)
        if not path.exists():
            continue
        blob = path.read_bytes()
        if len(blob) != expected:
            raise ShardFormatError(f"{path.name}: {len(blob)} bytes, expected {expected}")
        values = np.frombuffer(blob, dtype=f"<u{width}")
        if values.size and values.max() >= manifest.p:
            raise ShardFormatError(f"{path.name}: symbol >= p={manifest.p}")
        vectors[i] = values.reshape(manifest.stripe_count, params.alpha).T
        present[i] = True
    return manifest, vectors, present
