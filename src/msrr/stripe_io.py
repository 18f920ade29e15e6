"""Deterministic on-disk formats: manifest, shard files, byte/symbol mapping.

A directory holds one shard file per node (node_<e>_<g>.shard) plus
manifest.json.  Each shard concatenates the node's alpha symbols per stripe
across all stripes, every symbol a fixed-width little-endian unsigned integer
whose width is derived from the field modulus.  Bytes map to symbols one to
one (identity embedding), which requires p >= 257; the payload is zero-padded
to whole stripes and the original length plus a checksum live in the manifest.

encode_file, decode_file and repair_shard stream chunks of
codec.stripes_per_chunk(rows) stripes, rows those of the plan each runs, so
that a file chunk is one call of the plan's program.  A codec plan's rows
are a codeword's n*alpha, or its widest gather if wider; a repair plan's
never hold a codeword.  A job opens each shard once, as a raw descriptor
(os.preadv, os.write), and keeps it to the end; past half the soft
open-file limit the newest is closed first (_Descriptors).  So neither
memory nor open files grow with the file or with n.  encode_file and
decode_file hash the payload as it passes, and keep one chunk array of every
node's stripes, laid out as the shards store them.  decode_file casts each
data node into the payload once, from its block or, if lost, from the
solve's values, checking it below 256: a read symbol outside the byte range
is named by its shard and offset, a solved one by its node and stripe.
Parity and pad unknowns are never copied out.  repair_shard opens only the
shards the protocol reads, the helper racks' and the host rack's survivors,
and keeps one rack's chunk array; each helper rack's message goes straight
into one repair plan, applied to each chunk.  Each block read, a helper
rack, the survivors or a decode chunk, is checked for symbols >= p once.
decode_file and repair_shard write through a temporary file beside their
output (_replacing), so the output is either the old file or the new, and
stat each shard once.  Tables and plans are shared by the construction
module's rule.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import resource
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .codec import Codec, stripes_per_chunk
from .construction import code_tables
from .errors import ParameterError, RepairRefusedError, ShardFormatError, SymbolMappingError
from .field import FieldCtx
from .params import CodeParams, is_int
from .repair import RepairJob, RepairPlan, helper_message

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"


def shard_name(e: int, g: int) -> str:
    return f"node_{e}_{g}.shard"


def symbol_width_bytes(p: int) -> int:
    """Bytes per stored symbol: smallest width that fits p - 1."""
    return ((p - 1).bit_length() + 7) // 8


@dataclass(frozen=True)
class Manifest:
    """Self-describing stripe-directory metadata; everything a reader needs."""

    format_version: int
    n_bar: int
    u: int
    u0: int
    k_bar: int
    d_bar: int
    p: int
    primitive_root: int
    unity_root: int
    extra_points: tuple[int, ...]
    symbol_width_bytes: int
    original_file_length_bytes: int
    stripe_count: int
    checksum_sha256: str

    @property
    def params(self) -> CodeParams:
        return CodeParams(n_bar=self.n_bar, u=self.u, u0=self.u0,
                          k_bar=self.k_bar, d_bar=self.d_bar)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["extra_points"] = list(self.extra_points)
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ShardFormatError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ShardFormatError("manifest is not a JSON object")
        names = {f.name for f in fields(cls)}
        for problem, keys in (("has unknown", set(payload) - names),
                              ("misses required", names - set(payload))):
            if keys:
                raise ShardFormatError(f"manifest {problem} fields: {', '.join(sorted(keys))}")
        manifest = cls(**payload)
        for f in fields(cls):
            value = getattr(manifest, f.name)
            if f.type == "int" and not is_int(value):
                raise ShardFormatError(
                    f"manifest field {f.name} must be an integer, got {value!r}")
        extra = manifest.extra_points
        if not (isinstance(extra, list) and all(map(is_int, extra))):
            raise ShardFormatError(
                f"manifest field extra_points must be a list of integers, got {extra!r}")
        manifest = replace(manifest, extra_points=tuple(extra))
        manifest.validate()
        return manifest

    def validate(self) -> None:
        if self.format_version != FORMAT_VERSION:
            raise ShardFormatError(
                f"unsupported format_version {self.format_version}")
        params = self.params  # raises ParameterError on bad parameters
        field = FieldCtx.create(self.p, self.u)
        if field.primitive_root != self.primitive_root:
            raise ShardFormatError(
                f"manifest primitive_root {self.primitive_root} does not match "
                f"the canonical value {field.primitive_root} for p={self.p}")
        if field.unity_root != self.unity_root:
            raise ShardFormatError(
                f"manifest unity_root {self.unity_root} does not match "
                f"the canonical value {field.unity_root}")
        if code_tables(params, field).constants.extra_points != self.extra_points:
            raise ShardFormatError("manifest extra_points are not canonical")
        if self.symbol_width_bytes != symbol_width_bytes(self.p):
            raise ShardFormatError(
                f"symbol width {self.symbol_width_bytes} wrong for p={self.p}")
        if self.original_file_length_bytes < 0 or self.stripe_count < 0:
            raise ShardFormatError("negative length or stripe count")
        if not (isinstance(self.checksum_sha256, str)
                and re.fullmatch("[0-9a-f]{64}", self.checksum_sha256)):
            raise ShardFormatError("manifest field checksum_sha256 must be 64 lowercase "
                                   f"hex digits, got {self.checksum_sha256!r}")


def _symbol_dtype(width: int) -> np.dtype:
    if width == 1:
        return np.dtype("<u1")
    if width == 2:
        return np.dtype("<u2")
    raise ShardFormatError(f"unsupported symbol width {width}")


def _require_byte_field(p: int) -> None:
    if p < 257:
        raise SymbolMappingError(
            f"p={p} cannot embed bytes; raise --min-field to 257 or more")


def bytes_to_symbols(payload, codec: Codec) -> np.ndarray:
    """Payload bytes as data vectors of shape (k, alpha, stripe_count).

    One byte maps to one field element, so p must be at least 257; the
    payload is zero-padded up to a whole number of stripes.  The result is
    uint8, a view of payload when no padding is needed.
    """
    params = codec.params
    _require_byte_field(codec.p)
    per_stripe = params.k * params.alpha
    data = np.frombuffer(payload, dtype=np.uint8)
    pad = -data.size % per_stripe
    if pad:
        data = np.concatenate([data, np.zeros(pad, dtype=np.uint8)])
    return data.reshape(-1, params.k, params.alpha).transpose(1, 2, 0)


def _read_full(stream, buffer) -> int:
    """Fill buffer from stream as far as the stream goes; bytes read."""
    view, got = memoryview(buffer).cast("B"), 0
    while got < len(view):
        count = stream.readinto(view[got:])
        if not count:
            break
        got += count
    return got


def _check_symbols(values: np.ndarray, name: str, p: int, first: int,
                   what: str = "") -> None:
    """Refuse a symbol >= p, naming the shard and the symbol's byte offset;
    values are the shard's symbols from symbol index first on, and what
    says what a symbol >= p is, by default '>= p=<p>'."""
    if values.size and values.max() >= p:
        bad = int(np.flatnonzero(values >= p)[0])
        raise ShardFormatError(
            f"{name}: symbol {int(values.flat[bad])} {what or f'>= p={p}'} "
            f"at offset {(first + bad) * values.itemsize}")


def _stats(paths) -> dict[Path, os.stat_result | None]:
    """Each file's os.stat by path, one each; None where the file is missing."""
    stats = {}
    for path in paths:
        try:
            stats[path] = os.stat(path)
        except (FileNotFoundError, NotADirectoryError):
            stats[path] = None
    return stats


def _stripe_path(path: Path, directory: Path, stats: dict) -> Path | None:
    """The file of directory, a key of stats, that path names or is; else None."""
    own, named = _stats([path])[path], path.parent.resolve() == directory.resolve()
    for other, stat in stats.items():
        if named and other.name == path.name or own and stat and os.path.samestat(own, stat):
            return other
    return None


def _check_sizes(stats: dict[Path, os.stat_result], expected: int) -> None:
    """Refuse a shard file whose size, by path, is not expected bytes."""
    for path, stat in stats.items():
        if stat.st_size != expected:
            raise ShardFormatError(f"{path.name}: {stat.st_size} bytes, expected {expected}")


class _Descriptors(dict):
    """One job's shard descriptors by path, opened with flags on first use
    and kept until the block ends, which closes them all.  Past half the
    soft open-file limit the newest is closed first: a job reads its shards
    in the same order every chunk, so the first cap - 1 stay open and only
    the rest take turns in the last slot."""

    def __init__(self, flags: int):
        super().__init__()
        soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
        self.flags = flags
        self.cap = max(1, soft // 2) if soft != resource.RLIM_INFINITY else float("inf")

    def __missing__(self, path: Path) -> int:
        if len(self) >= self.cap:
            os.close(self.pop(next(reversed(self))))
        self[path] = descriptor = os.open(path, self.flags)
        return descriptor

    def __enter__(self) -> "_Descriptors":
        return self

    def __exit__(self, *exc) -> None:
        while self:
            os.close(self.popitem()[1])


def _read_block(shards: _Descriptors, paths, block: np.ndarray, start: int, p: int,
                which=None) -> None:
    """Fill block[i], (width, alpha) in the shard dtype, with stripes start
    to start + width of shard file paths[i], for each i of which (by default
    every path); a short file is refused, naming the shard and the byte
    offset.  block's other rows hold symbols in [0, p), so the block is
    checked at once, and only on a symbol >= p are its nodes scanned to name
    the shard and the offset."""
    which = range(len(paths)) if which is None else which
    for i in which:
        offset, view = start * block[i, 0].nbytes, memoryview(block[i]).cast("B")
        while view:
            count = os.preadv(shards[paths[i]], [view], offset)
            if not count:
                raise ShardFormatError(f"{paths[i].name}: ends early at offset {offset}")
            offset, view = offset + count, view[count:]
    if block.size and block.max() >= p:
        for i in which:
            _check_symbols(block[i], paths[i].name, p, start * block.shape[2])


@contextlib.contextmanager
def _replacing(path: Path):
    """A new file beside path, open for writing, that replaces path when the
    block completes; if the block raises, it is removed and path is kept."""
    temporary = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    sink = open(temporary, "xb")
    try:
        with sink:
            yield sink
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def read_manifest(directory) -> Manifest:
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise ShardFormatError(f"no {MANIFEST_NAME} in {directory}")
    return Manifest.from_json(path.read_text(encoding="utf-8"))


def codec_for_manifest(manifest: Manifest) -> Codec:
    """The manifest's codec, over the field that validate found canonical,
    so that it takes the tables validate built (code_tables)."""
    return Codec(manifest.params, FieldCtx(p=manifest.p, primitive_root=manifest.primitive_root,
                                           unity_root=manifest.unity_root, u=manifest.u))


def encode_file(input_path, out_dir, params: CodeParams,
                min_field: int = 257) -> Manifest:
    """Encode a file into a shard directory, one chunk of stripes at a time;
    an input that is its manifest or a shard file is refused before any write."""
    codec = Codec(params, min_field=min_field)
    _require_byte_field(codec.p)  # before any file is created
    out_dir = Path(out_dir)
    paths = [out_dir / shard_name(e, g) for e, g in params.nodes()]
    stats = _stats([out_dir / MANIFEST_NAME] + paths)
    if output := _stripe_path(Path(input_path), out_dir, stats):
        raise ParameterError("input_is_output", f"{input_path} is {output.name} of {out_dir}")
    dtype = _symbol_dtype(symbol_width_bytes(codec.p))
    digest, length, stripes = hashlib.sha256(), 0, 0
    chunk = stripes_per_chunk(codec._plan(range(params.k, params.n)).rows)
    buffer = bytearray(chunk * params.k * params.alpha)
    # Each node's stripes as its shard stores them, (chunk, alpha), for the
    # whole file: encode_batch writes into the transposed view.
    nodes = np.empty((params.n, chunk, params.alpha), dtype=dtype)
    with open(input_path, "rb") as source, _Descriptors(os.O_WRONLY | os.O_APPEND) as shards:
        out_dir.mkdir(parents=True, exist_ok=True)
        for path in paths:
            path.write_bytes(b"")
        while got := _read_full(source, buffer):
            view = memoryview(buffer)[:got]
            digest.update(view)
            length += got
            data = bytes_to_symbols(view, codec)
            width = data.shape[2]
            codec.encode_batch(data, out=nodes[:, :width].transpose(0, 2, 1))
            stripes += width
            for path, node in zip(paths, nodes[:, :width]):
                view = memoryview(node).cast("B")
                while view:
                    view = view[os.write(shards[path], view):]
            if got < len(buffer):
                break
    manifest = Manifest(
        format_version=FORMAT_VERSION,
        n_bar=params.n_bar, u=params.u, u0=params.u0,
        k_bar=params.k_bar, d_bar=params.d_bar,
        p=codec.p,
        primitive_root=codec.field.primitive_root,
        unity_root=codec.field.unity_root,
        extra_points=codec.constants.extra_points,
        symbol_width_bytes=symbol_width_bytes(codec.p),
        original_file_length_bytes=length,
        stripe_count=stripes,
        checksum_sha256=digest.hexdigest(),
    )
    (out_dir / MANIFEST_NAME).write_text(manifest.to_json(), encoding="utf-8")
    return manifest


def decode_file(in_dir, output_path) -> tuple[Manifest, int, list[tuple[int, int]]]:
    """Rebuild the original file from a shard directory (up to r shards may
    be missing), one chunk of stripes at a time.

    The payload goes to a temporary file beside output_path, which replaces
    output_path only once the manifest checksum matches; on any failure no
    file is left and an existing output_path keeps its bytes.  An
    output_path that is a directory, is in none, or is in_dir's manifest or a
    shard path, by name or by file, is refused before any shard is read.
    Returns (manifest, payload length, nodes whose shards were missing).
    """
    directory, output = Path(in_dir), Path(output_path)
    if output.is_dir() or not output.parent.is_dir():
        raise ParameterError("bad_output",
                             f"{output} is {'a' if output.is_dir() else 'in no'} directory")
    manifest = read_manifest(directory)
    params = manifest.params
    paths = [directory / shard_name(e, g) for e, g in params.nodes()]
    stats = _stats([directory / MANIFEST_NAME] + paths)
    if source := _stripe_path(output, directory, stats):
        raise ParameterError("output_is_input", f"{output} is {source.name} of {directory}")
    present = np.array([stats[path] is not None for path in paths])
    missing = [params.node_pair(i) for i in range(params.n) if not present[i]]
    if len(missing) > params.r:
        raise ShardFormatError(
            f"{len(missing)} shards missing, more than r={params.r}: "
            + ", ".join(shard_name(e, g) for e, g in missing))
    codec = codec_for_manifest(manifest)
    dtype = _symbol_dtype(manifest.symbol_width_bytes)
    k, alpha, per_stripe = params.k, params.alpha, params.k * params.alpha
    remaining = manifest.original_file_length_bytes
    if manifest.stripe_count * per_stripe < remaining:
        raise ShardFormatError(
            f"{manifest.stripe_count * per_stripe} symbols cannot cover "
            f"{remaining} payload bytes")
    expected = manifest.stripe_count * alpha * manifest.symbol_width_bytes
    # Only a lost data node needs the solve, and of its values only the lost
    # data nodes' are read, never the parity or pad unknowns'.
    plan = None if present[:k].all() else codec.decode_plan(present)
    solved = {i: plan.unknowns.index(i) for i in range(k) if not present[i]}
    chunk = stripes_per_chunk(plan.rows if plan else params.n * alpha)
    digest = hashlib.sha256()
    known = np.flatnonzero(present)
    _check_sizes({paths[i]: stats[paths[i]] for i in known}, expected)
    # Each node's stripes as its shard stores them, (chunk, alpha), for the
    # whole file, and the payload, (chunk, k, alpha) bytes: each data node is
    # cast into it from its block or from the solve's values.
    nodes = np.zeros((params.n, chunk, alpha), dtype=dtype)
    payload = np.empty((chunk, k, alpha), dtype=np.uint8)
    with _replacing(output) as sink, _Descriptors(os.O_RDONLY) as shards:
        for start in range(0, manifest.stripe_count, chunk):
            width = min(chunk, manifest.stripe_count - start)
            _read_block(shards, paths, nodes[:, :width], start, manifest.p, known)
            for i in known[known < k]:
                _check_symbols(nodes[i, :width], paths[i].name, 256, start * alpha,
                               "outside the byte range")
            values = plan.program(nodes[:, :width].transpose(0, 2, 1)) if solved else None
            for i in range(k):
                symbols = values[solved[i]].T if i in solved else nodes[i, :width]
                if i in solved and symbols.max() >= 256:
                    stripe = start + int(np.flatnonzero(symbols.max(axis=1) >= 256)[0])
                    raise ShardFormatError(
                        f"node {params.node_pair(i)}, lost and solved, has a symbol outside "
                        f"the byte range at stripe {stripe}; not a byte payload")
                payload[:width, i] = symbols
            view = memoryview(payload[:width]).cast("B")[:remaining]
            remaining -= len(view)
            digest.update(view)
            sink.write(view)
        if digest.hexdigest() != manifest.checksum_sha256:
            raise ShardFormatError("decoded payload fails the manifest checksum")
    return manifest, manifest.original_file_length_bytes, missing


def repair_shard(in_dir, e: int, g: int, helpers=None,
                 force: bool = False) -> tuple[Manifest, RepairJob, Path]:
    """Regenerate one shard file through the repair protocol, one chunk of
    stripes at a time.

    Without helpers, the d_bar smallest racks besides the target's whose
    shards are all present serve; if fewer are complete, the d_bar smallest
    racks do.  Refused when the target shard is present (force overrides
    that) or when a shard the protocol reads is missing: any node of a helper
    rack, or a surviving node of the target's rack.  Only those shards are
    opened, so shards of other racks may be missing or damaged.  The node goes
    to a temporary file beside the target, which replaces the target only
    once every chunk is written; on any failure no file is left and an
    existing target keeps its bytes.  Returns (manifest, the job that ran,
    the shard's path); params.repair_symbols() counts its symbols.
    """
    directory = Path(in_dir)
    manifest = read_manifest(directory)
    params = manifest.params
    u, alpha = params.u, params.alpha
    paths = [directory / shard_name(*node) for node in params.nodes()]
    stats = _stats(paths)
    present = [stats[path] is not None for path in paths]
    if helpers is None:
        complete = [h for h in range(params.n_bar)
                    if h != e and all(present[h * u:(h + 1) * u])]
        if len(complete) >= params.d_bar:
            helpers = complete[:params.d_bar]
    try:
        job = RepairJob.create(params, e, g, helpers)
    except (ValueError, IndexError) as exc:  # a bad request for this code
        raise ParameterError("bad_repair_job", str(exc)) from None
    index = params.node_index(e, g)
    target = paths[index]
    if present[index] and not force:
        raise RepairRefusedError(
            f"shard {target.name} is present; pass force to rewrite it")
    # What the protocol reads: every node of each helper rack, and the
    # target's surviving rack mates.
    racks = [paths[h * u:(h + 1) * u] for h in job.helpers]
    survivors = [paths[e * u + i] for i in range(u) if i != g]
    absent = ([f"helper rack {h} is missing node {(h, i)}"
               for h in job.helpers for i in range(u) if not present[h * u + i]]
              + [f"host-rack survivor {(e, i)} is missing"
                 for i in range(u) if i != g and not present[e * u + i]])
    if absent:
        raise RepairRefusedError(
            f"other shards missing: {', '.join(absent)}; choose complete racks "
            f"with --helpers, or run decode")
    read = [path for rack in racks for path in rack] + survivors
    _check_sizes({path: stats[path] for path in read},
                 manifest.stripe_count * alpha * manifest.symbol_width_bytes)

    codec = codec_for_manifest(manifest)
    plan = RepairPlan.create(codec, job)
    dtype = _symbol_dtype(manifest.symbol_width_bytes)
    chunk = stripes_per_chunk(plan.rows)
    # One rack's stripes, then the survivors', and the node's, as the shards
    # store them: (u, chunk, alpha) and (chunk, alpha).
    nodes, node = np.empty((u, chunk, alpha), dtype=dtype), np.empty((chunk, alpha), dtype=dtype)
    with _replacing(target) as sink, _Descriptors(os.O_RDONLY) as shards:
        for start in range(0, manifest.stripe_count, chunk):
            width = min(chunk, manifest.stripe_count - start)
            for h, rack in zip(job.helpers, racks):
                _read_block(shards, rack, nodes[:, :width], start, manifest.p)
                helper_message(plan, nodes[:, :width].transpose(0, 2, 1), h)
            _read_block(shards, survivors, nodes[:u - 1, :width], start, manifest.p)
            plan(nodes[:u - 1, :width].transpose(0, 2, 1), out=node[:width].T)
            sink.write(node[:width])
    return manifest, job, target
