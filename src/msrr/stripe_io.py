"""Deterministic on-disk formats: manifest, shard files, byte/symbol mapping.

A directory holds one shard file per node (node_<e>_<g>.shard) plus
manifest.json.  Each shard concatenates the node's alpha symbols per stripe
across all stripes, every symbol a fixed-width little-endian unsigned integer
whose width is derived from the field modulus.  Bytes map to symbols one to
one (identity embedding), which requires p >= 257; the payload is zero-padded
to whole stripes and the original length plus a checksum live in the manifest.

encode_file and decode_file stream: they hold one chunk of stripes at a time,
about _CHUNK_SYMBOLS symbols over all n nodes, and hash the payload as it
passes.  repair_shard still loads whole shards through read_shards.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .codec import _CHUNK_SYMBOLS, Codec, Stripe
from .construction import build_constants
from .errors import ParameterError, RepairRefusedError, ShardFormatError, SymbolMappingError
from .field import FieldCtx
from .params import CodeParams
from .repair import RepairJob, RepairTranscript, repair_from_stripe

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
        try:
            manifest = cls(**payload)
        except TypeError as exc:
            raise ShardFormatError(f"manifest misses required fields: {exc}") from exc
        for f in fields(cls):
            value = getattr(manifest, f.name)
            if f.type == "int" and not _is_int(value):
                raise ShardFormatError(
                    f"manifest field {f.name} must be an integer, got {value!r}")
        extra = manifest.extra_points
        if not (isinstance(extra, list) and all(map(_is_int, extra))):
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
        if build_constants(params, field).extra_points != self.extra_points:
            raise ShardFormatError("manifest extra_points are not canonical")
        if self.symbol_width_bytes != symbol_width_bytes(self.p):
            raise ShardFormatError(
                f"symbol width {self.symbol_width_bytes} wrong for p={self.p}")
        if self.original_file_length_bytes < 0 or self.stripe_count < 0:
            raise ShardFormatError("negative length or stripe count")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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


def symbols_to_bytes(data: np.ndarray, length: int) -> bytes:
    """Inverse of bytes_to_symbols, truncating the padding."""
    flat = np.ascontiguousarray(data.transpose(2, 0, 1)).reshape(-1)
    if flat.size < length:
        raise ShardFormatError(
            f"{flat.size} symbols cannot cover {length} payload bytes")
    if np.any(flat >= 256):
        raise ShardFormatError("symbol outside byte range; not a byte payload")
    return flat[:length].astype(np.uint8).tobytes()


def _stripes_per_chunk(params: CodeParams) -> int:
    return max(1, _CHUNK_SYMBOLS // (params.n * params.alpha))


def _read_full(stream, buffer) -> int:
    """Fill buffer from stream as far as the stream goes; bytes read."""
    view, got = memoryview(buffer).cast("B"), 0
    while got < len(view):
        count = stream.readinto(view[got:])
        if not count:
            break
        got += count
    return got


def _check_symbols(values: np.ndarray, name: str, p: int, first: int) -> None:
    """Refuse a symbol >= p, naming the shard and the symbol's byte offset;
    values are the shard's symbols from symbol index first on."""
    if values.size and values.max() >= p:
        bad = int(np.flatnonzero(values >= p)[0])
        raise ShardFormatError(
            f"{name}: symbol {int(values.flat[bad])} >= p={p} "
            f"at offset {(first + bad) * values.itemsize}")


def write_one_shard(directory, manifest: Manifest, e: int, g: int,
                    node_vector: np.ndarray) -> Path:
    """(Re)write a single node's shard; node_vector (alpha, stripes)."""
    directory = Path(directory)
    dtype = _symbol_dtype(manifest.symbol_width_bytes)
    path = directory / shard_name(e, g)
    path.write_bytes(np.ascontiguousarray(node_vector.T).astype(dtype).tobytes())
    return path


def read_manifest(directory) -> Manifest:
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise ShardFormatError(f"no {MANIFEST_NAME} in {directory}")
    return Manifest.from_json(path.read_text(encoding="utf-8"))


def read_shards(directory) -> tuple[Manifest, np.ndarray, np.ndarray]:
    """Load a stripe directory.

    Returns (manifest, vectors (n, alpha, stripes), present (n,)); missing
    shard files come back zeroed with their present flag cleared, corrupt
    ones raise ShardFormatError naming the file and offset.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    params = manifest.params
    width = manifest.symbol_width_bytes
    dtype = _symbol_dtype(width)
    expected = manifest.stripe_count * params.alpha * width
    vectors = np.zeros((params.n, params.alpha, manifest.stripe_count),
                       dtype=np.int64)
    present = np.zeros(params.n, dtype=bool)
    for i, (e, g) in enumerate(params.nodes()):
        path = directory / shard_name(e, g)
        if not path.exists():
            continue
        blob = path.read_bytes()
        if len(blob) != expected:
            raise ShardFormatError(
                f"{path.name}: {len(blob)} bytes, expected {expected}")
        values = np.frombuffer(blob, dtype=dtype)
        _check_symbols(values, path.name, manifest.p, 0)
        vectors[i] = values.reshape(manifest.stripe_count, params.alpha).T
        present[i] = True
    return manifest, vectors, present


def codec_for_manifest(manifest: Manifest) -> Codec:
    return Codec(manifest.params, FieldCtx.create(manifest.p, manifest.u))


def encode_file(input_path, out_dir, params: CodeParams,
                min_field: int = 257) -> Manifest:
    """Stripe a file into a shard directory, one chunk of stripes at a time."""
    codec = Codec(params, min_field=min_field)
    _require_byte_field(codec.p)  # before any file is created
    out_dir = Path(out_dir)
    dtype = _symbol_dtype(symbol_width_bytes(codec.p))
    digest, length, stripes = hashlib.sha256(), 0, 0
    buffer = bytearray(_stripes_per_chunk(params) * params.k * params.alpha)
    paths = [out_dir / shard_name(e, g) for e, g in params.nodes()]
    with open(input_path, "rb") as source:
        out_dir.mkdir(parents=True, exist_ok=True)
        for path in paths:
            path.write_bytes(b"")
        while got := _read_full(source, buffer):
            chunk = memoryview(buffer)[:got]
            digest.update(chunk)
            length += got
            vectors = codec.encode_batch(bytes_to_symbols(chunk, codec))
            stripes += vectors.shape[2]
            # One shard open at a time: n may exceed the open-file limit.
            for path, node in zip(paths, vectors):
                with open(path, "ab") as sink:
                    sink.write(np.ascontiguousarray(node.T, dtype=dtype))
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
    file is left and an existing output_path keeps its bytes.  Returns
    (manifest, payload length, nodes whose shards were missing).
    """
    directory, output = Path(in_dir), Path(output_path)
    manifest = read_manifest(directory)
    params = manifest.params
    paths = [directory / shard_name(e, g) for e, g in params.nodes()]
    present = np.array([path.exists() for path in paths])
    missing = [params.node_pair(i) for i in range(params.n) if not present[i]]
    if len(missing) > params.r:
        raise ShardFormatError(
            f"{len(missing)} shards missing, more than r={params.r}: "
            + ", ".join(shard_name(e, g) for e, g in missing))
    codec = codec_for_manifest(manifest)
    dtype = _symbol_dtype(manifest.symbol_width_bytes)
    alpha, per_stripe = params.alpha, params.k * params.alpha
    remaining = manifest.original_file_length_bytes
    if manifest.stripe_count * per_stripe < remaining:
        raise ShardFormatError(
            f"{manifest.stripe_count * per_stripe} symbols cannot cover "
            f"{remaining} payload bytes")
    expected = manifest.stripe_count * alpha * manifest.symbol_width_bytes
    chunk = _stripes_per_chunk(params)
    digest = hashlib.sha256()
    temporary = output.with_name(f".{output.name}.{os.urandom(8).hex()}.tmp")
    on_disk = np.flatnonzero(present)
    for i in on_disk:
        size = paths[i].stat().st_size
        if size != expected:
            raise ShardFormatError(f"{paths[i].name}: {size} bytes, expected {expected}")
    sink = open(temporary, "xb")
    try:
        with sink:
            for start in range(0, manifest.stripe_count, chunk):
                width = min(chunk, manifest.stripe_count - start)
                vectors = np.zeros((params.n, alpha, width), dtype=dtype)
                for i in on_disk:  # one shard open at a time
                    values = np.empty((width, alpha), dtype=dtype)
                    with open(paths[i], "rb") as shard:
                        shard.seek(start * alpha * values.itemsize)
                        if _read_full(shard, values) != values.nbytes:
                            raise ShardFormatError(f"{paths[i].name}: ends early")
                    _check_symbols(values, paths[i].name, manifest.p, start * alpha)
                    vectors[i] = values.T
                data = codec.decode_batch(vectors, present)[:params.k]
                payload = symbols_to_bytes(data, min(width * per_stripe, remaining))
                remaining -= len(payload)
                digest.update(payload)
                sink.write(payload)
        if digest.hexdigest() != manifest.checksum_sha256:
            raise ShardFormatError("decoded payload fails the manifest checksum")
        os.replace(temporary, output)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return manifest, manifest.original_file_length_bytes, missing


def repair_shard(in_dir, e: int, g: int, helpers=None,
                 force: bool = False) -> tuple[Manifest, RepairTranscript, Path]:
    """Regenerate one shard file through the repair protocol.

    Without helpers, the d_bar smallest racks besides the target's whose
    shards are all present serve; if fewer are complete, the d_bar smallest
    racks do.  Refused when the target shard is present (force overrides
    that) or when a shard the protocol reads is missing: any node of a helper
    rack, or a surviving node of the target's rack.  Shards of other racks
    may be gone.
    """
    manifest, vectors, present = read_shards(in_dir)
    params = manifest.params
    if helpers is None:
        complete = [h for h in range(params.n_bar)
                    if h != e and present[h * params.u:(h + 1) * params.u].all()]
        if len(complete) >= params.d_bar:
            helpers = complete[:params.d_bar]
    try:
        job = RepairJob.create(params, e, g, helpers)
    except (ValueError, IndexError) as exc:  # a bad request for this code
        raise ParameterError("bad_repair_job", str(exc)) from None
    codec = codec_for_manifest(manifest)
    target = params.node_index(e, g)
    if present[target] and not force:
        raise RepairRefusedError(
            f"shard {shard_name(e, g)} is present; pass force to rewrite it")
    try:
        transcript = repair_from_stripe(codec, Stripe(params, vectors, present), job)
    except ValueError as exc:  # a shard the protocol reads is missing
        raise RepairRefusedError(
            f"other shards missing: {exc}; choose complete racks with --helpers, "
            f"or run decode") from None
    path = write_one_shard(in_dir, manifest, e, g, transcript.recovered)
    return manifest, transcript, path
