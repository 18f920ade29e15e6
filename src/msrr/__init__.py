"""Rack-aware MDS array codes with minimum-bandwidth single-node repair.

Data is striped over racks of storage nodes; any k nodes recover everything,
and a failed node is regenerated from d_bar helper racks that each ship only
beta aggregated symbols across the rack boundary.
"""

from .codec import Codec, MdsReport
from .construction import CodeConstants, ParityCheckMatrix, build_constants
from .errors import (
    InternalError,
    MsrrError,
    ParameterError,
    RepairRefusedError,
    ShardFormatError,
    SingularMatrixError,
    SymbolMappingError,
)
from .field import FieldCtx, find_field, find_primitive, find_unity_root
from .params import CodeParams
from .repair import RepairJob, RepairTranscript, helper_message, repair_from_stripe
from .stripe_io import Manifest, decode_file, encode_file, repair_shard

__version__ = "0.1.0"

__all__ = [
    "Codec",
    "CodeConstants",
    "CodeParams",
    "FieldCtx",
    "InternalError",
    "Manifest",
    "MdsReport",
    "MsrrError",
    "ParameterError",
    "ParityCheckMatrix",
    "RepairJob",
    "RepairRefusedError",
    "RepairTranscript",
    "ShardFormatError",
    "SingularMatrixError",
    "SymbolMappingError",
    "build_constants",
    "decode_file",
    "encode_file",
    "find_field",
    "find_primitive",
    "find_unity_root",
    "helper_message",
    "repair_from_stripe",
    "repair_shard",
]
