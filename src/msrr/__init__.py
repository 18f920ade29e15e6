"""Rack-aware MDS array codes with minimum-bandwidth single-node repair.

Data is striped over racks of storage nodes; any k nodes recover everything,
and a failed node is regenerated from d_bar helper racks that each ship only
beta aggregated symbols across the rack boundary.
"""

from .codec import Codec
from .construction import ParityCheckMatrix, build_constants
from .errors import (
    MsrrError,
    ParameterError,
    RepairRefusedError,
    ShardFormatError,
    SymbolMappingError,
)
from .field import FieldCtx
from .params import CodeParams
from .repair import RepairJob, helper_message
from .stripe_io import decode_file, encode_file, repair_shard

__version__ = "0.1.0"

__all__ = [
    "Codec",
    "CodeParams",
    "FieldCtx",
    "MsrrError",
    "ParameterError",
    "ParityCheckMatrix",
    "RepairJob",
    "RepairRefusedError",
    "ShardFormatError",
    "SymbolMappingError",
    "build_constants",
    "decode_file",
    "encode_file",
    "helper_message",
    "repair_shard",
]
