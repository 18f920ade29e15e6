"""Exception types shared across the package."""


class MsrrError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(MsrrError):
    """A code or field parameter violates its admissible range.

    ``code`` is a stable machine-readable identifier (e.g. ``u_too_small``).
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class SingularMatrixError(MsrrError):
    """A linear system turned out singular; carries the rank found."""

    def __init__(self, message: str, rank: int):
        super().__init__(f"{message} (rank {rank})")
        self.rank = rank


class InternalError(MsrrError):
    """A condition the construction guarantees impossible was observed."""


class ShardFormatError(MsrrError):
    """A shard file or manifest failed validation."""


class SymbolMappingError(MsrrError):
    """The byte-to-symbol mapping is not supported for the chosen field."""


class RepairRefusedError(MsrrError):
    """Shard repair preconditions not met: the target is present, or a
    helper-rack or host-rack shard is missing."""
