"""Code parameters and their derived quantities.

A code stripes data over ``n = n_bar * u`` nodes arranged in ``n_bar`` racks
of ``u`` nodes; any ``k = k_bar * u + u0`` nodes suffice to read the data and
``d_bar`` helper racks take part in a node repair.  Each node stores
``alpha = s_bar**m`` symbols whose coordinates are base-``s_bar`` digit
vectors of length ``m``, and rack ``e`` owns digit position
``e // (u - u0)``.  The digit table itself, and the rows and siblings read
off it, live in ``ParityCheckMatrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError


def is_int(value) -> bool:
    """A plain int: bool, float and numpy integers are refused."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CodeParams:
    """Validated rack/node/repair parameters of one code.

    Immutable; every derived quantity is a pure function of the five inputs.
    """

    n_bar: int  # racks
    u: int      # nodes per rack
    u0: int     # k mod u
    k_bar: int  # k // u
    d_bar: int  # helper racks per repair

    def __post_init__(self):
        for name in ("n_bar", "u", "u0", "k_bar", "d_bar"):
            value = getattr(self, name)
            if not is_int(value):
                raise ParameterError("not_integer", f"{name} must be an integer")
        if self.u < 2:
            raise ParameterError("u_too_small", f"need u >= 2, got {self.u}")
        if not 0 <= self.u0 < self.u:
            raise ParameterError(
                "u0_out_of_range", f"need 0 <= u0 < u, got u0={self.u0}, u={self.u}")
        if self.k_bar < 1:
            raise ParameterError(
                "k_too_small", f"need k >= u (k_bar >= 1), got k_bar={self.k_bar}")
        if not self.k_bar <= self.d_bar <= self.n_bar - 1:
            raise ParameterError(
                "d_out_of_range",
                f"need k_bar <= d_bar <= n_bar - 1, got "
                f"k_bar={self.k_bar}, d_bar={self.d_bar}, n_bar={self.n_bar}")

    @classmethod
    def from_total_k(cls, n_bar: int, u: int, k: int, d_bar: int) -> "CodeParams":
        """Build from a total data-node count k, splitting it into (k_bar, u0)."""
        if not is_int(k):
            raise ParameterError("not_integer", "k must be an integer")
        return cls(n_bar=n_bar, u=u, u0=k % u, k_bar=k // u, d_bar=d_bar)

    # -- derived quantities ------------------------------------------------

    @property
    def n(self) -> int:
        return self.n_bar * self.u

    @property
    def k(self) -> int:
        return self.k_bar * self.u + self.u0

    @property
    def r(self) -> int:
        return self.n - self.k

    @property
    def r_bar(self) -> int:
        return self.n_bar - self.k_bar

    @property
    def s_bar(self) -> int:
        """Repair stretch: how many coordinates one downloaded symbol pays for."""
        return self.d_bar - self.k_bar + 1

    @property
    def m(self) -> int:
        """Number of digits: rack digit positions needed to cover all racks."""
        return math.ceil(self.n_bar / (self.u - self.u0))

    @property
    def alpha(self) -> int:
        """Symbols stored per node."""
        return self.s_bar**self.m

    @property
    def beta(self) -> int:
        """Symbols downloaded from each helper rack during a repair."""
        return self.alpha // self.s_bar

    def repair_symbols(self) -> dict[str, int]:
        """Per stripe of one node repair: the symbols that cross racks, beta
        from each helper rack; those read in the host rack, its u - 1
        survivors; and those read in each helper rack, beta per node."""
        return {"cross_rack_symbols": self.d_bar * self.beta,
                "intra_rack_symbols": (self.u - 1) * self.alpha,
                "accessed_symbols_per_helper_rack": self.u * self.beta}

    # -- node indexing -----------------------------------------------------

    def node_index(self, e: int, g: int) -> int:
        """Flat node id in (rack, node) lexicographic order."""
        if not (0 <= e < self.n_bar and 0 <= g < self.u):
            raise IndexError(f"node ({e},{g}) out of range")
        return e * self.u + g

    def node_pair(self, i: int) -> tuple[int, int]:
        if not 0 <= i < self.n:
            raise IndexError(f"node {i} out of range")
        return divmod(i, self.u)

    def nodes(self) -> list[tuple[int, int]]:
        return [divmod(i, self.u) for i in range(self.n)]

    # -- rack-to-digit mapping ----------------------------------------------

    def rack_residue(self, e: int) -> int:
        """e mod (u - u0): selects which parity blocks serve rack e's repair."""
        if not 0 <= e < self.n_bar:
            raise IndexError(f"rack {e} out of range")
        return e % (self.u - self.u0)

    def rack_digit(self, e: int) -> int:
        """Digit position owned by rack e."""
        if not 0 <= e < self.n_bar:
            raise IndexError(f"rack {e} out of range")
        return e // (self.u - self.u0)
