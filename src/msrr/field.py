"""Prime-field arithmetic and deterministic selection of the field constants.

A code over ``n`` nodes grouped in racks of ``u`` needs a prime field GF(p)
with ``p > n`` and ``u | (p - 1)``; the construction then uses a primitive
root of the full multiplicative group and a root of unity of order exactly
``u``.  Selection is canonical (smallest prime, smallest primitive root) so
that two builds with the same parameters produce identical codes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError

# Shard files store one symbol in at most two bytes.
MAX_PRIME = 1 << 16


def is_prime(n: int) -> bool:
    """Deterministic trial division, sufficient for the 16-bit primes used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def find_field(u: int, n: int, min_size: int = 0) -> int:
    """Smallest prime p with p >= max(min_size, n + 1) and u | (p - 1)."""
    if not isinstance(u, int) or u < 2:
        raise ParameterError("u_too_small", f"need u >= 2, got {u}")
    if not isinstance(n, int) or n < 2 * u:
        raise ParameterError("n_too_small", f"need n >= 2u = {2 * u}, got {n}")
    p = max(min_size, n + 1)
    while p < MAX_PRIME:
        if (p - 1) % u == 0 and is_prime(p):
            return p
        p += 1
    raise ParameterError("field_too_large", f"no admissible prime below {MAX_PRIME}")


def find_primitive(p: int) -> int:
    """Smallest generator of the multiplicative group of GF(p).

    Verified by checking g^((p-1)/q) != 1 for every prime factor q of p - 1.
    """
    if p == 2:
        return 1
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ParameterError("not_prime", f"{p} has no primitive root; is it prime?")


def find_unity_root(p: int, primitive_root: int, u: int) -> int:
    """Element of multiplicative order exactly u, as a power of the primitive root."""
    if u < 1 or (p - 1) % u != 0:
        raise ParameterError("u_not_dividing", f"{u} does not divide {p} - 1")
    return pow(primitive_root, (p - 1) // u, p)


@dataclass(frozen=True)
class FieldCtx:
    """GF(p) with its distinguished elements.

    Immutable after construction; field elements are canonical integer
    representatives in [0, p - 1].
    """

    p: int
    primitive_root: int
    unity_root: int
    u: int

    @classmethod
    def create(cls, p: int, u: int) -> "FieldCtx":
        if p >= MAX_PRIME:  # before is_prime, whose trial division grows with sqrt(p)
            raise ParameterError("field_too_large", f"p must be below {MAX_PRIME}")
        if not is_prime(p):
            raise ParameterError("not_prime", f"{p} is not prime")
        root = find_primitive(p)
        eta = find_unity_root(p, root, u)
        return cls(p=p, primitive_root=root, unity_root=eta, u=u)

    @classmethod
    def for_code(cls, params, min_size: int = 0) -> "FieldCtx":
        """Canonical field for a parameter set (smallest admissible prime)."""
        return cls.create(find_field(params.u, params.n, min_size), params.u)

    def __post_init__(self):
        if pow(self.unity_root, self.u, self.p) != 1:
            raise ParameterError("u_not_dividing", "unity root has wrong order")
