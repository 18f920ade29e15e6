import pytest
import sympy

from msrr.errors import ParameterError
from msrr.field import (
    FieldCtx,
    find_field,
    find_primitive,
    find_unity_root,
    is_prime,
    prime_factors,
)


def test_find_field_frozen_values():
    assert find_field(2, 8) == 11
    assert find_field(3, 12) == 13
    assert find_field(2, 12) == 13
    assert find_field(2, 8, min_size=257) == 257


@pytest.mark.parametrize("u,n,min_size", [(2, 8, 0), (3, 12, 0), (2, 8, 257),
                                          (5, 20, 0), (4, 24, 1000)])
def test_find_field_is_smallest_admissible(u, n, min_size):
    p = find_field(u, n, min_size)
    assert sympy.isprime(p)
    assert p >= max(min_size, n + 1)
    assert (p - 1) % u == 0
    for q in sympy.primerange(max(min_size, n + 1), p):
        assert (q - 1) % u != 0


def test_find_field_rejects_bad_inputs():
    with pytest.raises(ParameterError) as err:
        find_field(1, 8)
    assert err.value.code == "u_too_small"
    with pytest.raises(ParameterError) as err:
        find_field(2, 3)
    assert err.value.code == "n_too_small"


def test_primality_helpers_agree_with_sympy():
    for n in range(2, 500):
        assert is_prime(n) == sympy.isprime(n)
        if n > 1:
            assert prime_factors(n) == sorted(sympy.factorint(n))


def test_find_primitive_frozen_values():
    assert find_primitive(11) == 2
    assert find_primitive(13) == 2
    assert find_primitive(7) == 3


@pytest.mark.parametrize("p", [11, 13, 257, 65521])
def test_find_primitive_matches_sympy_and_has_full_order(p):
    root = find_primitive(p)
    assert root == sympy.primitive_root(p)
    assert sympy.n_order(root, p) == p - 1


@pytest.mark.parametrize("p", [11, 13, 257])
def test_primitive_powers_enumerate_nonzero_elements(p):
    root = find_primitive(p)
    seen = set()
    x = 1
    for _ in range(p - 1):
        seen.add(x)
        x = x * root % p
    assert seen == set(range(1, p))


def test_unity_root_frozen_values():
    assert find_unity_root(11, 2, 2) == 10
    assert find_unity_root(13, 2, 3) == 3
    assert find_unity_root(13, 2, 1) == 1


@pytest.mark.parametrize("p,u", [(11, 2), (13, 3), (13, 2), (257, 4), (31, 5)])
def test_unity_root_order_and_distinct_powers(p, u):
    eta = find_unity_root(p, find_primitive(p), u)
    powers = [pow(eta, g, p) for g in range(u)]
    assert len(set(powers)) == u
    assert all(pow(x, u, p) == 1 for x in powers)
    assert all(pow(eta, j, p) != 1 for j in range(1, u))


def test_unity_root_requires_divisibility():
    with pytest.raises(ParameterError) as err:
        find_unity_root(11, 2, 3)
    assert err.value.code == "u_not_dividing"


def test_fieldctx_validation():
    with pytest.raises(ParameterError) as err:
        FieldCtx.create(12, 2)
    assert err.value.code == "not_prime"
    with pytest.raises(ParameterError) as err:
        FieldCtx.create(65537, 2)  # prime, but beyond the two-byte shard limit
    assert err.value.code == "field_too_large"
    with pytest.raises(ParameterError):
        FieldCtx.create(11, 3)


def test_fieldctx_for_code_checks_params():
    from msrr import CodeParams
    params = CodeParams(n_bar=4, u=2, u0=0, k_bar=2, d_bar=3)
    ctx = FieldCtx.for_code(params)
    assert (ctx.p, ctx.primitive_root, ctx.unity_root) == (11, 2, 10)
    assert FieldCtx.for_code(params, min_size=257).p == 257
