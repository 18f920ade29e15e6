import numpy as np
import pytest

from msrr import CodeParams, Codec, helper_message
from msrr.construction import code_tables
from msrr.repair import RepairPlan

# Desk-scale codes used throughout the suite.
P1 = CodeParams(n_bar=4, u=2, u0=0, k_bar=2, d_bar=3)   # p=11, alpha=4
P2 = CodeParams(n_bar=4, u=3, u0=1, k_bar=2, d_bar=3)   # p=13, alpha=4
P3 = CodeParams(n_bar=6, u=2, u0=0, k_bar=3, d_bar=4)   # p=13, alpha=8
P1_DEGENERATE = CodeParams(n_bar=4, u=2, u0=0, k_bar=2, d_bar=2)  # s_bar=1

# Every admissible code with n_bar <= 6 and u <= 3, including u0 > 0 and
# s_bar = 1; sweeps filter it by size.
ADMISSIBLE_CODES = [
    CodeParams(n_bar=n_bar, u=u, u0=u0, k_bar=k_bar, d_bar=d_bar)
    for u in (2, 3) for n_bar in range(2, 7) for u0 in range(u)
    for k_bar in range(1, n_bar) for d_bar in range(k_bar, n_bar)]


@pytest.fixture(autouse=True)
def fresh_code_tables():
    """Each test starts and ends with an empty code table cache, so a table
    that a test patches, or builds under a patch, never reaches another."""
    code_tables.cache_clear()
    yield
    code_tables.cache_clear()


@pytest.fixture(scope="session")
def p1_codec():
    return Codec(P1)


@pytest.fixture(scope="session")
def p2_codec():
    return Codec(P2)


@pytest.fixture(scope="session")
def p3_codec():
    return Codec(P3)


@pytest.fixture(scope="session")
def degenerate_codec():
    return Codec(P1_DEGENERATE)


def random_stripe(codec, seed=0, stripes=None):
    """A random codeword, (n, alpha), or stripes of them, (n, alpha, stripes)."""
    rng = np.random.default_rng(seed)
    shape = (codec.params.k, codec.params.alpha) + (() if stripes is None else (stripes,))
    return codec.encode_batch(rng.integers(0, codec.p, size=shape))


def erase(params, vectors, nodes):
    """A copy of vectors, (n, alpha[, w]), with the (e, g) nodes zeroed, and
    the presence mask that marks them missing."""
    present = np.ones(params.n, dtype=bool)
    present[[params.node_index(e, g) for e, g in nodes]] = False
    return np.where(present.reshape((-1,) + (1,) * (vectors.ndim - 1)), vectors, 0), present


def fresh_message(codec, rack, e, job):
    """helper_message of a fresh plan for job on rack e's nodes, (u, alpha)
    or (u, alpha, w), as symbols in [0, p) of shape (beta,) or (beta, w)."""
    params = codec.params
    message = helper_message(RepairPlan.create(codec, job),
                             np.reshape(rack, (params.u, params.alpha, -1)), e)
    return (message % codec.p).astype(np.int64).reshape((params.beta,) + np.shape(rack)[2:])
