"""The code's tables are built once per process and shared read-only."""

import collections
import contextlib
import io
import sys
import threading

import numpy as np
import pytest

from msrr import Codec, CodeParams, FieldCtx, ParityCheckMatrix, build_constants, construction
from msrr.cli import main
from msrr.repair import RepairJob, RepairPlan, _layout, apply_plan
from msrr.stripe_io import shard_name

from conftest import P1, P2, P3, erase, random_stripe

CODES = {"p1": P1, "p2": P2, "p3": P3, "6264": CodeParams.from_total_k(6, 2, 6, 4),
         "83126": CodeParams.from_total_k(8, 3, 12, 6)}


def _arrays(tables, path="tables"):
    """(path, array) for every array in tables, through tuples, lists,
    dicts and the attributes of a ParityCheckMatrix."""
    if isinstance(tables, np.ndarray):
        yield path, tables
    elif isinstance(tables, ParityCheckMatrix):
        for name, value in vars(tables).items():
            yield from _arrays(value, f"{path}.{name}")
    elif isinstance(tables, dict):
        for key, value in tables.items():
            yield from _arrays(value, f"{path}[{key!r}]")
    elif isinstance(tables, (tuple, list)):
        for i, value in enumerate(tables):
            yield from _arrays(value, f"{path}[{i}]")


def _equal(cached, fresh, path="tables"):
    """cached and fresh hold the same values, array by array, of the same
    dtypes, through tuples, lists and a ParityCheckMatrix's attributes."""
    if isinstance(fresh, np.ndarray):
        assert cached.dtype == fresh.dtype and np.array_equal(cached, fresh), path
    elif isinstance(fresh, ParityCheckMatrix):
        assert vars(cached).keys() == vars(fresh).keys(), path
        for name, value in vars(fresh).items():
            if name != "repair_layouts":
                _equal(getattr(cached, name), value, f"{path}.{name}")
    elif isinstance(fresh, (tuple, list)):
        assert type(cached) is type(fresh) and len(cached) == len(fresh), path
        for i, (a, b) in enumerate(zip(cached, fresh)):
            _equal(a, b, f"{path}[{i}]")
    else:
        assert cached == fresh, path


def _counting(monkeypatch):
    """Counts of ParityCheckMatrix builds, and of repair layouts by host
    rack, from here on."""
    counts = collections.Counter()
    build, layout = ParityCheckMatrix.__init__, _layout

    def counted_build(self, *args):
        counts["pcm"] += 1
        build(self, *args)

    def counted_layout(pcm, e_star):
        counts[e_star] += 1
        return layout(pcm, e_star)

    monkeypatch.setattr(ParityCheckMatrix, "__init__", counted_build)
    monkeypatch.setattr("msrr.repair._layout", counted_layout)
    return counts


def test_codecs_of_one_code_build_its_tables_once(monkeypatch):
    counts = _counting(monkeypatch)
    params = CODES["6264"]
    first, second = Codec(params), Codec(params, FieldCtx.for_code(params))
    assert first.pcm is second.pcm and first.constants is second.constants
    for codec in (first, second, first):
        for e, g in params.nodes():
            RepairPlan.create(codec, RepairJob.create(params, e, g))
    assert counts == {"pcm": 1, **{e: 1 for e in range(params.n_bar)}}
    assert sorted(first.pcm.repair_layouts) == list(range(params.n_bar))
    # Plans stay each codec's own.
    assert first.encode_plan is not second.encode_plan


def test_cli_repairs_in_one_process_build_the_tables_once(tmp_path, monkeypatch):
    counts = _counting(monkeypatch)
    (tmp_path / "in.bin").write_bytes(bytes(range(256)) * 64)
    flags = ["--racks", "6", "--nodes-per-rack", "2", "--k", "6", "--helpers", "4"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["encode", *flags, "--input", str(tmp_path / "in.bin"),
                     "--out", str(tmp_path / "d")]) == 0
        original = (tmp_path / "d" / shard_name(1, 1)).read_bytes()
        for rack, node in ((1, 1), (1, 1), (2, 0)):
            (tmp_path / "d" / shard_name(rack, node)).unlink()
            assert main(["repair", "--in", str(tmp_path / "d"), "--rack", str(rack),
                         "--node", str(node)]) == 0
    assert (tmp_path / "d" / shard_name(1, 1)).read_bytes() == original
    assert counts == {"pcm": 1, 1: 1, 2: 1}


@pytest.mark.parametrize("params", CODES.values(), ids=CODES.keys())
def test_every_cached_array_is_read_only(params):
    codec = Codec(params, min_field=257)
    for e, g in params.nodes():
        RepairPlan.create(codec, RepairJob.create(params, e, g))
    arrays = list(_arrays(codec.pcm))
    assert len(arrays) > 20 and any("repair_layouts" in path for path, _ in arrays)
    for path, array in arrays:
        assert not array.flags.writeable, path
        if array.size:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                np.add(array, 0, out=array)


@pytest.mark.parametrize("params", CODES.values(), ids=CODES.keys())
def test_cached_tables_equal_a_fresh_build(params):
    codec = Codec(params)
    fresh = ParityCheckMatrix(params, build_constants(params, FieldCtx.for_code(params)))
    _equal(codec.pcm, fresh)
    for e, g in params.nodes():
        RepairPlan.create(codec, RepairJob.create(params, e, g))
    for e in range(params.n_bar):
        _equal(codec.pcm.repair_layouts[e], _layout(fresh, e), f"layout {e}")
    # Another field is another code, with tables of its own.
    wide = Codec(params, min_field=257)
    assert wide.p != codec.p and wide.pcm is not codec.pcm and not wide.pcm.repair_layouts
    assert wide.pcm is Codec(params, min_field=257).pcm
    assert construction.code_tables.cache_info().currsize == 2


def _work(codec, seed):
    """Encode stripes of seed, decode them with r nodes lost, and repair
    every node; returns every result."""
    params = codec.params
    stripes = random_stripe(codec, seed=seed, stripes=3)
    lost = [params.node_pair((seed + 5 * j) % params.n) for j in range(params.r)]
    zeroed, present = erase(params, stripes, lost)
    results = [stripes, codec.decode_batch(zeroed, present)]
    for e, g in params.nodes():
        plan = RepairPlan.create(codec, RepairJob.create(params, e, g))
        results.append(apply_plan(plan, stripes))
    return results


def test_threads_with_their_own_codecs_share_the_tables():
    params, workers, rounds = CODES["83126"], 4, 3
    serial = {seed: _work(Codec(params), seed) for seed in range(workers * rounds)}
    construction.code_tables.cache_clear()
    start, failures, done = threading.Barrier(workers), [], []

    def worker(index):
        try:
            start.wait(timeout=30)
            codec = Codec(params)
            for seed in range(index, workers * rounds, workers):
                results = _work(codec, seed)
                if not all(np.array_equal(a, b) for a, b in zip(results, serial[seed])):
                    failures.append(seed)
            done.append(index)
        except Exception as exc:  # reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures and sorted(done) == list(range(workers))
