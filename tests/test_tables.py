"""The code's tables, and its plans' steps, are built once per process and shared read-only."""

import collections
import contextlib
import io
import json
import sys
import threading
import types

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
    dicts and the attributes of objects: a ParityCheckMatrix, its plan cache
    and the plans in it."""
    if isinstance(tables, np.ndarray):
        yield path, tables
    elif isinstance(tables, dict):
        for key, value in tables.items():
            yield from _arrays(value, f"{path}[{key!r}]")
    elif isinstance(tables, (tuple, list)):
        for i, value in enumerate(tables):
            yield from _arrays(value, f"{path}[{i}]")
    elif hasattr(tables, "__dict__") and not isinstance(tables, type):
        for name, value in vars(tables).items():
            yield from _arrays(value, f"{path}.{name}")


def _equal(cached, fresh, path="tables"):
    """cached and fresh hold the same values, array by array, of the same
    dtypes, through tuples, lists and a ParityCheckMatrix's attributes."""
    if isinstance(fresh, np.ndarray):
        assert cached.dtype == fresh.dtype and np.array_equal(cached, fresh), path
    elif isinstance(fresh, ParityCheckMatrix):
        assert vars(cached).keys() == vars(fresh).keys(), path
        for name, value in vars(fresh).items():
            if name not in ("repair_layouts", "plans"):
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
    # The plans' tables are shared; their Programs, and work arrays, stay
    # each codec's own.
    parity = range(params.k, params.n)
    assert first._plan(parity).program is not second._plan(parity).program
    assert first._plan(parity).program.steps is second._plan(parity).program.steps


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
    """Encode stripes of seed, decode them with r nodes lost, take their
    syndrome and repair every node; returns every result."""
    params = codec.params
    stripes = random_stripe(codec, seed=seed, stripes=3)
    lost = [params.node_pair((seed + 5 * j) % params.n) for j in range(params.r)]
    zeroed, present = erase(params, stripes, lost)
    results = [stripes, codec.decode_batch(zeroed, present), codec.syndrome_batch(stripes)]
    for e, g in params.nodes():
        plan = RepairPlan.create(codec, RepairJob.create(params, e, g))
        results.append(apply_plan(plan, stripes))
    return results


def _threads(params, workers, seeds_of):
    """Run _work on seeds_of(index) in each of workers threads at once, each
    with its own Codec, from an empty cache under a shortened switch
    interval; every result must match a serial run's."""
    seeds = sorted({seed for index in range(workers) for seed in seeds_of(index)})
    serial = {seed: _work(Codec(params), seed) for seed in seeds}
    construction.code_tables.cache_clear()
    start, failures, done = threading.Barrier(workers), [], []

    def worker(index):
        try:
            start.wait(timeout=30)
            codec = Codec(params)
            for seed in seeds_of(index):
                results = _work(codec, seed)
                if not all(np.array_equal(a, b) for a, b in zip(results, serial[seed])):
                    failures.append((index, seed))
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


def test_threads_with_their_own_codecs_share_the_tables():
    workers, rounds = 4, 3
    _threads(CODES["83126"], workers, lambda index: range(index, workers * rounds, workers))


# -- plan tables ------------------------------------------------------------------

def _counting_plans(monkeypatch):
    """Counts of plan table builds by key, from here on: a codec solve's by
    its unknowns, a repair job's by the job."""
    counts = collections.Counter()
    solve, job_tables = Codec._tables, RepairPlan._tables.__func__

    def counted_solve(self, unknowns):
        counts[unknowns] += 1
        return solve(self, unknowns)

    def counted_job(cls, pcm, job):
        counts[job] += 1
        return job_tables(cls, pcm, job)

    monkeypatch.setattr(Codec, "_tables", counted_solve)
    monkeypatch.setattr(RepairPlan, "_tables", classmethod(counted_job))
    return counts


def _main(*argv):
    """main(argv)'s exit code and its records."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, [json.loads(line) for line in out.getvalue().splitlines()]


def test_two_cli_verifies_build_each_plans_tables_once(monkeypatch):
    counts = _counting_plans(monkeypatch)
    params = CODES["83126"]
    argv = ["verify", "--racks", "8", "--nodes-per-rack", "3", "--k", "12", "--helpers", "6",
            "--mode", "sample", "--samples", "20", "--seed", "41"]
    first, second = _main(*argv), _main(*argv)
    assert first[0] == second[0] == 0
    for records in (first[1], second[1]):
        records[-1].pop("elapsed_s")
    assert first[1] == second[1]
    jobs = {RepairJob.create(params, rec["rack"], rec["node"], rec["helpers"])
            for rec in first[1] if rec["record"] == "repair_job"}
    assert 1 < len(jobs) <= 20
    assert counts == {tuple(range(params.k, params.n)): 1, **{job: 1 for job in jobs}}


def test_two_cli_repairs_of_one_node_build_its_plan_tables_once(tmp_path, monkeypatch):
    counts = _counting_plans(monkeypatch)
    params = CODES["6264"]
    (tmp_path / "in.bin").write_bytes(bytes(range(256)) * 64)
    assert _main("encode", "--racks", "6", "--nodes-per-rack", "2", "--k", "6", "--helpers", "4",
                 "--input", str(tmp_path / "in.bin"), "--out", str(tmp_path / "d"))[0] == 0
    original = (tmp_path / "d" / shard_name(2, 1)).read_bytes()
    for _ in range(2):
        (tmp_path / "d" / shard_name(2, 1)).unlink()
        assert _main("repair", "--in", str(tmp_path / "d"), "--rack", "2", "--node", "1")[0] == 0
        assert (tmp_path / "d" / shard_name(2, 1)).read_bytes() == original
    assert counts == {tuple(range(params.k, params.n)): 1, RepairJob.create(params, 2, 1): 1}


def _fill_plans(codec):
    """Every node's repair plan, and the encode, a decode and the syndrome
    solves, run once so that each is in codec.pcm.plans."""
    params = codec.params
    stripes = random_stripe(codec, seed=3, stripes=2)
    zeroed, present = erase(params, stripes, params.nodes()[:params.r])
    assert np.array_equal(codec.decode_batch(zeroed, present), stripes)
    assert not codec.syndrome_batch(stripes).any()
    for e, g in params.nodes():
        assert np.array_equal(apply_plan(RepairPlan.create(codec, RepairJob.create(params, e, g)),
                                         stripes), stripes[params.node_index(e, g)])


@pytest.mark.parametrize("params", CODES.values(), ids=CODES.keys())
def test_every_cached_plan_array_is_read_only(params):
    codec = Codec(params, min_field=257)
    _fill_plans(codec)
    entries = codec.pcm.plans.entries
    assert len(entries) == params.n + 3
    for key, (tables, size) in entries.items():
        arrays = [array for _, array in _arrays(tables)]
        assert size == sum(array.nbytes for array in arrays) > 0, key
        assert any(array.ndim == 2 and array.size > 1 for array in arrays), key
        for array in arrays:
            assert not array.flags.writeable, key
            if array.size:
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 0
                with pytest.raises(ValueError, match="read-only"):
                    np.add(array, 0, out=array)


def _same_tables(cached, fresh, path):
    """Two plans' tables are equal: job or unknowns, rows, side and view,
    and the program's steps, first, output and inputs."""
    a, b = cached.program, fresh.program
    _equal((a.steps, a.rows, a.first, a.output, a.widest, cached.rows),
           (b.steps, b.rows, b.first, b.output, b.widest, fresh.rows), path)
    assert a.inputs == b.inputs and a.dtype == b.dtype, path
    for name in ("unknowns", "job", "side", "view"):
        if hasattr(fresh, name):
            _equal(getattr(cached, name), getattr(fresh, name), f"{path}.{name}")


def test_the_plan_cache_keeps_its_bounds(monkeypatch):
    counts = _counting_plans(monkeypatch)
    params = CODES["6264"]
    jobs = [RepairJob.create(params, e, g) for e, g in params.nodes()]
    codec = Codec(params, min_field=257)
    for job in jobs:
        RepairPlan.create(codec, job)
    sizes = {job: size for job, (_, size) in codec.pcm.plans.entries.items()}
    assert list(sizes) == jobs and codec.pcm.plans.nbytes == sum(sizes.values())
    # Past the entry bound the least recently used goes first.
    construction.code_tables.cache_clear()
    monkeypatch.setattr(construction, "PLAN_ENTRIES", 4)
    codec = Codec(params, min_field=257)
    for i, job in enumerate(jobs):
        RepairPlan.create(codec, job)
        assert list(codec.pcm.plans.entries) == jobs[max(0, i - 3):i + 1]
    # An evicted job is built again, equal to an uncached build; a kept one
    # is not.
    counts.clear()
    rebuilt = RepairPlan.create(codec, jobs[0])
    RepairPlan.create(codec, jobs[-1])
    assert counts == {jobs[0]: 1}
    fresh = ParityCheckMatrix(params, build_constants(params, codec.field))
    _same_tables(rebuilt, RepairPlan._tables(fresh, jobs[0]), "job 0")
    # Past the byte bound too: the newest entries that fit.
    construction.code_tables.cache_clear()
    monkeypatch.setattr(construction, "PLAN_ENTRIES", 100)
    monkeypatch.setattr(construction, "PLAN_BYTES", sum(sizes[job] for job in jobs[-3:]))
    codec = Codec(params, min_field=257)
    for job in jobs:
        RepairPlan.create(codec, job)
        assert codec.pcm.plans.nbytes <= construction.PLAN_BYTES
    assert list(codec.pcm.plans.entries) == jobs[-3:]
    # A solve's tables, evicted and built again, equal an uncached build.
    parity = tuple(range(params.k, params.n))
    first = codec._plan(parity)
    for job in jobs:
        RepairPlan.create(codec, job)
    assert parity not in codec.pcm.plans.entries
    again = Codec(params, min_field=257)._plan(parity)
    assert again.program.steps is not first.program.steps and counts[parity] == 2
    uncached = types.SimpleNamespace(params=params, p=codec.p, pcm=fresh, constants=fresh.constants)
    _same_tables(again, Codec._tables(uncached, parity), "encode")


def test_threads_run_the_same_plans_at_once():
    # Every thread runs the same solves and repair jobs, so that they build,
    # share and run the same plan tables at once.
    params = CODES["83126"]
    _threads(params, 4, lambda index: range(3))
    # The encode, the syndrome, three decode patterns and every node's job.
    assert len(Codec(params).pcm.plans.entries) == params.n + 5
