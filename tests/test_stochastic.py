import contextlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy.special import ndtri

from deltasite import cli, fixtures, sheaves, stochastic
from deltasite.errors import DeltasiteError, PreconditionError
from deltasite.reports import Report
from deltasite.stochastic import (BLOCK_VALUES, SPLIT_BLOCK_VALUES, SPLIT_VALUES,
                                  DiscretePath, GBMParams,
                                  Partition, brownian_blocks, check_product_rule,
                                  estimate_log_drift, gbm_terminal_log_rates,
                                  ito_residual, ito_residual_halving,
                                  normal_blocks, normal_samples,
                                  quadratic_variation, sample_brownian,
                                  sample_brownian_batch, simulate_gbm)
from deltasite.stochastic import _ITO_CATALOG, _exact_sums

from test_contract import FLOATS, run, sized
from test_contract import SEEDS as EXTREME_SEEDS


# -- partitions and sampling -----------------------------------------------------

def test_partition_validation():
    with pytest.raises(PreconditionError):
        Partition(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(PreconditionError):
        Partition(np.array([0.0]))
    part = Partition.uniform(2.0, 4)
    assert np.allclose(part.deltas, 0.5)
    assert part.times.size == 5


def test_brownian_starts_at_zero():
    w = sample_brownian(1.0, 50, seed=3)
    assert w.values[0] == 0.0


def test_brownian_same_seed_identical():
    a = sample_brownian(1.0, 100, seed=9)
    b = sample_brownian(1.0, 100, seed=9)
    assert np.array_equal(a.values, b.values)
    c = sample_brownian(1.0, 100, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_brownian_batch_rows_match_streams():
    batch = sample_brownian_batch(1.0, 20, 5, seed=4)
    for i in range(5):
        assert np.array_equal(batch[i], sample_brownian(1.0, 20, 4, stream=i).values)


# -- the blocked stream primitive --------------------------------------------------

SEEDS = (0, 1, 2**64 + 3, 2**128 - 1)


def reference_normals(seed, count, stream):
    """The documented stream: the Philox generator keyed by the seed, jumped
    `stream` times; raw words to uniforms (raw >> 11) * 2^-53 + 2^-54, then
    the exact quantile function."""
    raw = np.random.Philox(key=seed).jumped(stream).random_raw(count)
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    return ndtri(u)


def drawn_blocks(seed, count, streams):
    """(stream, row) pairs of normal_blocks, checking each block's shape and
    bound on the way."""
    blocks = list(normal_blocks(seed, count, streams))
    assert [s for part, _ in blocks for s in part] == list(streams)
    for part, block in blocks:
        assert block.shape == (len(part), count)
        assert block.size <= max(BLOCK_VALUES, count)
    return [(s, row) for part, block in blocks for s, row in zip(part, block)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count, streams", [
    (1, range(3, 6)),
    (3, range(1, 2)),
    (5, range(2, 9)),
    (1000, range(5, 140)),            # 65 rows per block: three blocks
    ((1 << 16) + 1, range(9, 14)),    # one row per block, longer than the bound
    # one row around the split, cut between columns at a multiple of 4
    (SPLIT_BLOCK_VALUES - 1, range(4, 5)),        # one lane
    (SPLIT_BLOCK_VALUES, range(4, 5)),
    (SPLIT_BLOCK_VALUES + 1, range(4, 5)),        # 1 mod 8
    (20_002, range(1, 2)), (30_003, range(1, 2)),  # 2, 3 mod 8
    (40_005, range(1, 2)), (50_007, range(1, 2)),  # 5, 7 mod 8
    (100_003, (5,)),
    # several rows, cut between rows: around the row length ...
    (SPLIT_VALUES - 1, range(4, 24)),             # uniforms on the caller
    (SPLIT_VALUES, range(4, 24)),
    (SPLIT_VALUES + 1, range(4, 24)),
    # ... and the block size, and odd counts of rows, cut unevenly
    (SPLIT_BLOCK_VALUES // 4 - 1, range(0, 4)),   # one lane
    (SPLIT_BLOCK_VALUES // 4, range(0, 4)),
    (9001, range(6, 8)),
    (6001, range(1, 4)),
    (6000, (9, 2, 7)),                            # streams out of order
    # short rows: uniforms on the caller, normals cut between rows
    (100, range(0, 163)),                         # 16,300 values: one lane
    (100, range(0, 164)),                         # 16,400
    (100, range(3, 168)),                         # 165 rows
    (100, range(5, 760)),                         # 655 rows, then 100 in one lane
])
def test_normal_blocks_match_jumped_streams_bit_for_bit(seed, count, streams):
    rows = drawn_blocks(seed, count, streams)
    for stream, row in rows:
        assert row.tobytes() == reference_normals(seed, count, stream).tobytes()
    stream, row = rows[-1]
    assert normal_samples(seed, count, stream).tobytes() == row.tobytes()


def cpus(monkeypatch, count):
    """Make the process look as if it may run on count CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def test_large_blocks_split_long_rows_by_lanes_and_short_rows_by_normals(monkeypatch):
    tails = []

    class Inline:
        """A worker that runs its part at once, on the calling thread."""
        def submit(self, function, *args):
            if function is stochastic._normals:
                tails.append(("normals", args[0].shape))
            else:
                lane, streams, first, out = args
                tails.append((tuple(streams), first, out.shape))
            future = Future()
            future.set_result(function(*args))
            return future

    monkeypatch.setattr(stochastic, "_lane_worker", Inline)

    def split(count, streams):
        tails.clear()
        for stream, row in drawn_blocks(3, count, streams):
            assert row.tobytes() == reference_normals(3, count, stream).tobytes()
        return tails

    assert split(SPLIT_BLOCK_VALUES - 1, (4,)) == []
    assert split(SPLIT_BLOCK_VALUES, (4,)) == [((4,), SPLIT_BLOCK_VALUES // 2, (1, 8192))]
    assert split(SPLIT_BLOCK_VALUES // 4 - 1, range(4)) == []
    assert split(6001, (9, 2, 7)) == [((7,), 0, (1, 6001))]
    # 65-row blocks split, the last block of 5 rows does not
    assert split(1000, range(5, 140)) == [(tuple(range(38, 70)), 0, (32, 1000)),
                                          (tuple(range(103, 135)), 0, (32, 1000))]
    # short rows: the worker makes the normals of the tail rows
    assert split(SPLIT_VALUES - 1, range(20)) == [("normals", (10, 999))]
    assert split(100, range(163)) == []
    assert split(100, range(164)) == [("normals", (82, 100))]
    assert split(100, range(3, 168)) == [("normals", (82, 100))]
    # a 655-row block splits, the last block of 100 rows does not
    assert split(100, range(5, 760)) == [("normals", (327, 100))]


def test_one_cpu_fills_each_block_in_one_lane(monkeypatch):
    two = [row.tobytes() for _, row in drawn_blocks(3, 6001, (9, 2, 7))]
    cpus(monkeypatch, 1)
    monkeypatch.setattr(stochastic, "_WORKER", None)
    one = [row.tobytes() for _, row in drawn_blocks(3, 6001, (9, 2, 7))]
    assert one == two == [reference_normals(3, 6001, s).tobytes() for s in (9, 2, 7)]
    short = [row.tobytes() for _, row in drawn_blocks(3, 100, range(200))]
    assert short == [reference_normals(3, 100, s).tobytes() for s in range(200)]
    assert stochastic._WORKER is None  # no worker was started


def test_threads_drawing_at_once_each_get_their_streams(monkeypatch):
    cpus(monkeypatch, 2)
    seed, count, streams, n = 2**64 + 3, 6001, (4, 0, 9), 20_001
    rows_ref = [reference_normals(seed, count, s).tobytes() for s in streams]
    short_ref = [reference_normals(seed, 100, s).tobytes() for s in range(200)]
    sq = np.sqrt(Partition.uniform(1.0, n).deltas)
    paths_ref = [np.concatenate(([0.0], np.cumsum(reference_normals(seed, n, k) * sq))).tobytes()
                 for k in range(4)]
    results, errors = {k: [] for k in range(4)}, []

    def drain(k):
        try:
            for _ in range(5):
                rows = [row.tobytes() for _, block in normal_blocks(seed, count, streams)
                        for row in block]
                short = [row.tobytes() for _, block in normal_blocks(seed, 100, range(200))
                         for row in block]
                results[k].append((rows, short,
                                   sample_brownian(1.0, n, seed, k).values.tobytes()))
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=drain, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for k in range(4):
        assert results[k] == [(rows_ref, short_ref, paths_ref[k])] * 5


def test_a_worker_error_reaches_the_caller_and_the_next_call_samples(monkeypatch, capsys):
    cpus(monkeypatch, 2)
    parts = {name: getattr(stochastic, name) for name in ("_fill_lane", "_normals")}

    def failing(name):
        def run(*args):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError(f"{name} on the worker")
            return parts[name](*args)
        return run

    for name in parts:
        monkeypatch.setattr(stochastic, name, failing(name))
    with pytest.raises(MemoryError, match="_fill_lane on the worker"):
        list(normal_blocks(3, 20_001, (2,)))
    with pytest.raises(MemoryError, match="_fill_lane on the worker"):
        sample_brownian_batch(1.0, 1000, 20, 3)
    with pytest.raises(MemoryError, match="_normals on the worker"):
        list(normal_blocks(3, 100, range(200)))
    code = cli.main(["check-sheaf", "--mode", "cones", "--paths", "20000",
                     "--model", fixtures.fixture_path("four_events")])
    assert (code, capsys.readouterr().err) == (
        2, "error: out of memory: _fill_lane on the worker\n")
    code = cli.main(["simulate", "--paths", "2000"])
    assert (code, capsys.readouterr().err) == (2, "error: out of memory: _normals on the worker\n")
    for name, part in parts.items():
        monkeypatch.setattr(stochastic, name, part)
    assert normal_samples(3, 20_001, 2).tobytes() == reference_normals(3, 20_001, 2).tobytes()
    rows = [row.tobytes() for _, block in normal_blocks(3, 100, range(200)) for row in block]
    assert rows == [reference_normals(3, 100, s).tobytes() for s in range(200)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_after_the_worker_started_samples(monkeypatch):
    cpus(monkeypatch, 2)
    normal_samples(3, 20_001, 2)
    assert stochastic._WORKER[0] == os.getpid()  # the worker has started
    with warnings.catch_warnings():
        # Python 3.12 and later warn that a process with threads forks
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: never return into pytest
        code = 1
        try:
            got = normal_samples(7, 100_003, 5).tobytes()
            code = 0 if got == reference_normals(7, 100_003, 5).tobytes() else 3
            # a short-row block: the child's worker makes half of its normals
            got = [row.tobytes() for _, block in normal_blocks(7, 100, range(200))
                   for row in block]
            if code == 0 and got != [reference_normals(7, 100, s).tobytes() for s in range(200)]:
                code = 4
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while not (waited := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish within 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(waited[1]) == 0


def test_the_worker_enters_no_public_function(monkeypatch):
    """bench/spans.py keeps one span stack per process and the reachability
    probe traces one thread, so only private code of the package may run on
    the worker."""
    cpus(monkeypatch, 2)
    monkeypatch.setattr(stochastic, "_WORKER", None)  # a worker started under the profile
    package = os.path.dirname(stochastic.__file__)
    entered = set()

    def hook(frame, event, arg):
        if event == "call" and threading.current_thread() is not threading.main_thread():
            entered.add((frame.f_code.co_filename, frame.f_code.co_name))

    threading.setprofile(hook)
    try:
        list(normal_blocks(5, 1000, range(70)))
        list(normal_blocks(5, 100, range(200)))
        sample_brownian(1.0, 100_003, 5, 1)
        gbm_terminal_log_rates(GBMParams(0.1, 0.2, 1.0, 1.0, 2000, 5), 10)
    finally:
        threading.setprofile(None)
        stochastic._WORKER[1].shutdown()
    names = {name for path, name in entered if path.startswith(package)}
    assert {"_fill_lane", "_normals"} <= names
    assert sorted(name for name in names if not name.startswith(("_", "<"))) == []


def test_normal_blocks_cross_a_boundary_of_short_streams():
    # 5 draws per stream make 13107-row blocks; the range starts at an odd stream
    streams = range(7, 7 + 13106 + 3)
    rows = drawn_blocks(2**64 + 3, 5, streams)
    draws = np.concatenate([row for _, row in rows])
    ref = np.concatenate([reference_normals(2**64 + 3, 5, s) for s in streams])
    assert draws.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", (-1, 2**128))
def test_normal_blocks_refuse_seed_outside_the_key(seed):
    with pytest.raises(PreconditionError):
        next(normal_blocks(seed, 3, range(2)))
    with pytest.raises(PreconditionError):
        normal_samples(seed, 3)


@pytest.mark.parametrize("seed", (0, 2**64 + 3, 2**128 - 3))
@pytest.mark.parametrize("n, streams", [
    (3, range(5)),          # one lane at n and at 2n
    (50, range(200)),       # one lane at n, normals in two lanes at 2n
    (100, range(3, 170)),   # normals in two lanes at both
    (600, range(40)),       # normals in two lanes at n, two lanes by rows at 2n
    (8193, (4,)),           # one lane at n, one row in two lanes by columns at 2n
    (9000, (5, 1, 3)),      # two lanes by rows at both
])
def test_the_first_n_normals_of_a_stream_are_its_n_normals(seed, n, streams):
    rows = [row.tobytes() for _, block in normal_blocks(seed, n, streams) for row in block]
    heads = [row[:n].tobytes() for _, block in normal_blocks(seed, 2 * n, streams)
             for row in block]
    assert heads == rows


@pytest.mark.parametrize("seed", (0, 2**128 - 3))
@pytest.mark.parametrize("f, T, n, pairs", [
    ("w3", 1.0, 4, 3), ("w3", 1.0, 100, 100), ("w3", 2.0, 1000, 40),
    ("w3", 1.0, 10_000, 5), ("exp", 0.5, 300, 60),
])
def test_halving_residuals_equal_two_separate_draws(seed, f, T, n, pairs):
    want = []
    for steps in (n, 2 * n):
        grid = Partition.uniform(T, steps)
        want.append(np.concatenate([ito_residual(f, DiscretePath(grid, values))
                                    for _, values in brownian_blocks(grid, seed, range(pairs))]))
    got = ito_residual_halving(f, T, n, seed, range(pairs))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_halving_residuals_of_no_streams_are_empty():
    for residuals in ito_residual_halving("w3", 1.0, 10, 0, range(0)):
        assert residuals.dtype == np.float64 and residuals.shape == (0,)


@pytest.mark.parametrize("streams", (range(0), range(3)))
def test_halving_refuses_an_unknown_function_before_drawing(monkeypatch, streams):
    with pytest.raises(PreconditionError) as want:
        ito_residual("w4", DiscretePath(Partition.uniform(1.0, 2), np.zeros(3)))

    def no_draws(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(stochastic, "normal_blocks", no_draws)
    with pytest.raises(PreconditionError) as got:
        ito_residual_halving("w4", 1.0, 10, 0, streams)
    assert str(got.value) == str(want.value)


def test_brownian_batch_rows_match_reference_paths_across_blocks():
    for n, paths, rows in ((1000, 70, (0, 1, 63, 64, 65, 69)),  # blocks of 65 rows and of 5
                           (10_000, 13, range(13))):            # blocks of 6, 6 and 1 rows
        batch = sample_brownian_batch(1.0, n, paths, seed=2**128 - 1)
        sq = np.sqrt(Partition.uniform(1.0, n).deltas)
        for i in rows:
            ref = np.concatenate(([0.0], np.cumsum(reference_normals(2**128 - 1, n, i) * sq)))
            assert batch[i].tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", (20, (1 << 16) + 1))  # one row of a two-row block
def test_sample_brownian_is_the_cumsum_of_scaled_normals(n):
    dt = Partition.uniform(2.5, n).deltas
    for seed, stream in ((0, 0), (3, 1), (2**64 + 3, 7), (2**128 - 1, 12)):
        ref = np.concatenate(([0.0], np.cumsum(normal_samples(seed, n, stream) * np.sqrt(dt))))
        assert sample_brownian(2.5, n, seed, stream).values.tobytes() == ref.tobytes()


def per_stream_log_rates(p, n_paths):
    """gbm_terminal_log_rates as one fsum per reference stream."""
    drift = p.alpha - 0.5 * p.sigma ** 2
    sq = np.sqrt(Partition.uniform(p.T, p.n).deltas)
    rates = np.empty(n_paths)
    for i in range(n_paths):
        w_T = math.fsum(reference_normals(p.seed, p.n, i) * sq)
        rates[i] = (drift * p.T + p.sigma * w_T) / p.T
    return rates


@pytest.mark.parametrize("n, n_paths, seed", [(1, 3, 0), (7, 30, 2**64 + 3),
                                              (100, 700, 1), (1000, 70, 2**128 - 1),
                                              (500, 1, 3), (BLOCK_VALUES + 10, 2, 2**64 + 3)])
def test_gbm_log_rates_match_per_stream_fsum(n, n_paths, seed):
    p = GBMParams(alpha=0.07, sigma=0.3, x0=2.0, T=0.75, n=n, seed=seed)
    got = gbm_terminal_log_rates(p, n_paths)
    assert got.tobytes() == per_stream_log_rates(p, n_paths).tobytes()


def test_single_step_variance_matches_sample_oracle():
    # 1e5 independent draws pooled from Philox substreams; variance of the
    # one-step increment must match T within three standard errors
    T = 2.0
    draws = np.concatenate([normal_samples(5, 1000, stream=i) for i in range(100)])
    values = draws * math.sqrt(T)
    n = values.size
    assert n == 100_000
    sample_var = values.var(ddof=1)
    se = T * math.sqrt(2.0 / (n - 1))
    assert abs(sample_var - T) <= 3 * se
    # spot-check agreement with the path sampler itself on a few streams
    for i in range(3):
        w = sample_brownian(T, 1, 5, stream=i)
        assert w.values[-1] == pytest.approx(values[1000 * i], rel=1e-12)


# -- product rule ---------------------------------------------------------------------

def test_product_rule_residual_is_rounding_noise():
    x = sample_brownian(1.0, 2000, seed=1, stream=0)
    y = sample_brownian(1.0, 2000, seed=1, stream=1)
    scale = float(np.max(np.abs(x.values)) * np.max(np.abs(y.values)))
    assert check_product_rule(x, y) <= 1e-12 * max(scale, 1.0)


def test_product_rule_square_specialization():
    x = sample_brownian(1.0, 500, seed=8)
    xv = x.values
    dx = np.diff(xv)
    lhs = xv[1:] ** 2 - xv[:-1] ** 2
    rhs = 2 * xv[:-1] * dx + dx ** 2
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(float(np.max(xv ** 2)), 1.0)
    assert check_product_rule(x, x) <= 1e-12 * max(float(np.max(xv ** 2)), 1.0)


def test_product_rule_exact_in_rational_arithmetic():
    # symbolic per-step oracle: with exact rationals the three-term expansion
    # reproduces Delta(XY) with zero residual on 1000 random steps
    rng = np.random.default_rng(42)
    xs = rng.normal(size=1001)
    ys = rng.normal(size=1001)
    exact_x = [Fraction(float(v)) for v in xs]
    exact_y = [Fraction(float(v)) for v in ys]
    for i in range(1000):
        dx = exact_x[i + 1] - exact_x[i]
        dy = exact_y[i + 1] - exact_y[i]
        lhs = exact_x[i + 1] * exact_y[i + 1] - exact_x[i] * exact_y[i]
        rhs = exact_x[i] * dy + dx * exact_y[i] + dx * dy
        assert lhs == rhs


def test_product_rule_requires_shared_partition():
    x = sample_brownian(1.0, 10, seed=0)
    y = sample_brownian(1.0, 11, seed=0)
    with pytest.raises(PreconditionError):
        check_product_rule(x, y)


# -- quadratic variation ---------------------------------------------------------------

def test_linear_path_qv_vanishes_with_mesh():
    qvs = []
    for n in (100, 200, 400):
        part = Partition.uniform(1.0, n)
        path = DiscretePath(part, part.times.copy())
        qvs.append(quadratic_variation(path))
        assert qvs[-1] == pytest.approx(n * (1.0 / n) ** 2)
    assert qvs[0] > qvs[1] > qvs[2]
    assert qvs[0] / qvs[1] == pytest.approx(2.0)


def test_brownian_qv_concentrates_at_T():
    n, paths = 20_000, 50
    band = 3 * math.sqrt(2.0 / n)
    hits = 0
    for i in range(paths):
        w = sample_brownian(1.0, n, seed=12, stream=i)
        if abs(quadratic_variation(w) - 1.0) <= band:
            hits += 1
    assert hits / paths >= 0.95


# -- Ito residuals -------------------------------------------------------------------

def test_ito_w2_exact_with_increment_term():
    w = sample_brownian(1.0, 5000, seed=3)
    scale = max(float(np.max(w.values ** 2)), 1.0)
    assert ito_residual("w2", w, quadratic_term="increments") <= 1e-10 * scale


def test_ito_time_function_exact():
    w = sample_brownian(1.0, 1000, seed=4)
    assert ito_residual("t", w) <= 1e-12
    assert ito_residual("t", w, quadratic_term="increments") <= 1e-12


def test_ito_w3_rms_shrinks_like_root_mesh():
    # mesh-halving regression oracle: RMS ratio per halving ~ sqrt(2)
    rms = []
    for n in (500, 1000, 2000):
        acc = []
        for i in range(200):
            w = sample_brownian(1.0, n, seed=1, stream=i)
            acc.append(ito_residual("w3", w) ** 2)
        rms.append(math.sqrt(math.fsum(acc) / len(acc)))
    for a, b in zip(rms, rms[1:]):
        assert 1.15 <= a / b <= 1.85


def test_ito_exp_residual_small_and_shrinking():
    rms = []
    for n in (400, 1600):
        acc = []
        for i in range(60):
            w = sample_brownian(1.0, n, seed=5, stream=i)
            acc.append(ito_residual("exp", w) ** 2)
        rms.append(math.sqrt(math.fsum(acc) / len(acc)))
    assert rms[1] < rms[0]


def test_ito_rejects_unknown_function_and_mode():
    w = sample_brownian(1.0, 10, seed=0)
    with pytest.raises(PreconditionError):
        ito_residual("w4", w)
    with pytest.raises(PreconditionError):
        ito_residual("w2", w, quadratic_term="magic")


# -- geometric Brownian motion -----------------------------------------------------------

def test_gbm_sigma_zero_is_exact_exponential():
    p = GBMParams(alpha=0.1, sigma=0.0, x0=1.0, T=1.0, n=100, seed=0)
    path = simulate_gbm(p)
    assert path.values[-1] == math.exp(0.1)
    assert path.values[0] == 1.0


def test_gbm_parameter_validation():
    with pytest.raises(PreconditionError):
        GBMParams(0.1, -0.1, 1.0, 1.0, 10)
    with pytest.raises(PreconditionError):
        GBMParams(0.1, 0.1, 0.0, 1.0, 10)


def test_gbm_log_drift_monte_carlo():
    p = GBMParams(alpha=0.1, sigma=0.2, x0=1.0, T=1.0, n=8, seed=21)
    rates = gbm_terminal_log_rates(p, 2000)
    est = estimate_log_drift(rates)
    target = 0.1 - 0.5 * 0.2 ** 2
    assert est.mean - 3 * est.stderr <= target <= est.mean + 3 * est.stderr


def test_gbm_mean_terminal_matches_lognormal_identity():
    p = GBMParams(alpha=0.1, sigma=0.2, x0=2.0, T=1.0, n=8, seed=22)
    rates = gbm_terminal_log_rates(p, 4000)
    mean_xt = float(np.mean(p.x0 * np.exp(rates * p.T)))
    want = p.x0 * math.exp(p.alpha * p.T)
    # se of X_T mean: x0 e^{aT} sqrt(e^{s^2 T}-1)/sqrt(N)
    se = want * math.sqrt(math.exp(p.sigma ** 2 * p.T) - 1) / math.sqrt(4000)
    assert abs(mean_xt - want) <= 3 * se


def test_estimate_log_drift_sigma_zero_exact():
    p = GBMParams(alpha=0.07, sigma=0.0, x0=1.0, T=2.0, n=5, seed=0)
    rates = gbm_terminal_log_rates(p, 50)
    est = estimate_log_drift(rates)
    assert est.mean == pytest.approx(0.07, abs=1e-12)
    assert est.stderr == 0.0


def test_estimate_log_drift_balanced_drift_is_zero():
    p = GBMParams(alpha=0.02, sigma=0.2, x0=1.0, T=1.0, n=8, seed=23)
    rates = gbm_terminal_log_rates(p, 2000)
    est = estimate_log_drift(rates)
    assert est.mean - 3 * est.stderr <= 0.0 <= est.mean + 3 * est.stderr  # alpha = sigma^2 / 2


def test_estimate_log_drift_needs_thirty_paths():
    with pytest.raises(PreconditionError):
        estimate_log_drift([0.1] * 29)


def test_gbm_paths_bit_identical_replay():
    p = GBMParams(alpha=0.05, sigma=0.3, x0=1.0, T=1.0, n=64, seed=77)
    a, b = simulate_gbm(p), simulate_gbm(p)
    assert np.array_equal(a.values, b.values)
    rates_a = gbm_terminal_log_rates(p, 40)
    rates_b = gbm_terminal_log_rates(p, 40)
    assert np.array_equal(rates_a, rates_b)


# -- exact sums ----------------------------------------------------------------------

# values that steer math.fsum onto its edges: signed zeros, the smallest
# subnormal, the largest float, NaN and the infinities
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, math.nan, math.inf, -math.inf])


@hst.composite
def summands(draw):
    """A 1-D array, or a 2-D array of rows, of 0-3000 values: mantissas in
    [0.5, 1) scaled by powers of two in a drawn range (subnormal to near
    overflow), mixed or one-signed rows, and optional cancelling halves,
    rows of signed zeros and special values."""
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    rows = draw(hst.sampled_from((None, 1, 2, 7, 40)))
    n = draw(hst.integers(0, 3000 // (rows or 1)))
    shape = (rows or 1, n)
    lo = draw(hst.integers(-1075, 1024))
    hi = draw(hst.integers(lo, min(lo + draw(hst.sampled_from((0, 3, 60, 2100))), 1024)))
    a = np.ldexp(rng.uniform(0.5, 1.0, shape), rng.integers(lo, hi + 1, shape))
    # one-signed rows sum close to n * max; signs per value or per row
    a *= rng.choice((-1.0, 1.0), draw(hst.sampled_from((shape, (shape[0], 1)))))
    if n > 1 and draw(hst.booleans()):  # the second half cancels the first
        half = n // 2
        a[:, half:2 * half] = -a[:, rng.permutation(half)]
    if draw(hst.booleans()):  # zeros and subnormals, then huge, then non-finite
        a[rng.random(shape) < draw(hst.sampled_from((0.001, 0.05)))] = \
            rng.choice(SPECIALS[:draw(hst.sampled_from((4, 6, 9)))])
    if draw(hst.booleans()):
        a[rng.integers(shape[0])] = rng.choice((0.0, -0.0), n)
    return a if rows else a[0]


# the sampled verdicts reduce under stochastic.float_traps
TRAPS = {"plain": contextlib.nullcontext, "trapped": stochastic.float_traps}


def assert_sums_equal_fsum(a, trap):
    """_exact_sums(a) is math.fsum of each row (1-D: one row) bit for bit,
    or raises the first failing row's exception with its message."""
    try:
        want = np.array([math.fsum(row) for row in np.atleast_2d(a).tolist()])
    except (ValueError, OverflowError) as error:
        with TRAPS[trap](), pytest.raises(type(error)) as exc:
            _exact_sums(a)
        assert str(exc.value) == str(error)
        return
    with TRAPS[trap]():
        assert _exact_sums(a).tobytes() == want.tobytes()


@pytest.mark.parametrize("trap", sorted(TRAPS))
@settings(max_examples=400, deadline=None)
@given(a=summands())
def test_exact_sums_equal_fsum_bit_for_bit(trap, a):
    assert_sums_equal_fsum(a, trap)


@pytest.mark.parametrize("trap", sorted(TRAPS))
@pytest.mark.parametrize("row", [
    [1e308, 1e308, -1e308], [math.inf, -math.inf], [math.nan, 1.0], [math.inf, 1.0],
    [], [-0.0], [-0.0, -0.0], [5e-324, -5e-324], [5e-324] * 3, [1e-300, 1.0, -1.0],
    [2.0**980, 2.0**-1000], [3.0, -1.0, -2.0], [0.1] * 10])
def test_exact_sums_keep_fsum_edges(trap, row):
    # padded with -0.0 past the 1024 values below which fsum sums directly
    for pad in (0, 2048):
        assert_sums_equal_fsum(np.array(row + [-0.0] * pad), trap)


def bits(x):
    return np.float64(x).tobytes()


def parent_ito_residual(f, path, quadratic_term):
    """ito_residual as one expression over the expansion terms, each row
    summed by math.fsum: a float for a path, one float64 per row for a block."""
    func, dt_, dw_, dww_ = _ITO_CATALOG[f]
    t, w = path.partition.times, path.values
    dts, dws = path.partition.deltas, np.diff(w)
    second = dts if quadratic_term == "time" else dws ** 2
    terms = (dt_(t[:-1], w[..., :-1]) * dts + dw_(t[:-1], w[..., :-1]) * dws
             + 0.5 * dww_(t[:-1], w[..., :-1]) * second)
    return path.unwrap(np.array([
        abs(float(func(t[-1], row[-1]) - func(t[0], row[0])) - math.fsum(row_terms))
        for row, row_terms in zip(np.atleast_2d(w), np.atleast_2d(terms))]))


def parent_quadratic_variation(path):
    """quadratic_variation as one expression, each row summed by math.fsum."""
    squares = np.diff(path.values) ** 2
    return path.unwrap(np.array([math.fsum(row) for row in np.atleast_2d(squares).tolist()]))


def same_bytes(got, want):
    """got and want are the same type (float or array) with the same bits."""
    return type(got) is type(want) and \
        np.asarray(got, dtype=np.float64).tobytes() == np.asarray(want, dtype=np.float64).tobytes()


def test_reductions_match_math_fsum_on_a_long_path():
    path = sample_brownian(1.0, 100_000, seed=21, stream=2)
    got = quadratic_variation(path)
    assert type(got) is float and bits(got) == bits(math.fsum(np.diff(path.values) ** 2))
    for f in sorted(_ITO_CATALOG):
        for term in ("time", "increments"):
            got = ito_residual(f, path, quadratic_term=term)
            assert type(got) is float
            assert bits(got) == bits(parent_ito_residual(f, path, term)), (f, term)


def test_gbm_log_rates_match_fsum_over_blocks():
    # 2000 rows of 100 steps fill 655-row blocks, so the rows span four blocks
    p = GBMParams(alpha=0.1, sigma=0.2, x0=1.0, T=1.0, n=100, seed=8)
    sq = np.sqrt(Partition.uniform(p.T, p.n).deltas)
    w_T = np.array([math.fsum(row)
                    for _, block in normal_blocks(p.seed, p.n, range(2000))
                    for row in (block * sq).tolist()])
    want = (p.drift * p.T + p.sigma * w_T) / p.T
    assert gbm_terminal_log_rates(p, 2000).tobytes() == want.tobytes()


# a path (rows None) or a block of rows, with fewer than 1024 values in all (which
# _exact_sums leaves to math.fsum), more, and rows longer than BLOCK_VALUES
REFEREE_SHAPES = [(None, 500), (2, 300), (None, 5000), (3, 2000),
                  (None, BLOCK_VALUES + 10), (2, BLOCK_VALUES + 10)]


@pytest.mark.parametrize("rows, n", REFEREE_SHAPES)
def test_reductions_match_the_one_expression_referees(rows, n):
    values = sample_brownian(1.0, n, 31, 4).values if rows is None else \
        sample_brownian_batch(1.0, n, rows, 31)
    path = DiscretePath(Partition.uniform(1.0, n), values)
    assert same_bytes(quadratic_variation(path), parent_quadratic_variation(path))
    for f in sorted(_ITO_CATALOG):
        for term in ("time", "increments"):
            want = parent_ito_residual(f, path, term)
            assert same_bytes(ito_residual(f, path, quadratic_term=term), want), (f, term)


# -- reductions over blocks of paths --------------------------------------------------

# every reduction of one path, by name; the product rule pairs each row of a
# block with the same row of 1 + the block in reverse row order
REDUCTIONS = {
    "quadratic_variation": quadratic_variation,
    "check_product_rule": lambda p: check_product_rule(
        p, DiscretePath(p.partition, 1.0 + p.values[::-1])),
    **{f"ito_residual {f} {term}": (
        lambda p, f=f, term=term: ito_residual(f, p, quadratic_term=term))
       for f in sorted(_ITO_CATALOG) for term in ("time", "increments")},
}


def one_row_at_a_time(name, block):
    """The reduction on each row of block as a path of its own."""
    if name == "check_product_rule":
        partners = 1.0 + block.values[::-1]
        return [check_product_rule(DiscretePath(block.partition, row),
                                   DiscretePath(block.partition, partner))
                for row, partner in zip(block.values, partners)]
    return [REDUCTIONS[name](DiscretePath(block.partition, row)) for row in block.values]


def special_rows(n):
    """Four Brownian rows, one holding a NaN and one constant, so that
    _exact_sums leaves both to math.fsum inside a block."""
    values = sample_brownian_batch(1.0, n, 4, seed=13)
    values[1, n // 2] = math.nan
    values[2] = 0.75
    return values


BLOCKS = {
    "65x1001": lambda: sample_brownian_batch(1.0, 1000, 65, seed=3),
    "6x10001": lambda: sample_brownian_batch(1.0, 10_000, 6, seed=4),
    "1x1000": lambda: sample_brownian_batch(1.0, 999, 1, seed=5),
    "0x1001": lambda: np.empty((0, 1001)),
    "nan-and-constant": lambda: special_rows(1000),
}


@pytest.mark.parametrize("shape", sorted(BLOCKS))
@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_block_reduction_equals_each_row_bit_for_bit(name, shape):
    values = BLOCKS[shape]()
    block = DiscretePath(Partition.uniform(1.0, values.shape[1] - 1), values)
    with np.errstate(invalid="ignore"):
        got = REDUCTIONS[name](block)
        want = one_row_at_a_time(name, block)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert all(type(x) is float for x in want)
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


def test_w3_residual_of_a_block_keeps_the_scalar_end_points():
    # at seed 8 and 666 steps, w ** 3 on the array of end points can differ
    # from the scalar cube in the last bit (4 of these 100 rows on x86-64
    # with AVX-512); the oracle cubes each end point as a scalar
    part = Partition.uniform(1.0, 666)
    block = DiscretePath(part, sample_brownian_batch(1.0, 666, 100, seed=8))
    for term in ("time", "increments"):
        want = [parent_ito_residual("w3", DiscretePath(part, row), term)
                for row in block.values]
        got = ito_residual("w3", block, quadratic_term=term)
        assert got.tobytes() == np.array(want).tobytes()


def test_discrete_path_shape_is_checked_on_the_last_axis():
    part = Partition.uniform(1.0, 4)
    for values in (np.zeros((2, 4)), np.zeros((2, 2, 5)), np.float64(0.0), np.zeros(6)):
        with pytest.raises(PreconditionError):
            DiscretePath(part, values)
    x = DiscretePath(part, np.zeros((2, 5)))
    with pytest.raises(PreconditionError):
        check_product_rule(x, DiscretePath(part, np.zeros((3, 5))))
    with pytest.raises(PreconditionError):
        check_product_rule(x, DiscretePath(part, np.zeros(5)))


# -- who owns which array -------------------------------------------------------------

@pytest.mark.parametrize("n, streams", [(1000, range(3, 140)),           # three 65-row blocks
                                        (BLOCK_VALUES + 1, range(2))])  # one row per block
def test_brownian_blocks_rows_stay_their_paths(n, streams):
    blocks = list(brownian_blocks(Partition.uniform(1.5, n), 6, streams))
    assert [s for part, _ in blocks for s in part] == list(streams)
    for part, values in blocks:
        for stream, row in zip(part, values):
            assert row.tobytes() == sample_brownian(1.5, n, 6, stream).values.tobytes()


def test_overwriting_a_normal_block_leaves_the_next_one():
    blocks = normal_blocks(9, 1000, range(130))  # two 65-row blocks
    _, first = next(blocks)
    first[...] = math.nan
    part, second = next(blocks)
    for stream, row in zip(part, second):
        assert row.tobytes() == reference_normals(9, 1000, stream).tobytes()
    assert np.isnan(first).all()  # and the next block was not drawn into it


def test_sample_brownian_keeps_its_partition_steps():
    path = sample_brownian(2.5, 1000, 3, 1)
    assert path.partition.times.tobytes() == Partition.uniform(2.5, 1000).times.tobytes()
    assert path.partition.deltas.tobytes() == np.diff(path.partition.times).tobytes()


def test_reductions_leave_their_argument():
    block = DiscretePath(Partition.uniform(1.0, 2000), sample_brownian_batch(1.0, 2000, 3, seed=6))
    values, times = block.values.copy(), block.partition.times.copy()
    for reduce in REDUCTIONS.values():
        reduce(block)
    _exact_sums(block.values)
    assert block.values.tobytes() == values.tobytes()
    assert block.partition.times.tobytes() == times.tobytes()


# -- the verdicts ---------------------------------------------------------------------

VERDICT_PROBE = r"""
import argparse, json, sys


def refuse(*args, **kwargs):
    raise AssertionError("an argv was parsed")


argparse.ArgumentParser.parse_args = refuse
from deltasite import stochastic

report = stochastic.verify_ito(alpha=0.1, sigma=0.2, x0=1.0, T=1.0, steps=100, paths=20, seed=3)
print(json.dumps({"rows": report.rows, "cli": "deltasite.cli" in sys.modules}))
"""


def test_verify_ito_runs_as_a_library_function(capsys):
    # the entry point of size and power runs: no argv is parsed and the CLI
    # is never loaded, yet the rows are those of the command
    src = os.path.dirname(os.path.dirname(stochastic.__file__))
    out = subprocess.run([sys.executable, "-c", VERDICT_PROBE],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    doc = json.loads(out)
    assert doc["cli"] is False
    code = cli.main(["verify-ito", "--steps", "100", "--paths", "20", "--seed", "3",
                     "--format", "json"])
    records = json.loads(capsys.readouterr().out)["records"]
    assert code == 0
    assert doc["rows"] == [[r["check"], r["instance"], r["status"], r["witness"]]
                           for r in records]


# Each verdict sets NumPy's float traps itself, so a library call fails where
# its command exits 2, whatever the caller's float state, and leaves that state
# as it found it.  Under the traps of the verify-ito and cone verdicts:
RAISE = {"over": "raise", "invalid": "raise", "divide": "raise", "under": "ignore"}
# simulate reads an overflow off the terminal value instead, so only its
# divisions by zero raise
SIMULATE = {**RAISE, "over": "ignore", "invalid": "ignore"}
# (verdict, its arguments, the command that runs it with the same values)
OUT_OF_RANGE = {
    "verify-ito": (stochastic.verify_ito, (0.1, 1e150, 1.0, 1e-300, 10, 30, 0),
                   ["verify-ito", "--T", "1e-300", "--sigma", "1e150", "--paths", "30",
                    "--steps", "10", "--seed", "0"]),
    "cones": (lambda *args: sheaves.transversal_cone_check(*args, n_paths=100),
              (1e308, 3.0, 0.0, 1.0),
              ["check-sheaf", "--mode", "cones", "--sigma", "1e308", "--paths", "100",
               "--model", fixtures.fixture_path("four_events"), "--seed", "0"]),
}
IN_RANGE = {
    "simulate": (stochastic.simulate, (0.05, 0.2, 1.0, 1.0, 50, 40, 7), SIMULATE),
    "simulate one path": (stochastic.simulate, (0.05, 0.2, 1.0, 1.0, 50, 1, 7), SIMULATE),
    "verify-ito": (stochastic.verify_ito, (0.1, 0.2, 1.0, 1.0, 50, 30, 7), RAISE),
    "cones": (sheaves.transversal_cone_check, (1.0, 3.0, 0.0, 1.0, 100, 7), RAISE),
}
CALLER_STATES = {"default": {}, "ignore": {"all": "ignore"}, "raise": {"all": "raise"},
                 "mixed": {"over": "warn", "invalid": "ignore", "divide": "print",
                           "under": "raise"}}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_a_verdict_out_of_range_raises_as_its_command_exits_2(name):
    verdict, args, argv = OUT_OF_RANGE[name]
    state = np.geterr()
    with pytest.raises(FloatingPointError) as exc:
        verdict(*args)
    assert np.geterr() == state
    assert run(argv) == (2, "", f"error: out of numeric range: {exc.value}\n")


@pytest.mark.parametrize("caller", sorted(CALLER_STATES))
@pytest.mark.parametrize("name", sorted(IN_RANGE) + [f"{n} out of range" for n in OUT_OF_RANGE])
def test_a_verdict_sets_its_traps_and_restores_the_callers(monkeypatch, name, caller):
    if name in IN_RANGE:
        verdict, args, want = IN_RANGE[name]
    else:
        (verdict, args, _), want = OUT_OF_RANGE[name.split()[0]], RAISE
    seen, blocks = [], stochastic.normal_blocks

    def recorded(*args):
        seen.append(np.geterr())
        return blocks(*args)

    monkeypatch.setattr(stochastic, "normal_blocks", recorded)
    with np.errstate(**CALLER_STATES[caller]):
        state = np.geterr()
        try:
            verdict(*args)
        except FloatingPointError:
            assert name not in IN_RANGE
        assert np.geterr() == state
    assert seen and all(traps == want for traps in seen), seen


# the examples: verify-ito calls that leave the float range, so the command
# exits 2, where a verdict that left the traps to its caller returned a report
# (some green, with `inf` figures)
@settings(max_examples=200, deadline=None)
@given(argv=hst.tuples(hst.sampled_from(("simulate", "verify-ito")), sized(),
                       hst.fixed_dictionaries({"seed": EXTREME_SEEDS}, optional={
                           flag: FLOATS for flag in ("alpha", "sigma", "x0", "T")})).map(
    lambda t: [t[0], *t[1], *(f"--{flag}={value!r}" for flag, value in t[2].items())]))
@example(argv=["verify-ito", "--paths", 30, "--steps", 10, "--T=1e-300", "--sigma=1e+150",
               "--seed=0"])
@example(argv=["verify-ito", "--paths", 31, "--steps", 1, "--x0=3.0", "--T=1e-310",
               "--seed=0"])
@example(argv=["verify-ito", "--paths", 30, "--steps", 10, "--x0=3.0", "--seed=0",
               "--alpha=1.7976931348623157e+308"])
@example(argv=["verify-ito", "--paths", 2, "--steps", 2, "--T=1e+300", "--seed=0"])
@example(argv=["verify-ito", "--paths", 3, "--steps", 1, "--alpha=0.2", "--sigma=1e-310",
               "--x0=1.7976931348623157e+308", "--T=1e+300", "--seed=1"])
def test_a_sampled_verdict_gives_the_outcome_of_its_command(argv):
    code, out, err = run(argv)
    params = vars(cli.build_parser().parse_args([str(arg) for arg in argv]))
    name = params.pop("command")
    del params["format"], params["run"]
    verdict = getattr(stochastic, name.replace("-", "_"))
    try:
        report = verdict(**params)
    except (DeltasiteError, FloatingPointError, OverflowError) as exc:
        assert (code, out) == (2, ""), (argv, code)
        assert err.startswith("error: ") and err.endswith(f"{(exc.args or [exc])[-1]}\n"), \
            (argv, err, exc)
        return
    assert code == report.exit_code(), (argv, code, err)
    assert out == Report(name, None, params, report.rows).render("text"), argv
