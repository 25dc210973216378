import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtri

from deltasite.errors import PreconditionError
from deltasite.stochastic import (BLOCK_VALUES, DiscretePath, GBMParams,
                                  Partition, check_product_rule,
                                  cross_variation, delta_increments,
                                  estimate_log_drift, gbm_terminal_log_rates,
                                  ito_residual, normal_blocks, normal_samples,
                                  quadratic_variation, sample_brownian,
                                  sample_brownian_batch, simulate_gbm,
                                  telescoped_sum)


# -- partitions and sampling -----------------------------------------------------

def test_partition_validation():
    with pytest.raises(PreconditionError):
        Partition(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(PreconditionError):
        Partition(np.array([0.0]))
    part = Partition.uniform(2.0, 4)
    assert part.mesh == pytest.approx(0.5)
    assert part.n == 4


def test_partition_refine_doubles_steps():
    part = Partition.uniform(1.0, 3)
    fine = part.refine(2)
    assert fine.n == 6
    assert np.allclose(fine.times[::2], part.times)


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
])
def test_normal_blocks_match_jumped_streams_bit_for_bit(seed, count, streams):
    rows = drawn_blocks(seed, count, streams)
    for stream, row in rows:
        assert row.tobytes() == reference_normals(seed, count, stream).tobytes()
    stream, row = rows[-1]
    assert normal_samples(seed, count, stream).tobytes() == row.tobytes()


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


def test_brownian_batch_rows_match_reference_paths_across_blocks():
    batch = sample_brownian_batch(1.0, 1000, 70, seed=2**128 - 1)
    sq = np.sqrt(Partition.uniform(1.0, 1000).deltas)
    for i in (0, 1, 63, 64, 65, 69):
        ref = np.concatenate(([0.0], np.cumsum(reference_normals(2**128 - 1, 1000, i) * sq)))
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
                                              (100, 700, 1), (1000, 70, 2**128 - 1)])
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
        assert w.terminal == pytest.approx(values[1000 * i], rel=1e-12)


# -- delta increments ------------------------------------------------------------

def test_constant_path_increments_vanish():
    part = Partition.uniform(1.0, 8)
    path = DiscretePath(part, np.full(9, 4.2))
    assert np.all(delta_increments(path) == 0.0)
    assert telescoped_sum(path) == 0.0


def test_telescoping_identity():
    w = sample_brownian(1.0, 1000, seed=2)
    total = telescoped_sum(w)
    assert total == pytest.approx(w.values[-1] - w.values[0], rel=1e-12, abs=1e-15)


def test_telescoping_invariant_under_refinement():
    fine = sample_brownian(1.0, 64, seed=6)
    coarse = DiscretePath(Partition(fine.partition.times[::4]), fine.values[::4])
    assert telescoped_sum(coarse) == pytest.approx(telescoped_sum(fine), rel=1e-12)


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


def test_cross_variation_vanishes():
    n = 20_000
    bound = 3 * math.sqrt(1.0 * n * (1.0 / n) ** 2)  # 3 * sqrt(T * sum(dt^2))
    for i in range(5):
        w = sample_brownian(1.0, n, seed=13, stream=i)
        assert abs(cross_variation(w)) <= bound


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
    assert path.terminal == math.exp(0.1)
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
    lo, hi = est.interval
    assert lo <= target <= hi


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
    lo, hi = est.interval
    assert lo <= 0.0 <= hi  # alpha = sigma^2 / 2


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
