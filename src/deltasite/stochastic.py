"""Discrete Brownian paths on partitions, the delta operator, and the
verdicts of the sampling commands.

Sampling is reproducible across platforms: a counter-based Philox generator
supplies raw 64-bit words, which become uniforms in (0,1) via
(raw >> 11) * 2^-53 + 2^-54 and normals via the exact quantile function
(scipy's ndtri).  Stream i of seed s starts at Philox counter [0, 0, i, 0]
under key [s mod 2^64, s >> 64], and batches of streams are drawn in
bounded blocks, so per-path results never depend on batch layout.

Every reduction over sampled values is the correctly rounded sum, equal to
math.fsum bit for bit, so no report depends on summation order.  It is
computed in whole-array passes by error-free extraction (_exact_sums), with
math.fsum itself for short arrays and for rows that are not finite, sum to
zero or span an extreme exponent range.  A reduction takes a DiscretePath
of one path (a float) or of a block of rows (one float64 per row, bit-equal
to that row's own call).  Only ito_residual's end points f(T, W_T) - f(0, W_0)
go row by row, on scalars: NumPy's vectorised power differs from pow in the last bit.

Ownership: each float block that normal_blocks yields, and each values block
of brownian_blocks, is a fresh array that belongs to the consumer, which may
scale it in place or keep it.  normal_blocks keeps no buffer of words:
NumPy's Generator.random writes (raw >> 11) * 2^-53 of each word straight
into the block.  A reduction never writes to its argument: it works in
arrays it allocated itself.

Lanes: a block of SPLIT_BLOCK_VALUES values or more is made in two lanes
at once, the first half on the calling thread and the second on the
process's one worker thread, started on first use.  Where its rows hold
SPLIT_VALUES values or more, each lane fills its half: a block of several
rows is split by rows, one row by columns at a multiple of 4, where Philox's
counter steps, and each lane owns a Philox generator and its state, made per
normal_blocks call (the state a dict of plain lists, which the setter reads
fastest).  Shorter rows spend most of their time in the per-stream Python
loop, which two threads cannot run at once, so the caller draws the
uniforms of every row and the two lanes then turn half of the rows each
into normals.  Either way each lane writes in place in its own slice of the
fresh block; the calling thread waits for the worker before it yields the
block, so between blocks the worker only waits.  The worker runs only NumPy
and SciPy, never a public function of the package, and its errors are
raised in the caller.  A value depends only on the seed, its stream and its
word's place, so no value depends on the number of CPUs: on one CPU, and
for smaller blocks, one lane on the calling thread fills the whole block.

Verdicts: simulate and verify_ito return the records of the commands of
those names as a Report, from the commands' flag values, so their stream
layout, seed bound and bands live here alone: verify_ito draws its pairs,
quadratic variations and w2 path from seed, the Ito trend from seed + 1 and
the log drift from seed + 2.  Bad parameters raise PreconditionError.  Each
verdict, and the cone check of `sheaves`, sets NumPy's float traps itself
(float_traps) and restores the caller's, so a library call fails where its
command exits 2: a computation that leaves the float range raises there.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import PreconditionError
from .reports import Report

# Values per sampling block, unless one row is longer.
BLOCK_VALUES = 1 << 16
# A block of SPLIT_BLOCK_VALUES values or more is made in two lanes (below
# that, handing half to the worker costs about what it saves); both lanes
# draw words only where each row holds at least SPLIT_VALUES values (shorter
# rows spend most of their time in per-stream Python, which two threads
# cannot run at once), and otherwise only make normals.
SPLIT_VALUES = 1000
SPLIT_BLOCK_VALUES = 1 << 14
# (pid, executor) of the worker thread that process started (see _lane_worker)
_WORKER = None


def float_traps(**overrides) -> np.errstate:
    """NumPy's float traps of the sampled verdicts, `overrides` aside: overflow,
    an invalid operation and division by zero raise; underflow is ignored."""
    return np.errstate(**dict(over="raise", invalid="raise", divide="raise", under="ignore")
                       | overrides)


def normal_cdf(x: float) -> float:
    # scipy.special is imported on first use, here and where normals are made: it is
    # most of the package's import time, and only sampling and the cone check need it
    from scipy.special import ndtr
    return float(ndtr(x))


def normal_blocks(seed: int, count: int, streams):
    """Standard normals for many streams of one seed, in bounded blocks.

    Yields (streams[a:b], block) with block of shape (b - a, count): row r is
    stream streams[a + r], from the documented Philox + inverse-CDF
    transform, so its first k values are normal_blocks(seed, k, ...)'s row.
    A block holds at most BLOCK_VALUES values, or one row when it is longer.
    Large blocks are made in two lanes (see the module docstring).  The
    seed must fit the 128-bit key.
    """
    import scipy.special  # on the calling thread, before a lane needs it
    if not 0 <= seed < 2**128:
        raise PreconditionError(f"seed must lie in [0, 2**128), got {seed}")
    rows = max(1, BLOCK_VALUES // max(count, 1))
    worker = None
    if len(streams) * count >= SPLIT_BLOCK_VALUES:
        worker = _lane_worker()  # then the first block, at least, splits
    long_rows = count >= SPLIT_VALUES
    lanes = [_lane(seed) for _ in range(1 + (worker is not None and long_rows))]
    for start in range(0, len(streams), rows):
        part = streams[start:start + rows]
        block = np.empty((len(part), count))
        half = (len(part) + 1) // 2  # the caller takes the odd row
        if worker is None or block.size < SPLIT_BLOCK_VALUES:
            _fill_lane(lanes[0], part, 0, block)
        elif not long_rows:
            # the per-stream loop holds the GIL: the caller draws every row,
            # then both threads turn half of them into normals
            _uniforms(lanes[0], part, 0, block)
            _two_lanes(worker, _normals, (block[:half],), (block[half:],))
        elif len(part) > 1:
            _two_lanes(worker, _fill_lane, (lanes[0], part[:half], 0, block[:half]),
                       (lanes[1], part[half:], 0, block[half:]))
        else:
            cut = count // 8 * 4  # a multiple of 4: a Philox counter step
            _two_lanes(worker, _fill_lane, (lanes[0], part, 0, block[:, :cut]),
                       (lanes[1], part, cut, block[:, cut:]))
        yield part, block


def _two_lanes(worker, function, head, tail):
    """function(*head) on the calling thread and function(*tail) on the
    worker, at once."""
    future = worker.submit(function, *tail)
    try:
        function(*head)
    finally:
        future.result()  # waits for the worker, and raises its error here


def _lane(seed: int):
    """(generator, state, uniforms) of one lane, at counter 0 with an empty
    buffer.  The state dict holds plain lists and ints, not the getter's
    arrays: the setter reads them in less than half the time."""
    seed = int(seed)
    bg = np.random.Philox(key=seed)
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": [seed % 2**64, seed >> 64]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return bg, state, np.random.Generator(bg).random


def _fill_lane(lane, streams, first: int, out: np.ndarray):
    """Row r of out: the normals of stream streams[r] from its word first on
    (a multiple of 4), through the lane's own generator and state.  It runs
    on either thread, so it calls only NumPy and SciPy."""
    _uniforms(lane, streams, first, out)
    _normals(out)


def _uniforms(lane, streams, first: int, out: np.ndarray):
    """Row r of out: (raw >> 11) * 2**-53 of each word of stream streams[r]
    from its word first on, written in place."""
    bg, state, uniforms = lane
    counter = state["state"]["counter"]
    counter[0] = first // 4  # Philox makes 4 words per counter value
    for row, stream in zip(out, streams):
        counter[2] = stream
        bg.state = state
        uniforms(out=row)


def _normals(out: np.ndarray):
    """The uniforms of _uniforms in out, shifted by 2**-54 and turned into
    normals in place.  NumPy and SciPy release the GIL here."""
    from scipy.special import ndtri
    out += 2.0**-54
    ndtri(out, out=out)


def _lane_worker():
    """The executor of this process's one worker thread, started on first
    use (again in a forked child, whose copy of it has no thread), or None
    where the process may run on one CPU only."""
    global _WORKER
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2:
        return None
    if _WORKER is None or _WORKER[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        # two threads that race here may each make one; the spare one ends
        # with its caller's call
        _WORKER = (os.getpid(), ThreadPoolExecutor(1, "deltasite-lane"))
    return _WORKER[1]


def normal_samples(seed: int, count: int, stream: int = 0) -> np.ndarray:
    """Standard normals of one stream, from the documented Philox +
    inverse-CDF transform (see normal_blocks)."""
    (_, block), = normal_blocks(seed, count, (stream,))
    return block[0]


@dataclass(eq=False)
class Partition:
    """Strictly increasing time grid t_0 < ... < t_n."""

    times: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise PreconditionError("a partition needs at least two times")
        if not np.all(np.diff(self.times) > 0):
            raise PreconditionError("partition times must be strictly increasing")

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.times)

    @staticmethod
    def uniform(T: float, n: int) -> "Partition":
        if T <= 0 or n < 1:
            raise PreconditionError("need T > 0 and n >= 1")
        return Partition(np.linspace(0.0, T, n + 1))


@dataclass(eq=False)
class DiscretePath:
    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != self.partition.times.size:
            raise PreconditionError("path length does not match its partition")

    def unwrap(self, per_row: np.ndarray):
        """per_row, one value per row: a Python float for a path."""
        return float(per_row[0]) if self.values.ndim == 1 else per_row


@dataclass(frozen=True)
class GBMParams:
    alpha: float
    sigma: float
    x0: float
    T: float
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise PreconditionError("sigma must be >= 0")
        if self.x0 <= 0:
            raise PreconditionError("x0 must be > 0")
        if self.n < 1 or self.T <= 0:
            raise PreconditionError("need n >= 1 and T > 0")
        # sigma*sigma is inf where sigma ** 2 would raise OverflowError
        drift = self.alpha - 0.5 * self.sigma * self.sigma
        if not math.isfinite(drift * self.T):
            raise PreconditionError(f"drift (alpha - sigma^2/2) times T is not finite: "
                                    f"{drift * self.T!r}")

    @property
    def drift(self) -> float:
        """The log drift alpha - sigma^2/2."""
        return self.alpha - 0.5 * self.sigma ** 2


def sample_brownian(T: float, n: int, seed: int = 0, stream: int = 0) -> DiscretePath:
    """Standard Brownian path on the uniform grid: W_0 = 0, independent
    normal increments with variance equal to the step: the one row of
    brownian_blocks(Partition.uniform(T, n), seed, (stream,)), on that grid."""
    grid = Partition.uniform(T, n)
    (_, values), = brownian_blocks(grid, seed, (stream,))
    return DiscretePath(grid, values[0])


def brownian_blocks(grid: Partition, seed: int, streams):
    """Brownian paths of many streams on grid, in the blocks of
    normal_blocks: yields (streams[a:b], values) where row r of values is the
    path of stream streams[a + r]; on a uniform grid of T and n steps it
    reproduces sample_brownian(T, n, seed, streams[a + r]).values."""
    sq = grid.deltas
    np.sqrt(sq, out=sq)
    for part, block in normal_blocks(seed, sq.size, streams):
        yield part, _paths(block, sq)


def _paths(normals: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Rows of Brownian paths from rows of normals: W_0 = 0, then the
    cumulative sums of the normals scaled by sq, the square roots of the
    steps, made in the one array returned."""
    values = np.empty((len(normals), normals.shape[1] + 1))
    values[:, 0] = 0.0
    steps = values[:, 1:]
    np.multiply(normals, sq, out=steps)
    np.cumsum(steps, axis=1, out=steps)
    return values


def sample_brownian_batch(T: float, n: int, n_paths: int, seed: int = 0) -> np.ndarray:
    """(n_paths, n+1) array of Brownian paths; row i reproduces
    sample_brownian(T, n, seed, stream=i)."""
    out = np.empty((n_paths, n + 1))
    for part, values in brownian_blocks(Partition.uniform(T, n), seed, range(n_paths)):
        out[part.start:part.stop] = values
    return out


def _exact_sums(a) -> np.ndarray:
    """Each row's sum, equal to math.fsum(row) bit for bit.

    a is a 2-D float64 array, or a 1-D one read as one row.  Error-free
    vector extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation", SIAM J. Sci. Comput. 31, 2008): while the n values of a row
    p lie below sigma * 2**-w, with sigma a power of two and 2**w >= n + 2,
    q = (sigma + p) - sigma holds multiples of ulp(sigma) / 2 whose sum
    stays within sigma, so np.sum adds them exactly in any order, and the
    remainder p - q is exact and at most ulp(sigma) / 2.  Each pass keeps
    one exact part and divides sigma by 2**(53 - w) (never below 2**-1000)
    until nothing remains; math.fsum rounds the few parts once.  Arrays of
    fewer than 1024 values, and rows that are not finite, sum to zero, need
    sigma above 2**1000 or more than 8 passes, go to math.fsum itself, which
    keeps its NaN, inf, overflow and signed-zero behaviour.
    """
    rows = np.atleast_2d(a)
    n = rows.shape[1]
    width = (n + 1).bit_length()  # 2**width >= n + 2
    sums = np.zeros(len(rows))
    fast = np.zeros(len(rows), dtype=bool)
    # on short arrays a direct fsum costs less than the passes' fixed cost;
    # rows of 2**27 values or more could carry the parts past sigma
    if rows.size >= 1024 and width <= 27:
        top = np.maximum(rows.max(axis=1), -rows.min(axis=1))
        exps = np.frexp(top)[1] + width  # top < 2**(exps - width)
        fast = np.isfinite(top) & (top > 0) & (exps <= 1000)
    if fast.any():
        p, exps = (rows, exps) if fast.all() else (rows[fast], exps[fast])
        q, rest = np.empty_like(p), np.empty_like(p)
        parts = []
        for _ in range(8):
            sigma = np.ldexp(1.0, np.maximum(exps, -1000))[:, None]
            np.add(sigma, p, out=q)
            q -= sigma
            parts.append(q.sum(axis=1))
            p = np.subtract(p, q, out=rest)
            left = p.any(axis=1)
            if not left.any():
                break
            exps -= 53 - width
        sums[fast] = [math.fsum(row) for row in zip(*(part.tolist() for part in parts))]
        fast[fast] = ~left
    for r in np.flatnonzero(~fast | (sums == 0)):
        sums[r] = math.fsum(rows[r].tolist())
    return sums


def check_product_rule(x: DiscretePath, y: DiscretePath):
    """Max residual of Delta(XY) - (X DeltaY + DeltaX Y + DeltaX DeltaY), per row.

    The identity is pathwise algebraic, so the residual is rounding noise;
    the cross term DeltaX DeltaY is exactly what stops the delta operator
    from being a derivation.
    """
    if x.values.shape != y.values.shape or \
            not np.array_equal(x.partition.times, y.partition.times):
        raise PreconditionError("paths must share a partition and a shape")
    xv, yv = np.atleast_2d(x.values), np.atleast_2d(y.values)
    x0, y0 = xv[:, :-1], yv[:, :-1]
    dx, dy = np.diff(xv), np.diff(yv)
    # X1 Y1 - X0 Y0 - ((X0 dY + dX Y0) + dX dY) in that order, in place
    lhs = xv[:, 1:] * yv[:, 1:]
    lhs -= x0 * y0
    rhs = x0 * dy
    dy *= dx
    dx *= y0
    rhs += dx
    rhs += dy
    lhs -= rhs
    return x.unwrap(np.abs(lhs, out=lhs).max(axis=1))


def quadratic_variation(path: DiscretePath):
    """Sum of squared increments over the partition."""
    return path.unwrap(_exact_sums(np.diff(path.values) ** 2))


_ITO_CATALOG = {
    # name -> (f(t, w), d/dt, d/dw, d2/dw2)
    "w2": (lambda t, w: w ** 2,
           lambda t, w: 0.0 * w,
           lambda t, w: 2.0 * w,
           lambda t, w: 2.0 + 0.0 * w),
    "w3": (lambda t, w: w ** 3,
           lambda t, w: 0.0 * w,
           lambda t, w: 3.0 * w ** 2,
           lambda t, w: 6.0 * w),
    "exp": (lambda t, w: np.exp(w - 0.5 * t),
            lambda t, w: -0.5 * np.exp(w - 0.5 * t),
            lambda t, w: np.exp(w - 0.5 * t),
            lambda t, w: np.exp(w - 0.5 * t)),
    "t": (lambda t, w: t + 0.0 * w,
          lambda t, w: 1.0 + 0.0 * w,
          lambda t, w: 0.0 * w,
          lambda t, w: 0.0 * w),
}


def _ito_terms(f: str):
    """f's entry (f, f_t, f_w, f_ww) of the catalog; an unknown f is refused."""
    if f not in _ITO_CATALOG:
        raise PreconditionError(f"unsupported function {f!r}; catalog: {sorted(_ITO_CATALOG)}")
    return _ITO_CATALOG[f]


def ito_residual(f: str, path: DiscretePath, quadratic_term: str = "time"):
    """Absolute gap between f(T, W_T) - f(0, W_0) and the second-order
    expansion summed over the partition, per row.

    quadratic_term selects the second-order weight: "time" uses
    (1/2) f_ww dt (the square of a Brownian increment replaced by the step),
    "increments" uses (1/2) f_ww (Delta_i W)^2 (the raw finite-difference
    expansion, exact for quadratic f).
    """
    func, dt_, dw_, dww_ = _ito_terms(f)
    if quadratic_term not in ("time", "increments"):
        raise PreconditionError("quadratic_term must be 'time' or 'increments'")
    t, w = path.partition.times, path.values
    t0, w0 = t[:-1], w[..., :-1]
    dts, dws = path.partition.deltas, np.diff(w)
    second = dts if quadratic_term == "time" else np.square(dws)
    # (f_t dt + f_w dW) + (0.5 f_ww) second in arrays made here, three at most at a
    # time with "time": a product or sum of two floats does not depend on operand order
    dws *= dw_(t0, w0)
    expansion = np.multiply(dt_(t0, w0), dts)
    expansion += dws
    expansion += np.multiply(np.multiply(0.5, dww_(t0, w0), out=dws), second, out=dws)
    del dws, second  # before _exact_sums allocates its two
    expansion = _exact_sums(expansion)
    # on scalars, row by row (see the module docstring)
    total = np.fromiter((func(t[-1], end) - func(t[0], start)
                         for start, end in zip(w[..., 0].flat, w[..., -1].flat)), float)
    return path.unwrap(np.abs(total - expansion))


def ito_residual_halving(f: str, T: float, n: int, seed: int, streams):
    """(coarse, fine): ito_residual(f, ...) of the Brownian path of each
    stream on the uniform grids of n and of 2n steps over [0, T], one value
    per stream in each array.

    Each stream is drawn once, 2n normals: its n-step path is built from the
    first n of them, which are the stream's n normals (see normal_blocks),
    so each array equals the residuals of brownian_blocks on its own grid.
    """
    _ito_terms(f)  # an unknown f is refused before any block is drawn
    coarse_grid, fine_grid = Partition.uniform(T, n), Partition.uniform(T, 2 * n)
    coarse_sq, fine_sq = np.sqrt(coarse_grid.deltas), np.sqrt(fine_grid.deltas)
    coarse, fine = [np.empty(0)], [np.empty(0)]
    for _, block in normal_blocks(seed, 2 * n, streams):
        coarse.append(ito_residual(f, DiscretePath(coarse_grid, _paths(block[:, :n], coarse_sq))))
        fine.append(ito_residual(f, DiscretePath(fine_grid, _paths(block, fine_sq))))
    return np.concatenate(coarse), np.concatenate(fine)


def simulate_gbm(p: GBMParams, stream: int = 0) -> DiscretePath:
    """Geometric Brownian motion by the exact lognormal scheme:
    X(t_i) = x0 * exp((alpha - sigma^2/2) t_i + sigma W(t_i)).

    No discretization bias: the log-drift of the simulated path is exactly
    alpha - sigma^2/2 in expectation at any step count.
    """
    w = sample_brownian(p.T, p.n, p.seed, stream)
    values = p.x0 * np.exp(p.drift * w.partition.times + p.sigma * w.values)
    return DiscretePath(w.partition, values)


def gbm_terminal_log_rates(p: GBMParams, n_paths: int) -> np.ndarray:
    """log(X_T / x0) / T for n_paths independent streams of one seed."""
    sq = Partition.uniform(p.T, p.n).deltas
    np.sqrt(sq, out=sq)
    w_T = np.empty(n_paths)
    for part, block in normal_blocks(p.seed, p.n, range(n_paths)):
        block *= sq
        w_T[part.start:part.stop] = _exact_sums(block)
    return (p.drift * p.T + p.sigma * w_T) / p.T


@dataclass(frozen=True)
class LogDriftEstimate:
    mean: float
    stderr: float


def estimate_log_drift(paths) -> LogDriftEstimate:
    """Sample mean and standard error of the log rates log(X_T/X_0)/T of
    >= 30 paths."""
    arr = np.fromiter(paths, dtype=float)
    if arr.size < 30:
        raise PreconditionError(f"need at least 30 paths, got {arr.size}")
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size))
    return LogDriftEstimate(mean, stderr)


def _positive_finite(label: str, value: float) -> float:
    """value, if it is a positive finite number; else a usage error."""
    if not (math.isfinite(value) and value > 0):
        raise PreconditionError(f"{label} is not a positive finite number: {value!r}")
    return value


def simulate(alpha: float, sigma: float, x0: float, T: float, steps: int, paths: int,
             seed: int) -> Report:
    """`deltasite simulate`: X_T and its log rate for one path; for more, the
    mean X_T and the log drift (its mean and, from 30 paths, its standard error)."""
    params = GBMParams(alpha, sigma, x0, T, steps, seed)
    report = Report()
    # an overflow shows up as a terminal value that is not positive and finite
    with float_traps(over="ignore", invalid="ignore"):
        if paths == 1:
            terminal = _positive_finite("terminal value X_T",
                                        float(simulate_gbm(params).values[-1]))
            report.add("terminal-value", f"X_T={terminal!r}", None)
            report.add("log-rate", f"{math.log(terminal / x0) / T!r}", None)
        else:
            rates = gbm_terminal_log_rates(params, paths)
            terminal_mean = _positive_finite(
                "mean terminal value", float(np.mean(x0 * np.exp(rates * T))))
            report.add("mean-terminal", f"{terminal_mean!r}", None)
            figures = (asdict(estimate_log_drift(rates)) if paths >= 30
                       else {"mean": float(np.mean(rates))})
            drift = " ".join(f"{name}={value!r}" for name, value in figures.items())
            if not all(map(math.isfinite, figures.values())):  # a spread that overflows
                raise FloatingPointError(f"log-drift {drift}")
            report.add("log-drift", drift, None)
    return report


def verify_ito(alpha: float, sigma: float, x0: float, T: float, steps: int, paths: int,
               seed: int) -> Report:
    """`deltasite verify-ito` on `paths` streams of `steps` steps: the product
    rule with its cross term, quadratic variation near T, Ito's formula for w2
    (exact) and w3 (shrinking with the mesh), and the simulated log drift."""
    # the trend draws from seed + 1 and the log drift from seed + 2
    if not 0 <= seed < 2**128 - 2:
        raise PreconditionError(f"seed must lie in [0, 2**128 - 2) on verify-ito, "
                                f"got {seed}")
    params = GBMParams(alpha, sigma, x0, T, max(1, steps // 10), seed + 2)
    pairs = min(paths, 100)
    report = Report()
    with float_traps():
        # One pass over the blocks of streams 0.. serves the product-rule pairs (2i, 2i+1),
        # the quadratic variation of the first `paths` streams and the w2 path (stream 0);
        # a block that starts at an odd stream pairs its first row with the last one before.
        part = Partition.uniform(T, steps)
        worst, qvs = 0.0, np.empty(paths)
        for streams, values in brownian_blocks(part, seed, range(max(paths, 2 * pairs))):
            start = streams.start
            paired = values[:max(0, 2 * pairs - start)]
            if start % 2 and len(paired):
                paired = np.concatenate((carried[None], paired))
            carried = values[-1]
            k = len(paired) // 2
            x, y = (DiscretePath(part, 1.0 + paired[j:2 * k:2]) for j in (0, 1))
            xy = x.values * y.values
            scale = np.maximum(np.abs(xy, out=xy).max(axis=1), 1.0)
            worst = float(np.max(check_product_rule(x, y) / scale, initial=worst))
            rows = values[:max(0, paths - start)]
            qvs[start:start + len(rows)] = quadratic_variation(DiscretePath(part, rows))
            if start == 0:
                w0 = DiscretePath(part, values[0])
        report.add("product-rule", f"max relative residual {worst!r}", worst <= 1e-10)

        # quadratic variation concentration
        band = 3.0 * math.sqrt(2.0 / steps) * T
        hits = int(np.count_nonzero(np.abs(qvs - T) <= band))
        report.add("quadratic-variation",
                   f"{hits}/{paths} paths within {band!r} of T", hits / paths >= 0.95)

        # Ito residual: quadratic case exact, cubic case shrinking with the mesh
        exact = ito_residual("w2", w0, quadratic_term="increments")
        scale = max(float(np.max(np.abs(w0.values))) ** 2, 1.0)
        report.add("ito-w2-exact", f"residual {exact!r}", exact <= 1e-10 * scale)
        # squared by the scalar pow, which NumPy's square differs from in the last bit
        halving = ito_residual_halving("w3", T, steps, seed + 1, range(pairs))
        squares = [[r ** 2 for r in residuals.tolist()] for residuals in halving]
        if min(map(max, squares)) >= sys.float_info.min:
            coarse, fine = (math.sqrt(math.fsum(mesh) / pairs) for mesh in squares)
            ratio = coarse / fine
            report.add("ito-w3-trend", f"RMS ratio per halving {ratio!r}", 1.15 <= ratio <= 1.85)
        else:  # a mesh whose squares are all subnormal or 0 keeps too few bits for a ratio
            report.add("ito-w3-trend", f"residuals underflow at T={T!r}", None)

        # log drift of the simulated SDE
        est = estimate_log_drift(gbm_terminal_log_rates(params, max(paths, 30)))
        target, three_se = params.drift, 3 * est.stderr
        # the rates are a rounding or two from the drift, so at sigma = 0, where
        # the band has no width, the mean may miss it by a few ulps
        slack = 32 * math.ulp(target)
        report.add("log-drift", f"mean={est.mean!r} target={target!r} 3se={three_se!r}",
                   est.mean - three_se - slack <= target <= est.mean + three_se + slack)
    return report
