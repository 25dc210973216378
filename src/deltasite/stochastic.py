"""Discrete Brownian paths on partitions and the delta operator.

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

Lanes: a block whose rows hold SPLIT_VALUES values or more, and which holds
SPLIT_BLOCK_VALUES values in all, is filled in two lanes at once, the first
half on the calling thread and the second on the process's one worker
thread, started on first use (a block of several rows is split by rows, one
row by columns at a multiple of 4, where Philox's counter steps).  Each lane
owns a Philox generator and its state, made per normal_blocks call, and
turns words into normals in place in its own slice of the fresh block; the
calling thread waits for the worker before it yields the block, so between
blocks the worker only waits.  The worker runs only NumPy and SciPy, never a
public function of the package, and its errors are raised in the caller.
A lane's values depend only on the seed, its streams and its first word, so
no value depends on the number of CPUs: on one CPU, and for smaller blocks,
one lane on the calling thread fills the whole block.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

# Values per sampling block, unless one row is longer.
BLOCK_VALUES = 1 << 16
# A block is filled in two lanes when each row holds at least SPLIT_VALUES
# values (shorter rows spend most of their time in per-stream Python, which
# two threads cannot run at once) and the block SPLIT_BLOCK_VALUES in all
# (below that, handing half to the worker costs about what it saves).
SPLIT_VALUES = 1000
SPLIT_BLOCK_VALUES = 1 << 14
# (pid, executor) of the worker thread that process started (see _lane_worker)
_WORKER = None


def normal_cdf(x: float) -> float:
    # scipy.special is imported on first use, here and where normals are made: it is
    # most of the package's import time, and only sampling and the cone check need it
    from scipy.special import ndtr
    return float(ndtr(x))


def normal_blocks(seed: int, count: int, streams):
    """Standard normals for many streams of one seed, in bounded blocks.

    Yields (streams[a:b], block) with block of shape (b - a, count): row r is
    stream streams[a + r], from the documented Philox + inverse-CDF
    transform.  A block holds at most BLOCK_VALUES values, or one row when
    it is longer.  Blocks of long rows are filled in two lanes (see the
    module docstring).  The seed must fit the 128-bit key.
    """
    import scipy.special  # on the calling thread, before a lane needs it
    if not 0 <= seed < 2**128:
        raise PreconditionError(f"seed must lie in [0, 2**128), got {seed}")
    rows = max(1, BLOCK_VALUES // max(count, 1))
    worker = None
    if count >= SPLIT_VALUES and len(streams) * count >= SPLIT_BLOCK_VALUES:
        worker = _lane_worker()  # then the first block, at least, splits
    lanes = []
    for _ in range(1 + (worker is not None)):
        # counter 0, empty buffer; the lane rewrites the counter for each stream
        bg = np.random.Philox(key=int(seed))
        lanes.append((bg, bg.state, np.random.Generator(bg).random))
    for start in range(0, len(streams), rows):
        part = streams[start:start + rows]
        block = np.empty((len(part), count))
        if worker is None or block.size < SPLIT_BLOCK_VALUES:
            _fill_lane(lanes[0], part, 0, block)
        else:
            # the caller fills the head and the worker the tail, at once
            if len(part) > 1:
                half = (len(part) + 1) // 2
                head, tail = (part[:half], 0, block[:half]), (part[half:], 0, block[half:])
            else:
                cut = count // 8 * 4  # a multiple of 4: a Philox counter step
                head, tail = (part, 0, block[:, :cut]), (part, cut, block[:, cut:])
            future = worker.submit(_fill_lane, lanes[1], *tail)
            try:
                _fill_lane(lanes[0], *head)
            finally:
                future.result()  # waits for the worker, and raises its error here
        yield part, block


def _fill_lane(lane, streams, first: int, out: np.ndarray):
    """Row r of out: the normals of stream streams[r] from its word first on
    (a multiple of 4), through the lane's own generator and state.  It runs
    on either thread, so it calls only NumPy and SciPy."""
    from scipy.special import ndtri
    bg, state, uniforms = lane
    counter = state["state"]["counter"]
    counter[0] = first // 4  # Philox makes 4 words per counter value
    for row, stream in zip(out, streams):
        counter[2] = stream
        bg.state = state
        uniforms(out=row)  # (raw >> 11) * 2**-53 of each word, in place
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

    @property
    def terminal(self):
        return self.unwrap(np.atleast_2d(self.values)[:, -1])


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
    n = grid.times.size - 1
    sq = grid.deltas
    np.sqrt(sq, out=sq)
    for part, block in normal_blocks(seed, n, streams):
        block *= sq
        values = np.empty((len(part), n + 1))
        values[:, 0] = 0.0
        np.cumsum(block, axis=1, out=values[:, 1:])
        yield part, values


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


def ito_residual(f: str, path: DiscretePath, quadratic_term: str = "time"):
    """Absolute gap between f(T, W_T) - f(0, W_0) and the second-order
    expansion summed over the partition, per row.

    quadratic_term selects the second-order weight: "time" uses
    (1/2) f_ww dt (the square of a Brownian increment replaced by the step),
    "increments" uses (1/2) f_ww (Delta_i W)^2 (the raw finite-difference
    expansion, exact for quadratic f).
    """
    if f not in _ITO_CATALOG:
        raise PreconditionError(f"unsupported function {f!r}; catalog: {sorted(_ITO_CATALOG)}")
    if quadratic_term not in ("time", "increments"):
        raise PreconditionError("quadratic_term must be 'time' or 'increments'")
    func, dt_, dw_, dww_ = _ITO_CATALOG[f]
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

    @property
    def interval(self) -> tuple[float, float]:
        """Three-standard-error band around the sample mean."""
        return (self.mean - 3 * self.stderr, self.mean + 3 * self.stderr)


def estimate_log_drift(paths) -> LogDriftEstimate:
    """Sample mean and standard error of the log rates log(X_T/X_0)/T of
    >= 30 paths."""
    arr = np.fromiter(paths, dtype=float)
    if arr.size < 30:
        raise PreconditionError(f"need at least 30 paths, got {arr.size}")
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size))
    return LogDriftEstimate(mean, stderr)
