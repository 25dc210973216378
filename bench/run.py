"""The deltasite benchmark: one workload per run, single-threaded, closed loop.

    python3 bench/run.py --workload lattice6 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

One client issues the ops of a pass back to back with no think time; each op
is an in-process `deltasite.cli.main(argv)` call or a public library call.
A run measures set-up, then times a fixed number of passes.  Between ops it
times a fixed calibration loop and reports end-to-end times in reference
seconds, scaled by that loop, so that the shared host's changing speed
cancels out.  The first output of every op is checked against its
expectations, and every later output must repeat it byte for byte.  With --trace 1 it times half
the passes untraced and half with spans around every public function of the
program, and reports per-layer self times and counters instead.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  Exit code 0 means the run completed, even with failed ops;
anything else means the benchmark could not run.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from hashlib import sha256
from pathlib import Path

from spans import HARNESS, LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
DEFAULT_SEED = 0
WORKLOADS = ("lattice6", "fixtures", "paths-wide", "paths-long")

# Seconds one pass takes on the reference machine (README.md).  A run's pass
# count is fixed from --seconds and these, so two commits time the same work
# and pool the same number of op samples: the tail percentile then means the
# same thing on both sides of a comparison.
NOMINAL_PASS_S = {"lattice6": 5.5, "fixtures": 0.35, "paths-wide": 0.45, "paths-long": 6.5}
SETUP_RUNS = 9

# The host is shared and its speed moves in phases of seconds to minutes
# (README.md, Machine and noise).  A fixed calibration loop, timed between
# the ops, tracks that speed: every timing is scaled by CAL_REF_S over the
# loop's latest time, which gives it in reference seconds, the time it would
# have taken on a host where the loop takes CAL_REF_S (about its median on
# the reference machine).
CAL_REF_S = 0.03
CAL_EVERY_S = 0.5
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import deltasite, deltasite.cli; deltasite.cli.build_parser()")

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"), ("work_per_s", "1/s"))

# Per-layer metrics of a traced run, per traced pass.  Span names are
# layer.function (layer.method for methods).
SELF_TIMES = (
    "cli.main", "cli.build_parser", "model_io.load_model", "reports.render",
    "categories.check_axioms", "categories.full_subcategory",
    "categories.connected_components", "events.product",
    "filtration.check_operad_action", "filtration.check_sigma_level",
    "sites.build_tau_structural", "sites.build_tau_P", "sites.build_tau_operadic",
    "sites.verify_grothendieck", "sites.verify_filtered",
    "roofs.verify_roof_category", "roofs.build_structural_roof_topology",
    "sheaves.constant_presheaf", "sheaves.check_sheaf_condition",
    "sheaves.transversal_cone_check", "stochastic.normal_samples",
    "stochastic.sample_brownian", "stochastic.sample_brownian_batch",
    "stochastic.gbm_terminal_log_rates", "stochastic.check_product_rule",
    "stochastic.estimate_log_drift", "stochastic.quadratic_variation",
    "stochastic.ito_residual", "tropical.tropicalize_log_sde",
)
# Inclusive times, where a self time alone would hide the work in children
# (load_model parses, render serialises, product validates what it builds).
TOTAL_TIMES = ("cli.main", "model_io.load_model", "reports.render", "events.product",
               "sites.verify_filtered", "tropical.tropicalize_log_sde")
CALLS = ("cli.main", "cli.build_parser", "categories.check_axioms",
         "categories.connected_components", "categories.is_isomorphism",
         "categories.morphisms_into", "events.product", "sites.verify_grothendieck",
         "stochastic.normal_samples")
COUNTERS = (
    ("model_io.load_model.bytes", "B"), ("reports.render.bytes", "B"),
    ("reports.records", "count"), ("categories.morphisms", "count"),
    ("categories.composable_pairs", "count"), ("categories.composable_triples", "count"),
    ("categories.pullbacks", "count"), ("sites.records.isomorphisms-cover", "count"),
    ("sites.records.base-change", "count"), ("sites.records.composition", "count"),
    ("sites.records.level-monotone", "count"), ("roofs.records", "count"),
    ("stochastic.draws", "count"),
)


def per_layer_spec() -> list[tuple[str, str]]:
    return ([(f"{n}.self_s", "s") for n in SELF_TIMES]
            + [(f"{n}.total_s", "s") for n in TOTAL_TIMES]
            + [("tropical.series.self_s", "s")]
            + [(f"{n}.calls", "count") for n in CALLS]
            + list(COUNTERS)
            + [("events.product.per_base_change", "ratio"),
               ("stochastic.draws_per_stream", "count")]
            + [(f"{layer}.self_s", "s") for layer in (*LAYERS, "bench")]
            + [("trace.pass_s", "s"), ("trace.overhead_ratio", "ratio"),
               ("trace.self_sum_ratio", "ratio")])


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def import_program():
    """Put the checkout's src/ first on the path and import deltasite from it."""
    if not (SRC / "deltasite" / "__init__.py").is_file():
        raise SystemExit(f"error: no deltasite sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import deltasite
    if Path(deltasite.__file__).resolve().parent != (SRC / "deltasite").resolve():
        raise SystemExit(f"error: imported deltasite from {deltasite.__file__}, not {SRC}")


class HostClock:
    """Times the calibration loop at most every CAL_EVERY_S and gives the
    factor that turns wall seconds into reference seconds."""

    def __init__(self):
        import numpy as np
        self.times: list[float] = []
        self.last = -math.inf
        self.doc = {"objects": [{"name": f"o{i}", "weight": i / 7,
                                 "tags": [str(j) for j in range(i % 9)]}
                                for i in range(2000)]}
        self.sets = [frozenset(c) for r in range(7)
                     for c in itertools.combinations("abcdefgh", r)]
        # 8 MB in all, more than the L2 cache, allocated once so that the
        # run's peak RSS moves by a constant.
        self.array = np.random.default_rng(0).standard_normal(500_000)
        self.buffer = np.empty_like(self.array)

    def calibration_loop(self):
        """Fixed work from outside the program, of the kinds the workloads
        do: building an argparse parser, a JSON round trip, frozenset
        algebra and NumPy passes over an array.  Pure-Python and NumPy parts
        each track the host's speed better for one kind of workload."""
        import numpy as np
        for _ in range(3):
            parser = argparse.ArgumentParser()
            commands = parser.add_subparsers(dest="command")
            for c in range(12):
                command = commands.add_parser(f"c{c}")
                for a in range(8):
                    command.add_argument(f"--a{a}", default=str(a))
            parser.parse_args(["c3", "--a1", "x"])
        json.loads(json.dumps(self.doc))
        n = 0
        for a in self.sets[:120]:
            for b in self.sets[::3]:
                if a <= b:
                    n += len(a | b)
        for _ in range(4):
            np.cumsum(self.array, out=self.buffer)
            self.array.dot(self.buffer)
        np.copyto(self.buffer, self.array)
        self.buffer[:200_000].sort()
        return n

    def scale(self) -> float:
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            start = time.perf_counter()
            self.calibration_loop()
            self.last = time.perf_counter()
            self.times.append(self.last - start)
        return CAL_REF_S / self.times[-1]


def measure_setup(clock: HostClock) -> float:
    """Median time, in reference seconds, of a fresh interpreter importing
    deltasite and building the CLI parser, which every CLI invocation pays."""
    times, scales = [], []
    for _ in range(SETUP_RUNS):
        scales.append(clock.scale())
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * statistics.median(scales)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, and never below the median."""
    import numpy as np
    p = max(50.0, 100.0 * (1 - 10 / len(samples)))
    return p, float(np.percentile(samples, p))


class Run:
    """The state of one workload run: its ops, reference outputs and tallies."""

    def __init__(self, workload, seed: int, expected: dict | None, exact: bool):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.exact = exact
        self.attempted = 0
        self.failed = 0
        # Per op: (exit code, sha256) of its first output, and its description.
        self.reference: list[tuple[int, str] | None] = []
        self.described: list[dict | None] = []

    def fail(self, op, message: str):
        self.failed += 1
        log(f"FAILED {self.workload.name} {op.name}: {message}")

    def first_output(self, op, code: int, out: bytes):
        """Check an op's first output against the op's own expectations and
        the committed ones; it becomes the reference for later passes."""
        from workloads import describe
        desc, problems = describe(op, code, out)
        problems += compare(op, desc, self.expected, self.exact)
        for p in problems:
            log(f"  {op.name}: {p}")
        if problems:
            self.fail(op, f"{len(problems)} problems")
        self.reference.append((code, desc["sha256"]))
        self.described.append(desc)

    def timed_pass(self, runs, clock: HostClock) -> tuple[list[float], float]:
        """One pass over the ops; returns per-op latencies in reference
        seconds and the pass's wall time (output checks happen outside the
        timed calls)."""
        # Every pass starts from a collected heap, as a fresh CLI process would.
        gc.collect()
        first = not self.reference
        latencies, wall = [], 0.0
        for i, (op, run) in enumerate(zip(self.workload.ops, runs)):
            self.attempted += 1
            scale = clock.scale()
            start = time.perf_counter()
            try:
                code, out = run()
                elapsed = time.perf_counter() - start
            except Exception:
                elapsed = time.perf_counter() - start
                code, out = None, None
                self.fail(op, traceback.format_exc())
                if first:
                    self.reference.append(None)
                    self.described.append(None)
            latencies.append(elapsed * scale)
            wall += elapsed
            if code is None:
                continue
            if first:
                self.first_output(op, code, out)
            elif (code, sha256(out).hexdigest()) != self.reference[i]:
                self.fail(op, "output differs from the first pass")
        return latencies, wall


def compare(op, desc: dict, expected: dict | None, exact: bool) -> list[str]:
    """Differences from the committed expectations.  Records per check id
    hold for every seed; exit code and summary wherever the verdict is
    deterministic; the report digest where the inputs are the committed ones."""
    if expected is None:
        return []
    want = expected["ops"].get(op.name)
    if want is None:
        return ["no committed expectation"]
    keys = ["checks"] + (["exit", "summary"] if op.exit is not None else [])
    keys += ["sha256"] if exact else []
    return [f"{k} {desc[k]} != committed {want[k]}" for k in keys if desc[k] != want[k]]


def load_expected(name: str) -> dict | None:
    if not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(name)


def write_expected(run: Run):
    doc = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    doc[run.workload.name] = {
        "seed": run.seed,
        "ops": {op.name: desc for op, desc in zip(run.workload.ops, run.described)}}
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def detail(run: Run, samples: list[float]) -> dict:
    """Sizes and counts that let a timing be read per case."""
    ops = run.workload.ops
    checks = Counter()
    for desc in run.described:
        if desc:
            checks.update(desc["checks"])
    out = {
        "workload": run.workload.name, "seed": run.seed,
        "ops_per_pass": len(ops),
        "sizes": run.workload.sizes,
        "records_per_check": dict(sorted(checks.items())),
        "records_per_pass": sum(d["summary"]["total"] for op, d in zip(ops, run.described)
                                if d and op.report),
        "streams_per_pass": sum(op.streams for op in ops),
        "draws_per_pass": sum(op.draws for op in ops),
        # One digest over every op's output, in op-name order.
        "outputs_sha256": sha256(" ".join(
            f"{op.name}={d['sha256'] if d else None}"
            for op, d in sorted(zip(ops, run.described), key=lambda x: x[0].name)
        ).encode()).hexdigest(),
        "op_samples": len(samples),
    }
    return out


def end_to_end(run: Run, setup_s: float, passes: list[tuple[list[float], float]],
               info: dict) -> dict:
    """The end-to-end metrics from the untraced passes, in reference seconds."""
    ops = run.workload.ops
    samples = [x for lat, _ in passes for x in lat]
    pct, tail_s = tail(samples)
    pass_s = statistics.median(sum(lat) for lat, _ in passes)
    # The median op's median latency.  The ops of a pass differ in kind, so
    # the pooled median would fall in a gap between two kinds' clusters and
    # average their extremes; per-op medians do not.
    p50_s = statistics.median(statistics.median(lat[i] for lat, _ in passes)
                              for i in range(len(ops)))
    if info["draws_per_pass"]:
        work = info["draws_per_pass"] / pass_s
        info["draws_per_s"], info["cases_per_s"] = work, None
    else:
        model_s = statistics.median(sum(x for op, x in zip(ops, lat) if op.model)
                                    for lat, _ in passes)
        work = sum(d["summary"]["total"] for op, d in zip(ops, run.described)
                   if d and op.model) / model_s
        info["cases_per_s"], info["draws_per_s"] = work, None
    info["op_tail_percentile"] = pct
    info["failed_ratio"] = run.failed / run.attempted
    info["pass_times_s"] = [sum(lat) for lat, _ in passes]
    info["pass_wall_s"] = [wall for _, wall in passes]
    return {"setup_s": setup_s, "pass_s": pass_s,
            "op_p50_ms": p50_s * 1e3, "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "work_per_s": work}


def per_layer(tracer, traced_passes: list[tuple[list[float], float]],
              untraced_pass_s: float) -> dict:
    """Per-layer metrics of the traced passes.  Span times are wall seconds,
    so the traced pass they are set against is too."""
    n_passes = len(traced_passes)
    traced_wall = [wall for _, wall in traced_passes]
    stats, counters = tracer.stats, tracer.counters
    layer_self = tracer.layer_self()
    out = {f"{n}.self_s": stats[n][2] / n_passes for n in SELF_TIMES}
    out.update({f"{n}.total_s": stats[n][1] / n_passes for n in TOTAL_TIMES})
    # Everything tropical outside tropicalize_log_sde serves the series command.
    out["tropical.series.self_s"] = (layer_self.get("tropical", 0.0)
                                     - stats["tropical.tropicalize_log_sde"][1]) / n_passes
    out.update({f"{n}.calls": stats[n][0] / n_passes for n in CALLS})
    out.update({n: counters[n] / n_passes for n, _ in COUNTERS})
    base_changes = counters["sites.records.base-change"]
    out["events.product.per_base_change"] = (stats["events.product"][0] / base_changes
                                             if base_changes else 0.0)
    streams = stats["stochastic.normal_samples"][0]
    out["stochastic.draws_per_stream"] = counters["stochastic.draws"] / streams if streams else 0.0
    out.update({f"{layer}.self_s": layer_self.get(layer, 0.0) / n_passes
                for layer in (*LAYERS, "bench")})
    program_self = sum(v for k, v in layer_self.items() if k != "bench")
    out["trace.pass_s"] = statistics.median(traced_wall)
    # The traced and untraced halves of a run meet different phases of the
    # host, so the overhead compares them in reference seconds.
    out["trace.overhead_ratio"] = (statistics.median(sum(lat) for lat, _ in traced_passes)
                                   / untraced_pass_s)
    out["trace.self_sum_ratio"] = program_self / sum(traced_wall)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    import workloads

    clock = HostClock()
    setup_s = measure_setup(clock)
    n_passes = max(1, round(seconds / NOMINAL_PASS_S[name]))
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        workload = workloads.BUILDERS[name](seed, Path(tmp))
        expected = None if record else load_expected(name)
        exact = expected is not None and (not workload.seeded_outputs
                                          or expected["seed"] == seed)
        run = Run(workload, seed, expected, exact)
        plain = [op.run for op in workload.ops]
        if not trace:
            passes = [run.timed_pass(plain, clock) for _ in range(n_passes)]
        else:
            half = max(1, n_passes // 2)
            passes = [run.timed_pass(plain, clock) for _ in range(half)]
            tracer = Tracer()
            tracer.install()
            try:
                traced = [tracer.wrap(op.run, HARNESS) for op in workload.ops]
                traced_passes = [run.timed_pass(traced, clock) for _ in range(half)]
            finally:
                restored = tracer.uninstall()
            log(f"trace: {restored} attributes patched and restored")
    if record:
        write_expected(run)
    samples = [x for lat, _ in passes for x in lat]
    info = detail(run, samples)
    metrics = end_to_end(run, setup_s, passes, info)
    info["calibration_s"] = statistics.median(clock.times)
    info["calibrations"] = len(clock.times)
    if trace:
        info["untraced_pass_s"] = metrics["pass_s"]
        metrics = per_layer(tracer, traced_passes, metrics["pass_s"])
        traced_pass_s = metrics["trace.pass_s"]
        if name == "lattice6":
            # Layer self times must account for the traced pass up to the
            # cost tracing adds (at least 5%, so pass-to-pass noise that
            # hides the overhead does not fail the check).
            gap = traced_pass_s * abs(1 - metrics["trace.self_sum_ratio"])
            overhead = traced_pass_s * (1 - 1 / metrics["trace.overhead_ratio"])
            allowed = max(overhead, 0.05 * traced_pass_s)
            info["self_sum_gap_s"], info["self_sum_allowed_s"] = gap, allowed
            run.attempted += 1
            if gap > allowed:
                run.failed += 1
                log(f"FAILED layer self times miss {gap:.4f} s of the traced pass "
                    f"(allowed {allowed:.4f} s)")
        spec = per_layer_spec()
    else:
        spec = END_TO_END
    print("detail: " + json.dumps(info, sort_keys=True))
    for key, unit in spec:
        print(f"  {key:<42} {metrics[key]:>16.6f} {unit}")
    if not trace:
        print(f"  {'cases_per_s':<42} {info['cases_per_s']!s:>16} 1/s")
        print(f"  {'draws_per_s':<42} {info['draws_per_s']!s:>16} 1/s")
        print(f"  op_tail_ms is p{info['op_tail_percentile']:.2f} of {len(samples)} samples; "
              f"failed_ratio {run.failed}/{run.attempted} = {info['failed_ratio']}")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in spec}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's outputs as the committed expectations "
                             "(use with the default seed)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_program()
    if args.workload == "all":
        # One process per workload, so each peak RSS is its own.
        results = {}
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.splitlines()
            print(f"== {name}")
            print("\n".join(lines[:-1]))
            results[name] = json.loads(lines[-1])
        print(json.dumps(results))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.write_expected)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
