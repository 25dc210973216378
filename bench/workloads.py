"""The benchmark's four workloads: inputs generated from a seed, the op list
of one pass, and what every op must produce.

An op is a zero-argument callable returning ``(exit_code, output_bytes)``.
CLI ops call ``cli.main(argv)`` in process with stdout captured; library ops
call a public function and serialise its result.  Every function of the
program is looked up on its module at call time, so the traced run sees the
wrappers it installs.

The program never sees the seed itself, only inputs drawn from it: atom
weights, an atom partition, Philox seeds and the order of the fixture ops.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from deltasite import cli, filtration, fixtures, model_io, stochastic
from spans import category_sizes

# Block sizes of the seeded atom partition that generates the middle level of
# lattice6.  The seed chooses which atoms share a block, never the sizes, so
# every seed gives isomorphic models with the same record counts.
LATTICE_BLOCKS = (2, 2, 1, 1)
SIGMA_ATOMS = "abcdefghi"
TOPOLOGIES = ("structural", "probability", "operadic")


@dataclass
class Op:
    name: str
    run: Callable[[], tuple[int, bytes]]
    # "json" or "text" for a CLI report, None for a library call.
    report: str | None = None
    # A model command: its records count towards cases_per_s.
    model: bool = False
    # Expected exit code.  None marks a statistical check whose verdict
    # depends on the seed: the exit code must then match the report.
    exit: int | None = 0
    # Check ids that must pass whatever the seed (deterministic identities).
    must_pass: tuple[str, ...] = ()
    # (instance, witness fragment) of the failing record a defect must name.
    planted: tuple[str, str] | None = None
    # Semantic check of a library op's output; returns (summary, problems).
    check: Callable[[bytes], tuple[dict, list[str]]] | None = None
    streams: int = 0
    draws: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # False when no output depends on the seed, so the committed digests
    # hold for every seed, not only the default one.
    seeded_outputs: bool = True
    sizes: dict = field(default_factory=dict)


# -- running ops ------------------------------------------------------------------


def cli_op(name: str, argv: list[str], **kw) -> Op:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue().encode("utf-8")

    return Op(name, run, report=fmt, **kw)


def parse_report(fmt: str, out: bytes) -> tuple[dict, list[tuple[str, str, str, str]]]:
    """Summary counts and (status, check, instance, witness) records."""
    text = out.decode("utf-8")
    if fmt == "json":
        doc = json.loads(text)
        return doc["summary"], [(r["status"], r["check"], r["instance"], r["witness"])
                                for r in doc["records"]]
    records = []
    for line in text.splitlines():
        if not line.startswith("["):
            continue
        status, rest = line[1:].split("] ", 1)
        rest, _, witness = rest.partition(" :: ")
        check, _, instance = rest.partition(" ")
        records.append((status, check, instance, witness))
    counts = Counter(r[0] for r in records)
    summary = {"pass": counts["pass"], "fail": counts["fail"],
               "info": counts["info"], "total": len(records)}
    return summary, records


def describe(op: Op, code: int, out: bytes) -> tuple[dict, list[str]]:
    """What an op produced, reduced to comparable facts, and every way in
    which it is wrong on its own terms."""
    problems = []
    if op.report is None:
        summary, problems = op.check(out)
        checks = {}
    else:
        summary, records = parse_report(op.report, out)
        checks = dict(sorted(Counter(r[1] for r in records).items()))
        failing = [r for r in records if r[0] == "fail"]
        want = op.exit if op.exit is not None else int(bool(failing))
        if code != want:
            problems.append(f"exit {code}, expected {want}")
        if code != int(bool(failing)):
            problems.append(f"exit {code} disagrees with {len(failing)} failing records")
        for status, check, instance, _ in records:
            if check in op.must_pass and status != "pass":
                problems.append(f"{check} {instance} is {status}")
        if op.planted and not any(op.planted[0] in r[2] and op.planted[1] in r[3]
                                  for r in failing):
            problems.append(f"planted defect {op.planted} not named")
    return {"exit": code, "summary": summary, "checks": checks,
            "sha256": hashlib.sha256(out).hexdigest()}, problems


# -- lattice6 -----------------------------------------------------------------------


def power_set(atoms) -> list[frozenset]:
    return [frozenset(c) for r in range(len(atoms) + 1)
            for c in itertools.combinations(atoms, r)]


def lattice_model(n: int, rng: random.Random, blocks=None):
    """Power-set lattice on n atoms over three base times: the trivial
    level, the level generated by a seeded atom partition, and the full
    power set.  Every level is sigma-closed, so every check passes."""
    atoms = "abcdefghijklmnopqrstuvwxyz"[:n]
    subsets = power_set(atoms)
    blocks = blocks or (2,) * (n // 2) + (1,) * (n % 2)
    shuffled = rng.sample(atoms, n)
    parts, start = [], 0
    for size in blocks:
        parts.append(frozenset(shuffled[start:start + size]))
        start += size
    middle = [frozenset().union(*c) for r in range(len(parts) + 1)
              for c in itertools.combinations(parts, r)]
    raw = [rng.randint(1, 1000) for _ in atoms]
    weights = {a: w / sum(raw) for a, w in zip(atoms, raw)}
    levels = [[frozenset(), frozenset(atoms)], middle, subsets]
    return fixtures.subset_model(atoms, subsets, levels, weights)


def check_sigma_output(expected_missing: int):
    def check(out: bytes):
        missing = json.loads(out)
        problems = [] if len(missing) == expected_missing else [
            f"{len(missing)} missing sets, expected {expected_missing}"]
        return {"missing": len(missing)}, problems
    return check


def sigma_op() -> Op:
    """check_sigma_level on the singletons of nine atoms: the closure is the
    whole power set, so 2^9 - 9 sets are missing.  Only the missing sets are
    serialised; the text of each reason depends on set iteration order."""
    ground = frozenset(SIGMA_ATOMS)

    def run():
        report = filtration.check_sigma_level([{a} for a in SIGMA_ATOMS], ground)
        missing = [sorted(s) for s, _ in report.missing]
        return 0, json.dumps(missing).encode()

    return Op("check_sigma_level:9", run,
              check=check_sigma_output(2 ** len(SIGMA_ATOMS) - len(SIGMA_ATOMS)))


def lattice6(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    model = lattice_model(6, rng, LATTICE_BLOCKS)
    path = workdir / "lattice6.json"
    path.write_text(model_io.serialize_model(model), encoding="utf-8")
    cli_seed = str(rng.randrange(2 ** 31))
    common = ["--model", str(path), "--format", "json", "--seed", cli_seed]
    ops = [cli_op(f"check-site:{t}", ["check-site", "--topology", t, *common], model=True)
           for t in TOPOLOGIES]
    ops.append(cli_op("check-roofs", ["check-roofs", *common], model=True))
    ops.append(cli_op("check-sheaf:gluing", ["check-sheaf", "--mode", "gluing", *common],
                      model=True))
    ops.append(sigma_op())
    return Workload("lattice6", ops, sizes=category_sizes(model.category))


# -- fixtures -------------------------------------------------------------------------

# Each defect fixture plants one gap; every command that meets it must exit 1
# and name the instance.  The operad gap drops the generator
# asm:empty+e_b>e_b, so the projection i:empty>e_b loses its witness in the
# base change of i:e_a>e_ab along i:e_b>e_ab.
MISSING_PULLBACK = ("(i:e_ab>e_abc, i:e_c>e_abc)", "missing pullback")
PLANTED = {
    **{("defect_missing_pullback", label): MISSING_PULLBACK
       for label in ("check-site:structural", "check-site:probability",
                     "check-site:operadic", "check-roofs")},
    ("defect_operad_gap", "check-site:operadic"):
        ("(i:e_a>e_ab, i:e_b>e_ab)", "projection i:empty>e_b"),
}


def fixture_ops(name: str) -> list[Op]:
    model = ["--model", fixtures.fixture_path(name)]
    commands = [(f"check-site:{t}", ["check-site", "--topology", t]) for t in TOPOLOGIES]
    commands += [("check-roofs", ["check-roofs"]),
                 ("check-sheaf:gluing", ["check-sheaf", "--mode", "gluing"])]
    ops = []
    for label, argv in commands:
        planted = PLANTED.get((name, label))
        for fmt in ("json", "text"):
            ops.append(cli_op(f"{name}:{label}:{fmt}", [*argv, *model, "--format", fmt],
                              model=True, exit=1 if planted else 0, planted=planted))
    return ops


def fixtures_workload(seed: int, workdir: Path) -> Workload:
    ops = [op for name in sorted(fixtures.ALL_FIXTURES) for op in fixture_ops(name)]
    ops.append(cli_op("tropicalize", ["tropicalize", "--alpha", "0.1", "--sigma", "0.2",
                                      "--with-markers", "--format", "json"]))
    for kind in ("exp", "log", "paper-log"):
        ops.append(cli_op(f"series:{kind}", ["series", "--op", kind, "--order", "12",
                                             "--format", "json"]))
    random.Random(seed).shuffle(ops)
    sizes = Counter()
    for name in fixtures.ALL_FIXTURES:
        sizes.update(category_sizes(fixtures.load_fixture(name).category))
    return Workload("fixtures", ops, seeded_outputs=False, sizes=dict(sizes))


# -- paths-wide and paths-long ------------------------------------------------------------


def verify_ito_counts(paths: int, steps: int) -> tuple[int, int]:
    """Philox streams opened and normals drawn by `verify-ito`: product-rule
    pairs, quadratic variation, the w2 path, the w3 trend at two meshes, and
    the log-drift paths at a tenth of the steps."""
    pairs = min(paths, 100)
    drift_paths = max(paths, 30)
    streams = 2 * pairs + paths + 1 + 2 * pairs + drift_paths
    draws = (2 * pairs * steps + paths * steps + steps + pairs * 3 * steps
             + drift_paths * max(1, steps // 10))
    return streams, draws


def verify_ito_op(paths: int, steps: int, seed: str) -> Op:
    streams, draws = verify_ito_counts(paths, steps)
    return cli_op(f"verify-ito:{paths}x{steps}",
                  ["verify-ito", "--paths", str(paths), "--steps", str(steps),
                   "--seed", seed, "--format", "json"],
                  exit=None, must_pass=("product-rule", "ito-w2-exact"),
                  streams=streams, draws=draws)


def check_batch(n_paths: int, steps: int):
    def check(out: bytes):
        arr = np.frombuffer(out, dtype=np.float64)
        if arr.size != n_paths * (steps + 1):
            return {"values": arr.size}, [f"{arr.size} values, expected {n_paths * (steps + 1)}"]
        arr = arr.reshape(n_paths, steps + 1)
        ok = np.all(arr[:, 0] == 0.0) and np.all(np.isfinite(arr))
        return {"values": arr.size}, [] if ok else ["paths must start at 0 and stay finite"]
    return check


def batch_op(n_paths: int, steps: int, seed: int) -> Op:
    def run():
        out = stochastic.sample_brownian_batch(1.0, steps, n_paths, seed)
        return 0, out.tobytes()
    return Op(f"sample_brownian_batch:{n_paths}x{steps}", run,
              check=check_batch(n_paths, steps), streams=n_paths, draws=n_paths * steps)


def wide(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    cli_seed = str(rng.randrange(2 ** 31))
    ops = [
        cli_op("simulate:2000x100",
               ["simulate", "--alpha", "0.05", "--sigma", "0.2", "--paths", "2000",
                "--steps", "100", "--seed", cli_seed, "--format", "json"],
               streams=2_000, draws=200_000),
        verify_ito_op(400, 1000, cli_seed),
        cli_op("check-sheaf:cones",
               ["check-sheaf", "--mode", "cones", "--paths", "200000",
                "--model", fixtures.fixture_path("four_events"),
                "--seed", cli_seed, "--format", "json"],
               model=True, exit=None, streams=1, draws=200_000),
        batch_op(200, 1000, rng.randrange(2 ** 31)),
    ]
    return Workload("paths-wide", ops)


def check_long_paths(out: bytes):
    values = [[float(x) for x in line.split()] for line in out.decode().splitlines()]
    ok = all(math.isfinite(qv) and qv > 0 and math.isfinite(residual)
             for qv, residual in values)
    return {"paths": len(values)}, [] if ok else ["quadratic variation or residual not finite"]


def long_paths_op(first: int, count: int, steps: int, seed: int) -> Op:
    """Acceptance criterion 2's shape for `count` streams: each long path,
    its quadratic variation and its w3 Ito residual.  Ten paths make one op,
    so a stall of the host shows up diluted instead of as a tail sample."""
    def run():
        lines = []
        for stream in range(first, first + count):
            w = stochastic.sample_brownian(1.0, steps, seed, stream=stream)
            qv = stochastic.quadratic_variation(w)
            residual = stochastic.ito_residual("w3", w)
            lines.append(f"{qv!r} {residual!r}\n")
        return 0, "".join(lines).encode()
    return Op(f"long-paths:{first}-{first + count - 1}", run, check=check_long_paths,
              streams=count, draws=count * steps)


def long(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    path_seed = rng.randrange(2 ** 31)
    ops = [long_paths_op(first, 10, 100_000, path_seed) for first in range(0, 200, 10)]
    ops.append(verify_ito_op(200, 10_000, str(rng.randrange(2 ** 31))))
    return Workload("paths-long", ops)


BUILDERS = {
    "lattice6": lattice6,
    "fixtures": fixtures_workload,
    "paths-wide": wide,
    "paths-long": long,
}
