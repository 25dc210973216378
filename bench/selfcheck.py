"""Smoke test and seed check of the benchmark itself (not part of the test
suite; it takes a few minutes).

    python3 bench/selfcheck.py

For every workload it makes two one-second runs with different seeds and
one traced run, and checks that:
- every run is correct and prints exactly the metrics BENCHMARK.json names,
  each with its unit;
- both seeds give identical sizes, record counts, streams and draws, while
  the outputs differ on lattice6 and paths-* (the seed reaches the inputs
  and only the inputs) and are identical on fixtures;
- the traced runs show the expected layer shape: on lattice6 check_axioms
  and the site verifiers lead the model layers, and Philox streams are
  short on paths-wide and long on paths-long.
Finally it checks that the benchmark fails, without a result, in a
directory that holds only BENCHMARK.json and the benchmark.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SEEDS = (11, 12)
MODEL_LAYERS = ("model_io", "categories", "events", "filtration", "sites", "roofs", "sheaves")


def bench_run(workload: str, seed: int, trace: int, cwd: Path = run.ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    return proc


def parse(proc) -> tuple[dict, dict]:
    lines = proc.stdout.splitlines()
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    return detail, json.loads(lines[-1])


def expect(ok: bool, message: str, problems: list[str]):
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        problems.append(message)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems: list[str] = []
    for workload in run.WORKLOADS:
        details = []
        for seed in SEEDS:
            proc = bench_run(workload, seed, 0)
            expect(proc.returncode == 0, f"{workload} seed {seed} exits 0", problems)
            detail, result = parse(proc)
            details.append(detail)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} seed {seed} correct ({result['failed']} failed)", problems)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[0], f"{workload} prints every end-to-end metric", problems)
        a, b = details
        for key in ("sizes", "records_per_check", "records_per_pass", "streams_per_pass",
                    "draws_per_pass", "ops_per_pass"):
            expect(a[key] == b[key], f"{workload} {key} equal across seeds", problems)
        differs = a["outputs_sha256"] != b["outputs_sha256"]
        expect(differs == (workload != "fixtures"),
               f"{workload} outputs {'differ' if differs else 'agree'} across seeds", problems)

        proc = bench_run(workload, SEEDS[0], 1)
        _, result = parse(proc)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(result["correct"], f"{workload} traced run correct", problems)
        expect(got == wanted[1], f"{workload} prints every per-layer metric", problems)
        expect("patched and restored" in proc.stderr, f"{workload} tracer restored", problems)
        if workload == "lattice6":
            site_self = m["sites.verify_grothendieck.self_s"] + m["sites.verify_filtered.self_s"]
            others = [v for k, v in m.items() if k.endswith(".self_s") and k.count(".") == 2
                      and k.split(".")[0] in MODEL_LAYERS
                      and k not in ("categories.check_axioms.self_s",
                                    "sites.verify_grothendieck.self_s",
                                    "sites.verify_filtered.self_s")]
            expect(min(m["categories.check_axioms.self_s"], site_self) > max(others),
                   "lattice6 check_axioms and site verification have the largest self times",
                   problems)
        if workload == "paths-wide":
            expect(0 < m["stochastic.draws_per_stream"] <= 1000,
                   f"paths-wide draws per stream {m['stochastic.draws_per_stream']:.0f} <= 1000",
                   problems)
        if workload == "paths-long":
            expect(m["stochastic.draws_per_stream"] >= 1e4,
                   f"paths-long draws per stream {m['stochastic.draws_per_stream']:.0f} >= 1e4",
                   problems)

    (run.BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BENCH / ".work") as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns(
            ".work", "__pycache__"))
        proc = bench_run("fixtures", SEEDS[0], 0, cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and not last[0].startswith("{"),
               "fails without a result when the program is absent", problems)

    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
