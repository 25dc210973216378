import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import deltasite
from deltasite import cli, fixtures, stochastic
from deltasite.categories import FiniteCategory
from deltasite.cli import MAX_SERIES_ORDER, SERIES, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_site_probability_on_four_events_exits_zero(capsys):
    code, out, _ = run(capsys, "check-site", "--topology", "probability",
                       "--model", fixtures.fixture_path("four_events"))
    assert code == 0
    assert "-> OK" in out


def test_check_site_all_topologies_all_passing_fixtures(capsys):
    for name in fixtures.PASSING_FIXTURES:
        for topology in ("operadic", "probability", "structural"):
            code, out, _ = run(capsys, "check-site", "--topology", topology,
                               "--model", fixtures.fixture_path(name))
            assert code == 0, (name, topology, out)


def test_check_site_defect_fixture_exits_one_and_names_instance(capsys):
    code, out, _ = run(capsys, "check-site", "--topology", "operadic",
                       "--model", fixtures.fixture_path("defect_operad_gap"))
    assert code == 1
    assert "(i:e_a>e_ab, i:e_b>e_ab)" in out


def test_check_roofs_and_sheaf_commands(capsys):
    code, out, _ = run(capsys, "check-roofs",
                       "--model", fixtures.fixture_path("six_events"))
    assert code == 0
    code, out, _ = run(capsys, "check-sheaf", "--mode", "gluing",
                       "--model", fixtures.fixture_path("six_events"))
    assert code == 0
    code, out, _ = run(capsys, "check-sheaf", "--mode", "cones",
                       "--kappa", "3", "--paths", "4000", "--seed", "7",
                       "--model", fixtures.fixture_path("six_events"))
    assert code == 0


@pytest.mark.parametrize("command", [
    ("check-site", "--topology", "operadic"), ("check-site", "--topology", "probability"),
    ("check-site", "--topology", "structural"), ("check-roofs",),
    ("check-sheaf", "--mode", "gluing")])
def test_a_model_command_builds_one_category_the_parsed_one(capsys, monkeypatch, command):
    """A level's restriction is cut from the parsed category's checked
    tables: the constructor runs once per command, in the parse, however
    many levels the filtration has."""
    built = []
    init = FiniteCategory.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteCategory, "__init__", counted)
    code, _, _ = run(capsys, *command, "--model", fixtures.fixture_path("three_atoms_power"))
    assert code == 0
    assert len(built) == 1


def test_tropicalize_prints_forced_value(capsys):
    code, out, _ = run(capsys, "tropicalize", "--alpha", "0.1", "--sigma", "0.2")
    assert code == 0
    assert "0.2" in out


def test_simulate_deterministic_case_reports_exponential(capsys):
    code, out, _ = run(capsys, "simulate", "--sigma", "0", "--alpha", "0.1",
                       "--T", "1", "--x0", "1")
    assert code == 0
    assert repr(math.exp(0.1)) in out


def test_simulate_multi_path_reports_drift_estimate(capsys):
    code, out, _ = run(capsys, "simulate", "--alpha", "0.1", "--sigma", "0.2",
                       "--paths", "200", "--steps", "16", "--seed", "2")
    assert code == 0
    assert "log-drift" in out and "stderr=" in out and "mean-terminal" in out


def test_series_emits_exact_rationals(capsys):
    code, out, _ = run(capsys, "series", "--op", "exp", "--order", "3")
    assert code == 0
    assert "[1, 1, 1/2, 1/6]" in out
    code, out, _ = run(capsys, "series", "--op", "paper-log", "--order", "3")
    assert "[0, -1, 1/2, -1/3]" in out


def test_verify_ito_smoke(capsys):
    code, out, _ = run(capsys, "verify-ito", "--steps", "400", "--paths", "60",
                       "--seed", "1")
    assert code == 0
    assert "product-rule" in out and "quadratic-variation" in out


def test_log_drift_at_sigma_zero_passes_within_rounding(capsys):
    """At sigma = 0 every log rate is the drift up to rounding and the band
    has no width; the verdict allows that rounding, seen here as a mean one
    ulp off the target."""
    means = set()
    for T in ("3", "0.7", "1", "2.5", "1e-3", "16.16036858669248"):
        for paths in ("30", "40", "257"):
            code, out, _ = run(capsys, "verify-ito", "--sigma", "0", "--T", T,
                               "--paths", paths, "--steps", "20", "--format", "json")
            [record] = [r for r in json.loads(out)["records"] if r["check"] == "log-drift"]
            assert record["status"] == "pass", (T, paths, record["instance"])
            mean, target, _ = record["instance"].split()
            assert target == "target=0.1"
            means.add(mean)
    assert {"mean=0.1", "mean=0.10000000000000002", "mean=0.09999999999999999"} <= means


def test_json_format_is_valid_and_carries_summary(capsys):
    code, out, _ = run(capsys, "check-site", "--topology", "structural",
                       "--model", fixtures.fixture_path("four_events"),
                       "--format", "json")
    doc = json.loads(out)
    assert doc["command"] == "check-site"
    assert doc["summary"]["fail"] == 0
    assert doc["model_hash"]


def test_reports_byte_identical_across_runs(capsys):
    cases = [
        ("check-site", "--topology", "probability",
         "--model", fixtures.fixture_path("four_events"), "--format", "json"),
        ("check-sheaf", "--mode", "cones", "--paths", "2000", "--seed", "5",
         "--model", fixtures.fixture_path("four_events")),
        ("verify-ito", "--steps", "200", "--paths", "40", "--seed", "3"),
        ("simulate", "--alpha", "0.1", "--sigma", "0.2", "--seed", "9"),
        ("tropicalize", "--alpha", "0.3", "--sigma", "0.1"),
        ("series", "--op", "log", "--order", "5"),
    ]
    for argv in cases:
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second, argv


def test_unparseable_model_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 1,,}')
    code, _, err = run(capsys, "check-site", "--topology", "structural",
                       "--model", str(bad))
    assert code == 2
    assert "line 1" in err


def test_missing_model_file_exits_two(capsys):
    code, _, err = run(capsys, "check-site", "--topology", "structural",
                       "--model", "/nonexistent/path.json")
    assert code == 2


@pytest.mark.parametrize("command", [("check-site", "--topology", "structural"),
                                     ("check-sheaf", "--mode", "gluing")])
def test_a_model_file_that_is_not_utf8_exits_two(tmp_path, capsys, command):
    """Bytes that do not decode as UTF-8 are a model that cannot be read: one
    error line and no report, not a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"schema": 1}')
    code, out, err = run(capsys, *command, "--model", str(bad))
    assert code == 2
    assert out == ""
    assert err == ("error: cannot read model: 'utf-8' codec can't decode byte 0xff "
                   "in position 0: invalid start byte\n")


def test_model_without_measure_exits_two_for_probability(tmp_path, capsys):
    import json as j
    doc = j.loads(fixtures.fixture_text("four_events"))
    del doc["measure"]
    path = tmp_path / "nomeasure.json"
    path.write_text(j.dumps(doc))
    code, _, err = run(capsys, "check-site", "--topology", "probability",
                       "--model", str(path))
    assert code == 2
    assert "measure" in err


@pytest.mark.parametrize("weight", (math.nan, "x"))
def test_bad_measure_weight_exits_two_with_its_path(tmp_path, capsys, weight):
    doc = json.loads(fixtures.fixture_text("four_events"))
    doc["measure"]["a"] = weight
    path = tmp_path / "bad_weight.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-site", "--topology", "probability",
                         "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: measure.a: ")


def test_malformed_model_exits_two_with_its_path(tmp_path, capsys):
    doc = json.loads(fixtures.fixture_text("four_events"))
    doc["filtration"]["fiber_steps"] = 1.5
    path = tmp_path / "fractional_fiber.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-site", "--topology", "operadic",
                         "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: filtration.fiber_steps: ")


@pytest.mark.parametrize("argv", (("simulate",), ("simulate", "--paths", "3"),
                                  ("verify-ito", "--paths", "3")))
def test_overflowing_sigma_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--sigma", "1e200")
    assert code == 2
    assert out == ""
    assert "drift" in err


@pytest.mark.parametrize("command", ("verify-ito", "simulate"))
def test_overflowing_drift_times_horizon_is_usage_error(capsys, command):
    # alpha * T overflows to inf: a bad parameter, not a failed check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--alpha", "1e300", "--T", "1e10",
                             "--paths", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: drift (alpha - sigma^2/2) times T is not finite: ")


def test_model_of_the_wrong_type_exits_two_with_its_path(tmp_path, capsys):
    path = tmp_path / "objects_five.json"
    path.write_text(json.dumps({"schema": 1, "category": {"objects": 5}}))
    code, out, err = run(capsys, "check-site", "--topology", "structural",
                         "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: category.objects: ")
    assert "Traceback" not in err


def rename_event(doc, old, new):
    """doc with old replaced by new in every string and key."""
    if isinstance(doc, str):
        return doc.replace(old, new)
    if isinstance(doc, list):
        return [rename_event(v, old, new) for v in doc]
    if isinstance(doc, dict):
        return {rename_event(k, old, new): rename_event(v, old, new) for k, v in doc.items()}
    return doc


@pytest.mark.parametrize("name", ("e_a\n[pass] fake b", "e_a\u2028b"))
def test_a_name_that_is_not_printable_exits_two(tmp_path, capsys, name):
    # a line break inside a name would start a forged record line of a text report
    doc = rename_event(json.loads(fixtures.fixture_text("four_events")), "e_ab", name)
    path = tmp_path / "forged_name.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-site", "--topology", "structural",
                         "--model", str(path))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert f"error: events: key must be a name, got {name!r}" in lines
    assert all(line.startswith("error: ") for line in lines)


@pytest.mark.parametrize("argv, value", (
    (("simulate", "--sigma", "40"), "terminal value X_T"),
    (("simulate", "--x0", "1e308", "--alpha", "1", "--paths", "3"), "mean terminal value"),
))
def test_terminal_value_out_of_range_is_usage_error(capsys, argv, value):
    # X_T underflows to 0.0 in the first case and the mean overflows to inf
    # in the second; neither may end in a traceback, a warning or a report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {value} is not a positive finite number: ")


@pytest.mark.parametrize("argv", (
    ("verify-ito", "--T", "1e200", "--paths", "3", "--steps", "10"),
    ("verify-ito", "--T", "1e300", "--paths", "3", "--steps", "10"),
    ("verify-ito", "--T", "1e-320", "--paths", "3", "--steps", "10"),
    ("check-sheaf", "--mode", "cones", "--sigma", "1e308", "--paths", "100",
     "--model", fixtures.fixture_path("four_events")),
))
def test_computation_out_of_float_range_is_usage_error(capsys, argv):
    # each overflows or divides by zero inside the handler; none may end in a
    # traceback, a warning or a report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of numeric range: ")


@pytest.mark.parametrize("argv, figures", (
    # the log rates are finite, but their spread overflows
    (("--T", "1e-310", "--sigma", "0.2", "--paths", "40"),
     "mean=-3.640745376217246e+153 stderr=inf"),
    # below 30 paths, the plain mean of rates of which some overflow
    (("--T", "1e-320", "--sigma", "1.8e148", "--paths", "3", "--steps", "1", "--seed", "1"),
     "mean=-inf"),
))
def test_log_drift_that_leaves_the_float_range_is_usage_error(capsys, argv, figures):
    code, out, err = run(capsys, "simulate", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: out of numeric range: log-drift {figures}\n"


@pytest.mark.parametrize("argv, error", (
    # a bad --steps is named by the grid on verify-ito, whose drift uses max(1, steps // 10)
    (("verify-ito", "--steps", "0"), "need T > 0 and n >= 1"),
    (("verify-ito", "--T", "-1", "--steps", "0"), "need n >= 1 and T > 0"),
    # the seed range is checked before any parameter
    (("verify-ito", "--sigma", "-1", "--seed", "-1"),
     "seed must lie in [0, 2**128 - 2) on verify-ito, got -1"),
    (("simulate", "--steps", "0"), "need n >= 1 and T > 0"),
    (("simulate", "--x0", "0", "--steps", "0"), "x0 must be > 0"),
    (("simulate", "--sigma", "-1"), "sigma must be >= 0"),
    (("simulate", "--sigma", "40", "--paths", "1"),
     "terminal value X_T is not a positive finite number: 0.0"),
    (("simulate", "--sigma", "40", "--paths", "5"),
     "mean terminal value is not a positive finite number: 0.0"),
    (("simulate", "--seed", "-1"), "seed must lie in [0, 2**128), got -1"),
))
def test_sampling_usage_errors_keep_their_text_and_order(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_verify_ito_log_drift_that_overflows_is_usage_error(capsys):
    # the log drift's spread squares past the float range inside the NumPy traps
    code, out, err = run(capsys, "verify-ito", "--T", "1e-300", "--sigma", "1e150",
                         "--paths", "30", "--steps", "10")
    assert code == 2
    assert out == ""
    assert err == "error: out of numeric range: overflow encountered in square\n"


@pytest.mark.parametrize("T", ("1e-105", "1e-110", "1e-305"))
def test_w3_trend_whose_residuals_underflow_is_info(capsys, T):
    # every squared w3 residual is subnormal (1e-105) or 0.0 (below) on a mesh:
    # there is no ratio to judge
    code, out, _ = run(capsys, "verify-ito", "--T", T, "--paths", "3", "--steps", "10",
                       "--format", "json")
    records = {r["check"]: r for r in json.loads(out)["records"]}
    assert code == 0
    trend = records["ito-w3-trend"]
    assert (trend["status"], trend["instance"]) == ("info", f"residuals underflow at T={T}")


@pytest.mark.parametrize("argv", (
    ("check-sheaf", "--mode", "cones", "--paths", str(2**50),
     "--model", fixtures.fixture_path("four_events")),
    ("simulate", "--steps", str(2**50)),
    ("verify-ito", "--paths", str(2**50)),
))
def test_allocation_beyond_the_address_space_is_usage_error(capsys, argv):
    # 2**50 float64 values need 8 PiB, more than a 47-bit address space
    # holds, so the allocation fails at once without touching memory
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory: ")


def run_probe(probe, *args):
    """stdout of `probe` run in a fresh interpreter that imports this deltasite."""
    src = str(pathlib.Path(deltasite.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", probe, *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True).stdout


def test_importing_the_cli_leaves_scipy_special_unloaded():
    # nor NumPy: only the sampling commands and the cone check load them
    out = run_probe("import sys, deltasite, deltasite.cli; deltasite.cli.build_parser(); "
                    "print([m for m in ('numpy', 'scipy.special') if m in sys.modules])")
    assert out == "[]\n"


def test_sampling_exports_resolve_through_the_package():
    assert deltasite.DiscretePath is deltasite.stochastic.DiscretePath
    names = {}
    exec("from deltasite import *", names)
    assert set(deltasite.__all__) <= names.keys()
    assert all(names[name] is getattr(deltasite, name) for name in deltasite.__all__)
    with pytest.raises(AttributeError, match="no attribute 'DiscretePaths'"):
        deltasite.DiscretePaths


def four_events_without_e_b(tmp_path):
    """four_events with e_b and its arrows dropped from the category; the
    second filtration level still names it."""
    doc = json.loads(fixtures.fixture_text("four_events"))
    cat = doc["category"]
    cat["objects"].remove("e_b")
    cat["morphisms"] = {name: m for name, m in cat["morphisms"].items()
                        if "e_b" not in (m["source"], m["target"])}
    kept = set(cat["morphisms"]) | {f"id:{o}" for o in cat["objects"]}
    cat["composition"] = [rule for rule in cat["composition"] if set(rule) <= kept]
    cat["pullbacks"] = [sq for sq in cat["pullbacks"]
                        if {sq["left"], sq["right"], sq["to_left"], sq["to_right"]} <= kept]
    path = tmp_path / "level_event_outside.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", (("check-site", "--topology", "probability"),
                                  ("check-site", "--topology", "operadic"),
                                  ("check-sheaf", "--mode", "gluing")))
def test_level_event_outside_the_category_exits_two(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--model", four_events_without_e_b(tmp_path))
    assert code == 2
    assert out == ""
    assert err == "error: filtration.levels[1].events[2]: event 'e_b' is not a category object\n"


@pytest.mark.parametrize("argv", (("check-site", "--topology", "operadic"),
                                  ("check-roofs",)))
def test_duplicate_operad_generator_names_exit_two(tmp_path, capsys, argv):
    doc = json.loads(fixtures.fixture_text("four_events"))
    first = doc["operad"][0]
    doc["operad"].append(dict(first, at=doc["filtration"]["levels"][-1]["at"]))
    path = tmp_path / "duplicate_generator.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, "--model", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: filtration: duplicate operad generator names\n"


def test_negative_sigma_on_the_cone_check_is_usage_error(capsys):
    code, out, err = run(capsys, "check-sheaf", "--mode", "cones", "--sigma", "-1",
                         "--model", fixtures.fixture_path("four_events"))
    assert code == 2
    assert out == ""
    assert err == "error: sigma must be nonnegative\n"


def worst_product_rule(batch, pairs):
    """The largest relative product-rule residual over the given row pairs
    of a batch of Brownian paths, each path shifted by 1 as verify-ito does."""
    part = stochastic.Partition.uniform(1.0, batch.shape[1] - 1)
    residuals = []
    for i, j in pairs:
        x = stochastic.DiscretePath(part, 1.0 + batch[i])
        y = stochastic.DiscretePath(part, 1.0 + batch[j])
        scale = max(float(np.max(np.abs(x.values * y.values))), 1.0)
        residuals.append(stochastic.check_product_rule(x, y) / scale)
    return max(residuals)


def test_verify_ito_pairs_streams_across_block_boundaries(capsys):
    # 1000 steps make 65-row sampling blocks, so pair (64, 65) straddles two;
    # the record must be the worst residual over rows (2i, 2i+1) of the batch
    batch = stochastic.sample_brownian_batch(1.0, 1000, 200, seed=1)

    def worst(pairs):
        return worst_product_rule(batch, pairs)

    want = worst((2 * i, 2 * i + 1) for i in range(100))
    # the seed tells the pairing apart from neighbours and from in-block pairs
    assert want != worst((2 * i + 1, 2 * i + 2) for i in range(99))
    assert want != worst((s + r, s + r + 1) for s in (0, 65, 130, 195)
                         for r in range(0, 65, 2) if s + r + 1 < 200)
    code, out, _ = run(capsys, "verify-ito", "--steps", "1000", "--paths", "200",
                       "--seed", "1", "--format", "json")
    record = json.loads(out)["records"][0]
    assert record["check"] == "product-rule"
    assert record["instance"] == f"max relative residual {want!r}"


def test_verify_ito_checks_no_pairs_past_stream_200(capsys):
    # at --paths 400 the blocks from stream 260 on serve only the quadratic
    # variation; seed 98 makes pair (260, 261) or (262, 263) worse than every
    # pair (2i, 2i+1) below 200, so checking them would change the record
    batch = stochastic.sample_brownian_batch(1.0, 1000, 264, seed=98)
    want = worst_product_rule(batch, ((2 * i, 2 * i + 1) for i in range(100)))
    assert want < worst_product_rule(batch, ((260, 261), (262, 263)))
    code, out, _ = run(capsys, "verify-ito", "--steps", "1000", "--paths", "400",
                       "--seed", "98", "--format", "json")
    record = json.loads(out)["records"][0]
    assert (code, record["instance"]) == (0, f"max relative residual {want!r}")


def four_events_not_sigma_closed(tmp_path, reverse=False):
    """four_events with e_b dropped from its second filtration level, which
    then lacks the complement of e_a; with reverse, the file lists that
    level first."""
    doc = json.loads(fixtures.fixture_text("four_events"))
    doc["filtration"]["levels"][1]["events"].remove("e_b")
    if reverse:
        doc["filtration"]["levels"].reverse()
    path = tmp_path / "not_sigma_closed.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", (("check-site", "--topology", "probability"),
                                  ("check-sheaf", "--mode", "gluing")))
def test_level_that_is_not_sigma_closed_exits_two(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--model", four_events_not_sigma_closed(tmp_path))
    assert code == 2
    assert out == ""
    assert err == "error: filtration.levels[1]: level (1,1) is not a sigma-algebra: it lacks {b}\n"


@pytest.mark.parametrize("argv", (("check-site", "--topology", "probability"),
                                  ("check-sheaf", "--mode", "gluing")))
def test_level_that_is_not_sigma_closed_is_named_by_its_place_in_the_file(
        tmp_path, capsys, argv):
    path = four_events_not_sigma_closed(tmp_path, reverse=True)
    code, out, err = run(capsys, *argv, "--model", path)
    assert code == 2
    assert out == ""
    assert err == "error: filtration.levels[0]: level (1,1) is not a sigma-algebra: it lacks {b}\n"


@pytest.mark.parametrize("at", ([5, 1], [0, 2], [0, 0], [1, -3]))
@pytest.mark.parametrize("topology", ("probability", "operadic"))
def test_level_at_a_point_outside_the_framed_index_exits_two(tmp_path, capsys, at, topology):
    # the level {e_a} is not sigma-closed: no check may pass over it unseen
    doc = json.loads(fixtures.fixture_text("four_events"))
    doc["filtration"]["levels"].append({"at": at, "events": ["e_a"]})
    path = tmp_path / "level_outside_the_index.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-site", "--topology", topology, "--model", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: filtration.levels[2]: level at ({at[0]},{at[1]}) "
                   "is not a point of the framed index\n")


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_env_seed_default_and_flag_override(capsys, monkeypatch):
    monkeypatch.setenv("DELTASITE_SEED", "123")
    _, with_env, _ = run(capsys, "simulate", "--alpha", "0.1", "--sigma", "0.2")
    assert "seed=123" in with_env
    _, with_flag, _ = run(capsys, "simulate", "--alpha", "0.1", "--sigma", "0.2",
                          "--seed", "4")
    assert "seed=4" in with_flag


@pytest.mark.parametrize("command", ["simulate", "verify-ito", "check-sheaf"])
def test_sampling_commands_reject_paths_below_one(capsys, command):
    for paths in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED.get(command, []), "--paths", paths])
        assert exc.value.code == 2
        assert "--paths" in capsys.readouterr().err


def test_one_parser_reads_the_env_seed_on_every_call(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    for seed in (123, 7):
        monkeypatch.setenv("DELTASITE_SEED", str(seed))
        code, out, _ = run(capsys, "series", "--op", "exp", "--order", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["params"]["seed"] == seed
    monkeypatch.setenv("DELTASITE_SEED", "12x")
    with pytest.raises(SystemExit) as exc:
        main(["series", "--op", "exp", "--order", "2"])
    assert exc.value.code == 2
    assert "argument --seed: invalid int value: '12x'" in capsys.readouterr().err


def test_malformed_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("DELTASITE_SEED", "12x")
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])
    assert exc.value.code == 2
    assert "invalid int value: '12x'" in capsys.readouterr().err
    code, out, _ = run(capsys, "simulate", "--seed", "4")
    assert code == 0 and "seed=4" in out


SEED_OUT_OF_RANGE = [
    ({}, ["simulate", "--seed", "-1"]),
    ({"DELTASITE_SEED": "-1"}, ["simulate"]),
    ({}, ["check-sheaf", "--mode", "cones", "--paths", "10", "--seed", "-1",
          "--model", fixtures.fixture_path("four_events")]),
    ({}, ["simulate", "--seed", str(2 ** 128)]),
    # seed + 2 is the key of the log-drift streams
    ({}, ["verify-ito", "--paths", "2", "--steps", "4", "--seed", str(2 ** 128 - 1)]),
]


@pytest.mark.parametrize("env, argv", SEED_OUT_OF_RANGE)
def test_seed_outside_the_philox_key_is_usage_error(capsys, monkeypatch, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "seed" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("seed", (2**128 - 2, 2**128 - 1, -1))
@pytest.mark.parametrize("from_env", (False, True))
def test_verify_ito_names_the_given_seed_before_any_draw(capsys, monkeypatch, seed, from_env):
    # the trend draws from seed + 1 and the log drift from seed + 2
    def no_draw(*args):
        raise AssertionError("drew before checking the seed")

    monkeypatch.setattr(stochastic, "normal_blocks", no_draw)
    argv = ["verify-ito", "--paths", "2", "--steps", "4"]
    if from_env:
        monkeypatch.setenv("DELTASITE_SEED", str(seed))
    else:
        argv += ["--seed", str(seed)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: seed must lie in [0, 2**128 - 2) on verify-ito, got {seed}\n"


def test_model_commands_echo_any_integer_seed(capsys):
    code, out, _ = run(capsys, "check-site", "--topology", "structural", "--seed", "-1",
                       "--model", fixtures.fixture_path("four_events"))
    assert code == 0 and "seed=-1" in out


# flags each command needs besides the float flag under test
REQUIRED = {"check-sheaf": ["--mode", "cones", "--model", fixtures.fixture_path("four_events")],
            "tropicalize": ["--alpha", "0.1", "--sigma", "0.2"]}
FLOAT_FLAGS = [("check-sheaf", "--kappa"), ("check-sheaf", "--sigma")] + [
    (command, flag) for command in ("simulate", "verify-ito")
    for flag in ("--alpha", "--sigma", "--x0", "--T")] + [
    ("tropicalize", "--alpha"), ("tropicalize", "--sigma")]


@pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_float_flags_reject_non_finite_values(capsys, command, flag, value):
    # the last occurrence of a flag wins, and argparse converts every one
    argv = [command, *REQUIRED.get(command, []), f"{flag}={value}"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: need a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("op", sorted(SERIES))
@pytest.mark.parametrize("order", [MAX_SERIES_ORDER + 1, 10**9])
def test_series_order_above_the_bound_is_usage_error(capsys, op, order):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["series", "--op", op, "--order", str(order)])
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --order: order must be at most 100" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("op", sorted(SERIES))
def test_series_order_at_the_bound_is_accepted(capsys, op):
    code, out, _ = run(capsys, "series", "--op", op, "--order", str(MAX_SERIES_ORDER))
    assert code == 0 and "coefficients" in out


@pytest.mark.parametrize("side", ("left", "right"))
def test_a_square_naming_an_unknown_morphism_exits_two_and_names_it(tmp_path, capsys, side):
    doc = json.loads(fixtures.fixture_text("six_events"))
    doc["category"]["pullbacks"][0][side] = "no_such_arrow"
    path = tmp_path / "unknown_square_arrow.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-roofs", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: category: pullback square references unknown morphism 'no_such_arrow'\n"
