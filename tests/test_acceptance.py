"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is stated inline; seeds are frozen
so each check is deterministic.
"""
import math
import time
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

from deltasite import fixtures, sheaves, sites, stochastic, tropical
from deltasite.cli import main as cli_main
from deltasite.roofs import RoofCategory, verify_roof_category
from deltasite.sheaves import Presheaf, check_sheaf_condition, constant_presheaf

from conftest import overlap_site


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_product_rule_exactness():
    started = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        x = stochastic.sample_brownian(1.0, 1000, seed=1, stream=2 * i)
        y = stochastic.sample_brownian(1.0, 1000, seed=1, stream=2 * i + 1)
        scale = max(1.0, float(np.max(np.abs(x.values)) * np.max(np.abs(y.values))))
        worst = max(worst, stochastic.check_product_rule(x, y) / scale)
    elapsed = time.perf_counter() - started
    _report(1, "product-rule exactness",
            worst <= 1e-10 and elapsed < 5.0,
            f"max relative residual {worst:.3e} over 1000 pairs in {elapsed:.2f}s")


def test_criterion_2_quadratic_variation():
    started = time.perf_counter()
    n = 100_000
    band = 3.0 * math.sqrt(2.0 / n)
    hits = 0
    for i in range(200):
        w = stochastic.sample_brownian(1.0, n, seed=0, stream=i)
        if abs(stochastic.quadratic_variation(w) - 1.0) <= band:
            hits += 1
    containment_ok = hits / 200 >= 0.95

    # mesh halving must reduce the RMS deviation by a factor within 1.5 of
    # halving it, i.e. the observed ratio lies in [2/1.5, 2*1.5]
    rms = []
    for steps in (2000, 4000):
        devs = []
        for i in range(200):
            w = stochastic.sample_brownian(1.0, steps, seed=4, stream=i)
            devs.append((stochastic.quadratic_variation(w) - 1.0) ** 2)
        rms.append(math.sqrt(math.fsum(devs) / len(devs)))
    ratio = rms[0] / rms[1]
    trend_ok = 2.0 / 1.5 <= ratio <= 2.0 * 1.5
    elapsed = time.perf_counter() - started
    _report(2, "quadratic variation",
            containment_ok and trend_ok and elapsed < 30.0,
            f"{hits}/200 in band {band:.4f}; halving ratio {ratio:.3f}; {elapsed:.1f}s")


def test_criterion_3_log_drift():
    started = time.perf_counter()
    params = stochastic.GBMParams(alpha=0.1, sigma=0.2, x0=1.0, T=1.0, n=16, seed=0)
    rates = stochastic.gbm_terminal_log_rates(params, 10_000)
    est = stochastic.estimate_log_drift(rates)
    elapsed = time.perf_counter() - started
    _report(3, "log drift",
            abs(est.mean - 0.08) <= 0.006 and elapsed < 30.0,
            f"mean {est.mean:.5f} vs 0.08 +/- 0.006; {elapsed:.1f}s")


def test_criterion_4_ito_residual_mesh_trend():
    rms = []
    for steps in (250, 500, 1000, 2000, 4000):
        acc = []
        for i in range(200):
            w = stochastic.sample_brownian(1.0, steps, seed=0, stream=i)
            acc.append(stochastic.ito_residual("w3", w) ** 2)
        rms.append(math.sqrt(math.fsum(acc) / len(acc)))
    ratios = [rms[k] / rms[k + 1] for k in range(4)]
    ok = all(1.15 <= r <= 1.85 for r in ratios)
    _report(4, "Ito residual trend", ok,
            "ratios " + " ".join(f"{r:.3f}" for r in ratios))


def test_criterion_5_tropical_reproduction():
    point = tropical.tropicalize_log_sde(0.1, 0.2)
    exact_point = point == 0.2

    alpha, sigma = Fraction(1, 10), Fraction(1, 5)
    marked = tropical.tropicalize_log_sde(alpha, sigma, with_markers=True)
    plain = tropical.tropicalize_log_sde(alpha, sigma)
    shift_one = (marked - plain) == 1

    import random
    rng = random.Random(2024)
    invariant = True
    for _ in range(1000):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        y = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        a = tropical.GradedExpr.make({0: x, 1: Fraction(1, 7)})
        b = tropical.GradedExpr.make({1: y})
        shift = tropical.GradedExpr.make({0: c})
        if tropical.trop_max(a + shift, b + shift) != tropical.trop_max(a, b) + c:
            invariant = False
            break
    _report(5, "tropical reproduction", exact_point and shift_one and invariant,
            f"value {point}; marker shift exact; 1000 rational shift triples")


def test_criterion_6_series_checks():
    n = 6
    inverse_ok = (tropical.compose(tropical.log_inverse_series(n),
                                   tropical.exp_series(n)).coeffs
                  == tuple(Fraction(int(k == 1)) for k in range(n + 1)))
    paper = tropical.compose(tropical.paper_log_series(n), tropical.exp_series(n))
    paper_flagged = paper.coefficient(1) == Fraction(-1)
    _report(6, "series inversion", inverse_ok and paper_flagged,
            f"log(exp(X))=X to order {n}; paper-literal order-1 coefficient {paper.coefficient(1)}")


def test_criterion_7_topology_axioms():
    started = time.perf_counter()
    ok = True
    details = []
    assert len(fixtures.PASSING_FIXTURES) >= 5
    assert "six_events" in fixtures.PASSING_FIXTURES  # 6 events, full pullbacks
    for name in fixtures.PASSING_FIXTURES:
        model = fixtures.load_fixture(name)
        s = sites.verify_grothendieck(sites.build_tau_structural(model.category))
        p = sites.verify_filtered(sites.build_tau_P(model.filtration, model.measure,
                                                    model.category))
        o = sites.verify_filtered(sites.build_tau_operadic(model.filtration,
                                                           model.category))
        if not (s.passed and p.passed and o.passed):
            ok = False
            details.append(f"{name} failed")

    gap = fixtures.load_fixture("defect_operad_gap")
    gap_report = sites.verify_filtered(sites.build_tau_operadic(gap.filtration,
                                                                gap.category))
    gap_named = any(r.instance == "level (1,1): (i:e_a>e_ab, i:e_b>e_ab)"
                    for r in gap_report.failures())

    miss = fixtures.load_fixture("defect_missing_pullback")
    miss_report = sites.verify_grothendieck(sites.build_tau_structural(miss.category))
    miss_named = any(r.instance == "(i:e_ab>e_abc, i:e_c>e_abc)"
                     and "missing pullback" in r.witness
                     for r in miss_report.failures())
    elapsed = time.perf_counter() - started
    _report(7, "topology axioms",
            ok and not gap_report.passed and gap_named
            and not miss_report.passed and miss_named and elapsed < 5.0,
            f"{len(fixtures.PASSING_FIXTURES)} fixtures x 3 topologies; "
            f"defects named; {elapsed:.2f}s")


def test_criterion_8_roof_category_axioms():
    ok = True
    pairs_checked = 0
    for name in fixtures.PASSING_FIXTURES:
        model = fixtures.load_fixture(name)
        rc = RoofCategory(model.category)
        report = verify_roof_category(rc)
        if not report.passed:
            ok = False
        pairs_checked += sum(1 for r in report.records
                             if r.check_id == "base-functorial")
        site = sites.build_tau_structural(rc.fragment)
        if not sites.verify_grothendieck(site).passed:
            ok = False
    _report(8, "roof category axioms", ok and pairs_checked > 0,
            f"{pairs_checked} composable base pairs verified across fixtures")


def test_criterion_9_sheaf_gluing():
    ok = True
    for name in fixtures.PASSING_FIXTURES:
        model = fixtures.load_fixture(name)
        targets = [sites.build_tau_structural(model.category)]
        filtered_p = sites.build_tau_P(model.filtration, model.measure, model.category)
        filtered_o = sites.build_tau_operadic(model.filtration, model.category)
        targets += [*filtered_p.values(), *filtered_o.values()]
        for site in targets:
            if not check_sheaf_condition(constant_presheaf(site, (0.0, 1.0))).passed:
                ok = False

    planted = overlap_site()
    spaces = {"U": (0,), "V1": (0, 1), "V2": (0,), "W": (0,)}
    restr = {"f1": {0: 0}, "f2": {0: 0}, "g1": {0: 0, 1: 0}, "g2": {0: 0},
             "h": {0: 0}}
    bad = check_sheaf_condition(Presheaf(planted, spaces, restr))
    named = (not bad.passed and bad.failures()
             and "f1" in bad.failures()[0].instance)
    _report(9, "sheaf gluing", ok and named,
            "constant presheaf glues everywhere; planted defect named "
            f"{bad.failures()[0].instance}")


def test_criterion_10_transversal_cones():
    report = sheaves.transversal_cone_check(sigma=1.0, kappa=3.0, t=0.0,
                                            t_prime=1.0, n_paths=10_000, seed=7)
    expected = 2.0 * float(ndtr(3.0)) - 1.0
    # the witness is "fraction=... expected=... threshold=...", and the
    # threshold lies three binomial standard errors below the expected mass
    cone = {k: float(v) for k, v in (w.split("=") for w in report.records[0].witness.split())}
    three_se = cone["expected"] - cone["threshold"]
    within = abs(cone["fraction"] - expected) <= three_se
    _report(10, "transversal cones", within and report.passed,
            f"containment {cone['fraction']:.4f} vs {expected:.4f} "
            f"+/- {three_se:.4f}")


def test_criterion_11_deterministic_reports(capsys):
    cases = [
        ["check-site", "--topology", "probability",
         "--model", fixtures.fixture_path("four_events"), "--format", "json"],
        ["check-site", "--topology", "operadic",
         "--model", fixtures.fixture_path("six_events")],
        ["check-roofs", "--model", fixtures.fixture_path("interval_pair")],
        ["check-sheaf", "--mode", "cones", "--paths", "3000", "--seed", "11",
         "--model", fixtures.fixture_path("four_events"), "--format", "json"],
        ["verify-ito", "--steps", "300", "--paths", "50", "--seed", "2"],
        ["simulate", "--alpha", "0.1", "--sigma", "0.2", "--seed", "6"],
        ["tropicalize", "--alpha", "0.1", "--sigma", "0.2"],
        ["series", "--op", "log", "--order", "6"],
    ]
    ok = True
    for argv in cases:
        cli_main(list(argv))
        first = capsys.readouterr().out
        cli_main(list(argv))
        second = capsys.readouterr().out
        if first != second or not first:
            ok = False
    with capsys.disabled():
        _report(11, "deterministic reports", ok,
                f"{len(cases)} commands byte-identical across repeated runs")
