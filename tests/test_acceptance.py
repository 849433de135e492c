"""Acceptance gate: ten criteria, one printed pass/fail line each.

Each numbered test prints exactly one line of the form

    [acceptance NN] <name>: PASS|FAIL (<detail>)

before asserting, so the full verdict list survives in the captured
output of any run.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

from noisewalk.boundary import build_tree, local_dimension, sample_boundary
from noisewalk.estimators import (
    drift_mc,
    rho_sweep,
    shannon_pointwise,
    tv_exact,
    tv_lower_bound_mc,
)
from noisewalk.measures import (
    build_pi_rho,
    certified_entropy_compare,
    entropy_mass_spec,
    iter_convolution_levels,
    uniform_measure,
)
from noisewalk.oracle import h_semigroup, tv_semigroup

F = Fraction
SEED = 20260815
QUARTER_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


def report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance {num:02d} {name}{suffix}"


def test_01_semigroup_entropy_formula():
    worst_rel = 0.0
    worst_cell_s = 0.0
    ok = True
    for m in (2, 3):
        for rho in QUARTER_GRID:
            t0 = time.perf_counter()
            r = shannon_pointwise(m, rho, n=10_000, trials=200, seed=SEED)
            dt = time.perf_counter() - t0
            worst_cell_s = max(worst_cell_s, dt)
            h = h_semigroup(m, rho)
            rel = abs(r.value - h) / h
            worst_rel = max(worst_rel, rel)
            ok &= rel <= 0.01 and dt < 10.0
            if rho in (0.0, 1.0):
                # endpoint cells are zero-variance, so CI coverage means
                # exact recovery up to a 1e-12 float-rounding guard
                ok &= r.ci_low - 1e-12 <= h <= r.ci_high + 1e-12
    for m in (2, 3):
        ok &= h_semigroup(m, 0) == math.log(m)
        ok &= h_semigroup(m, 1) == 2 * math.log(m)
    report(1, "semigroup entropy formula", ok,
           f"max rel err {worst_rel:.2e}, max cell {worst_cell_s:.2f}s")


def test_02_entropy_sandwich_exact():
    t0 = time.perf_counter()
    mu = uniform_measure(2)
    mu_specs = [
        entropy_mass_spec(lv) for lv in iter_convolution_levels(mu, 6)
    ]
    ok = True
    for rho in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
        pi = build_pi_rho(mu, rho)
        for lv in iter_convolution_levels(pi, 6, cap=2_000_000):
            spec_pi = entropy_mass_spec(lv)
            lower = certified_entropy_compare(spec_pi, mu_specs[lv.level - 1])
            upper = certified_entropy_compare(
                spec_pi, mu_specs[lv.level - 1], factor=2
            )
            ok &= lower >= 0 and upper <= 0
            if rho == 0:
                ok &= lower == 0  # diagonal coupling: exact equality below
            if rho == 1:
                ok &= upper == 0  # independent coupling: exact equality above
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    report(2, "entropy sandwich certified", ok, f"{dt:.1f}s")


def test_03_tv_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (2, 3):
        mu = uniform_measure(m, inverse_free=True)
        for n in range(1, 11):
            for i in range(11):
                rho = i / 10
                diff = abs(float(tv_exact(mu, rho, n)) - tv_semigroup(m, rho, n))
                worst = max(worst, diff)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 60.0
    report(3, "tv exact equals closed form", ok,
           f"max diff {worst:.2e}, {dt:.1f}s")


def test_04_tv_endpoints():
    ok = True
    for m in (2, 3):
        mu = uniform_measure(m, inverse_free=True)
        for n in range(1, 51):
            ok &= tv_semigroup(m, 1, n) == 0.0
        for n in range(1, 7):
            ok &= tv_exact(mu, 1, n) == 0
        ok &= tv_exact(mu, F(0), 1) == 1 - F(1, m)
        ok &= abs(tv_semigroup(m, 0, 1) - (1 - 1 / m)) < 1e-15
    report(4, "tv endpoints", ok)


def test_05_tv_growth_below_critical_noise():
    t0 = time.perf_counter()
    vals = [tv_semigroup(2, 0.1, n) for n in range(1, 201)]
    monotone = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    crossing = next((n for n, v in enumerate(vals, start=1) if v > 0.99), None)
    dt = time.perf_counter() - t0
    ok = monotone and crossing is not None and dt < 1.0
    report(5, "tv grows to 1 at rho=0.1", ok,
           f"crosses 0.99 at n={crossing}, {dt:.2f}s")


def test_06_tv_positive_at_high_noise():
    t0 = time.perf_counter()
    mu = uniform_measure(2)
    exact_vals = [tv_exact(mu, F(9, 10), n, cap=2_000_000) for n in range(1, 7)]
    all_positive = all(v > 0 for v in exact_vals)
    r = tv_lower_bound_mc(mu, 0.9, n=50, trials=100_000, seed=SEED,
                          threshold_frac=0.04, workers=4)
    dt = time.perf_counter() - t0
    ok = all_positive and r.ci_low > 0.005 and dt < 120.0
    report(6, "tv stays positive at rho=0.9", ok,
           f"min exact {float(min(exact_vals)):.4f}, mc ci_low {r.ci_low:.4f}, {dt:.1f}s")


def test_07_drift():
    t0 = time.perf_counter()
    ok = True
    for rho in (0.0, 0.5, 1.0):
        r = drift_mc(build_pi_rho(uniform_measure(2, inverse_free=True), rho),
                     n=200, trials=100, seed=SEED)
        ok &= r.value == 1.0 and r.std_error == 0.0
    base = drift_mc(uniform_measure(2), n=10_000, trials=1000, seed=SEED)
    ok &= base.ci_low <= 0.5 <= base.ci_high
    for rho in QUARTER_GRID:
        r = drift_mc(build_pi_rho(uniform_measure(2), rho),
                     n=10_000, trials=1000, seed=SEED)
        c1, c2 = r.details["coord1"], r.details["coord2"]
        ok &= c1["ci_low"] <= c2["ci_high"] and c2["ci_low"] <= c1["ci_high"]
    dt = time.perf_counter() - t0
    ok &= dt < 120.0
    report(7, "drift", ok,
           f"free group ci [{base.ci_low:.4f}, {base.ci_high:.4f}], {dt:.1f}s")


def test_08_exact_dimension():
    t0 = time.perf_counter()
    mu = uniform_measure(2, inverse_free=True)
    t_grid = tuple(range(1, 31))
    ok = True
    details = []
    for rho in (0.5, 1.0):
        samples = sample_boundary(mu, rho, horizon=400, trials=100_000,
                                  seed=SEED, keep_depth=30, workers=4)
        tree = build_tree(samples, 30)
        r = local_dimension(samples, tree, t_grid, n_centers=500, seed=SEED)
        expect = h_semigroup(2, rho)  # semigroup drift is 1
        rel = abs(r.value - expect) / expect
        details.append(f"rho={rho}: rel err {rel:.3f}")
        ok &= rel <= 0.05
    dt = time.perf_counter() - t0
    ok &= dt < 300.0
    report(8, "exact dimension", ok, "; ".join(details) + f", {dt:.1f}s")


def h_semigroup_derivative(m, rho):
    """d/drho of h_semigroup for rho in (0, 1]: ((m-1)/m) log(m (1-c)/rho)
    with c = (m-1) rho / m.  It decreases in rho and diverges as rho -> 0+,
    where acceptance 09 bounds the first cell by the closed-form secant."""
    c = (m - 1) * rho / m
    return (m - 1) / m * math.log(m * (1.0 - c) / rho)


def test_h_derivative_matches_finite_difference():
    eps = 1e-6
    for m in (2, 3):
        for rho in (0.2, 0.5, 0.9):
            fd = (h_semigroup(m, rho + eps) - h_semigroup(m, rho - eps)) / (2 * eps)
            assert abs(h_semigroup_derivative(m, rho) - fd) < 1e-6


def test_09_entropy_continuity_in_rho():
    grid = [round(i * 0.05, 2) for i in range(21)]
    rows = rho_sweep(uniform_measure(2, inverse_free=True), grid,
                     n=5000, trials=200, seed=SEED)
    ok = True
    worst_margin = 0.0
    for a, b in zip(rows, rows[1:]):
        diff = abs(b.entropy.value - a.entropy.value)
        noise = 3.0 * math.hypot(a.entropy.std_error, b.entropy.std_error)
        if a.rho == 0.0:
            # the derivative diverges at rho = 0; the closed-form secant
            # bounds the true increment on the first cell
            bound = (h_semigroup(2, b.rho) - h_semigroup(2, a.rho)) + noise
        else:
            # h is concave increasing, so the left endpoint bounds the slope
            bound = h_semigroup_derivative(2, a.rho) * (b.rho - a.rho) + noise
        worst_margin = max(worst_margin, diff - bound)
        ok &= diff <= bound
    report(9, "entropy continuity in rho", ok,
           f"max (diff - bound) {worst_margin:.2e}")


def test_10_byte_identical_csv(tmp_path):
    args = [
        sys.executable, "-m", "noisewalk.cli", "sweep",
        "--group", "free_semigroup:2", "--rho-grid", "0:1:0.25",
        "--n", "2000", "--trials", "200", "--seed", str(SEED),
    ]
    outs = []
    for name, workers in (("w1", "1"), ("w1b", "1"), ("w8", "8")):
        out = tmp_path / name
        proc = subprocess.run(
            args + ["--workers", workers, "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    a, b, c = outs
    ok = True
    for fname in ("table.csv", "sweep.csv", "results.json"):
        ref = (a / fname).read_bytes()
        ok &= (b / fname).read_bytes() == ref
        ok &= (c / fname).read_bytes() == ref
    report(10, "byte-identical csv across reruns and workers", ok)
