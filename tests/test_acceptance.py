"""Acceptance gate: twelve numbered criteria, one printed verdict line each.

Each test prints "[PASS] criterion NN: ..." (or [FAIL]) through the
capture bypass so the line is visible in plain pytest output, then
asserts.  Tolerances and runtime limits are pinned in the checks.
"""

import json
import math
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np
import pytest

from epicut import (
    CutKind,
    Ellipsoid,
    FeasibilityVerdict,
    Halfspace,
    LinearSystem,
    MaxAffineFunction,
    MetastepConfig,
    bisect_level,
    central_cut,
    decide_feasibility,
    deep_cut,
    global_radius,
    intersects_halfspace,
    normalize,
    run_metasteps,
    simplex_grid_min,
    subgradient_lower_bound_at,
    validate_certificate,
    vertex_enumerate_feasible,
)


VERDICT_LINES = []


def report(num: int, desc: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}"
    VERDICT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def random_fat_ellipsoid(d: int, rng) -> Ellipsoid:
    # min eigenvalue >= d + 2 so every unit-normal width exceeds 1: a
    # slack drawn from [0, 1) then stays strictly inside the ellipsoid.
    basis = rng.normal(size=(d, d))
    return Ellipsoid(rng.uniform(-1, 1, d), basis @ basis.T + (d + 2.0) * np.eye(d))


def sample_in_ellipsoid(e: Ellipsoid, count: int, rng) -> np.ndarray:
    chol = np.linalg.cholesky(e.shape_inv)
    dirs = rng.normal(size=(count, e.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.random(count) ** (1.0 / e.dim)
    return e.center + (dirs * radii[:, None]) @ chol.T


# ---------------------------------------------------------------- corpora


@lru_cache(maxsize=1)
def lp_corpus():
    """200 normalized random systems with decisions, oracle verdicts,
    and certificate bookkeeping; shared by criteria 5, 7 and 8."""
    rng = np.random.default_rng(20240816)
    entries = []
    elapsed = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 9))
        sys_n = normalize(
            LinearSystem(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m))
        )
        started = time.perf_counter()
        decision = decide_feasibility(sys_n, tol=1e-7)
        elapsed += time.perf_counter() - started
        oracle = vertex_enumerate_feasible(sys_n, tol=1e-9)
        entries.append((sys_n, decision, oracle))
    return entries, elapsed


@lru_cache(maxsize=1)
def minimization_runs():
    """30 planted-minimum max-affine instances on R^2 with both a
    run_metasteps result and a single bisect_level result each; shared
    by criteria 5 and 6."""
    rng = np.random.default_rng(77)
    cfg = MetastepConfig(radius=2.0, level_tolerance=2e-5, max_metasteps=16)
    out = []
    elapsed = 0.0
    for _ in range(30):
        minimizer = rng.uniform(-2, 2, 2)
        true_min = float(rng.uniform(-3, 1))
        base = rng.uniform(0, 2 * math.pi)
        rows = []
        offsets = []
        for k in range(3):
            angle = base + k * (2 * math.pi / 3) + rng.uniform(-0.4, 0.4)
            mag = rng.uniform(0.5, 2.0)
            g = mag * np.array([math.cos(angle), math.sin(angle)])
            rows.append(g)
            offsets.append(true_min - float(g @ minimizer))
        for _ in range(2):
            g = rng.uniform(-2, 2, 2)
            offsets.append(true_min - float(g @ minimizer) - rng.uniform(0.3, 2.0))
            rows.append(g)
        f = MaxAffineFunction(np.array(rows), np.array(offsets))
        shift = rng.uniform(0.1, 1.0) * 0.99
        angle = rng.uniform(0, 2 * math.pi)
        x0 = minimizer + shift * np.array([math.cos(angle), math.sin(angle)])
        started = time.perf_counter()
        full = run_metasteps(f, x0, cfg)
        single = bisect_level(f, x0, cfg)
        elapsed += time.perf_counter() - started
        out.append((f, true_min, cfg, full, single))
    return out, elapsed


# --------------------------------------------------------------- criteria


def test_criterion_01_volume_law():
    started = time.perf_counter()
    ok = True
    for d in (2, 3, 5, 8):
        e = Ellipsoid.ball(np.zeros(d), 1.0)
        normal = np.zeros(d)
        normal[0] = -1.0
        out = central_cut(e, Halfspace(normal, np.zeros(d)))
        closed_form = math.log(
            (d / (d + 1.0)) * (d * d / (d * d - 1.0)) ** ((d - 1) / 2.0)
        )
        ok &= out.ellipsoid.log_volume_ratio == pytest.approx(closed_form, rel=1e-9)
        ok &= out.ellipsoid.log_volume_ratio <= -1.0 / (2.0 * (d + 1.0))
    runtime = time.perf_counter() - started
    ok &= runtime < 1.0
    report(1, f"central-cut volume law, d in 2/3/5/8 ({runtime:.2f}s)", ok)


def test_criterion_02_unit_case_center():
    e = Ellipsoid.ball(np.zeros(2), 1.0)
    out = central_cut(e, Halfspace(np.array([-1.0, 0.0]), np.zeros(2)))
    ok = bool(np.all(np.abs(out.ellipsoid.center - [1.0 / 3.0, 0.0]) <= 1e-12))
    report(2, "unit-ball central cut lands the center on (1/3, 0)", ok)


def test_criterion_03_deep_cut_containment():
    rng = np.random.default_rng(3)
    started = time.perf_counter()
    violations = 0
    triples = 0
    while triples < 100:
        d = int(rng.integers(2, 6))
        e = random_fat_ellipsoid(d, rng)
        normal = rng.normal(size=d)
        normal /= np.linalg.norm(normal)
        gamma = float(rng.random())  # depth in [0, 1)
        kept = np.empty((0, d))
        attempts = 0
        while kept.shape[0] < 1000 and attempts < 20:
            pts = sample_in_ellipsoid(e, 20000, rng)
            margins = (pts - e.center) @ normal + gamma
            kept = np.vstack([kept, pts[margins <= 0.0]])
            attempts += 1
        if kept.shape[0] < 1000:
            continue  # resample a fatter configuration
        kept = kept[:1000]
        out = deep_cut(e, Halfspace(normal, e.center.copy()), gamma)
        assert out.kind is CutKind.UPDATED
        violations += int(np.count_nonzero(~out.ellipsoid.contains_many(kept)))
        triples += 1
    runtime = time.perf_counter() - started
    ok = violations == 0 and runtime < 10.0
    report(
        3,
        f"100 deep cuts keep all 1000 sampled points each ({runtime:.2f}s)",
        ok,
    )


def test_criterion_04_intersection_agreement():
    rng = np.random.default_rng(4)
    agree = 0
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        basis = rng.normal(size=(d, d))
        e = Ellipsoid(rng.normal(size=d), basis @ basis.T + 0.5 * np.eye(d))
        h = Halfspace(rng.normal(size=d) + 1e-3, 2.0 * rng.normal(size=d))
        width = math.sqrt(float(h.normal @ (e.shape_inv @ h.normal)))
        support_min = float(h.normal @ e.center) - width
        analytic = support_min <= float(h.normal @ h.anchor)
        agree += int(analytic == intersects_halfspace(e, h))
    ok = agree == 1000
    report(4, f"intersection test vs support function: {agree}/1000", ok)


def test_criterion_05_iteration_budgets():
    runs, _ = minimization_runs()
    corpus, _ = lp_corpus()
    worst_iter_excess = -math.inf
    queries_ok = True
    iters_ok = True

    def check_result(res, d):
        # d is the dimension the ellipsoid runs in: the minimized
        # function's own.  Each metastep is one query.
        nonlocal worst_iter_excess, iters_ok, queries_ok
        budget = res.config.iteration_budget(d) + 5
        for used in res.query_iterations:
            worst_iter_excess = max(worst_iter_excess, used - budget)
            if used > budget:
                iters_ok = False
        if not res.level_queries == len(res.query_iterations) <= res.config.max_metasteps:
            queries_ok = False

    for f, _, cfg, full, single in runs:
        check_result(full, f.dim)
        check_result(single, f.dim)
        if single.level_queries != 1:
            queries_ok = False
    for sys_n, decision, _ in corpus:
        if decision.report is not None:
            # The decision run minimizes the row maximum in R^n.
            check_result(decision.report, sys_n.n)
    ok = queries_ok and iters_ok
    report(
        5,
        "ellipsoid iterations within 2(d+1)(d+2)ln(R/eps)+5 per metastep and "
        f"one query per metastep (worst slack {worst_iter_excess:+.0f})",
        ok,
    )


def test_criterion_06_minimization_accuracy():
    runs, elapsed = minimization_runs()
    worst = 0.0
    for _, true_min, _, full, _ in runs:
        worst = max(worst, abs(full.best_value - true_min))
    ok = worst <= 1e-4 and elapsed < 60.0
    report(
        6,
        f"30 planted minima recovered, worst error {worst:.2e} ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_07_lp_oracle_equivalence():
    corpus, elapsed = lp_corpus()
    mismatches = 0
    bad_certs = 0
    verdicts = set()
    for sys_n, decision, oracle in corpus:
        verdicts.add(decision.verdict)
        solver_feasible = decision.verdict is not FeasibilityVerdict.INFEASIBLE_NON_STRICT
        if decision.verdict is FeasibilityVerdict.INFEASIBLE_STRICT_ONLY:
            # boundary-degenerate geometry; cannot arise from continuous draws
            mismatches += 1
            continue
        if oracle.feasible != solver_feasible:
            mismatches += 1
        if decision.certificate is not None and not validate_certificate(
            sys_n, decision.certificate, tol=1e-7
        ):
            bad_certs += 1
    both_seen = (
        FeasibilityVerdict.FEASIBLE in verdicts
        and FeasibilityVerdict.INFEASIBLE_NON_STRICT in verdicts
    )
    ok = mismatches == 0 and bad_certs == 0 and both_seen and elapsed < 300.0
    report(
        7,
        f"200 decisions agree with vertex enumeration, certificates valid "
        f"({elapsed:.1f}s decide time)",
        ok,
    )


def test_criterion_08_never_both():
    corpus, _ = lp_corpus()
    conflicts = 0
    strict_points = 0
    valid_certs = 0
    for sys_n, decision, oracle in corpus:
        has_strict_point = (
            oracle.feasible
            and sys_n.violation(oracle.min_norm_point) <= -1e-7
        )
        has_valid_cert = decision.certificate is not None and validate_certificate(
            sys_n, decision.certificate, tol=1e-7
        )
        strict_points += int(has_strict_point)
        valid_certs += int(has_valid_cert)
        if has_strict_point and has_valid_cert:
            conflicts += 1
    ok = conflicts == 0 and strict_points > 0 and valid_certs > 0
    report(
        8,
        f"no instance has both a strict point and a valid certificate "
        f"({strict_points} strict points, {valid_certs} certificates)",
        ok,
    )


def test_criterion_09_subgradient_floor():
    rng = np.random.default_rng(9)
    checked = 0
    worst_margin = math.inf
    ok = True
    while checked < 50:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        rows = []
        for _ in range(m):
            a = rng.uniform(-1, 1, n)
            while np.linalg.norm(a) < 0.4:
                a = rng.uniform(-1, 1, n)
            rows.append(a)
        rows = np.array(rows)
        norms = np.linalg.norm(rows, axis=1)
        offsets = rng.uniform(-norms, norms)
        if rng.random() < 0.5:
            # duplicate one row to build an exact two-way tie
            j = int(rng.integers(0, m))
            rows = np.vstack([rows, rows[j]])
            offsets = np.append(offsets, offsets[j])
        sys_n = normalize(LinearSystem(rows, offsets))
        x = None
        for _ in range(30):
            cand = rng.uniform(-2, 2, n)
            if sys_n.violation(cand) >= 0.0:
                x = cand
                break
        if x is None:
            continue
        values = sys_n.rows @ x + sys_n.offsets
        active = np.flatnonzero(values >= float(values.max()) - 1e-12)
        if active.size > 4:
            continue
        floor = subgradient_lower_bound_at(sys_n, x)
        grid_value, _ = simplex_grid_min(
            LinearSystem(sys_n.rows[active], sys_n.offsets[active]), resolution=60
        )
        lattice_min = math.sqrt(max(grid_value, 0.0))
        worst_margin = min(worst_margin, lattice_min - (floor - 1e-6))
        if lattice_min < floor - 1e-6:
            ok = False
        checked += 1
    report(
        9,
        f"50 lattice sweeps of the subdifferential stay above the floor "
        f"(worst margin {worst_margin:.2e})",
        ok,
    )


def test_criterion_10_radius_soundness():
    rng = np.random.default_rng(10)
    built = 0
    ok = True
    while built < 30:
        n = int(rng.integers(2, 4))
        m = int(rng.integers(3, 9))
        w = rng.normal(size=n)
        w /= np.linalg.norm(w)
        rows = []
        offsets = []
        anchor = rng.uniform(0.2, 1.2) * w
        for _ in range(m):
            v = rng.normal(size=n)
            v -= (v @ w) * w
            vn = float(np.linalg.norm(v))
            if vn > 1e-12:
                v /= vn
            cos = rng.uniform(0.35, 1.0)
            a = cos * w + math.sqrt(max(1.0 - cos * cos, 0.0)) * v
            rows.append(a)
            offsets.append(-float(a @ anchor) - rng.uniform(0.05, 0.5))
        sys_n = normalize(LinearSystem(np.array(rows), np.array(offsets)))
        bound = global_radius(sys_n, tol=1e-7)
        oracle = vertex_enumerate_feasible(sys_n)
        if not oracle.feasible:
            ok = False
            break
        if float(np.linalg.norm(oracle.min_norm_point)) > bound.radius + 1e-9:
            ok = False
        built += 1
    ok = ok and built == 30
    report(
        10,
        "30 GlobalC radius bounds each contain an oracle-verified feasible point",
        ok,
    )


def test_criterion_11_deep_cut_consistency():
    rng = np.random.default_rng(11)
    ok = True
    # (a) zero-depth deep cuts replicate central cuts
    for _ in range(100):
        d = int(rng.integers(1, 6))
        basis = rng.normal(size=(d, d))
        e = Ellipsoid(rng.normal(size=d), basis @ basis.T + d * np.eye(d))
        normal = rng.normal(size=d)
        while np.linalg.norm(normal) < 0.1:
            normal = rng.normal(size=d)
        a = central_cut(e, Halfspace(normal, e.center.copy()))
        b = deep_cut(e, Halfspace(normal, e.center.copy()), 0.0)
        ok &= np.allclose(a.ellipsoid.center, b.ellipsoid.center, rtol=1e-14, atol=0)
        ok &= np.allclose(
            a.ellipsoid.shape_inv, b.ellipsoid.shape_inv, rtol=1e-14, atol=0
        )
    # (b) value-driven deep cuts never exclude points at or below the
    # incumbent value
    for _ in range(50):
        f = MaxAffineFunction(rng.uniform(-2, 2, (4, 2)), rng.uniform(-1, 1, 4))
        e = random_fat_ellipsoid(2, rng)
        pts = sample_in_ellipsoid(e, 1000, rng)
        values = f.eval_many(pts)
        incumbent = float(np.percentile(values, 10))
        center_value = f.eval(e.center)
        slack = center_value - incumbent
        if slack <= 0.0:
            continue
        g = f.subgradient(e.center)
        out = deep_cut(e, Halfspace(g, e.center.copy()), slack)
        if out.kind is not CutKind.UPDATED:
            continue
        survivors = pts[values <= incumbent]
        ok &= bool(np.all(out.ellipsoid.contains_many(survivors)))
    report(11, "depth-0 cuts equal central cuts; deep cuts keep the low set", ok)


def test_criterion_12_cli_contract(tmp_path):
    box = tmp_path / "box.json"
    box.write_text(json.dumps({
        "name": "unit-box",
        "A": [[1, 0], [-1, 0], [0, 1], [0, -1]],
        "b": [-1, -1, -1, -1],
    }))
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"name": "pair", "A": [[1], [-1]], "b": [1, 1]}))
    broken = tmp_path / "broken.json"
    broken.write_text('{"A": [[1,')

    def run_twice(path):
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "epicut", "decide", str(path)],
                capture_output=True, text=True, timeout=120,
            )
            outs.append((proc.returncode, proc.stdout))
        return outs

    ok = True
    for path, want_code in ((box, 0), (pair, 1), (broken, 64)):
        (code_a, out_a), (code_b, out_b) = run_twice(path)
        ok &= code_a == want_code and code_b == want_code
        ok &= out_a == out_b
    report(12, "example files exit 0/1/64 with byte-identical reports", ok)
