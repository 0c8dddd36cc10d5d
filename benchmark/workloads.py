"""Seeded workloads: problem generators, command lists and reference checks.

Each workload is built from two seeds.  The corpus seed picks the
problems; its defaults are the seeds of the acceptance criteria, so the
default corpora are criterion 07's LP systems and criterion 06's planted
minima.  The run seed picks a presentation of that corpus: a row order,
a signed coordinate order, positive row scales and, for the minima, a
translation and a value shift.  A presentation changes every number in
the problem files but none of the verdicts, minima or amounts of work,
so runs with different seeds measure the same work; a claim can be
rechecked on problems no run has seen by passing another corpus seed.
Run seed 0 is the identity presentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from epicut.bruteforce import vertex_enumerate_feasible
from epicut.errors import EmptySystem
from epicut.lp import LinearSystem, normalize, validate_certificate

# Reference tolerances, as in criteria 06 and 07 and the CLI defaults.
CERT_TOL = 1e-7
POINT_TOL = 1e-7
ORACLE_TOL = 1e-9
MIN_VALUE_TOL = 1e-4

_DECIDE_EXIT = {"Feasible": 0, "InfeasibleNonStrict": 1}


@dataclass
class Problem:
    """One problem file: rows and offsets plus what the checks need."""

    name: str
    rows: np.ndarray
    offsets: np.ndarray
    truth: dict = field(default_factory=dict)


@dataclass
class Op:
    """One CLI call: command, problem file, then ``flags``."""

    label: str
    group: str
    command: str
    problem: Problem
    flags: List[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    corpus_seed: int
    ops: List[Op]
    check: Callable[[Op, int, dict], Optional[str]]
    # Printed metric stem -> the op groups it covers.
    stems: Dict[str, Tuple[str, ...]]
    # Report each stem as seconds per pass instead of call percentiles.
    rung_totals: bool = False

    @property
    def problems(self) -> List[Problem]:
        seen: Dict[str, Problem] = {}
        for op in self.ops:
            seen.setdefault(op.problem.name, op.problem)
        return list(seen.values())


# ------------------------------------------------------------ presentation


def _present_system(rows, offsets, rng: Optional[np.random.Generator]):
    """Row order, signed column order and positive row scales from rng."""
    if rng is None:
        return rows, offsets
    m, n = rows.shape
    cols = rng.permutation(n)
    signs = rng.choice([-1.0, 1.0], n)
    order = rng.permutation(m)
    scale = rng.uniform(0.5, 2.0, m)
    return rows[order][:, cols] * signs * scale[:, None], offsets[order] * scale


def _presenter(seed: int) -> Optional[np.random.Generator]:
    return None if seed == 0 else np.random.default_rng(seed)


# ------------------------------------------------------------- lp-corpus

LP_CORPUS_SEED = 20240816
LP_SYSTEMS = 12


def criterion07_systems(corpus_seed: int, count: int):
    """Raw (A, b) pairs drawn exactly as criterion 07 draws them."""
    rng = np.random.default_rng(corpus_seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 9))
        out.append((rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m)))
    return out


def _normalized(problem: Problem):
    """The system as the CLI sees it, or None when every row is vacuous."""
    try:
        return normalize(LinearSystem(problem.rows, problem.offsets))
    except EmptySystem:
        return None


def _oracle_feasible(problem: Problem) -> bool:
    if "feasible" not in problem.truth:
        norm = _normalized(problem)
        problem.truth["feasible"] = (
            norm is None or vertex_enumerate_feasible(norm, tol=ORACLE_TOL).feasible
        )
    return problem.truth["feasible"]


def _check_decide(op: Op, code: int, report: dict) -> Optional[str]:
    """Verdict and exit code against the oracle or planted truth; every
    certificate through validate_certificate."""
    verdict = report.get("verdict")
    if verdict not in _DECIDE_EXIT:
        return f"verdict {verdict} (exit {code})"
    if code != _DECIDE_EXIT[verdict]:
        return f"verdict {verdict} with exit {code}"
    if (verdict == "Feasible") != op.problem.truth["feasible"]:
        return f"verdict {verdict} contradicts the reference"
    if verdict == "InfeasibleNonStrict":
        cert = report.get("certificate")
        norm = _normalized(op.problem)
        if cert is None or norm is None or not validate_certificate(
            norm, np.asarray(cert, dtype=float), tol=CERT_TOL
        ):
            return "certificate fails validate_certificate"
    return None


def _check_find_point(op: Op, code: int, report: dict) -> Optional[str]:
    verdict = report.get("verdict")
    if verdict == "FeasiblePointFound" and code == 0:
        norm = _normalized(op.problem)
        point = report.get("point")
        if point is None or None in point:
            return "no point reported"
        if norm is not None and norm.violation(np.asarray(point)) > POINT_TOL:
            return "point violates the normalized system"
        return None
    if verdict == "InfeasibleProven" and code == 1:
        if op.problem.truth["feasible"]:
            return "InfeasibleProven on a feasible system"
        return None
    return f"verdict {verdict} (exit {code})"


def _check_lp(op: Op, code: int, report: dict) -> Optional[str]:
    _oracle_feasible(op.problem)
    if op.command == "decide":
        return _check_decide(op, code, report)
    return _check_find_point(op, code, report)


def lp_corpus(seed: int, corpus_seed: Optional[int] = None) -> Workload:
    corpus_seed = LP_CORPUS_SEED if corpus_seed is None else corpus_seed
    rng = _presenter(seed)
    ops = []
    for i, (rows, offsets) in enumerate(criterion07_systems(corpus_seed, LP_SYSTEMS)):
        rows, offsets = _present_system(rows, offsets, rng)
        problem = Problem(f"lp-{i:03d}", rows, offsets)
        ops.append(Op(f"{problem.name}:decide", "decide", "decide", problem))
        ops.append(Op(f"{problem.name}:find-point", "find-point", "find-point", problem))
    return Workload("lp-corpus", corpus_seed, ops, _check_lp,
                    {"decide": ("decide",), "find_point": ("find-point",)})


# -------------------------------------------------------------- m-ladder

LADDER_CORPUS_SEED = 20240816
LADDER_N = 4
# One system per rung, alternating planted-feasible and planted-infeasible.
LADDER_RUNGS = ((8, True), (16, False), (32, True), (48, False))


def planted_system(rng: np.random.Generator, m: int, n: int, feasible: bool):
    """Uniform rows with a planted strict interior point or Farkas vector.

    Feasible: b = -(A x*) - s with slack s > 0.  Infeasible: A is
    projected so that A^T q = 0 for a planted q > 0, and b is shifted so
    that b . q > 0.
    """
    rows = rng.uniform(-1, 1, (m, n))
    if feasible:
        x_star = rng.uniform(-1, 1, n)
        return rows, -(rows @ x_star) - rng.uniform(0.1, 1.0, m)
    q = rng.uniform(0.1, 1.0, m)
    rows = rows - np.outer(q, q @ rows) / (q @ q)
    offsets = rng.uniform(-1, 1, m)
    offsets = offsets + q * (0.5 - offsets @ q) / (q @ q)
    return rows, offsets


def m_ladder(seed: int, corpus_seed: Optional[int] = None) -> Workload:
    corpus_seed = LADDER_CORPUS_SEED if corpus_seed is None else corpus_seed
    rng = _presenter(seed)
    ops = []
    for m, feasible in LADDER_RUNGS:
        rows, offsets = planted_system(
            np.random.default_rng([corpus_seed, m]), m, LADDER_N, feasible
        )
        rows, offsets = _present_system(rows, offsets, rng)
        kind = "feasible" if feasible else "infeasible"
        problem = Problem(f"m{m:02d}-{kind}", rows, offsets, {"feasible": feasible})
        ops.append(Op(f"{problem.name}:decide", f"m{m}", "decide", problem))
    stems = {f"decide_s_m{m}": (f"m{m}",) for m, _ in LADDER_RUNGS}
    return Workload("m-ladder", corpus_seed, ops, _check_decide, stems, rung_totals=True)


# -------------------------------------------------------- planted-minima

MINIMA_CORPUS_SEED = 77
MINIMA_RADIUS = "2"
MINIMA_EPS = "2e-5"
MINIMA_N2 = 70
MINIMA_N8 = 34


def criterion06_instances(corpus_seed: int, count: int):
    """(rows, offsets, true_min, minimizer, x0) drawn exactly as criterion 06."""
    rng = np.random.default_rng(corpus_seed)
    out = []
    for _ in range(count):
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
        shift = rng.uniform(0.1, 1.0) * 0.99
        angle = rng.uniform(0, 2 * math.pi)
        x0 = minimizer + shift * np.array([math.cos(angle), math.sin(angle)])
        out.append((np.array(rows), np.array(offsets), true_min, minimizer, x0))
    return out


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def planted_minimum(rng: np.random.Generator, n: int):
    """Criterion 06's construction in R^n: n+1 active pieces whose
    gradients positively span R^n, plus 2 pieces strictly below them."""
    minimizer = rng.uniform(-2, 2, n)
    true_min = float(rng.uniform(-3, 1))
    # Jittered vertices of a randomly rotated regular simplex; their
    # positive combination with weights 1/mag is zero, so they span R^n
    # positively whenever they span it at all.
    rotation, _ = np.linalg.qr(rng.normal(size=(n, n)))
    vertices = np.eye(n + 1) - 1.0 / (n + 1)
    basis, _ = np.linalg.qr(vertices.T)
    directions = vertices @ basis[:, :n] @ rotation.T
    while True:
        jittered = directions + 0.15 * rng.normal(size=directions.shape)
        weights = np.linalg.svd(jittered.T)[2][-1]
        if np.all(weights > 0) or np.all(weights < 0):
            break
    grads = [rng.uniform(0.5, 2.0) * g / np.linalg.norm(g) for g in jittered]
    rows = list(grads)
    offsets = [true_min - float(g @ minimizer) for g in grads]
    for _ in range(2):
        g = rng.uniform(-2, 2, n)
        offsets.append(true_min - float(g @ minimizer) - rng.uniform(0.3, 2.0))
        rows.append(g)
    return np.array(rows), np.array(offsets), true_min, minimizer


def _present_minimum(rows, offsets, true_min, minimizer, x0, rng):
    """Signed coordinate order, piece order, translation and value shift."""
    if rng is None:
        return rows, offsets, true_min, x0
    n = rows.shape[1]
    signed = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)[:, None]
    shift = rng.uniform(-1, 1, n)
    lift = float(rng.uniform(-1, 1))
    order = rng.permutation(rows.shape[0])
    rows = rows @ signed.T
    offsets = offsets - rows @ shift + lift
    return rows[order], offsets[order], true_min + lift, signed @ x0 + shift


def _far_start(rng: np.random.Generator, minimizer: np.ndarray) -> np.ndarray:
    return minimizer + rng.uniform(2.5, 6.0) * _unit(rng, minimizer.shape[0])


def _check_minimum(op: Op, code: int, report: dict) -> Optional[str]:
    verdict = report.get("verdict")
    if verdict != "GlobalOptimumCertified" or code != 0:
        return f"verdict {verdict} (exit {code})"
    value = report.get("value")
    if value is None or abs(value - op.problem.truth["minimum"]) > MIN_VALUE_TOL:
        return f"value {value} misses the planted minimum {op.problem.truth['minimum']}"
    return None


def planted_minima(seed: int, corpus_seed: Optional[int] = None) -> Workload:
    """Every n=2 instance starts near (criterion 06's start) or far, in
    alternation; likewise every n=8 instance.  Two n=2 items for each n=8
    item keep both percentiles inside one cluster of solve times."""
    corpus_seed = MINIMA_CORPUS_SEED if corpus_seed is None else corpus_seed
    far_rng = np.random.default_rng([corpus_seed, 2])
    near_rng = np.random.default_rng([corpus_seed, 1])
    eight_rng = np.random.default_rng([corpus_seed, 8])
    rng = _presenter(seed)

    items = []
    for i, (rows, offsets, true_min, minimizer, x0) in enumerate(
        criterion06_instances(corpus_seed, MINIMA_N2)
    ):
        start = x0 if i % 2 == 0 else _far_start(far_rng, minimizer)
        items.append((2, i, rows, offsets, true_min, minimizer, start))
    for i in range(MINIMA_N8):
        rows, offsets, true_min, minimizer = planted_minimum(eight_rng, 8)
        if i % 2 == 0:
            start = minimizer + near_rng.uniform(0.1, 1.0) * 0.99 * _unit(near_rng, 8)
        else:
            start = _far_start(far_rng, minimizer)
        items.append((8, i, rows, offsets, true_min, minimizer, start))
    # Interleave n=2, n=2, n=8 so every stretch of the run has the same mix.
    twos = [it for it in items if it[0] == 2]
    eights = [it for it in items if it[0] == 8]
    order = []
    while twos or eights:
        order.extend(twos[:2])
        del twos[:2]
        order.extend(eights[:1])
        del eights[:1]

    ops = []
    for n, i, rows, offsets, true_min, minimizer, start in order:
        rows, offsets, true_min, start = _present_minimum(
            rows, offsets, true_min, minimizer, start, rng
        )
        reach = "near" if i % 2 == 0 else "far"
        problem = Problem(f"n{n}-{i:03d}-{reach}", rows, offsets, {"minimum": true_min})
        flags = [
            "--radius", MINIMA_RADIUS, "--eps", MINIMA_EPS,
            # "--x0 -0.5,..." is read by argparse as a flag (exit 64).
            "--x0=" + ",".join(repr(float(v)) for v in start),
        ]
        ops.append(Op(f"{problem.name}:minimize", f"n{n}", "minimize", problem, flags))
    stems = {"minimize": ("n2", "n8"), "minimize_n2": ("n2",), "minimize_n8": ("n8",)}
    return Workload("planted-minima", corpus_seed, ops, _check_minimum, stems)


WORKLOADS = {
    "lp-corpus": lp_corpus,
    "m-ladder": m_ladder,
    "planted-minima": planted_minima,
}
