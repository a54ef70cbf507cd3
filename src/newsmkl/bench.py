"""Solver benchmarking: SVM-call counts of ACCPM vs the reduced-gradient baseline.

Generates seeded synthetic kernel-mixing instances (one linear kernel
plus alternating gaussian / polynomial kernels, all unit trace) and runs
both MKL solvers at the same duality-gap target, recording iteration and
SVM-solve counts per run.
"""

from __future__ import annotations

import time as _time

import numpy as np

from .kernels import KernelSpec, gram_matrix, median_sqdist, sqdist
from .mkl import SOLVERS, MklError, MklProblem, MklSolution, get_solver

# bench.csv's columns, the keys of a run_bench row (`wall_time` stays column 5); a cell
# is str() of its value unless _BENCH_FORMATS formats it
BENCH_COLUMNS = ("method", "n_kernels", "kernel_dim", "iterations", "svm_solves", "wall_time",
                 "final_gap", "final_J", "status", "smo_not_converged", "smo_iterations")
_BENCH_FORMATS = {"wall_time": "{:.6f}", "final_gap": "{!r}", "final_J": "{!r}"}

BLOCK = 4  # features in each of the linear and quadratic signal blocks
N_NOISE = 4  # shared noise features padding both blocks


def make_bench_problem(seed: int, n_kernels: int, dim: int, C: float = 1000.0,
                       gap_tol: float = 0.01, label_noise: float = 0.1,
                       quad_weight: float = 1.0) -> MklProblem:
    """Random classification instance with a predefined kernel family.

    Labels mix a linear rule on one feature block with a quadratic rule on
    a second block; the linear kernel sees only the first block and the
    gaussian/polynomial kernels only the second (all padded with shared
    noise features), so no single kernel captures the whole signal and the
    optimal mixture typically weights at least two kernels.
    """
    if n_kernels < 1:
        raise MklError(f"n_kernels must be >= 1, got {n_kernels}")
    if dim < 2:  # one sample cannot hold both classes
        raise MklError(f"dim must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    L = rng.standard_normal((dim, BLOCK))
    Q = rng.standard_normal((dim, BLOCK))
    N = rng.standard_normal((dim, N_NOISE))
    w_lin = rng.standard_normal(BLOCK)
    w_quad = rng.standard_normal(BLOCK)
    lin_part = L @ w_lin
    quad_part = (Q * Q - 1.0) @ w_quad
    score = lin_part / max(float(np.std(lin_part)), 1e-12) \
        + quad_weight * quad_part / max(float(np.std(quad_part)), 1e-12) \
        + label_noise * rng.standard_normal(dim)
    y = np.where(score >= 0.0, 1.0, -1.0)
    if np.all(y == y[0]):  # keep the instance solvable
        y[: dim // 2] = -y[0]

    X_lin = np.hstack([L, N])
    X_nl = np.hstack([Q, N])
    D = sqdist(X_nl)  # the median's and every gaussian Gram's distances
    med = median_sqdist(D)
    kernels = [gram_matrix(KernelSpec(kind="linear", trace_normalize=True), X_lin)]
    sigma_scales = (1.0, 0.25, 4.0, 16.0, 64.0)
    degrees = (2, 3, 4)
    gi = pi = 0
    while len(kernels) < n_kernels:
        if len(kernels) % 2 == 1:
            spec = KernelSpec(kind="gaussian", sigma=sigma_scales[gi % len(sigma_scales)] * med,
                              trace_normalize=True)
            gi += 1
            kernels.append(gram_matrix(spec, X_nl, D))
        else:
            spec = KernelSpec(kind="polynomial", degree=degrees[pi % len(degrees)],
                              trace_normalize=True)
            pi += 1
            kernels.append(gram_matrix(spec, X_nl))
    return MklProblem(kernels=kernels, labels=y, C=C, gap_tol=gap_tol)


def run_bench(methods: list[str], n_kernels: int, dim: int, runs: int, seed: int,
              C: float = 1000.0, gap_tol: float = 0.01) -> list[dict]:
    """One row per (method, run), keyed by BENCH_COLUMNS: counts, wall
    time, final gap / objective and how the solve ended. `methods` are
    names in `mkl.SOLVERS`; an empty list or `runs` < 1 raises MklError,
    as there would be nothing to solve."""
    if not methods:
        raise MklError(f"no solver named; choose from {', '.join(SOLVERS)}")
    if runs < 1:
        raise MklError(f"runs must be >= 1, got {runs}")
    solvers = [(method, get_solver(method)) for method in methods]
    rows = []
    for run in range(runs):
        problem = make_bench_problem(seed + run, n_kernels, dim, C=C, gap_tol=gap_tol)
        for method, solver in solvers:
            t0 = _time.perf_counter()
            sol: MklSolution = solver(problem)
            wall = _time.perf_counter() - t0
            rows.append(dict(zip(BENCH_COLUMNS, (
                method, n_kernels, dim, sol.iterations, sol.svm_solves, wall, sol.gap, sol.objective,
                sol.status, sol.smo_not_converged, sol.smo_iterations))))
    return rows


def write_bench_csv(path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(BENCH_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(_BENCH_FORMATS.get(c, "{}").format(r[c]) for c in BENCH_COLUMNS) + "\n")
