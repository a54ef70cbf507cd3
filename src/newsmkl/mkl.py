"""Multiple kernel learning: simplex weights over predefined kernels.

Minimizes J(d) = max_a { e'a - 1/2 a' diag(y) (sum_i d_i K_i) diag(y) a }
over the unit simplex (sum d_i = 1, d >= 0). Each evaluation of J is one
SVM solve on the mixed kernel.

One loop, `_solve`, runs both solvers: it checks the duality gap at each
point a solver proposes, keeps the best point and ends at gap_tol
("converged") or max_iters. Each solver is only its proposal rule:

  * solve_accpm: analytic center cutting plane method. The simplex
    equality is eliminated by the parameterization
    d = (z_1, ..., z_{n-1}, 1 - sum z), so the localization polyhedron
    {z : A z <= b} lives in n-1 dimensions. Each iteration computes the
    analytic center (damped Newton on the log barrier), evaluates J and
    its gradient there (one SVM), prunes to at most 3n - 1 constraints by a
    barrier-Hessian relevance score and adds the halfspace that keeps
    every point at least as good as the center; a zero reduced gradient
    ends it ("flat_gradient"), and so does an empty interior
    ("degenerate_localization"). The SVM oracle is inexact: SMO starts
    loose and tightens only while the point needs it (see `_evaluate`),
    and a loosely solved point's cut is shallow by the SVM's own gap. A
    center that puts VERTEX_SHARE of its weight on one kernel is followed
    by one solve at that kernel's vertex, whose zero gap certifies a
    vertex optimum that the centers could only approach.

  * solve_reduced_gradient: projected reduced-gradient descent on the
    simplex with a line search; every trial step is one SVM solve, and no
    descent or no decrease ends it ("stalled"). Serves as the baseline
    for SVM-call-count benchmarking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _smo
from .kernels import GramMatrix, Kernel
from .svm import (DEFAULT_MAX_ITER, SvmModel, as_labels, build_model, check_dual, check_positive_finite,
                  dual_objective, primal_dual_gap, project_feasible, recover_bias, solve_dual)

NEWTON_TOL = 1e-8
MAX_NEWTON = 200
BACKTRACK_ALPHA = 0.25
BACKTRACK_BETA = 0.5
WEIGHT_THRESHOLD = 1e-4
LINE_TOL = 0.05  # reduced gradient: golden-section stop, as a fraction of the step interval
ARMIJO_C = 1e-4  # reduced gradient: sufficient-decrease constant
DEFAULT_GAP_TOL = 0.01
DEFAULT_C = 1000.0
# kernel products: a delta update over more than this share of alpha's entries
# falls back to a full pass. Break-even on 13 kernels at n = 955 (one BLAS
# thread) is about 0.38 n; the margin keeps the row gather's temporary small
# and lets the full passes reset the rounding the delta updates accumulate.
DELTA_MAX_FRACTION = 0.25
# ACCPM's first SMO tolerance; later solves tighten from it toward inner_tol
LOOSE_TOL = 1e-2
# ACCPM: a center with at least this weight on the kernel of largest quad form
# is followed by one solve at that kernel's vertex (see `_accpm_points`)
VERTEX_SHARE = 0.9
# ACCPM: the longest step off a new cut toward the next center's start (see `_push_inside`)
PUSH_STEP = 0.1


class MklError(ValueError):
    """Malformed MKL problem or degenerate localization set."""


def check_c_and_gap_tol(C: float, gap_tol: float) -> None:
    """Raise MklError unless the SVM box bound C and the gap target are finite and > 0."""
    check_positive_finite("C", C, MklError)
    check_positive_finite("gap_tol", gap_tol, MklError)


@dataclass
class MklProblem:
    """A fixed set of kernels, labels, and solver tolerances."""

    kernels: list[Kernel]
    labels: np.ndarray
    C: float = DEFAULT_C
    gap_tol: float = DEFAULT_GAP_TOL
    max_iters: int = 200
    svm_tol: float | None = None  # inner SMO KKT tolerance; derived from gap_tol if None

    def __post_init__(self):
        if len(self.kernels) < 1:
            raise MklError("need at least one kernel")
        size = self.kernels[0].size
        if any(k.size != size for k in self.kernels):
            raise MklError("all kernels must have the same size")
        self.labels = as_labels(self.labels, size, MklError)
        check_c_and_gap_tol(self.C, self.gap_tol)

    @property
    def n_kernels(self) -> int:
        return len(self.kernels)

    @property
    def inner_tol(self) -> float:
        """SMO KKT tolerance for the inner solves.

        The duality gap is an absolute quantity on the scale of the kernel
        quadratic forms, which grows with C, so the inner precision
        tightens both with gap_tol and with C; otherwise alpha noise puts
        a floor under the computable gap.
        """
        if self.svm_tol is not None:
            return self.svm_tol
        return max(1e-10, min(1e-3, self.gap_tol * 1e-2 * min(1.0, 10.0 / self.C)))


@dataclass
class MklState:
    """Warm-start carrier and SVM/SMO counters for one MKL solve.

    `alpha` is the last solve's alpha, the next solve's warm start, and
    `products` holds U = [K_k (y * alpha)] for every kernel k. The next
    solve brings U to its projected warm start and then to SMO's result by
    delta updates over the entries S that moved,
    U_k += K_k[S, :]' (y * delta alpha)_S, so its warm-start gradient
    y * (d' U) - 1 and its quad forms cost O(|S| n) per kernel. A cold
    solve, or one where |S| exceeds DELTA_MAX_FRACTION of the entries,
    takes a full pass instead. Delta updates round differently from a
    full pass, so a gap that could end a solve (`_solve`) and the returned
    gap and bias (`_finish`) come from full passes: one per finished solve,
    which `_finish` reuses unless it re-solves.

    `tol` is the SMO tolerance the next solve starts at, never below
    `inner_tol`: 0.0 solves at `inner_tol` (the exact oracle), and ACCPM
    starts at LOOSE_TOL. `_evaluate` only ever lowers it, and compares each
    point's J with `best_J`, the lowest J so far.
    """

    svm_solves: int = 0
    smo_iterations: int = 0
    smo_not_converged: int = 0
    alpha: np.ndarray | None = None
    products: np.ndarray | None = None
    tol: float = 0.0
    best_J: float = np.inf


@dataclass
class SolvePoint:
    """One SVM solve at weights d: J(d), the maximizing alpha, SMO's
    (n_iter, violation, converged) and the kernel quad forms q.

    A point SMO left above `inner_tol` has J = D(alpha) <= J(d) and
    `eps`, the SVM's duality gap, with J(d) <= J + eps: its cut is
    shallow by eps. A point solved at `inner_tol` has eps = 0.

    q is taken from the products as `_evaluate` left them, which delta
    updates may have reached. `_solve`'s stop check replaces it with a
    full pass's and keeps that pass's products in `U`, None until a full
    pass sets it.
    """

    d: np.ndarray
    J: float
    alpha: np.ndarray
    smo: tuple[int, float, bool]
    q: np.ndarray
    eps: float = 0.0
    U: np.ndarray | None = None


# how an MKL solve ended: the MklSolution attributes every result file writes,
# under these names and in this order
OUTCOME = ("svm_solves", "status", "gap", "iterations", "smo_iterations", "smo_not_converged")


@dataclass
class MklSolution:
    d: np.ndarray
    model: SvmModel
    objective: float
    gap: float
    iterations: int
    svm_solves: int
    smo_iterations: int  # total over the SVM solves
    smo_not_converged: int  # SVM solves that stopped at SMO's max_iter
    status: str  # converged | flat_gradient | stalled | max_iters | degenerate_localization
    gap_history: list[float] = field(default_factory=list)

    def outcome(self) -> dict:
        """The OUTCOME attributes, by name and in order."""
        return {name: getattr(self, name) for name in OUTCOME}


# ---------------------------------------------------------------------------
# Objective, gradient, duality gap
# ---------------------------------------------------------------------------


def mix_kernels(problem: MklProblem, d) -> GramMatrix:
    """Convex combination sum_i d_i K_i as a GramMatrix."""
    d = np.asarray(d, dtype=np.float64)
    n = problem.kernels[0].size
    G = np.zeros((n, n))
    for w, k in zip(d, problem.kernels):
        if w != 0.0:
            G = G + w * k.rows(slice(None))
    return GramMatrix(values=G)


def _check_simplex(d, n: int) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64).ravel()
    if d.shape[0] != n:
        raise MklError(f"weight vector has length {d.shape[0]}, expected {n}")
    if np.any(d < -1e-10) or abs(float(d.sum()) - 1.0) > 1e-8:
        raise MklError("weights must lie on the unit simplex")
    return np.maximum(d, 0.0)


def _kernel_products(problem: MklProblem, v: np.ndarray) -> np.ndarray:
    """U = [K_k v] for every kernel: one matvec pass over the kernels."""
    return np.array([k.dot(v) for k in problem.kernels])


def _sync_products(problem: MklProblem, U: np.ndarray | None, alpha_from: np.ndarray,
                   alpha_to: np.ndarray) -> np.ndarray:
    """U = [K_k (y * alpha_to)], updated in place from U = [K_k (y * alpha_from)].

    Only the entries S where the two alphas differ are paid for: K is
    symmetric, so U_k += (y * delta alpha)_S K_k[S, :] gathers |S|
    contiguous rows. Without a U, or when |S| exceeds DELTA_MAX_FRACTION of
    the entries, one full pass recomputes it.
    """
    y = problem.labels
    if U is not None:
        S = np.flatnonzero(alpha_to != alpha_from)
        if S.size <= DELTA_MAX_FRACTION * y.shape[0]:
            if S.size:
                dv = y[S] * (alpha_to[S] - alpha_from[S])
                for u, k in zip(U, problem.kernels):
                    u += dv @ k.rows(S)
            return U
    return _kernel_products(problem, y * alpha_to)


def _quad_forms(U: np.ndarray, v: np.ndarray) -> np.ndarray:
    # one dot per kernel, not U @ v: keeps q bit-identical to v @ (K_k @ v)
    return np.array([float(v @ u) for u in U])


def _evaluate(problem: MklProblem, d, state: MklState) -> SolvePoint:
    """J(d), its alpha and the kernel quad forms q from one SVM solve.

    The mixture sum_k d_k K_k is never built: SMO reads its rows through
    a row function that mixes (and caches, for this solve) only the rows
    it asks for. The products U = [K_k (y * alpha)] follow alpha through
    `state` by delta updates (see MklState); they give the warm-start
    gradient and the quad forms U (y * alpha).

    SMO stops at `state.tol` (at least `inner_tol`) and, while the point
    stopped above `inner_tol`, the same run (alpha, gradient and row cache)
    continues at a tenth of it, never below `inner_tol`, as long as (a) its
    SVM duality gap eps exceeds a tenth of its MKL gap, (b) its MKL gap is
    at most gap_tol (only a point at `inner_tol` certifies convergence) or
    (c) J >= best_J - eps (it does not beat the best point by more than its
    own error). These rules read the gap of the delta-updated q; only
    `_solve` takes a full pass to decide a stop. The tolerance reached is
    the next solve's start.
    """
    d = _check_simplex(d, problem.n_kernels)
    y, C, inner = problem.labels, problem.C, problem.inner_tol
    check_dual(y, C, inner)
    n = y.shape[0]
    used = np.flatnonzero(d)
    w = d[used]
    kernels = [problem.kernels[k] for k in used]
    row_of = [K.row for K in kernels]
    rows: dict[int, np.ndarray] = {}

    def row(i: int) -> np.ndarray:
        r = rows.get(i)
        if r is None:
            r = rows[i] = w @ np.array([f(i) for f in row_of])
        return r

    diag = w @ np.array([K.diagonal() for K in kernels])
    if state.alpha is not None:
        start = project_feasible(state.alpha, y, C)
        U = _sync_products(problem, state.products, state.alpha, start)
        grad = y * (d @ U) - 1.0
    else:
        start, U = np.zeros(n), None
        grad = -np.ones(n)

    tol = max(inner, state.tol)
    alpha, before, n_iter = start.copy(), start, 0
    while True:
        more, violation, converged = _smo.solve(row, diag, y, alpha, grad, C, tol,
                                                DEFAULT_MAX_ITER - n_iter)
        n_iter += more
        U = _sync_products(problem, U, before, alpha)
        point = SolvePoint(d=d, J=dual_objective(alpha, grad), alpha=alpha,
                           smo=(n_iter, violation, converged), q=_quad_forms(U, y * alpha))
        if violation <= inner:
            break
        point.eps = primal_dual_gap(alpha, y, grad, C)
        if not converged:  # SMO's iteration budget is spent
            break
        gap = _gap_from_quads(d, point.q)
        if not (point.eps > 0.1 * gap or gap <= problem.gap_tol
                or point.J >= state.best_J - point.eps):
            break
        tol, before = max(inner, 0.1 * tol), alpha.copy()
    state.svm_solves += 1
    state.smo_iterations += n_iter
    state.smo_not_converged += 0 if converged else 1
    state.alpha, state.products = alpha, U
    state.tol, state.best_J = tol, min(state.best_J, point.J)
    return point


def mkl_objective(problem: MklProblem, d, state: MklState | None = None) -> tuple[float, np.ndarray]:
    """J(d) and the maximizing alpha from one SVM solve on the mixture."""
    point = _evaluate(problem, d, MklState() if state is None else state)
    return point.J, np.array(point.alpha)


def kernel_quad_forms(problem: MklProblem, alpha_star) -> np.ndarray:
    """q_i = a' diag(y) K_i diag(y) a for each kernel."""
    v = problem.labels * np.asarray(alpha_star, dtype=np.float64).ravel()
    if v.shape[0] != problem.kernels[0].size:
        raise MklError("alpha length does not match kernel size")
    return _quad_forms(_kernel_products(problem, v), v)


def mkl_gradient(alpha_star, problem: MklProblem) -> np.ndarray:
    """dJ/dd_i = -1/2 a' diag(y) K_i diag(y) a at the mixture optimum a."""
    return -0.5 * kernel_quad_forms(problem, alpha_star)


def duality_gap(problem: MklProblem, d, alpha_star) -> float:
    """Explicit MKL duality gap: max_i q_i - sum_i d_i q_i (>= 0 at a valid a)."""
    d = _check_simplex(d, problem.n_kernels)
    q = kernel_quad_forms(problem, alpha_star)
    gap = _gap_from_quads(d, q)
    scale = max(1.0, float(np.max(np.abs(q))))
    if gap < -max(1e-10, 1e-14 * scale):
        raise MklError(f"negative duality gap {gap:.3e}: alpha is stale for this mixture")
    return gap


def _gap_from_quads(d: np.ndarray, q: np.ndarray) -> float:
    return float(np.max(q) - d @ q)


# ---------------------------------------------------------------------------
# Localization set in reduced simplex coordinates
# ---------------------------------------------------------------------------


@dataclass
class LocalizationSet:
    """Polyhedron {z in R^(n-1) : A z <= b}, rows unit-normalized.

    The first n rows are the faces of the simplex and are never pruned;
    every later row is a cut from an objective gradient (`add_cut`
    appends, `prune_cuts` keeps rows in order).
    """

    A: np.ndarray
    b: np.ndarray

    @classmethod
    def initial_simplex(cls, n: int) -> "LocalizationSet":
        """Faces of the reduced simplex: z_i >= 0 and sum z <= 1."""
        k = n - 1
        if k < 1:
            raise MklError("reduced simplex needs n >= 2 kernels")
        A = np.vstack([-np.eye(k), np.ones((1, k)) / np.sqrt(k)])
        b = np.concatenate([np.zeros(k), [1.0 / np.sqrt(k)]])
        return cls(A=A, b=b)

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def slacks(self, z: np.ndarray) -> np.ndarray:
        return self.b - self.A @ z

    def is_interior(self, z: np.ndarray) -> bool:
        return bool(np.all(self.slacks(z) > 0.0))


def reduced_to_full(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64).ravel()
    return np.concatenate([z, [1.0 - float(z.sum())]])


def uniform_reduced(n: int) -> np.ndarray:
    return np.full(n - 1, 1.0 / n)


def barrier_value(loc: LocalizationSet, z: np.ndarray) -> float:
    s = loc.slacks(z)
    if np.any(s <= 0.0):
        return np.inf
    return float(-np.sum(np.log(s)))


def barrier_hessian(loc: LocalizationSet, z: np.ndarray) -> np.ndarray:
    s = loc.slacks(z)
    if np.any(s <= 0.0):
        raise MklError("barrier Hessian requested at a non-interior point")
    W = loc.A / s[:, None]
    return W.T @ W


def analytic_center(loc: LocalizationSet, z0: np.ndarray) -> np.ndarray:
    """Minimize -sum log(b_i - a_i'z) by damped Newton with backtracking.

    Needs a strictly interior starting point z0 (the uniform mixture is
    interior to the initial simplex faces). Raises MklError when the
    interior is (numerically) empty at the start.
    """
    z = np.asarray(z0, dtype=np.float64).copy()
    if not loc.is_interior(z):
        raise MklError("analytic centering needs a strictly interior start (empty interior?)")
    fz = barrier_value(loc, z)
    for _ in range(MAX_NEWTON):
        s = loc.slacks(z)
        inv_s = 1.0 / s
        g = loc.A.T @ inv_s
        W = loc.A * inv_s[:, None]
        H = W.T @ W
        try:
            p = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            p = np.linalg.lstsq(H, -g, rcond=None)[0]
        decrement2 = float(-g @ p)
        if decrement2 < 0.0:  # numerical: H not PD at float precision
            decrement2 = abs(decrement2)
        if np.sqrt(decrement2) <= NEWTON_TOL:
            return z
        t = 1.0
        gTp = float(g @ p)
        while t > 1e-16:
            cand = z + t * p
            fc = barrier_value(loc, cand)
            if fc <= fz + BACKTRACK_ALPHA * t * gTp:
                break
            t *= BACKTRACK_BETA
        else:
            return z  # no further progress possible at float precision
        if np.array_equal(cand, z):
            return z  # float fixed point: every later iteration would repeat this step
        z, fz = cand, fc
    return z


def reduce_gradient(full_gradient: np.ndarray) -> np.ndarray:
    """Map a full-coordinate gradient onto the reduced parameterization."""
    g = np.asarray(full_gradient, dtype=np.float64).ravel()
    return g[:-1] - g[-1]


def add_cut(loc: LocalizationSet, center_z: np.ndarray, full_gradient: np.ndarray,
            slack: float = 0.0) -> tuple[LocalizationSet, bool]:
    """Append the objective cut at the center.

    Keeps the halfspace {z : g_r'(z - center) <= slack}: by convexity of J
    every point with J <= J(center) satisfies it with slack 0, so the
    minimizer stays inside the localization set. A gradient from an alpha
    that is eps short of optimal at the center still keeps it with
    slack = eps, since J(d*) <= J(center) <= f(alpha, center) + eps and
    f(alpha, .) is linear in d with gradient g. A zero reduced gradient
    means J is flat along the simplex and the center is already optimal:
    no cut is added and the flag comes back False.
    """
    g_r = reduce_gradient(full_gradient)
    norm = float(np.linalg.norm(g_r))
    gscale = float(np.linalg.norm(np.asarray(full_gradient, dtype=np.float64)))
    if norm <= 1e-14 * max(1.0, gscale):
        return loc, False
    a = g_r / norm
    b_new = float(a @ center_z) + slack / norm
    A = np.vstack([loc.A, a[None, :]])
    b = np.concatenate([loc.b, [b_new]])
    return LocalizationSet(A=A, b=b), True


def cut_relevance(loc: LocalizationSet, center_z: np.ndarray, hessian: np.ndarray) -> np.ndarray:
    """Relevance of each row: a' H^{-1} a / (a'z - b)^2, +inf at slack <= 0.

    A freshly added cut has slack 0 up to rounding (either sign); a
    numerically singular H falls back to least squares, as in
    analytic_center.
    """
    s = loc.slacks(center_z)
    try:
        X = np.linalg.solve(hessian, loc.A.T)
    except np.linalg.LinAlgError:
        X = np.linalg.lstsq(hessian, loc.A.T, rcond=None)[0]
    num = np.einsum("ij,ji->i", loc.A, X)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(s <= 0.0, np.inf, num / np.square(s))
    return rel


def prune_cuts(loc: LocalizationSet, center_z: np.ndarray, hessian: np.ndarray,
               budget: int) -> LocalizationSet:
    """Keep at most `budget` constraints, ranked by relevance at the center
    (ACCPM keeps 3n - 1, so that its new cut makes 3n).

    Simplex faces are never pruned (dropping them can unbound the
    barrier); the budget is filled with the most relevant objective cuts,
    earliest-first on ties. `hessian` is the barrier Hessian of the set
    the center was computed in, so a freshly added zero-slack cut gets
    infinite relevance and survives automatically.
    """
    n = loc.dim + 1  # the faces are rows 0..n-1
    n_keep_cuts = max(budget - n, 0)
    if loc.n_rows - n <= n_keep_cuts:
        return loc
    rel = cut_relevance(loc, center_z, hessian)[n:]
    order = np.argsort(-rel, kind="stable")  # stable: earliest row wins ties
    keep = np.concatenate([np.arange(n), n + np.sort(order[:n_keep_cuts])])
    return LocalizationSet(A=loc.A[keep], b=loc.b[keep])


def _push_inside(loc: LocalizationSet, z: np.ndarray, new_row: int) -> np.ndarray:
    """Step off the zero-slack newest cut into the interior, by at most PUSH_STEP."""
    a = loc.A[new_row]
    s = loc.slacks(z)
    proj = loc.A @ a  # slack change rate along -a is +proj
    shrink = proj < 0.0
    t_max = PUSH_STEP
    if np.any(shrink):
        t_max = min(t_max, 0.5 * float(np.min(s[shrink] / -proj[shrink])))
    return z - max(t_max, 0.0) * a


# ---------------------------------------------------------------------------
# Solvers: one iteration loop, one proposal rule per method
# ---------------------------------------------------------------------------


def _finish(problem: MklProblem, state: MklState, point: SolvePoint, status: str,
            gap_history: list[float]) -> MklSolution:
    """The solution at a solve point. Weights below WEIGHT_THRESHOLD are
    zeroed and the rest renormalized, with a re-solve at `inner_tol` if
    that moved d or SMO left the point above `inner_tol`. The full product
    pass of the returned alpha gives the returned gap and the model's bias:
    the point's own `U` when it was not re-solved, else one pass here."""
    kept = np.where(point.d < WEIGHT_THRESHOLD, 0.0, point.d)
    thresholded = not np.array_equal(kept, point.d)
    if thresholded or point.smo[1] > problem.inner_tol:
        state.tol = 0.0
        point = _evaluate(problem, kept / kept.sum() if thresholded else point.d, state)
    d = point.d / point.d.sum()
    y, C = problem.labels, problem.C
    v = y * point.alpha
    U = _kernel_products(problem, v) if point.U is None else point.U
    q = _quad_forms(U, v)
    model = build_model(point.alpha, point.J, recover_bias(point.alpha, y, d @ U, C), C, point.smo)
    return MklSolution(d=d, model=model, objective=point.J, gap=_gap_from_quads(d, q),
                       iterations=len(gap_history), svm_solves=state.svm_solves,
                       smo_iterations=state.smo_iterations,
                       smo_not_converged=state.smo_not_converged, status=status,
                       gap_history=gap_history)


def _solve(problem: MklProblem, points) -> MklSolution:
    """Every MKL solve. `points(problem, state)` is a solver's proposal
    rule: a generator that yields one solve point per iteration and returns
    the status that ends the solve early. The best point is the lowest J,
    or the point that meets gap_tol, or the point whose gradient was flat.
    A one-kernel problem is the plain SVM, solved by `solve_dual`.
    """
    if problem.n_kernels == 1:  # the MKL dual is the SVM dual
        model = solve_dual(problem.kernels[0], problem.labels, problem.C, tol=problem.inner_tol)
        return MklSolution(d=np.ones(1), model=model, objective=model.objective, gap=0.0,
                           iterations=1, svm_solves=1, smo_iterations=model.n_iter,
                           smo_not_converged=0 if model.converged else 1, status="converged",
                           gap_history=[0.0])
    state = MklState()
    steps = points(problem, state)
    gap_history: list[float] = []
    best: SolvePoint | None = None
    status = "max_iters"
    while len(gap_history) < problem.max_iters:
        try:
            point = next(steps)
        except StopIteration as stop:
            status = stop.value
            if status == "flat_gradient":
                best = point
            break
        gap = _gap_from_quads(point.d, point.q)
        if gap <= problem.gap_tol:  # a gap that ends the solve is a full pass's
            v = problem.labels * point.alpha
            point.U = _kernel_products(problem, v)
            point.q = _quad_forms(point.U, v)
            gap = _gap_from_quads(point.d, point.q)
        gap_history.append(gap)
        if gap <= problem.gap_tol:
            best, status = point, "converged"
            break
        if best is None or point.J < best.J:
            best = point
    if best is None:
        raise MklError("MKL solve made no iterations; increase max_iters")
    return _finish(problem, state, best, status, gap_history)


def _accpm_points(problem: MklProblem, state: MklState):
    """ACCPM's proposal rule: the analytic center, then prune, cut and push inside.

    Analytic centers stay off the simplex's faces, so an optimum at a
    vertex e_k is only approached. When a center puts VERTEX_SHARE of its
    weight on k = argmax q, the kernel its own gradient favours, the vertex
    e_k is solved once as the next point: if it is the optimum, its gap
    max q - q_k is 0 and certifies it. Otherwise it only competes as the
    best point: it adds no cut, and the center's own cut is added as
    always, so cuts keep coming from interior points.
    """
    n = problem.n_kernels
    state.tol = LOOSE_TOL
    loc = LocalizationSet.initial_simplex(n)
    z_start = uniform_reduced(n)
    vertices_tried: set[int] = set()
    while True:
        try:
            z_c = analytic_center(loc, z0=z_start)
        except MklError:
            return "degenerate_localization"
        d = np.maximum(reduced_to_full(z_c), 0.0)
        point = _evaluate(problem, d / d.sum(), state)
        yield point
        k = int(np.argmax(point.q))
        if point.d[k] >= VERTEX_SHARE and k not in vertices_tried:
            vertices_tried.add(k)
            yield _evaluate(problem, np.eye(n)[k], state)
        # prune first, so a shallow new cut cannot be the one pruned away
        pruned = prune_cuts(loc, z_c, barrier_hessian(loc, z_c), budget=3 * n - 1)
        loc, added = add_cut(pruned, z_c, -0.5 * point.q, point.eps)
        if not added:
            return "flat_gradient"
        z_start = _push_inside(loc, z_c, new_row=loc.n_rows - 1)
        if not loc.is_interior(z_start):
            return "degenerate_localization"


def solve_accpm(problem: MklProblem) -> MklSolution:
    """Analytic center cutting plane method (one SVM solve per iteration,
    started at LOOSE_TOL and tightened on demand: see `_evaluate`)."""
    return _solve(problem, _accpm_points)


def _simplex_step(d: np.ndarray, D: np.ndarray, t: float) -> np.ndarray:
    cand = np.maximum(d + t * D, 0.0)
    cand[cand < 1e-12] = 0.0  # snap float dust so step caps stay meaningful
    return cand / cand.sum()


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _reduced_gradient_points(problem: MklProblem, state: MklState):
    """Reduced gradient's proposal rule: the uniform mixture, then a line search per point."""
    n = problem.n_kernels
    point = _evaluate(problem, np.full(n, 1.0 / n), state)
    while True:
        yield point
        d, grad = point.d, -0.5 * point.q
        mu = int(np.argmax(d))
        red = grad - grad[mu]
        D = -red
        D[(d <= 0.0) & (D < 0.0)] = 0.0  # cannot leave the simplex at a zero weight
        D[mu] = 0.0
        D[mu] = -float(D.sum())
        descent = float(grad @ D)
        if descent >= -1e-15 * max(1.0, float(np.abs(grad).max())):
            return "stalled"

        neg = D < 0.0
        t_max = float(np.min(d[neg] / -D[neg]))  # some D_i < 0 since sum(D) = 0

        trials: dict[float, SolvePoint] = {}

        def evaluate(t: float) -> float:
            if t not in trials:
                trials[t] = _evaluate(problem, _simplex_step(d, D, t), state)
            return trials[t].J

        # probe the full admissible step (a weight hits zero there), then
        # golden-section the interval down to LINE_TOL of its width
        evaluate(t_max)
        lo, hi = 0.0, t_max
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1, f2 = evaluate(x1), evaluate(x2)
        while (hi - lo) > LINE_TOL * t_max:
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = evaluate(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = evaluate(x2)

        t_best = min(trials, key=lambda t: trials[t].J)
        if trials[t_best].J > point.J + ARMIJO_C * t_best * descent:
            return "stalled"
        point = trials[t_best]


def solve_reduced_gradient(problem: MklProblem) -> MklSolution:
    """Reduced-gradient descent on the simplex (the baseline MKL method).

    Each outer iteration backtracks along the reduced descent direction
    with a golden-section search over the admissible step interval, so one
    iteration costs several warm-started SVM solves (that is the point of
    the benchmark against ACCPM, which needs exactly one per iteration).
    Termination uses the same duality gap as ACCPM.
    """
    return _solve(problem, _reduced_gradient_points)


# every solver by name: its entry point in this module
SOLVERS = {"accpm": "solve_accpm", "redgrad": "solve_reduced_gradient"}
DEFAULT_SOLVER = "accpm"


def get_solver(name: str):
    """The entry point of the solver called `name` in SOLVERS, looked up as
    a module attribute when called, so a wrapper installed on it sees the
    solves (a table of the functions themselves would hide them)."""
    if name not in SOLVERS:
        raise MklError(f"unknown solver {name!r}; choose from {', '.join(SOLVERS)}")
    return globals()[SOLVERS[name]]
