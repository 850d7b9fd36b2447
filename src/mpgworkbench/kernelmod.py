"""Kernel machines: soft-margin SVC and epsilon-insensitive SVR, both
solved by one pairwise working-set (SMO) loop on the same dual.

The beta-form of the dual (Flake & Lawrence 2002) covers both tasks:

    maximize   y . beta - eps * |beta|_1 - beta' K beta / 2
    subject to sum(beta) = 0 and lo_i <= beta_i <= hi_i,

with predictions f(x) = sum_i beta_i k(x_i, x) + b.

* SVR: y holds the targets and every box is [-C, C].
* SVC: eps = 0, y_i = +/-1 and beta_i = alpha_i y_i, so the box is
  [0, C] for class 1 and [-C, 0] for class 0.  A raw decision score of
  exactly 0 classifies as class 1.
* KKT tolerance 1e-3 for both tasks; audits use twice that.

The SVR solves an ascending C path; each later C starts from the last
optimum through an active-set engine, and the SMO loop certifies every solve.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .numcore import NumericalError

# unused here, but perfbench/layers.py names kernelmod.Xoshiro256StarStar
# as the generator whose draws it counts, and subclasses it
from .rng import Xoshiro256StarStar  # noqa: F401

KKT_TOL = 1e-3
MAX_ITER = 2_000_000
RELEASE_BLOCK = 4  # violators the SVR active-set engine releases at once


class SmoError(NumericalError):
    """SMO stalled, hit the iteration cap or failed its KKT audit, or the
    active-set start left the box; carries diagnostics."""

    def __init__(self, message: str, dual=None, max_violation=None,
                 iterations=None):
        super().__init__(message)
        self.dual = dual
        self.max_violation = max_violation
        self.iterations = iterations


@dataclass(frozen=True)
class KernelSpec:
    kind: str  # "linear" | "rbf"
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and (self.gamma is None or self.gamma <= 0):
            raise ValueError("rbf kernel requires gamma > 0")


@dataclass(frozen=True)
class SvmModel:
    support_vectors: np.ndarray
    dual_coefs: np.ndarray
    bias: float
    kernel: KernelSpec


def kernel_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Gram matrix K[i, j] = k(A[i], B[j]).

    The inner products go through np.einsum, not BLAS: a threaded GEMM
    rounds differently with the thread count, and the SVR solve
    amplifies that, so the report would depend on the host's BLAS
    threads."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch between A and B")
    if spec.kind == "linear":
        return np.einsum("ik,jk->ij", A, B)
    sq = (
        (A * A).sum(axis=1)[:, None]
        + (B * B).sum(axis=1)[None, :]
        - 2.0 * np.einsum("ik,jk->ij", A, B)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-spec.gamma * sq)


def gamma_scale(X: np.ndarray) -> float:
    """The 'scale' heuristic: 1 / (d * var(X flattened))."""
    X = np.asarray(X, dtype=float)
    var = X.var()
    if var <= 0:
        raise ValueError("cannot infer gamma from a constant matrix")
    return 1.0 / (X.shape[1] * var)


def _extract_support(X, dual, eps=1e-12):
    keep = np.abs(dual) > eps
    return X[keep].copy(), dual[keep].copy()


def _kkt_violations(beta, E, lo, hi, epsilon, bnd):
    """Per-point KKT violations of a dual iterate in the box [lo, hi],
    E = f(x) - y, with beta within bnd of a bound counted as at it.
    Optimality: beta at hi -> E <= -eps; beta in (0, hi) -> E = -eps;
    beta = 0 inside the box -> |E| <= eps; beta in (lo, 0) -> E = eps;
    beta at lo -> E >= eps."""
    inside = beta > lo + bnd
    # np.select takes the first true condition, as an if/elif chain would
    return np.select(
        [beta >= hi - bnd, inside & (beta > bnd), inside & (beta > -bnd), inside],
        [np.maximum(0.0, E + epsilon), np.abs(E + epsilon),
         np.maximum(0.0, np.abs(E) - epsilon), np.abs(E - epsilon)],
        default=np.maximum(0.0, epsilon - E))


def _smo(K, y, lo, hi, epsilon, beta0):
    """The SMO loop of both tasks: maximize the beta-form dual in the
    box [lo, hi] from beta0 (feasible, or None for 0); returns (beta, b).
    Each step pairs the maximal violator with the partner of largest
    guaranteed gain (Fan, Chen & Lin 2005) and solves the two-variable
    subproblem exactly: the best of its per-quadrant stationary points
    and its breakpoints at the sign kinks.  The dual never decreases; a
    pair that makes no progress raises SmoError at once, and so does a
    result that fails the KKT audit at 2 * KKT_TOL or hits MAX_ITER."""
    n = y.size
    C = float(max(hi.max(), -lo.min()))  # both tasks' boxes reach C
    beta = np.zeros(n) if beta0 is None else beta0
    g = np.zeros(n) if beta0 is None else K @ beta  # K @ beta, kept current
    iterations = 0
    margin = 1e-10 * C  # multipliers this close to a bound count as bound
    up_edge, down_edge = hi - margin, lo + margin
    # per-point bounds as Python floats for the scalar step code
    lo_l, hi_l, up_edge_l, down_edge_l = (
        v.tolist() for v in (lo, hi, up_edge, down_edge))
    # step floors, shrunk with C below 1 so that a scaled-down problem
    # takes the same steps: gains scale as C^2 and steps as C
    s = min(1.0, C)
    gain_floor, step_floor = 1e-15 * s * s, 1e-14 * s
    shifts = (0.0, 2.0 * epsilon, -2.0 * epsilon) if epsilon > 0 else (0.0,)
    diag_k = np.diag(K).copy()
    curv = None  # pair curvatures, tabulated at the first step
    # The slope of the dual toward increasing (decreasing) beta_i is
    # (y - g) + off_up (+ off_down): -/+ eps by the sign of beta_i, or
    # -inf (+inf) at the bound it would move toward.  A step changes two
    # entries and keeps them current.
    off_up = np.where(beta < up_edge, np.where(beta >= 0.0, -epsilon, epsilon), -np.inf)
    off_down = np.where(beta > down_edge, np.where(beta <= 0.0, epsilon, -epsilon), np.inf)
    # per-step n-vectors, written in place instead of reallocated
    yg, up, down, score, dg = (np.empty(n) for _ in range(5))

    def failure(message, down_value):
        b = (up_max + down_value) / 2.0
        viol = _kkt_violations(beta, g + b - y, lo, hi, epsilon, 1e-8 * C)
        return SmoError(message, dual=beta, max_violation=float(viol.max()),
                        iterations=iterations)

    # KKT holds when every feasible "up" value is below every feasible
    # "down" value; the bias sits in the gap between them.
    while True:
        np.subtract(y, g, out=yg)
        np.add(yg, off_up, out=up)
        np.add(yg, off_down, out=down)
        i1 = int(up.argmax())
        up_max, down_min = float(up[i1]), float(down[down.argmin()])
        if up_max - down_min <= 2.0 * KKT_TOL:
            audit = failure("SMO solution failed its KKT audit", down_min)
            if audit.max_violation > 2.0 * KKT_TOL:
                raise audit
            return beta, (up_max + down_min) / 2.0
        if iterations >= MAX_ITER:
            raise failure(f"SMO solver hit the iteration cap of {MAX_ITER}",
                          down_min)
        if curv is None:
            # floored pair curvature K_ii + K_jj - 2 K_ij of the partner
            # choice, tabulated once (n x n), and not for an optimal start
            curv = np.maximum(diag_k[:, None] + diag_k - 2.0 * K, 1e-12)
        # partner: the first maximum of the guaranteed gain diff^2 / curv
        # over diff > 0.  Clamping diff at 0 scores the others 0, not
        # -inf, which picks the same partner whenever that maximum is > 0.
        np.subtract(up_max, down, out=score)
        np.maximum(score, 0.0, out=score)
        np.multiply(score, score, out=score)
        np.divide(score, curv[i1], out=score)
        i2 = int(score.argmax())
        if not score[i2] > 0.0:
            diff = up_max - down
            i2 = int(np.where(diff > 0, diff * diff / curv[i1], -np.inf).argmax())
        # the two-variable subproblem in t = beta_i1, beta_i2 = ssum - t
        t0 = float(beta[i1])
        ssum = t0 + float(beta[i2])
        L = max(lo_l[i1], ssum - hi_l[i2])
        H = min(hi_l[i1], ssum - lo_l[i2])
        best_t, best_gain = t0, 0.0
        if i1 != i2 and L < H:
            E1 = float(g[i1]) - float(y[i1])  # bias-free; offset cancels in E2 - E1
            E2 = float(g[i2]) - float(y[i2])
            eta = float(diag_k[i1]) + float(diag_k[i2]) - 2.0 * float(K[i1, i2])
            slope = E2 - E1  # d/dt of the smooth dual part at t0
            abs_t0 = abs(t0)
            abs_s_t0 = abs(ssum - t0)
            candidates = [L, H]
            if L < 0.0 < H:
                candidates.append(0.0)
            if L < ssum < H:
                candidates.append(ssum)
            if eta > 1e-12:
                # stationary points of the sign quadrants of the kink
                for shift in shifts:
                    t_c = t0 + (slope - shift) / eta
                    if L <= t_c <= H:
                        candidates.append(t_c)
            for t in candidates:  # the restricted dual's gain at beta_i1 = t
                dt = t - t0
                g_t = (slope * dt - 0.5 * eta * dt * dt
                       - epsilon * (abs(t) - abs_t0)
                       - epsilon * (abs(ssum - t) - abs_s_t0))
                if g_t > best_gain + gain_floor:
                    best_t, best_gain = t, g_t
        if best_gain <= gain_floor or abs(best_t - t0) < step_floor:
            raise failure("SMO solver stalled: the selected pair makes no "
                          "progress", float(down[i2]))
        np.subtract(K[i1], K[i2], out=dg)
        np.multiply(dg, best_t - t0, out=dg)
        np.add(g, dg, out=g)
        for i, bi in ((i1, best_t), (i2, ssum - best_t)):
            beta[i] = bi
            off_up[i] = (-epsilon if bi >= 0.0 else epsilon) if bi < up_edge_l[i] else -np.inf
            off_down[i] = (epsilon if bi <= 0.0 else -epsilon) if bi > down_edge_l[i] else np.inf
        iterations += 1


def fit_svc_smo(X: np.ndarray, labels: np.ndarray, C: float,
                kernel: KernelSpec) -> SvmModel:
    """Soft-margin SVC: the shared dual with eps = 0, targets +/-1 and
    the box [0, C] for class 1, [-C, 0] for class 0.  labels are {0, 1};
    the dual coefficients are alpha_i y_i."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if np.unique(labels).size < 2:
        raise ValueError("both classes must be present")
    pos = labels == 1
    beta, b = _smo(kernel_matrix(kernel, X, X), np.where(pos, 1.0, -1.0),
                   np.where(pos, 0.0, -C), np.where(pos, C, 0.0), 0.0, None)
    sv, dual = _extract_support(X, beta)
    return SvmModel(support_vectors=sv, dual_coefs=dual, bias=b, kernel=kernel)


def solve_svr_dual(K: np.ndarray, y: np.ndarray, Cs: tuple, epsilon: float) -> list:
    """Epsilon-insensitive SVR dual on a precomputed Gram matrix, the
    shared dual with the box [-C, C], along the ascending C sequence Cs;
    returns [(beta, bias), ...], one per C.

    The first C is solved cold.  At each later C the active-set engine
    (_svr_active_set) moves the optimum at the C before close to the one
    at C; _smo then finishes and certifies the solve from there."""
    y = np.asarray(y, dtype=float)
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    n = y.size
    if n < 2:
        raise ValueError("need at least two samples")
    if K.shape != (n, n):
        raise ValueError("Gram matrix shape must match y")
    if not (len(Cs) and 0 < Cs[0] and all(a < b for a, b in zip(Cs, Cs[1:]))):
        raise ValueError("Cs must be non-empty, positive and strictly ascending")
    beta, path = None, []
    for C in Cs:
        if beta is not None:
            beta = _svr_active_set(K, y, C, epsilon, beta)  # a new array
            # a rounding-level multiplier would count as signed in the KKT
            # offsets, yet the step to 0 that fixes it is below the floor
            beta[np.abs(beta) <= 1e-12 * C] = 0.0
            if abs(beta.sum()) > 1e-8 * max(1.0, C) or np.abs(beta).max() > C + 1e-12:
                raise SmoError("the active-set start left the box with sum 0")
        path.append(_smo(K, y, np.full(n, -C), np.full(n, C), epsilon, beta))
        beta = path[-1][0]
    return path


def _add_block(inv, m, K_JF, K_JJ, floor):
    """Borders inv[:m + 1, :m + 1], the inverse of [[0, 1'], [1, K_FF]],
    with the k rows J in one rank-k update, given K_JF (k x m) and K_JJ.
    Returns how many rows joined: those before the first pivot at or
    below floor.  Pivot i is the Schur complement that a one-at-a-time
    add of J[i] would test."""
    V = np.ones((len(K_JJ), m + 1))
    V[:, 1:] = K_JF
    # W = inv V' as k rows; S = K_JJ - V W', the Schur complement of the
    # block, whose inverse is grown one pivot at a time (bordering)
    W = np.einsum("ij,kj->ki", inv[:m + 1, :m + 1], V)
    S_inv = []  # rows, in Python floats: k is at most 8
    for i, row in enumerate((K_JJ - np.einsum("ki,li->kl", V, W)).tolist()):
        u = [sum(map(operator.mul, r, row)) for r in S_inv]
        pivot = row[i] - sum(map(operator.mul, row, u))
        if not pivot > floor:
            break
        w = [b / pivot for b in u]
        S_inv = [[a + ui * wj for a, wj in zip(r, w)] + [-wi]
                 for r, ui, wi in zip(S_inv, u, w)]
        S_inv.append([-b for b in w] + [1.0 / pivot])
    k = len(S_inv)
    if k:
        T = np.einsum("kl,li->ki", S_inv, W[:k])
        inv[:m + 1, :m + 1] += np.einsum("ki,kj->ij", W[:k], T)
        inv[m + 1:m + 1 + k, :m + 1] = -T
        inv[:m + 1, m + 1:m + 1 + k] = -T.T
        inv[m + 1:m + 1 + k, m + 1:m + 1 + k] = S_inv
    return k


def _svr_active_set(K, y, C, epsilon, beta0):
    """A start for _smo in the box [-C, C] from beta0 (in a box, sum 0),
    by a primal active-set method on the dual (Scheinberg 2006).

    beta0 is first stretched to the new box, as along the solution path
    in C.  Each iteration solves the equality-constrained QP on the free
    set F, through the bordered system [[0, 1'], [1, K_FF]], and steps
    toward its solution until a free multiplier reaches 0 or a bound and
    is fixed there.  After a full step up to RELEASE_BLOCK fixed
    multipliers, the largest KKT violators above KKT_TOL / 2, are
    released at once, as a primal-dual active-set method changes several
    statuses per iteration (Hintermueller, Ito & Kunisch 2002); the block
    joins F by one k-row Schur-complement update (_add_block), as the
    start's free set does 8 rows at a time.  After the next solve, each
    released multiplier that would move outward is fixed again and
    skipped until a step is taken; while others of the block stay free,
    the system is solved again before the next release.  Updates run in einsum and
    ufuncs only: BLAS and LAPACK round differently with the thread count
    at these sizes.  A singular pivot, an empty F or 4n iterations hand
    over early.  Returns the iterate, clipped to the box with its sum
    re-centred to 0, or a copy of beta0 if that has the higher dual."""
    n = y.size
    stretch = C / np.abs(beta0).max() if beta0.any() else 1.0
    beta = stretch * beta0
    g = np.einsum("ij,j->i", K, beta)  # K @ beta, kept current
    # -2 at -C, -1 negative free, 0 zero, 1 positive free, 2 at C
    side = np.select([beta >= C - 1e-10 * C, beta > 1e-12 * C,
                      beta >= -1e-12 * C, beta > -C + 1e-10 * C], [2, 1, 0, -1], -2)
    inv = np.empty((n + 1, n + 1))  # the inverse, in its leading m+1 block
    # F = fidx[:m], in the order of the inverse's rows 1..m, with its rows
    # of K in KF[:m], its y, eps * side and C * side in FA[:, :m] and its
    # side > 0 in pos[:m]; rhs and the ratio test's t are filled in place
    fidx, KF, FA, pos = (np.empty(n, dtype=np.intp), np.empty((n, n)),
                         np.empty((3, n)), np.empty(n, dtype=bool))
    rhs, t, m = np.empty(n + 1), np.empty(n), 0
    floor = 1e-10 * float(np.diag(K).max())
    # by side + 2: the dual's gain rate for moving a fixed multiplier up
    # is up_rate - E, and for moving it down down_rate + E (E = f(x) - y);
    # ups and downs hold them per point, -inf at free and skipped points
    up_rate = np.array([epsilon, epsilon, -epsilon, -epsilon, -np.inf])
    down_rate = np.array([-np.inf, -epsilon, -epsilon, epsilon, epsilon])
    ups, downs = up_rate[side + 2], down_rate[side + 2]

    def admit(J):  # the rows J, just bordered onto the inverse, join F
        nonlocal m
        k = J.size
        fidx[m:m + k], KF[m:m + k], pos[m:m + k] = J, K[J], side[J] > 0
        FA[:, m:m + k] = y[J], epsilon * side[J], C * side[J]
        ups[J] = downs[J] = -np.inf
        m += k

    def add(J):  # F += J, one block update; False if a pivot is singular
        if m == 0:  # the first point seeds the inverse
            inv[:2, :2] = [[-K[J[0], J[0]], 1.0], [1.0, 0.0]]
            admit(J[:1])
            J = J[1:]
        k = _add_block(inv, m, KF[:m, J].T, K[np.ix_(J, J)], floor)
        admit(J[:k])
        return k == J.size

    def remove(p):  # F -= {fidx[p]}: swap it to the end, then drop it
        nonlocal m
        inv[[p + 1, m], :m + 1] = inv[[m, p + 1], :m + 1]
        inv[:m + 1, [p + 1, m]] = inv[:m + 1, [m, p + 1]]
        fidx[p], KF[p], pos[p] = fidx[m - 1], KF[m - 1], pos[m - 1]
        FA[:, p] = FA[:, m - 1]
        c = inv[:m, m]
        inv[:m, :m] -= np.multiply.outer(c, c / inv[m, m])
        m -= 1

    def fix(i):  # i is fixed at side[i]: price it again
        ups[i], downs[i] = up_rate[side[i] + 2], down_rate[side[i] + 2]

    pending, skip = {}, []  # the last block: j -> (its side before, inward)
    start = np.flatnonzero(np.abs(side) == 1)
    built = all(add(start[i:i + 8]) for i in range(0, start.size, 8))
    for _ in range(4 * n if built else 0):
        if m == 0:
            break
        F = fidx[:m]
        bF = beta[F]
        rhs[0] = -beta.sum()
        np.subtract(FA[0, :m], g[F], out=rhs[1:m + 1])
        rhs[1:m + 1] -= FA[1, :m]
        x = np.einsum("ij,j->i", inv[:m + 1, :m + 1], rhs[:m + 1])  # [bias, step]
        d = x[1:]
        m0 = m  # the block sits in the last len(pending) rows
        for p in range(m - 1, m - 1 - len(pending), -1):
            j = int(fidx[p])
            if not d[p] * pending[j][1] > 0:
                side[j] = pending.pop(j)[0]
                remove(p)
                skip.append(j)
        if m < m0 and pending:
            continue
        if m == m0:
            pending.clear()
            for i in skip:
                fix(i)
            skip = []
            # the wall each free multiplier moves toward: 0 or its bound
            wall = np.where((d > 0) == pos[:m], FA[2, :m], 0.0)
            tm = t[:m]
            tm.fill(np.inf)
            np.divide(wall - bF, d, out=tm, where=d != 0)
            k = int(tm.argmin())
            new = bF + min(1.0, max(tm[k], 0.0)) * d
            if tm[k] < 1.0:
                new[k] = wall[k]
            g += np.einsum("ij,i->j", KF[:m], new - bF)
            beta[F] = new
            if tm[k] < 1.0:
                side[F[k]] = 2 * side[F[k]] if wall[k] else 0
                fix(F[k])
                remove(k)
                continue
            b = x[0]
        E = g + b - y
        up, down = ups - E, downs + E
        viol = np.maximum(up, down)
        top = np.argsort(viol)[:-RELEASE_BLOCK - 1:-1]  # largest first
        top = top[viol[top] > KKT_TOL / 2]
        # the block moves inward: up (to = 1) or down (to = -1)
        to = np.where(up[top] >= down[top], 1, -1)
        pending.update(zip(top.tolist(), zip(side[top].tolist(), to.tolist())))
        side[top] = np.where(side[top] == 0, to, np.sign(side[top]))
        if not (top.size and add(top)):
            break
    np.clip(beta, -C, C, out=beta)
    inside = (beta != 0.0) & (np.abs(beta) < C - abs(beta.sum()))
    if inside.any():
        beta[inside] -= beta.sum() / inside.sum()

    def dual(v):  # y'v - eps |v|_1 - v'Kv / 2
        return np.einsum("i,i->", v, y - epsilon * np.sign(v)
                         - 0.5 * np.einsum("ij,j->i", K, v))

    return beta if dual(beta) >= dual(beta0) else beta0.copy()


def fit_svr(X: np.ndarray, y: np.ndarray, C: float, epsilon: float,
            kernel: KernelSpec) -> SvmModel:
    """Epsilon-insensitive SVR; see solve_svr_dual for the method."""
    X = np.asarray(X, dtype=float)
    K = kernel_matrix(kernel, X, X)
    (beta, b), = solve_svr_dual(K, y, (C,), epsilon)
    sv, dual = _extract_support(X, beta)
    return SvmModel(support_vectors=sv, dual_coefs=dual, bias=b, kernel=kernel)


def svm_decision(m: SvmModel, X: np.ndarray) -> np.ndarray:
    """Raw decision values (classification label = sign, with score 0
    resolving to class 1; regression prediction is the value itself)."""
    X = np.asarray(X, dtype=float)
    if m.support_vectors.shape[0] == 0:
        return np.full(X.shape[0], m.bias)
    K = kernel_matrix(m.kernel, X, m.support_vectors)
    return K @ m.dual_coefs + m.bias
