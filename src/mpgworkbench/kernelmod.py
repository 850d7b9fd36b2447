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

The SVR solves an ascending C path: each later C stretches the last
optimum to its box, an active-set engine finishes from there, starting
from the last C's free-set factorization where the free set is the
same, and the SMO loop certifies every solve.  A fitted SVR is the last
model of its C path.
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


def _svm_model(X, beta, b, kernel):  # support vectors: |beta| > 1e-12
    keep = np.abs(beta) > 1e-12
    return SvmModel(X[keep], beta[keep], b, kernel)


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
    return _svm_model(X, beta, b, kernel)


def solve_svr_dual(K: np.ndarray, y: np.ndarray, Cs: tuple, epsilon: float) -> list:
    """Epsilon-insensitive SVR dual on a precomputed Gram matrix, the
    shared dual with the box [-C, C], along the ascending C sequence Cs;
    returns [(beta, bias), ...], one per C.

    The first C is solved cold.  At each later C the optimum at the C
    before is stretched to the new box by C / max|beta|, as along the
    solution path in C, and the active-set engine (_svr_active_set)
    finishes from that feasible start, handed the last engine call's
    free set and bordered inverse; _smo then certifies the solve."""
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
    beta, carry, path = None, None, []
    for C in Cs:
        if beta is not None:
            start = C / np.abs(beta).max() * beta if beta.any() else beta
            beta, *carry = _svr_active_set(K, y, C, epsilon, start, carry)  # a new beta
            # a rounding-level multiplier would count as signed in the KKT
            # offsets, yet the step to 0 that fixes it is below the floor
            beta[np.abs(beta) <= 1e-12 * C] = 0.0
            if abs(beta.sum()) > 1e-8 * max(1.0, C) or np.abs(beta).max() > C + 1e-12:
                raise SmoError("the active-set start left the box with sum 0")
        path.append(_smo(K, y, np.full(n, -C), np.full(n, C), epsilon, beta))
        beta = path[-1][0]
    return path


def _add_block(inv, K_JF, K_JJ, floor):
    """Borders inv, the inverse of [[0, 1'], [1, K_FF]], with the k rows
    J in one rank-k update, given K_JF (k x m) and K_JJ.  Returns the
    bordered inverse and k, how many rows joined: those before the first
    pivot at or below floor.  Pivot i is the Schur complement that a
    one-at-a-time add of J[i] would test."""
    V = np.ones((len(K_JJ), len(inv)))
    V[:, 1:] = K_JF
    # W = inv V' as k rows; S = K_JJ - V W', the Schur complement of the
    # block, whose inverse is grown one pivot at a time (bordering)
    W = np.einsum("ij,kj->ki", inv, V)
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
    if k:  # filled in, not built by np.block, whose overhead costs the engine ~5%
        T = np.einsum("kl,li->ki", S_inv, W[:k])
        inv, old = np.empty((len(inv) + k,) * 2), inv
        np.add(old, np.einsum("ki,kj->ij", W[:k], T), out=inv[:-k, :-k])
        inv[-k:, :-k], inv[:-k, -k:], inv[-k:, -k:] = -T, -T.T, S_inv
    return inv, k


def _svr_active_set(K, y, C, epsilon, beta0, carry):
    """Finishes the dual in the box [-C, C] from beta0, a feasible start
    (in the box, sum 0), by a primal active-set method (Scheinberg 2006).

    Each iteration steps toward x = [bias, step], the solution of the
    equality-constrained QP on the free set F through the bordered system
    [[0, 1'], [1, K_FF]], until a free multiplier reaches 0 or a bound
    and is fixed there.  The rest of such a blocked step, less the fixed
    row, is x corrected by one column of the inverse (the range-space
    update, Nocedal & Wright 16.5), so x is solved only at the start and
    after an add, and K @ beta is brought up to date lazily.  After a
    full step up to RELEASE_BLOCK fixed multipliers, the largest KKT
    violators above KKT_TOL / 2, are released at once, as a primal-dual
    active-set method changes several statuses per iteration
    (Hintermueller, Ito & Kunisch 2002); the block joins F by one k-row
    Schur-complement update (_add_block), as the start's free set does 8
    rows at a time, unless carry, the (order, inverse) returned at the
    last C or None, holds that set.  A released multiplier that the next
    solve moves outward sits at its wall, so the ratio test fixes it
    again by a zero-length step.  Updates run in einsum and ufuncs only:
    BLAS and LAPACK round differently with the thread count at these
    sizes.  A singular pivot, an empty F or 4n iterations hand over
    early.  Returns the iterate, clipped to the box with its sum
    re-centred to 0, or a copy of beta0 if that has the higher dual;
    then F in the inverse's row order, and the inverse."""
    n = y.size
    beta = beta0.copy()
    g = np.einsum("ij,j->i", K, beta)  # K @ synced: beta as of g's last update
    synced = beta.copy()
    # -2 at -C, -1 negative free, 0 zero, 1 positive free, 2 at C
    side = np.select([beta >= C - 1e-10 * C, beta > 1e-12 * C,
                      beta >= -1e-12 * C, beta > -C + 1e-10 * C], [2, 1, 0, -1], -2)
    inv = None  # the (m+1)^2 bordered inverse, seeded by the first add
    # F = fidx[:m], in the order of the inverse's rows 1..m, with its rows
    # of K in KF[:m]; rhs and the ratio test's t are filled in place
    fidx, KF = np.empty(n, dtype=np.intp), np.empty((n, n))
    rhs, t, m, x = np.empty(n + 1), np.empty(n), 0, None
    floor = 1e-10 * float(np.diag(K).max())
    # by side + 2: the dual's gain rate for moving a fixed multiplier up
    # is up_rate - E, and for moving it down down_rate + E (E = f(x) - y);
    # -inf at the free sides +/-1, since side is +/-1 exactly in F
    up_rate = np.array([epsilon, -np.inf, -epsilon, -np.inf, -np.inf])
    down_rate = np.array([-np.inf, -np.inf, -epsilon, -np.inf, epsilon])

    def add(J):  # F += J, one block update; False if a pivot is singular
        nonlocal inv, m
        if m == 0:  # the first point seeds the inverse
            inv = np.array([[-K[J[0], J[0]], 1.0], [1.0, 0.0]])
            fidx[0], KF[0], m = J[0], K[J[0]], 1
            J = J[1:]
        inv, k = _add_block(inv, KF[:m, J].T, K[np.ix_(J, J)], floor)
        fidx[m:m + k], KF[m:m + k] = J[:k], K[J[:k]]
        m += k
        return k == J.size

    def remove(p):  # F -= {fidx[p]}: swap it to the end, then drop it from inv and x
        nonlocal inv, m, x
        inv[[p + 1, m]] = inv[[m, p + 1]]
        inv[:, [p + 1, m]] = inv[:, [m, p + 1]]
        x[[p + 1, m]] = x[[m, p + 1]]
        fidx[p], KF[p] = fidx[m - 1], KF[m - 1]
        c = inv[:m, m]
        x = x[:m] - c * (x[m] / inv[m, m])
        inv = inv[:m, :m] - np.multiply.outer(c, c / inv[m, m])
        m -= 1

    start = np.flatnonzero(np.abs(side) == 1)
    if start.size and carry is not None and np.array_equal(np.sort(carry[0]), start):
        m, inv = start.size, carry[1].copy()  # the last C's F, in its order
        fidx[:m], KF[:m] = carry[0], K[carry[0]]
    built = m > 0 or all(add(start[i:i + 8]) for i in range(0, start.size, 8))
    for _ in range(4 * n if built else 0):
        if m == 0:
            break
        F = fidx[:m]
        bF, sF = beta[F], side[F]
        if x is None:
            rhs[0] = -beta.sum()
            np.subtract(y[F], g[F], out=rhs[1:m + 1])
            rhs[1:m + 1] -= epsilon * sF
            x = np.einsum("ij,j->i", inv, rhs[:m + 1])  # [bias, step]
        d = x[1:]
        # the wall each free multiplier moves toward: 0 or its bound
        wall = np.where((d > 0) == (sF > 0), C * sF, 0.0)
        tm = t[:m]
        tm.fill(np.inf)
        np.divide(wall - bF, d, out=tm, where=d != 0)
        k = int(tm.argmin())
        new = bF + min(1.0, max(tm[k], 0.0)) * d
        if tm[k] < 1.0:  # F[k] is fixed at its wall; the rest of the step
            q, new[k] = F[k], wall[k]  # is what is left of d, less row k
            beta[F] = new
            g += K[q] * (beta[q] - synced[q])
            synced[q], side[q] = beta[q], 2 * sF[k] if wall[k] else 0
            d *= 1.0 - max(tm[k], 0.0)
            remove(k)
            continue
        beta[F] = new
        g += np.einsum("ij,i->j", KF[:m], new - synced[F])
        synced[F] = new
        E = g + x[0] - y
        up, down = up_rate[side + 2] - E, down_rate[side + 2] + E
        viol = np.maximum(up, down)
        top = np.argsort(viol)[:-RELEASE_BLOCK - 1:-1]  # largest first
        top = top[viol[top] > KKT_TOL / 2]
        # the block moves inward: up (to = 1) or down (to = -1)
        to = np.where(up[top] >= down[top], 1, -1)
        side[top] = np.where(side[top] == 0, to, np.sign(side[top]))
        x = None
        if not (top.size and add(top)):
            break
    np.clip(beta, -C, C, out=beta)
    inside = (beta != 0.0) & (np.abs(beta) < C - abs(beta.sum()))
    if inside.any():
        beta[inside] -= beta.sum() / inside.sum()

    def dual(v):  # y'v - eps |v|_1 - v'Kv / 2
        return np.einsum("i,i->", v, y - epsilon * np.sign(v)
                         - 0.5 * np.einsum("ij,j->i", K, v))

    return (beta if dual(beta) >= dual(beta0) else beta0.copy()), fidx[:m].copy(), inv


def fit_svr(X: np.ndarray, y: np.ndarray, Cs: tuple, epsilon: float,
            kernel: KernelSpec) -> SvmModel:
    """Epsilon-insensitive SVR at Cs[-1], solved along the ascending C
    path Cs (solve_svr_dual, which describes the method)."""
    X = np.asarray(X, dtype=float)
    beta, b = solve_svr_dual(kernel_matrix(kernel, X, X), y, Cs, epsilon)[-1]
    return _svm_model(X, beta, b, kernel)


def svm_decision(m: SvmModel, X: np.ndarray) -> np.ndarray:
    """Raw decision values (classification label = sign, with score 0
    resolving to class 1; regression prediction is the value itself)."""
    return kernel_matrix(m.kernel, X, m.support_vectors) @ m.dual_coefs + m.bias
