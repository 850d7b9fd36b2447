"""Kernel machines: soft-margin SVC via SMO and epsilon-insensitive SVR
via a pairwise working-set method on the dual.

Conventions:

* SVC dual coefficients stored as alpha_i * y_i with y_i = +/-1; a raw
  decision score of exactly 0 classifies as class 1.
* SVR works on beta_i = alpha_i - alpha_i^* in the box [-C, C] with
  sum(beta) = 0; predictions are f(x) = sum_i beta_i k(x_i, x) + b.
* KKT tolerance 1e-3 for both solvers; audits use twice that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Xoshiro256StarStar

KKT_TOL = 1e-3
MAX_ITER = 2_000_000


class SmoError(RuntimeError):
    """Solver hit the iteration cap; carries diagnostics."""

    def __init__(self, message: str, dual=None, max_violation=None):
        super().__init__(message)
        self.dual = dual
        self.max_violation = max_violation


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
    task: str  # "classify" | "regress"
    support_vectors: np.ndarray
    dual_coefs: np.ndarray
    bias: float
    kernel: KernelSpec
    C: float
    epsilon: float = 0.0


def kernel_eval(spec: KernelSpec, u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch between u and v")
    if spec.kind == "linear":
        return float(u @ v)
    d = u - v
    return float(np.exp(-spec.gamma * (d @ d)))


def kernel_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Gram matrix K[i, j] = k(A[i], B[j])."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch between A and B")
    if spec.kind == "linear":
        return A @ B.T
    sq = (
        (A * A).sum(axis=1)[:, None]
        + (B * B).sum(axis=1)[None, :]
        - 2.0 * (A @ B.T)
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


def fit_svc_smo(X: np.ndarray, labels: np.ndarray, C: float, kernel: KernelSpec,
                tol: float = KKT_TOL, seed: int = 0,
                max_iter: int = MAX_ITER) -> SvmModel:
    """Soft-margin SVC by Sequential Minimal Optimization.

    labels are {0, 1}, mapped internally to -1/+1.  Each iteration picks
    the maximal violating pair (the first-order heuristic: the feasible
    pair with the largest error gap), solves the two-variable subproblem
    analytically with box clipping, and terminates when no example
    violates its KKT condition beyond tol.  When the selected pair is
    blocked by the box, a seeded random partner is tried instead.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if np.unique(labels).size < 2:
        raise ValueError("both classes must be present")
    y = np.where(labels == 1, 1.0, -1.0)
    n = X.shape[0]
    K = kernel_matrix(kernel, X, X)
    alpha = np.zeros(n)
    g = np.zeros(n)  # sum_j alpha_j y_j K_ij, maintained incrementally
    rng = Xoshiro256StarStar(seed)
    iterations = 0

    def take_step(i1: int, i2: int) -> bool:
        nonlocal iterations
        if i1 == i2:
            return False
        a1, a2 = float(alpha[i1]), float(alpha[i2])
        y1, y2 = float(y[i1]), float(y[i2])
        E1 = float(g[i1]) - y1  # bias-free errors; the offset cancels in E1 - E2
        E2 = float(g[i2]) - y2
        s = y1 * y2
        if s > 0:
            L, H = max(0.0, a1 + a2 - C), min(C, a1 + a2)
        else:
            L, H = max(0.0, a2 - a1), min(C, C + a2 - a1)
        if L >= H:
            return False
        k11, k22, k12 = float(diag_k[i1]), float(diag_k[i2]), float(K[i1, i2])
        eta = k11 + k22 - 2.0 * k12
        if eta > 1e-12:
            a2_new = min(H, max(L, a2 + y2 * (E1 - E2) / eta))
        else:
            # flat direction: pick the better endpoint of the box segment
            def seg_gain(a2_c):
                d2 = a2_c - a2
                d1 = -s * d2
                return (-y1 * d1 * E1 - y2 * d2 * E2
                        - 0.5 * (d1 * d1 * k11 + d2 * d2 * k22)
                        - s * d1 * d2 * k12)
            a2_new = L if seg_gain(L) > seg_gain(H) else H
        if abs(a2_new - a2) < 1e-12 * (a2_new + a2 + 1e-12):
            return False
        a1_new = a1 + s * (a2 - a2_new)
        g[:] += y1 * (a1_new - a1) * K[i1] + y2 * (a2_new - a2) * K[i2]
        alpha[i1], alpha[i2] = a1_new, a2_new
        iterations += 1
        return True

    pos = y > 0
    margin = 1e-10 * C  # multipliers this close to a bound count as bound
    diag_k = np.diag(K).copy()
    while True:
        v = y - g  # the value KKT pins to the bias at interior points
        below_c = alpha < C - margin
        above_0 = alpha > margin
        can_up = (pos & below_c) | (~pos & above_0)
        can_down = (~pos & below_c) | (pos & above_0)
        up = np.where(can_up, v, -np.inf)
        down = np.where(can_down, v, np.inf)
        i_up = int(np.argmax(up))
        gap = up[i_up] - down[int(np.argmin(down))]
        if gap <= 2.0 * tol:
            b = (up[i_up] + down.min()) / 2.0
            break
        if iterations >= max_iter:
            b = (up[i_up] + down.min()) / 2.0
            viol = svc_kkt_violations(alpha, y, g + b - y, C, tol)
            raise SmoError(
                f"SMO hit the iteration cap of {max_iter}",
                dual=alpha * y, max_violation=float(viol.max()),
            )
        # second-order partner choice: maximize the guaranteed dual gain
        diff = up[i_up] - down
        curv = np.maximum(diag_k[i_up] + diag_k - 2.0 * K[i_up], 1e-12)
        score = np.where(diff > 0, diff * diff / curv, -np.inf)
        i_down = int(np.argmax(score))
        if take_step(i_up, i_down):
            continue
        # blocked pair: seeded random sweep over down-feasible partners
        partners = np.flatnonzero(can_down)
        start = rng.randbelow(partners.size)
        for k in range(partners.size):
            if take_step(i_up, int(partners[(start + k) % partners.size])):
                break
        else:
            partners = np.flatnonzero(can_up)
            start = rng.randbelow(partners.size)
            for k in range(partners.size):
                if take_step(int(partners[(start + k) % partners.size]), i_down):
                    break
            else:
                b = (up[i_up] + down[i_down]) / 2.0
                viol = svc_kkt_violations(alpha, y, g + b - y, C, tol)
                raise SmoError(
                    "SMO stalled: no feasible pair makes progress",
                    dual=alpha * y, max_violation=float(viol.max()),
                )
    sv, dual = _extract_support(X, alpha * y)
    return SvmModel(task="classify", support_vectors=sv, dual_coefs=dual,
                    bias=float(b), kernel=kernel, C=C)


def svc_kkt_violations(alpha, y, errors, C, tol=KKT_TOL):
    """Per-point KKT violation magnitudes for a SVC dual iterate."""
    r = errors * y  # y f(x) - 1
    viol = np.zeros_like(alpha)
    bnd = 1e-8 * C
    at_zero = alpha <= bnd
    at_c = alpha >= C - bnd
    interior = ~(at_zero | at_c)
    viol[at_zero] = np.maximum(0.0, -r[at_zero])  # need margin >= 1
    viol[at_c] = np.maximum(0.0, r[at_c])  # need margin <= 1
    viol[interior] = np.abs(r[interior])
    return viol


def svr_kkt_violations(beta, E, C, epsilon):
    """Per-point KKT violation magnitudes for a SVR dual iterate.

    Optimality: beta=0 -> |E| <= eps; beta in (0,C) -> E = -eps;
    beta=C -> E <= -eps; beta in (-C,0) -> E = eps; beta=-C -> E >= eps.
    """
    bnd = 1e-8 * C
    # np.select takes the first true condition, as an if/elif chain would
    return np.select(
        [beta >= C - bnd, beta > bnd, beta > -bnd, beta > -C + bnd],
        [np.maximum(0.0, E + epsilon), np.abs(E + epsilon),
         np.maximum(0.0, np.abs(E) - epsilon), np.abs(E - epsilon)],
        default=np.maximum(0.0, epsilon - E))


def solve_svr_dual(K: np.ndarray, y: np.ndarray, C: float, epsilon: float,
                   tol: float = KKT_TOL, seed: int = 0,
                   max_iter: int = MAX_ITER,
                   beta0: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Epsilon-insensitive SVR dual by pairwise working-set maximization.

    Takes a precomputed Gram matrix; returns (beta, bias).  Each
    two-variable subproblem is solved exactly: the restricted dual is a
    concave quadratic with kinks where either multiplier changes sign,
    so the best of the per-quadrant stationary points and the
    breakpoints is taken.  The dual objective never decreases.  A warm
    start (``beta0``, any point of the feasible box with sum 0) speeds
    up grid searches over C.
    """
    y = np.asarray(y, dtype=float)
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    n = y.size
    if n < 2:
        raise ValueError("need at least two samples")
    if K.shape != (n, n):
        raise ValueError("Gram matrix shape must match y")
    if beta0 is None:
        beta = np.zeros(n)
        g = np.zeros(n)  # K @ beta, maintained incrementally
    else:
        beta = np.asarray(beta0, dtype=float).copy()
        if beta.shape != y.shape:
            raise ValueError("beta0 shape must match y")
        if abs(beta.sum()) > 1e-8 * max(1.0, C) or np.abs(beta).max() > C + 1e-12:
            raise ValueError("beta0 must lie in the box with sum 0")
        g = K @ beta
    rng = Xoshiro256StarStar(seed)
    iterations = 0
    margin = 1e-10 * C  # multipliers this close to a bound count as bound
    hi, lo = C - margin, -C + margin
    diag_k = np.diag(K).copy()
    # floored pair curvature K_ii + K_jj - 2 K_ij of the partner choice,
    # tabulated once (n x n) instead of rebuilt from four passes per step
    curv = np.maximum(diag_k[:, None] + diag_k - 2.0 * K, 1e-12)
    # For each point, the slope of the dual toward increasing (resp.
    # decreasing) beta_i is (y - g) + off_up (resp. + off_down): -/+ eps
    # with the sign of the L1 kink at beta_i, or -inf (+inf) where beta_i
    # is at the bound it would move toward.  Only two entries change per
    # step, so take_step keeps the offsets current.
    off_up = np.where(beta < hi, np.where(beta >= 0.0, -epsilon, epsilon), -np.inf)
    off_down = np.where(beta > lo, np.where(beta <= 0.0, epsilon, -epsilon), np.inf)
    # per-step n-vectors, written in place instead of reallocated
    yg, up, down, score, dg = (np.empty(n) for _ in range(5))

    def take_step(i1: int, i2: int) -> bool:
        nonlocal iterations
        if i1 == i2:
            return False
        t0 = float(beta[i1])
        ssum = t0 + float(beta[i2])
        L = max(-C, ssum - C)
        H = min(C, ssum + C)
        if L >= H:
            return False
        E1 = float(g[i1]) - float(y[i1])  # bias-free; offset cancels in E2 - E1
        E2 = float(g[i2]) - float(y[i2])
        k12 = float(K[i1, i2])
        eta = float(diag_k[i1]) + float(diag_k[i2]) - 2.0 * k12
        slope = E2 - E1  # d/dt of the smooth dual part at t0
        abs_t0 = abs(t0)
        abs_s_t0 = abs(ssum - t0)
        candidates = [L, H]
        if L < 0.0 < H:
            candidates.append(0.0)
        if L < ssum < H:
            candidates.append(ssum)
        if eta > 1e-12:
            # stationary points of the four sign quadrants of the kink
            for shift in (0.0, 2.0 * epsilon, -2.0 * epsilon):
                t_c = t0 + (slope - shift) / eta
                if L <= t_c <= H:
                    candidates.append(t_c)
        best_t, best_gain = t0, 0.0
        for t in candidates:  # the restricted dual's gain at beta_i1 = t
            dt = t - t0
            g_t = (slope * dt - 0.5 * eta * dt * dt
                   - epsilon * (abs(t) - abs_t0)
                   - epsilon * (abs(ssum - t) - abs_s_t0))
            if g_t > best_gain + 1e-15:
                best_t, best_gain = t, g_t
        if best_gain <= 1e-15 or abs(best_t - t0) < 1e-14:
            return False
        d1 = best_t - t0
        np.subtract(K[i1], K[i2], out=dg)
        np.multiply(dg, d1, out=dg)
        np.add(g, dg, out=g)
        for i, bi in ((i1, best_t), (i2, ssum - best_t)):
            beta[i] = bi
            off_up[i] = (-epsilon if bi >= 0.0 else epsilon) if bi < hi else -np.inf
            off_down[i] = (epsilon if bi <= 0.0 else -epsilon) if bi > lo else np.inf
        iterations += 1
        return True

    # maximal-violating-pair loop: KKT holds when every feasible "up"
    # value is below every feasible "down" value (the bias sits in the
    # gap between them).
    while True:
        np.subtract(y, g, out=yg)
        np.add(yg, off_up, out=up)
        np.add(yg, off_down, out=down)
        i_up = int(up.argmax())
        up_max, down_min = float(up[i_up]), float(down[down.argmin()])
        if up_max - down_min <= 2.0 * tol:
            b = (up_max + down_min) / 2.0
            break
        if iterations >= max_iter:
            b = (up_max + down_min) / 2.0
            viol = svr_kkt_violations(beta, g + b - y, C, epsilon)
            raise SmoError(
                f"SVR solver hit the iteration cap of {max_iter}",
                dual=beta, max_violation=float(viol.max()),
            )
        # second-order partner choice: maximize the guaranteed dual gain
        # diff^2 / curv over the partners with diff > 0, the others -inf.
        # Clamping diff at 0 scores the others 0 instead, which picks the
        # same first maximum whenever that maximum is > 0.
        np.subtract(up_max, down, out=score)
        np.maximum(score, 0.0, out=score)
        np.multiply(score, score, out=score)
        np.divide(score, curv[i_up], out=score)
        i_down = int(score.argmax())
        if not score[i_down] > 0.0:
            diff = up_max - down
            i_down = int(np.where(diff > 0, diff * diff / curv[i_up],
                                  -np.inf).argmax())
        if take_step(i_up, i_down):
            continue
        # blocked pair: seeded random sweep over feasible partners
        partners = np.flatnonzero(beta > -C)
        start = rng.randbelow(partners.size)
        for k in range(partners.size):
            if take_step(i_up, int(partners[(start + k) % partners.size])):
                break
        else:
            b = (up_max + float(down[i_down])) / 2.0
            viol = svr_kkt_violations(beta, g + b - y, C, epsilon)
            raise SmoError(
                "SVR solver stalled: no feasible pair makes progress",
                dual=beta, max_violation=float(viol.max()),
            )
    return beta, b


def fit_svr(X: np.ndarray, y: np.ndarray, C: float, epsilon: float,
            kernel: KernelSpec, tol: float = KKT_TOL, seed: int = 0,
            max_iter: int = MAX_ITER) -> SvmModel:
    """Epsilon-insensitive SVR; see solve_svr_dual for the method."""
    X = np.asarray(X, dtype=float)
    K = kernel_matrix(kernel, X, X)
    beta, b = solve_svr_dual(K, y, C, epsilon, tol=tol, seed=seed,
                             max_iter=max_iter)
    sv, dual = _extract_support(X, beta)
    return SvmModel(task="regress", support_vectors=sv, dual_coefs=dual,
                    bias=b, kernel=kernel, C=C, epsilon=epsilon)


def svm_decision(m: SvmModel, X: np.ndarray) -> np.ndarray:
    """Raw decision values (classification label = sign, with score 0
    resolving to class 1; regression prediction is the value itself)."""
    X = np.asarray(X, dtype=float)
    if m.support_vectors.shape[0] == 0:
        return np.full(X.shape[0], m.bias)
    K = kernel_matrix(m.kernel, X, m.support_vectors)
    return K @ m.dual_coefs + m.bias


def svm_predict_class(m: SvmModel, X: np.ndarray) -> np.ndarray:
    """Class labels {0, 1}; a score of exactly 0 maps to class 1."""
    return (svm_decision(m, X) >= 0.0).astype(int)
