"""Kernel machines: kernel algebra, the analytic two-point SVC problem,
SVR tube behavior, and post-fit KKT audits on random data."""

import ast
import hashlib
import importlib.util
import inspect
import os
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import (regress_2x_data_path, seed1_cv_folds,
                      svc_kkt_violations, svr_kkt_violations)

from mpgworkbench import experiments, kernelmod
from mpgworkbench.kernelmod import (KKT_TOL, MAX_ITER, KernelSpec, SmoError,
                                    fit_svc_smo, fit_svr, gamma_scale,
                                    kernel_matrix, solve_svr_dual,
                                    svm_decision)
from mpgworkbench.rng import Xoshiro256StarStar

LINEAR = KernelSpec("linear")


# --- kernels

def kernel_eval(spec, u, v):
    """k(u, v) for one pair of points: the oracle for kernel_matrix."""
    if spec.kind == "linear":
        return float(u @ v)
    d = u - v
    return float(np.exp(-spec.gamma * (d @ d)))


def kernel_pair(spec, u, v):
    return kernel_matrix(spec, np.atleast_2d(u), np.atleast_2d(v))[0, 0]


def test_rbf_zero_distance_is_one():
    spec = KernelSpec("rbf", gamma=0.7)
    u = np.array([1.0, 2.0])
    assert kernel_pair(spec, u, u) == 1.0


def test_linear_dot_product():
    assert kernel_pair(LINEAR, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def test_rbf_log2_distance_is_half():
    spec = KernelSpec("rbf", gamma=1.0)
    u = np.array([0.0])
    v = np.array([np.sqrt(np.log(2.0))])
    assert kernel_pair(spec, u, v) == pytest.approx(0.5, abs=1e-12)


def test_kernel_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_matrix(LINEAR, np.ones((1, 2)), np.ones((1, 3)))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("poly")
    with pytest.raises(ValueError):
        KernelSpec("rbf")  # gamma required
    with pytest.raises(ValueError):
        KernelSpec("rbf", gamma=-1.0)
    with pytest.raises(ValueError):
        KernelSpec("rbf", gamma=0.0)


def test_kernel_matrix_matches_elementwise(rng):
    A = rng.normal(size=(6, 3))
    B = rng.normal(size=(4, 3))
    for spec in (LINEAR, KernelSpec("rbf", gamma=0.3)):
        K = kernel_matrix(spec, A, B)
        for i in range(6):
            for j in range(4):
                assert K[i, j] == pytest.approx(
                    kernel_eval(spec, A[i], B[j]), abs=1e-12)


def test_rbf_kernel_matrix_values_in_unit_interval(rng):
    A = rng.normal(size=(8, 2))
    K = kernel_matrix(KernelSpec("rbf", gamma=1.5), A, A)
    assert np.all(K > 0.0) and np.all(K <= 1.0)
    np.testing.assert_allclose(np.diag(K), 1.0)


def test_gamma_scale_rejects_constant():
    with pytest.raises(ValueError):
        gamma_scale(np.ones((5, 2)))


# --- SVC

def two_point_problem():
    X = np.array([[-1.0], [1.0]])
    labels = np.array([0, 1])
    return X, labels


def test_svc_two_point_analytic_solution():
    X, labels = two_point_problem()
    m = fit_svc_smo(X, labels, C=10.0, kernel=LINEAR)
    # optimum: alpha = 0.5 both, w = 1, b = 0, f(x) = x
    np.testing.assert_allclose(np.sort(m.dual_coefs), [-0.5, 0.5], atol=1e-6)
    assert abs(m.bias) < 1e-6
    assert svm_decision(m, np.array([[2.0]]))[0] == pytest.approx(2.0, abs=1e-6)


def test_svc_two_point_same_solution_for_any_large_c():
    X, labels = two_point_problem()
    for C in (0.5, 1.0, 100.0):
        m = fit_svc_smo(X, labels, C=C, kernel=LINEAR)
        np.testing.assert_allclose(np.sort(m.dual_coefs), [-0.5, 0.5], atol=1e-6)


def test_svc_tie_and_sign_rules():
    X, labels = two_point_problem()
    m = fit_svc_smo(X, labels, C=10.0, kernel=LINEAR)
    # the classification grid cuts SVM scores at 0.0
    preds = (svm_decision(m, np.array([[0.0], [2.0], [-2.0]])) >= 0.0).astype(int)
    assert preds.tolist() == [1, 1, 0]  # score 0 resolves to class 1


def test_svc_requires_both_classes():
    with pytest.raises(ValueError):
        fit_svc_smo(np.ones((3, 1)), np.array([1, 1, 1]), C=1.0, kernel=LINEAR)


def test_svc_iteration_cap_raises_with_diagnostics(rng, monkeypatch):
    X = rng.normal(size=(30, 2))
    labels = (X[:, 0] > 0).astype(int)
    monkeypatch.setattr(kernelmod, "MAX_ITER", 1)
    with pytest.raises(SmoError) as exc:
        fit_svc_smo(X, labels, C=1.0, kernel=LINEAR)
    assert exc.value.dual is not None
    assert exc.value.max_violation is not None


def svc_audit(X, labels, C, kernel):
    m = fit_svc_smo(X, labels, C=C, kernel=kernel)
    y = np.where(labels == 1, 1.0, -1.0)
    # reconstruct the full dual vector from the support set
    scores = svm_decision(m, X)
    errors = scores - y
    alpha = np.zeros(X.shape[0])
    if m.support_vectors.shape[0]:
        K = kernel_matrix(kernel, X, m.support_vectors)
        match = np.abs(X[:, None, :] - m.support_vectors[None, :, :]).sum(axis=2)
        for j in range(m.support_vectors.shape[0]):
            i = int(np.argmin(match[:, j]))
            alpha[i] = m.dual_coefs[j] * y[i]
    viol = svc_kkt_violations(alpha, y, errors, C)
    return m, viol


def test_svc_random_kkt_audit(rng):
    for trial in range(10):
        n = int(rng.integers(6, 40))
        X = rng.normal(size=(n, 2))
        labels = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        kernel = LINEAR if trial % 2 else KernelSpec("rbf", gamma=0.5)
        C = float(rng.choice([0.5, 1.0, 10.0]))
        m, viol = svc_audit(X, labels, C, kernel)
        assert viol.max() <= 2.0 * KKT_TOL
        assert abs((m.dual_coefs).sum()) <= 1e-8  # sum alpha_i y_i = 0
        assert np.abs(m.dual_coefs).max() <= C + 1e-12


# --- SVR

def test_svr_constant_target_inside_tube():
    X = np.arange(6.0)[:, None]
    y = np.full(6, 3.0)
    m = fit_svr(X, y, (10.0,), epsilon=0.1, kernel=LINEAR)
    assert m.support_vectors.shape[0] == 0
    np.testing.assert_allclose(svm_decision(m, X), 3.0, atol=1e-9)


def test_svr_exact_line_within_tube():
    X = np.linspace(-2, 2, 15)[:, None]
    y = X[:, 0].copy()
    m = fit_svr(X, y, (1000.0,), epsilon=0.01, kernel=LINEAR)
    pred = svm_decision(m, X)
    assert np.abs(pred - y).max() <= 0.01 + 1e-6


def test_svr_dual_constraints(rng):
    X = rng.normal(size=(25, 2))
    y = X[:, 0] + 0.2 * rng.normal(size=25)
    m = fit_svr(X, y, (5.0,), epsilon=0.1, kernel=KernelSpec("rbf", gamma=0.5))
    assert abs(m.dual_coefs.sum()) <= 1e-8
    assert np.abs(m.dual_coefs).max() <= 5.0 + 1e-12


def test_svr_random_kkt_audit(rng):
    for trial in range(10):
        n = int(rng.integers(5, 40))
        X = rng.normal(size=(n, 2))
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=n)
        kernel = LINEAR if trial % 2 else KernelSpec("rbf", gamma=0.7)
        C = float(rng.choice([0.5, 1.0, 10.0]))
        K = kernel_matrix(kernel, X, X)
        beta, b = solve_svr_dual(K, y, (C,), 0.1)[0]
        E = K @ beta + b - y
        assert svr_kkt_violations(beta, E, C, 0.1).max() <= 2.0 * KKT_TOL
        assert abs(beta.sum()) <= 1e-8


def test_svr_dual_objective_not_decreased_by_warm_start(rng):
    """A warm start must land at (up to tolerance) the same optimum."""
    X = rng.normal(size=(20, 2))
    y = X[:, 0] + 0.1 * rng.normal(size=20)
    K = kernel_matrix(LINEAR, X, X)
    beta10_cold, b_cold = solve_svr_dual(K, y, (10.0,), 0.1)[0]
    beta10_warm, b_warm = solve_svr_dual(K, y, (1.0, 10.0), 0.1)[1]

    def dual_objective(beta):
        return float(y @ beta - 0.1 * np.abs(beta).sum()
                     - 0.5 * beta @ K @ beta)

    assert dual_objective(beta10_warm) == pytest.approx(
        dual_objective(beta10_cold), abs=1e-2)


def test_svr_cs_validation(rng):
    """The C path must be non-empty, positive and strictly ascending."""
    X = rng.normal(size=(5, 1))
    K = kernel_matrix(LINEAR, X, X)
    y = rng.normal(size=5)
    for Cs in [(), (0.0, 1.0), (-1.0,), (np.nan,), (1.0, 1.0), (1.0, 10.0, 5.0)]:
        with pytest.raises(ValueError, match="Cs must be"):
            solve_svr_dual(K, y, Cs, 0.1)
    assert len(solve_svr_dual(K, y, (0.5, 1.0, 10.0), 0.1)) == 3
    # two samples are enough: y'beta - 0.1 |beta|_1 - |beta|^2 / 2 peaks
    # at beta = (0.9, -0.9), with both points on the tube's edge
    (beta, b), = solve_svr_dual(np.eye(2), [1.0, -1.0], (1.0,), 0.1)
    np.testing.assert_allclose(beta, [0.9, -0.9], atol=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)


def test_svr_negative_epsilon_rejected():
    with pytest.raises(ValueError):
        fit_svr(np.ones((3, 1)), np.zeros(3), (1.0,), epsilon=-0.1, kernel=LINEAR)


def test_empty_support_vector_decision_is_bias():
    X = np.arange(4.0)[:, None]
    m = fit_svr(X, np.full(4, 2.0), (1.0,), epsilon=0.5, kernel=LINEAR)
    np.testing.assert_allclose(svm_decision(m, np.array([[7.0]])), [2.0],
                               atol=1e-9)


# --- SVR solver against a reference copy of its step loop

def reference_svr_dual(K, y, C, epsilon, tol=KKT_TOL, seed=0,
                       max_iter=MAX_ITER, beta0=None):
    """The SVR solver as it was before its KKT offsets were kept
    incrementally: every step rebuilds the up/down values from beta and
    calls a gain closure per candidate.  Kept verbatim (input checks
    left out, KKT audit by the loop reference below) as the oracle the
    solver must match bit for bit."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if beta0 is None:
        beta = np.zeros(n)
        g = np.zeros(n)  # K @ beta, maintained incrementally
    else:
        beta = np.asarray(beta0, dtype=float).copy()
        g = K @ beta
    rng = Xoshiro256StarStar(seed)
    iterations = 0

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

        def gain(t):
            dt = t - t0
            return (
                slope * dt - 0.5 * eta * dt * dt
                - epsilon * (abs(t) - abs_t0)
                - epsilon * (abs(ssum - t) - abs_s_t0)
            )

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
        for t in candidates:
            g_t = gain(t)
            if g_t > best_gain + 1e-15:
                best_t, best_gain = t, g_t
        if best_gain <= 1e-15 or abs(best_t - t0) < 1e-14:
            return False
        d1 = best_t - t0
        g[:] += d1 * (K[i1] - K[i2])
        beta[i1] = best_t
        beta[i2] = ssum - best_t
        iterations += 1
        return True

    # maximal-violating-pair loop.  For each point, the slope of the dual
    # toward increasing (resp. decreasing) beta_i is (y - g) -/+ eps with
    # the sign of the L1 kink at beta_i; KKT holds when every feasible
    # "up" value is below every feasible "down" value (the bias sits in
    # the gap between them).
    margin = 1e-10 * C  # multipliers this close to a bound count as bound
    diag_k = np.diag(K).copy()
    while True:
        yg = y - g
        up = np.where(beta >= 0.0, yg - epsilon, yg + epsilon)
        down = np.where(beta <= 0.0, yg + epsilon, yg - epsilon)
        up = np.where(beta < C - margin, up, -np.inf)
        down = np.where(beta > -C + margin, down, np.inf)
        i_up = int(np.argmax(up))
        gap = up[i_up] - down.min()
        if gap <= 2.0 * tol:
            b = float((up[i_up] + down.min()) / 2.0)
            break
        if iterations >= max_iter:
            b = float((up[i_up] + down.min()) / 2.0)
            viol = reference_svr_kkt_violations(beta, g + b - y, C, epsilon)
            raise SmoError(
                f"SVR solver hit the iteration cap of {max_iter}",
                dual=beta, max_violation=float(viol.max()),
            )
        # second-order partner choice: maximize the guaranteed dual gain
        diff = up[i_up] - down
        curv = np.maximum(diag_k[i_up] + diag_k - 2.0 * K[i_up], 1e-12)
        score = np.where(diff > 0, diff * diff / curv, -np.inf)
        i_down = int(np.argmax(score))
        if take_step(i_up, i_down):
            continue
        # blocked pair: seeded random sweep over feasible partners
        partners = np.flatnonzero(beta > -C)
        start = rng.randbelow(partners.size)
        for k in range(partners.size):
            if take_step(i_up, int(partners[(start + k) % partners.size])):
                break
        else:
            b = float((up[i_up] + down[i_down]) / 2.0)
            viol = reference_svr_kkt_violations(beta, g + b - y, C, epsilon)
            raise SmoError(
                "SVR solver stalled: no feasible pair makes progress",
                dual=beta, max_violation=float(viol.max()),
            )
    return beta, b


def without_engine(monkeypatch):
    """Take the active-set engine out of solve_svr_dual's path: each C
    after the first starts SMO from the last optimum, stretched to its
    box."""
    monkeypatch.setattr(kernelmod, "_svr_active_set",
                        lambda K, y, C, epsilon, beta0, carry: (beta0.copy(), None, None))


def svr_problem(rng, n, kind):
    X = rng.normal(size=(n, 3))
    X[-1] = X[0]  # a zero-curvature pair exercises the flat-direction path
    y = X[:, 0] + np.sin(X[:, 1]) + 0.2 * rng.normal(size=n)
    if kind == "rbf":
        return kernel_matrix(KernelSpec("rbf", gamma=0.4), X, X), y
    # a shrunk linear Gram matrix: at full scale, linear SVR at C = 100
    # takes about a second per solve
    return kernel_matrix(LINEAR, 0.3 * X, 0.3 * X), y


@pytest.mark.parametrize("kind", ["linear", "rbf"])
@pytest.mark.parametrize("epsilon", [0.0, 0.1])
def test_svr_dual_matches_reference_loop(rng, kind, epsilon, monkeypatch):
    """Each C cold, and along the path warm by SMO alone."""
    without_engine(monkeypatch)
    for trial in range(3):
        K, y = svr_problem(rng, int(rng.integers(20, 60)), kind)
        Cs = (1.0, 10.0, 100.0)  # ascending grid, as the SVR CV runs it
        path = solve_svr_dual(K, y, Cs, epsilon)
        for i, C in enumerate(Cs):
            solves = [(solve_svr_dual(K, y, (C,), epsilon)[0], None)]
            if i:  # warm from the last optimum, stretched to the box
                last = path[i - 1][0]
                solves.append((path[i], C / np.abs(last).max() * last))
            for (beta, b), beta0 in solves:
                ref_beta, ref_b = reference_svr_dual(K, y, C, epsilon,
                                                     seed=trial, beta0=beta0)
                assert np.array_equal(beta, ref_beta)
                assert b == ref_b


@pytest.mark.parametrize("kind", ["linear", "rbf"])
def test_svr_dual_stall_matches_reference_loop(rng, kind, monkeypatch):
    """A tolerance below rounding level stalls the solver.  The reference
    runs its seeded blocked-pair sweep first; no partner it tries makes
    progress, so both stop at the same iterate."""
    monkeypatch.setattr(kernelmod, "KKT_TOL", 1e-12)
    for trial in range(3):
        K, y = svr_problem(rng, int(rng.integers(10, 30)), kind)
        with pytest.raises(SmoError, match="stalled") as exc:
            solve_svr_dual(K, y, (10.0,), 0.1)
        with pytest.raises(SmoError, match="stalled") as ref:
            reference_svr_dual(K, y, 10.0, 0.1, tol=1e-12, seed=trial)
        assert np.array_equal(exc.value.dual, ref.value.dual)
        assert exc.value.max_violation == ref.value.max_violation


def test_svr_dual_underflowing_scores_match_reference_loop(rng, monkeypatch):
    """Targets of order 1e-170 square to 0 in the partner score, so no
    score is > 0 and the partner is the first point with a positive gap
    (the others score -inf).  Point 0 has the largest target, so its gap
    is negative and it must not be the partner.  No step gains enough,
    and the stall must match the reference bit for bit, bias included."""
    scale = 1e-170
    monkeypatch.setattr(kernelmod, "KKT_TOL", 1e-3 * scale)
    for trial in range(3):
        K, y = svr_problem(rng, 20, "rbf")
        y[0] = y.max() + 1.0
        with pytest.raises(SmoError, match="stalled") as exc:
            solve_svr_dual(K, scale * y, (1.0,), 0.1 * scale)
        with pytest.raises(SmoError, match="stalled") as ref:
            reference_svr_dual(K, scale * y, 1.0, 0.1 * scale,
                               tol=1e-3 * scale, seed=trial)
        assert np.array_equal(exc.value.dual, ref.value.dual)
        assert exc.value.max_violation == ref.value.max_violation


def test_svr_warm_start_with_rounding_level_multiplier_converges(
        rng, monkeypatch):
    """A warm start at the C = 1 optimum whose zero multiplier carries a
    -3.5e-18 rounding residue (the engine patched to hand it over):
    counted as negative, the point looks like a KKT violator whose fix
    is a step far below the step floor."""
    K, y = svr_problem(rng, 30, "rbf")
    (beta, _), = solve_svr_dual(K, y, (1.0,), 0.1)
    beta0 = beta.copy()
    beta0[np.flatnonzero(beta == 0.0)[0]] = -3.5e-18
    monkeypatch.setattr(kernelmod, "_svr_active_set",
                        lambda K, y, C, epsilon, b, carry: (beta0.copy(), None, None))
    beta, b = solve_svr_dual(K, y, (0.5, 1.0), 0.1)[1]
    assert svr_kkt_violations(beta, K @ beta + b - y, 1.0, 0.1).max() <= 2.0 * KKT_TOL


def test_svr_scaled_down_problem_converges(rng, monkeypatch):
    """y, C, eps and tol scaled by 1e-5 give the same problem in other
    units: the step floors shrink with C, so the solver still converges,
    to a beta / scale that passes the unscaled KKT audit."""
    X = rng.normal(size=(40, 3))
    y = X[:, 0] + np.sin(X[:, 1]) + 0.2 * rng.normal(size=40)
    K = kernel_matrix(KernelSpec("rbf", gamma=0.4), X, X)
    scale = 1e-5
    monkeypatch.setattr(kernelmod, "KKT_TOL", scale * KKT_TOL)
    (beta, b), = solve_svr_dual(K, scale * y, (scale * 1.0,), scale * 0.1)
    beta, b = beta / scale, b / scale
    assert svr_kkt_violations(beta, K @ beta + b - y, 1.0, 0.1).max() <= 2.0 * KKT_TOL


def test_svr_dual_bits_are_pinned():
    """sha256 of beta and the hex bias of a cold solve at C = 10 and its
    warm start at C = 100, recorded from the SVR-only solver that the
    shared SMO loop replaced; the warm start runs SMO alone from a copy
    of the C = 10 optimum.
    The Gram matrix comes from elementwise products, so no BLAS call
    rounds it.  Its points sit on a line with the second coordinate and
    the targets mirrored about the middle one, so partner scores tie up
    to rounding and a last-bit change in the pair curvature changes the
    path.  (The warm start's K @ beta0 is one BLAS matrix-vector product.)"""
    mirror = np.abs(np.arange(-20, 21))
    a = 1.7 + 0.1 * np.arange(41)
    gen = np.random.default_rng(2)
    c, y = gen.uniform(-1.0, 1.0, 21)[mirror], gen.uniform(-1.0, 1.0, 21)[mirror]
    K = np.outer(a, a) + np.outer(c, c) + 0.01 * np.eye(41)
    (beta, b), = solve_svr_dual(K, y, (10.0,), 0.1)
    assert hashlib.sha256(beta.tobytes()).hexdigest() == (
        "1474deb205620e13da91e47fae964510ab363c1b746d5258f37a15d7bbf2ab5e")
    assert b.hex() == "0x1.f380869b43801p-3"
    beta, b = kernelmod._smo(K, y, np.full(41, -100.0), np.full(41, 100.0), 0.1,
                             beta.copy())
    assert hashlib.sha256(beta.tobytes()).hexdigest() == (
        "f4763b80e0f19160d3de2dd98260d10ffda94d84d99ac0b048f6bc20d6f08ebf")
    assert b.hex() == "0x1.a01712f66c69ap-3"


def test_svr_iteration_cap_raises_with_diagnostics(rng, monkeypatch):
    K, y = svr_problem(rng, 30, "rbf")
    monkeypatch.setattr(kernelmod, "MAX_ITER", 1)
    with pytest.raises(SmoError) as exc:
        solve_svr_dual(K, y, (10.0,), 0.1)
    assert exc.value.dual is not None
    assert np.isfinite(exc.value.max_violation)
    assert exc.value.max_violation > 2.0 * KKT_TOL
    assert exc.value.iterations == 1


def test_failed_kkt_audit_raises_with_diagnostics(rng, monkeypatch):
    """Every solve is certified before it returns: an audit above
    2 * tol raises, with the violation and the steps taken."""
    K, y = svr_problem(rng, 30, "rbf")
    monkeypatch.setattr(kernelmod, "_kkt_violations",
                        lambda *args: np.array([1.0]))
    with pytest.raises(SmoError, match="KKT audit") as exc:
        solve_svr_dual(K, y, (10.0,), 0.1)
    assert exc.value.max_violation == 1.0
    assert exc.value.iterations > 0


def reference_svr_kkt_violations(beta, E, C, epsilon):
    viol = np.empty_like(beta)
    bnd = 1e-8 * C
    for i in range(beta.size):
        bi, Ei = beta[i], E[i]
        if bi >= C - bnd:
            viol[i] = max(0.0, Ei + epsilon)
        elif bi > bnd:
            viol[i] = abs(Ei + epsilon)
        elif bi > -bnd:
            viol[i] = max(0.0, abs(Ei) - epsilon)
        elif bi > -C + bnd:
            viol[i] = abs(Ei - epsilon)
        else:
            viol[i] = max(0.0, epsilon - Ei)
    return viol


@pytest.mark.parametrize("C", [1.0, 10.0])
def test_svr_kkt_violations_match_loop(rng, C):
    bnd = 1e-8 * C
    edges = np.array([C, C - bnd, bnd, 0.0, -bnd, -C + bnd, -C])
    edges = np.concatenate([edges, np.nextafter(edges, np.inf),
                            np.nextafter(edges, -np.inf)])
    # every multiplier against errors on both sides of, and at, the tube
    # edges, so that picking a neighbouring branch changes the result
    beta, E = (a.ravel() for a in np.meshgrid(
        np.concatenate([edges, rng.uniform(-C, C, size=20)]),
        np.concatenate([[-0.3, -0.1, -0.05, 0.0, 0.05, 0.1, 0.3],
                        rng.normal(scale=0.2, size=5)])))
    for epsilon in (0.0, 0.1):
        assert np.array_equal(svr_kkt_violations(beta, E, C, epsilon),
                              reference_svr_kkt_violations(beta, E, C, epsilon))


def reference_svc_kkt_violations(alpha, y, errors, C):
    viol = np.empty_like(alpha)
    bnd = 1e-8 * C
    for i in range(alpha.size):
        r = errors[i] * y[i]  # y f(x) - 1
        if alpha[i] >= C - bnd:
            viol[i] = max(0.0, r)  # need margin <= 1
        elif alpha[i] <= bnd:
            viol[i] = max(0.0, -r)  # need margin >= 1
        else:
            viol[i] = abs(r)
    return viol


@pytest.mark.parametrize("C", [1.0, 10.0])
def test_svc_kkt_violations_match_loop(rng, C):
    """The SVC audit runs through the per-point-box audit shared with SVR."""
    bnd = 1e-8 * C
    edges = np.array([0.0, bnd, C - bnd, C])
    edges = np.concatenate([edges, np.nextafter(edges, np.inf),
                            np.nextafter(edges, -np.inf)])
    alpha, errors = (a.ravel() for a in np.meshgrid(
        np.concatenate([edges, rng.uniform(0.0, C, size=20)]),
        np.concatenate([[-0.3, -1e-3, 0.0, 1e-3, 0.3],
                        rng.normal(scale=0.2, size=5)])))
    for label in (1.0, -1.0):
        y = np.full(alpha.size, label)
        assert np.array_equal(svc_kkt_violations(alpha, y, errors, C),
                              reference_svc_kkt_violations(alpha, y, errors, C))


# --- the active-set warm start

def svr_dual_value(K, y, epsilon, beta):
    return float(y @ beta - epsilon * np.abs(beta).sum() - 0.5 * beta @ K @ beta)


class _AtFinalSvr(Exception):
    """Ends the regression suite at its final SVR fit."""


def seed1_svr_cv(protocol):
    """The SVR's C grid and its CV results on the protocol's training
    split, from the seed-1 regression suite itself, which is ended at its
    final SVR fit: the SVR's CV is the suite's first cv_scores call, and
    every solve of it goes through experiments.solve_svr_dual."""
    scores, score = [], experiments.cv_scores

    def recorded(folds, preds):
        scores.append(score(folds, preds))
        return scores[-1]

    def final_svr(*args):
        raise _AtFinalSvr

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "cv_scores", recorded)
        patch.setattr(experiments, "fit_svr", final_svr)
        with pytest.raises(_AtFinalSvr):
            experiments.run_regression_suite(experiments.ExperimentConfig(), protocol)
    return experiments.FIXED["svr_c_grid"], scores[0]


def cap_warm_smo(monkeypatch, steps):
    """Caps _smo at ``steps`` steps in warm solves, so that one needing
    more raises SmoError; returns the list of their Cs, filled as they
    run."""
    smo, warm = kernelmod._smo, []

    def capped(K, y, lo, hi, epsilon, beta0):
        if beta0 is None:
            return smo(K, y, lo, hi, epsilon, beta0)
        warm.append(float(hi[0]))
        with monkeypatch.context() as patch:
            patch.setattr(kernelmod, "MAX_ITER", steps)
            return smo(K, y, lo, hi, epsilon, beta0)

    monkeypatch.setattr(kernelmod, "_smo", capped)
    return warm


def assert_warm_smo_under_50_steps(protocol, monkeypatch):
    warm = cap_warm_smo(monkeypatch, 50)
    seed1_svr_cv(protocol)
    assert warm == [10.0, 100.0] * 10


def test_active_set_leaves_smo_under_50_steps(protocol, monkeypatch):
    """On the seed-1 protocol's CV folds, SMO finishes each warm solve
    (C = 10 and C = 100) from the engine's start within 50 steps.  Warm
    from the previous optimum alone, plain SMO takes 515-2,046 steps per
    fold at C = 10 and 6,871-12,649 at C = 100."""
    assert_warm_smo_under_50_steps(protocol, monkeypatch)


@pytest.mark.slow
def test_active_set_leaves_smo_under_50_steps_on_regress_2x(tmp_path, capsys,
                                                            monkeypatch):
    """The same on the benchmark's regress-2x file (data seed 1), whose
    free blocks are the worst-conditioned."""
    protocol = experiments.prepare_protocol(experiments.ExperimentConfig(
        data_path=regress_2x_data_path(tmp_path, capsys)))
    assert_warm_smo_under_50_steps(protocol, monkeypatch)


@pytest.mark.slow
def test_svr_cv_selects_the_same_c_without_the_engine(protocol, monkeypatch):
    """The report reads the engine's CV solves only through the SVR's
    selected C, since their fold scores are not reported (the final fit
    is a path of its own, on the training split).  On the seed-1 CV, warm
    starts by SMO alone select the same C, and every CV mean lies within
    5e-4 of the engine's, under a third of the 1.67e-3 between the best
    and the next C.  Two solves certified at KKT_TOL differ by up to
    1.2e-4 here."""
    grid, engine = seed1_svr_cv(protocol)
    without_engine(monkeypatch)
    _, smo = seed1_svr_cv(protocol)
    assert experiments._select(grid, smo)[0] == experiments._select(grid, engine)[0]
    for ours, theirs in zip(engine, smo):
        assert abs(ours["mean"] - theirs["mean"]) <= 5e-4


def test_active_set_runs_inside_the_cv_solves(protocol, monkeypatch):
    """The benchmark times the SVR CV as the experiments.solve_svr_dual
    calls, so on the seed-1 protocol's CV every engine call must run
    inside one: one call per fold, each a path over the C grid whose
    warm solves (C = 10 and C = 100) run the engine, none at C = 1."""
    depth, solves, engine_calls = [0], [], []
    engine = kernelmod._svr_active_set

    def solve(K, y, Cs, epsilon):
        solves.append(Cs)
        depth[0] += 1
        try:
            return solve_svr_dual(K, y, Cs, epsilon)
        finally:
            depth[0] -= 1

    def spy(K, y, C, epsilon, beta0, carry):
        engine_calls.append((C, depth[0]))
        return engine(K, y, C, epsilon, beta0, carry)

    monkeypatch.setattr(experiments, "solve_svr_dual", solve)
    monkeypatch.setattr(kernelmod, "_svr_active_set", spy)
    seed1_svr_cv(protocol)
    assert solves == [(1.0, 10.0, 100.0)] * 10
    assert engine_calls == [(10.0, 1), (100.0, 1)] * 10


@pytest.mark.parametrize("kind", ["linear", "rbf"])
@pytest.mark.parametrize("epsilon", [0.0, 0.1])
def test_active_set_start_is_feasible_and_no_worse(rng, kind, epsilon):
    """The low-rank linear Gram matrix makes the free block singular,
    so the engine hands over early; the RBF problems have a duplicated
    row.  Either way its start lies in the box with sum 0, its dual value
    is at least beta0's, and SMO certifies the solve from it."""
    for trial in range(3):
        K, y = svr_problem(rng, int(rng.integers(20, 60)), kind)
        path = solve_svr_dual(K, y, (1.0, 10.0, 100.0), epsilon)
        for C, (last, _), (beta, b) in zip((10.0, 100.0), path, path[1:]):
            beta0 = C / np.abs(last).max() * last  # as solve_svr_dual stretches it
            start, *_ = kernelmod._svr_active_set(K, y, C, epsilon, beta0, None)
            assert np.abs(start).max() <= C
            assert abs(start.sum()) <= 1e-8 * max(1.0, C)
            assert (svr_dual_value(K, y, epsilon, start)
                    >= svr_dual_value(K, y, epsilon, beta0))
            # the path's solve at C, which SMO finished from that start
            E = K @ beta + b - y
            assert svr_kkt_violations(beta, E, C, epsilon).max() <= 2.0 * KKT_TOL


def test_active_set_finishes_from_the_optimum_at_the_same_c(protocol, monkeypatch):
    """The engine is a finish from any feasible start, not a step along
    the C path: on the seed-1 protocol's CV folds, run at each C of the
    grid from that C's optimum, it hands SMO a start that SMO certifies
    in 0 steps, and it leaves that optimum as it was, for a caller to
    fall back to."""
    kern = KernelSpec("rbf", gamma_scale(protocol.Xtr))
    grid = experiments.FIXED["svr_c_grid"]
    solves = []
    for Xs, ys in seed1_cv_folds(protocol):
        K = kernel_matrix(kern, Xs, Xs)
        solves += [(K, ys, C, beta)
                   for C, (beta, _) in zip(grid, solve_svr_dual(K, ys, grid, 0.1))]
    warm = cap_warm_smo(monkeypatch, 0)
    for K, y, C, beta in solves:
        optimum = beta.copy()
        start, *_ = kernelmod._svr_active_set(K, y, C, 0.1, beta, None)
        assert np.array_equal(beta, optimum)
        n = y.size
        kernelmod._smo(K, y, np.full(n, -C), np.full(n, C), 0.1, start)
    assert warm == list(grid) * 10



def reference_svr_active_set(K, y, C, epsilon, beta0):
    """The active-set engine as it was before its blocked steps became a
    rank-one correction: every iteration rebuilds the right-hand side
    from K @ beta, solves the bordered system again and brings K @ beta
    up to date, and every call builds its free set from scratch.  Kept
    (docstring and comments left out) as the oracle of _svr_active_set.
    Returns the iterate, or a copy of beta0, and the final free set,
    sorted."""
    n = y.size
    beta = beta0.copy()
    g = np.einsum("ij,j->i", K, beta)
    side = np.select([beta >= C - 1e-10 * C, beta > 1e-12 * C,
                      beta >= -1e-12 * C, beta > -C + 1e-10 * C], [2, 1, 0, -1], -2)
    inv = None
    fidx, KF = np.empty(n, dtype=np.intp), np.empty((n, n))
    rhs, t, m = np.empty(n + 1), np.empty(n), 0
    floor = 1e-10 * float(np.diag(K).max())
    up_rate = np.array([epsilon, -np.inf, -epsilon, -np.inf, -np.inf])
    down_rate = np.array([-np.inf, -np.inf, -epsilon, -np.inf, epsilon])

    def add(J):
        nonlocal inv, m
        if m == 0:
            inv = np.array([[-K[J[0], J[0]], 1.0], [1.0, 0.0]])
            fidx[0], KF[0], m = J[0], K[J[0]], 1
            J = J[1:]
        inv, k = kernelmod._add_block(inv, KF[:m, J].T, K[np.ix_(J, J)], floor)
        fidx[m:m + k], KF[m:m + k] = J[:k], K[J[:k]]
        m += k
        return k == J.size

    def remove(p):
        nonlocal inv, m
        inv[[p + 1, m]] = inv[[m, p + 1]]
        inv[:, [p + 1, m]] = inv[:, [m, p + 1]]
        fidx[p], KF[p] = fidx[m - 1], KF[m - 1]
        c = inv[:m, m]
        inv = inv[:m, :m] - np.multiply.outer(c, c / inv[m, m])
        m -= 1

    start = np.flatnonzero(np.abs(side) == 1)
    built = all(add(start[i:i + 8]) for i in range(0, start.size, 8))
    for _ in range(4 * n if built else 0):
        if m == 0:
            break
        F = fidx[:m]
        bF, sF = beta[F], side[F]
        rhs[0] = -beta.sum()
        np.subtract(y[F], g[F], out=rhs[1:m + 1])
        rhs[1:m + 1] -= epsilon * sF
        x = np.einsum("ij,j->i", inv, rhs[:m + 1])
        d = x[1:]
        wall = np.where((d > 0) == (sF > 0), C * sF, 0.0)
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
            side[F[k]] = 2 * sF[k] if wall[k] else 0
            remove(k)
            continue
        E = g + x[0] - y
        up, down = up_rate[side + 2] - E, down_rate[side + 2] + E
        viol = np.maximum(up, down)
        top = np.argsort(viol)[:-kernelmod.RELEASE_BLOCK - 1:-1]
        top = top[viol[top] > KKT_TOL / 2]
        to = np.where(up[top] >= down[top], 1, -1)
        side[top] = np.where(side[top] == 0, to, np.sign(side[top]))
        if not (top.size and add(top)):
            break
    np.clip(beta, -C, C, out=beta)
    inside = (beta != 0.0) & (np.abs(beta) < C - abs(beta.sum()))
    if inside.any():
        beta[inside] -= beta.sum() / inside.sum()
    if svr_dual_value(K, y, epsilon, beta) < svr_dual_value(K, y, epsilon, beta0):
        beta = beta0.copy()
    return beta, np.sort(fidx[:m])


def free_rows(beta, C):
    """The rows the engine counts as free in beta: 0 < |beta_i| < C, up
    to its margins."""
    return np.flatnonzero((np.abs(beta) > 1e-12 * C) & (np.abs(beta) < C - 1e-10 * C))


def engine_against_oracle(K, y, epsilon):
    """The engine's warm solves along solve_svr_dual's C path (1, 10,
    100), each from the last optimum stretched to its box and with the
    last engine call's carry, as solve_svr_dual runs them, and the
    oracle's from the same starts.  Asserts that both return the same
    free rows and iterates within 1e-6 of each other; returns how many
    of the engine's calls reused their carry, and in how many its final
    free set F is the oracle's."""
    grid, carry, reused, same_f = (1.0, 10.0, 100.0), None, 0, 0
    path = solve_svr_dual(K, y, grid, epsilon)
    for C, (last, _) in zip(grid[1:], path):
        start = C / np.abs(last).max() * last
        reused += carry is not None and np.array_equal(np.sort(carry[0]), free_rows(start, C))
        beta, *carry = kernelmod._svr_active_set(K, y, C, epsilon, start, carry)
        ref, ref_f = reference_svr_active_set(K, y, C, epsilon, start)
        assert np.array_equal(free_rows(beta, C), free_rows(ref, C))
        assert np.abs(beta - ref).max() <= 1e-6
        same_f += np.array_equal(np.sort(carry[0]), ref_f)
    return reused, same_f


@pytest.mark.parametrize("seed", [1, 21])
def test_active_set_matches_the_re_solving_oracle_on_cv_folds(protocol, seed):
    """On the seed-1 and seed-21 protocols' CV folds, the engine, whose
    blocked steps are rank-one corrections and whose C = 100 calls start
    from the C = 10 call's inverse, ends each of its 20 warm solves with
    the oracle's final free set F, and its iterate has the free rows of
    the oracle's, within 1e-6.  At seed 1 every C = 100 call reuses its
    carry."""
    if seed != 1:
        protocol = experiments.prepare_protocol(experiments.ExperimentConfig(seed=seed))
    kern = KernelSpec("rbf", gamma_scale(protocol.Xtr))
    reused, same_f = np.sum([engine_against_oracle(kernel_matrix(kern, Xs, Xs), ys, 0.1)
                             for Xs, ys in seed1_cv_folds(protocol)], axis=0)
    assert same_f == 20
    if seed == 1:
        assert reused == 10


@pytest.mark.parametrize("kind", ["linear", "rbf"])
@pytest.mark.parametrize("epsilon", [0.0, 0.1])
def test_active_set_matches_the_re_solving_oracle(rng, kind, epsilon):
    """The same on svr_problem's synthetic problems, whose linear Gram
    matrices have rank 3, so the engine hands over at a singular pivot;
    the RBF ones have a duplicated row.  The returned iterates agree, and
    on the RBF problems so does F.  On the linear ones, two multipliers
    can reach their walls at the same step length in exact arithmetic,
    and rounding picks which is fixed first, so the F that the engine
    hands over with can differ from the oracle's (in 4 of 12 solves)."""
    for _ in range(3):
        _, same_f = engine_against_oracle(
            *svr_problem(rng, int(rng.integers(20, 60)), kind), epsilon)
        assert same_f == 2 or kind == "linear"


# numpy names that reach BLAS or LAPACK
BLAS_NAMES = {"dot", "matmul", "linalg", "tensordot", "inner", "vdot"}


def blas_uses(function):
    """(line, what) of each use in ``function``'s source, nested
    functions included, of a product that goes through BLAS or LAPACK:
    ``@``, a numpy name in BLAS_NAMES (``np.dot``, ``.dot(``, ``np.linalg``
    ...), or einsum's ``optimize``, which hands contractions to BLAS."""
    lines, first = inspect.getsourcelines(function)
    uses = []
    for node in ast.walk(ast.parse(textwrap.dedent("".join(lines)))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.keyword) and node.arg == "optimize":
            uses.append((node.lineno, "optimize"))
    return [(first + line - 1, what) for line, what in uses]


@pytest.mark.parametrize("name", ["_svr_active_set", "_add_block",
                                  "kernel_matrix", "solve_svr_dual"])
def test_engine_and_gram_matrix_make_no_blas_call(name):
    """BLAS and LAPACK round differently with the thread count at these
    sizes, and the SVR solve amplifies that, so the Gram matrix and the
    engine's updates run in einsum and ufuncs only.  Checked in the
    source, since the thread-count tests of test_experiments.py pass on
    a host whose BLAS happens to round the same at one and two threads.
    (_smo's warm K @ beta, one product per warm solve, is outside the
    rule.)"""
    assert blas_uses(getattr(kernelmod, name)) == []


def test_blas_uses_sees_each_kind():
    def products(a, b):
        c = a @ b
        c @= np.dot(a, b) + a.dot(b) + np.matmul(a, b)
        return np.linalg.solve(c, np.einsum("ij,jk->ik", a, b, optimize=True))

    assert sorted(what for _, what in blas_uses(products)) == [
        "@", "@", "dot", "dot", "linalg", "matmul", "optimize"]


def test_active_set_outward_release_start_is_feasible_and_no_worse(monkeypatch):
    """On this RBF problem released block members move outward, and the
    ratio test fixes each again by a zero-length step.  The engine's
    start at C = 10 still lies in the box with sum 0, is no worse than
    beta0, and SMO certifies it; SMO finishes the warm solves at C = 10
    and C = 100 from the engine's starts in 0 steps."""
    gen = np.random.default_rng(0)
    X = gen.normal(size=(30, 3))
    y = X[:, 0] + np.sin(X[:, 1]) + 0.2 * gen.normal(size=30)
    K = kernel_matrix(KernelSpec("rbf", gamma=0.4), X, X)
    warm = cap_warm_smo(monkeypatch, 0)
    (last, _), (beta, b), _ = solve_svr_dual(K, y, (1.0, 10.0, 100.0), 0.1)
    assert warm == [10.0, 100.0]
    beta0 = 10.0 / np.abs(last).max() * last  # as solve_svr_dual stretches it
    start, *_ = kernelmod._svr_active_set(K, y, 10.0, 0.1, beta0, None)
    assert np.abs(start).max() <= 10.0
    assert abs(start.sum()) <= 1e-8 * 10.0
    assert svr_dual_value(K, y, 0.1, start) >= svr_dual_value(K, y, 0.1, beta0)
    # the path's solve at C = 10, which SMO finished from that start
    assert svr_kkt_violations(beta, K @ beta + b - y, 10.0, 0.1).max() <= 2.0 * KKT_TOL


@pytest.fixture(scope="module")
def seed1_fold(protocol):
    """The RBF Gram matrix of the seed-1 protocol's first CV fold, as the
    SVR CV builds it, and the free rows (0 < |beta| < C) of its optima
    along the C grid: 35, 83 and 133 rows."""
    Xs, ys = seed1_cv_folds(protocol)[0]
    K = kernel_matrix(KernelSpec("rbf", gamma_scale(protocol.Xtr)), Xs, Xs)
    free, grid = {}, experiments.FIXED["svr_c_grid"]
    for C, (beta, _) in zip(grid, solve_svr_dual(K, ys, grid, 0.1)):
        free[C] = np.flatnonzero((np.abs(beta) > 1e-8 * C)
                                 & (np.abs(beta) < C - 1e-8 * C))
    return K, free


def rank_one_bordered_inverse(K, F, floor):
    """The reference for _add_block: the inverse of [[0, 1'], [1, K_FF]]
    by one rank-one add per row of F, and the number of rows admitted
    before the first Schur complement at or below floor."""
    inv = np.array([[-K[F[0], F[0]], 1.0], [1.0, 0.0]])
    for m in range(1, len(F)):
        v = np.concatenate([[1.0], K[F[m], F[:m]]])
        w = np.einsum("ij,j->i", inv, v)
        schur = K[F[m], F[m]] - np.einsum("i,i->", v, w)
        if not schur > floor:
            return inv, m
        inv = np.block([[inv + np.outer(w, w) / schur, -w[:, None] / schur],
                        [-w[None, :] / schur, np.array([[1.0 / schur]])]])
    return inv, len(F)


def block_and_rank_one_inverses(K, rows, k):
    """The bordered inverse of K's rows, by rank-one adds of all but the
    last k and one k-row block add, and by rank-one adds only; checks that
    every row joins both ways."""
    floor = 1e-10 * float(np.diag(K).max())
    m = len(rows) - k
    F, J = rows[:m], rows[m:]
    inv, admitted = rank_one_bordered_inverse(K, F, floor)
    assert admitted == m
    inv, joined = kernelmod._add_block(inv, K[np.ix_(J, F)], K[np.ix_(J, J)], floor)
    assert joined == k
    ref, admitted = rank_one_bordered_inverse(K, rows, floor)
    assert admitted == m + k
    return inv, ref


@pytest.mark.parametrize("C", [1.0, 10.0])
@pytest.mark.parametrize("k", [1, 4, 8])
def test_block_add_matches_rank_one_adds(seed1_fold, C, k):
    """On the seed-1 fold's free rows at C = 1 and C = 10 (bordered
    condition numbers 1e3 and 1.5e4), one add of the last k rows matches
    k rank-one adds to 1e-10 (relative)."""
    K, free = seed1_fold
    block, ref = block_and_rank_one_inverses(K, free[C], k)
    assert np.abs(block - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("k", [4, 8])
def test_block_add_is_as_accurate_as_rank_one_adds(seed1_fold, k):
    """On the free rows at C = 100 (bordered condition number 2.8e5) the
    two orders of rounding part by more than 1e-10: by 1.5e-10 relative
    for the last 4 rows.  Against the inverse refined in long double, the
    block add is as accurate as the rank-one adds, within a factor of 2."""
    K, free = seed1_fold
    rows = free[100.0]
    block, ref = block_and_rank_one_inverses(K, rows, k)
    M = np.zeros((len(rows) + 1, len(rows) + 1))
    M[0, 1:] = M[1:, 0] = 1.0
    M[1:, 1:] = K[np.ix_(rows, rows)]
    exact, M = np.linalg.inv(M).astype(np.longdouble), M.astype(np.longdouble)
    for _ in range(3):  # iterative refinement: X += X (I - M X)
        exact += exact @ (np.eye(len(M), dtype=np.longdouble) - M @ exact)
    exact = exact.astype(float)
    assert np.abs(block - exact).max() <= 2.0 * np.abs(ref - exact).max()


def test_carried_inverse_matches_a_rebuilt_one(protocol, seed1_fold):
    """The C = 100 solve on the seed-1 fold starts from the bordered
    inverse that the C = 10 solve's engine returns, updated through all
    of that call's adds and removes, since the stretched start's free rows
    are its rows.  It matches an inverse of those rows rebuilt by rank-one
    adds in the same order to 1e-10 (relative)."""
    K, _ = seed1_fold
    ys = seed1_cv_folds(protocol)[0][1]
    (beta, _), (last, _), _ = solve_svr_dual(K, ys, (1.0, 10.0, 100.0), 0.1)
    _, order, inv = kernelmod._svr_active_set(K, ys, 10.0, 0.1,
                                              10.0 / np.abs(beta).max() * beta, None)
    assert np.array_equal(np.sort(order), free_rows(100.0 / np.abs(last).max() * last, 100.0))
    ref, admitted = rank_one_bordered_inverse(K, order, 1e-10 * float(np.diag(K).max()))
    assert admitted == len(order)
    assert np.abs(inv - ref).max() <= 1e-10 * np.abs(ref).max()


def test_block_add_stops_at_a_duplicate_of_a_free_row(seed1_fold):
    """A block whose second row duplicates a free row: exactly the first
    row joins, as one rank-one add would admit it."""
    K, free = seed1_fold
    F = free[10.0]
    J = np.array([np.setdiff1d(np.arange(K.shape[0]), F)[0], F[5], *free[1.0][-2:]])
    floor = 1e-10 * float(np.diag(K).max())
    inv, _ = rank_one_bordered_inverse(K, F, floor)
    inv, joined = kernelmod._add_block(inv, K[np.ix_(J, F)], K[np.ix_(J, J)], floor)
    assert joined == 1
    ref, _ = rank_one_bordered_inverse(K, np.append(F, J[0]), floor)
    assert np.abs(inv - ref).max() <= 1e-10 * np.abs(ref).max()


def test_active_set_hands_over_at_a_released_duplicate(monkeypatch):
    """Row 1 duplicates row 0.  From a start with row 0 free and row 1 at
    -C, the engine releases a block of 4 whose second point is row 1 (or
    another copy of a free row): it admits exactly the first point, hands
    over, and SMO still certifies the solve from its start."""
    gen = np.random.default_rng(13)
    X = gen.normal(size=(20, 2))
    X[1] = X[0]
    y = X[:, 0] + np.sin(X[:, 1]) + 0.3 * gen.normal(size=20)
    K = kernel_matrix(KernelSpec("rbf", gamma=0.5), X, X)
    beta0 = np.zeros(20)
    beta0[:3] = 0.5, -1.0, 0.5
    beta0 = 10.0 / np.abs(beta0).max() * beta0  # as solve_svr_dual stretches it
    add_block, blocks = kernelmod._add_block, []
    engine, starts = kernelmod._svr_active_set, []

    def spy(inv, K_JF, K_JJ, floor):
        bordered, joined = add_block(inv, K_JF, K_JJ, floor)
        blocks.append((inv.shape[0] - 1, len(K_JJ), joined, K_JF.copy()))
        return bordered, joined

    def from_beta0(K, y, C, epsilon, _, carry):  # the engine, run from beta0
        start, *carry = engine(K, y, C, epsilon, beta0, None)
        starts.append(start)
        return start.copy(), *carry

    monkeypatch.setattr(kernelmod, "_add_block", spy)
    monkeypatch.setattr(kernelmod, "_svr_active_set", from_beta0)
    beta, b = solve_svr_dual(K, y, (1.0, 10.0), 0.1)[1]
    start, = starts
    m, size, joined, K_JF = blocks[-1]  # the last block ended the engine
    assert m > 0 and size == 4 and joined == 1
    assert (K_JF[1] == 1.0).any()  # an RBF row equal to a free row's
    assert np.abs(start).max() <= 10.0
    assert abs(start.sum()) <= 1e-8 * 10.0
    assert svr_dual_value(K, y, 0.1, start) >= svr_dual_value(K, y, 0.1, beta0)
    assert svr_kkt_violations(beta, K @ beta + b - y, 10.0, 0.1).max() <= 2.0 * KKT_TOL


def test_regression_suite_bits_are_pinned(regression_suite):
    """sha256 of the seed-1 regression suite.  The SVR row reports the
    selected C and the final fit, which solves the training split's C
    path up to that C: a cold solve at C = 1, then the engine and SMO."""
    text = experiments.report_to_json(regression_suite)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "32709def9ad53f6e752f59a7e9c0c967ef81e56038f1b0311deb8bd9fc0dcfea")


def test_classification_grid_bits_are_pinned(classification_grid):
    """sha256 of the seed-1 classification grid: its rows, ROC series
    and class-wise summaries are the metric functions' own dicts."""
    text = experiments.report_to_json(classification_grid)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "57ac6a736257f95e1e3e3039a219574bd00986c8e453fad22ddc210cf39d3437")


def test_eda_bits_are_pinned(protocol):
    """sha256 of the EDA report of the packaged file: its correlation
    block is pearson_matrix's own dict."""
    text = experiments.report_to_json(
        experiments.run_eda(experiments.ExperimentConfig(), protocol.dataset))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "67c73a8fa453cd01dd8ca3a3323523a63de6a599b979231a961a0b026b6f6f72")


def test_active_set_leaves_its_inputs_alone(protocol, monkeypatch):
    """The engine downdates its bordered inverse in place, so it must
    work on copies: on the seed-1 protocol's CV folds, each call leaves
    beta0 and the carry from the last C (its free set and inverse) bit
    for bit as they were.  Every C = 100 call is handed a carry."""
    engine, calls = kernelmod._svr_active_set, []

    def checked(K, y, C, epsilon, beta0, carry):
        inputs = (beta0, *(carry or ()))
        before = [a.tobytes() for a in inputs]
        out = engine(K, y, C, epsilon, beta0, carry)
        calls.append((C, len(inputs), [a.tobytes() for a in inputs] == before))
        return out

    monkeypatch.setattr(kernelmod, "_svr_active_set", checked)
    kern = KernelSpec("rbf", gamma_scale(protocol.Xtr))
    for Xs, ys in seed1_cv_folds(protocol):
        solve_svr_dual(kernel_matrix(kern, Xs, Xs), ys,
                       experiments.FIXED["svr_c_grid"], 0.1)
    assert calls == [(10.0, 1, True), (100.0, 3, True)] * 10


def load_engine_replay():
    """benchmarks/engine_replay.py as a module; the BLAS thread variables
    it sets on import are restored afterwards."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "engine_replay.py"
    spec = importlib.util.spec_from_file_location("engine_replay", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed, pinned", [
    (1, (2851, 3374, 2071, 780, 0)),
    (30, (2762, 3324, 1991, 771, 0)),
])
def test_engine_event_counts_are_pinned(seed, pinned):
    """The engine's work on one report's 10 CV folds, counted by
    benchmarks/engine_replay.py: loop iterations, points added, removes,
    pricings and the SMO steps of the warm solves.  The counts are exact,
    unlike wall times, so a change that claims to leave the engine's
    events alone is checked here; one that changes them re-records them."""
    replay = load_engine_replay()
    problems = replay.fold_problems(experiments.ExperimentConfig(seed=seed))
    source = Path(kernelmod.__file__).read_text(encoding="utf-8")
    assert replay.counts(kernelmod, source, problems) == dict(zip(
        ("iterations", "added", "removes", "pricings", "warm_smo_steps"), pinned))
