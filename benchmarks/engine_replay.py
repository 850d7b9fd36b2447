"""Replay one report's SVR C paths through two versions of kernelmod.

Takes the Gram matrix and targets of each of the 10 CV folds of one
regression report's SVR CV once, then solves each fold's C path
(``solve_svr_dual`` over the SVR's C grid), interleaved, with the working
tree's kernelmod and with the one at a git revision (read with ``git
show``); each side runs its own path, engine and SMO loop.  Prints, per
round, each side's seconds for the 10 paths and their ratio; then per
side the counts of one report: engine loop iterations, points added,
removes, pricings (one released block each, the last excepted) and the
SMO steps of the warm solves, those that finish from the engine's start.
Points count as added when the engine's ``add`` borders its inverse
with them; the rows of a free set carried over from the last C, with
its inverse, are not counted.

    python benchmarks/engine_replay.py --rev HEAD --seed 1
    python benchmarks/engine_replay.py --rev HEAD --seed 30
    python benchmarks/engine_replay.py --rev HEAD --regress-2x

Rounds default to 30: on a shared 2-core machine, 10 rounds could not
tell a ~5% engine change from the noise.

Run it from the repository root.  BLAS runs on one thread.  The last
line printed is a JSON summary.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from mpgworkbench import experiments, kernelmod  # noqa: E402


def regress_2x_path(work_dir: str) -> str:
    """The benchmark's regress-2x file of data seed 1, written by
    perfbench/worker.py's own ``prepare``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        worker.prepare(1, work_dir)
    return json.loads(out.getvalue())["data_path"]


def fold_problems(config: experiments.ExperimentConfig) -> list:
    """(K, y) of each CV fold of the report's SVR CV, as it solves them."""
    proto = experiments.prepare_protocol(config)
    kern = kernelmod.KernelSpec("rbf", kernelmod.gamma_scale(proto.Xtr))
    folds = experiments.cv_folds(proto.Xtr_raw, proto.ytr_raw, config.cv_folds,
                                 proto.kfold_seed)
    return [(kernelmod.kernel_matrix(kern, Xs, Xs), ys) for Xs, ys, _, _ in folds]


def kernelmod_at(rev: str):
    """kernelmod.py at git revision ``rev``, as a module, and its source;
    its relative imports resolve against the working tree's package."""
    source = subprocess.run(
        ["git", "show", f"{rev}:src/mpgworkbench/kernelmod.py"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout
    name = f"mpgworkbench._kernelmod_at_{rev.replace('~', '_').replace('^', '_')}"
    module = types.ModuleType(name)
    module.__package__ = "mpgworkbench"
    sys.modules[name] = module
    exec(compile(source, f"{rev}:kernelmod.py", "exec"), module.__dict__)
    return module, source


def line_of(code, source: str, text: str) -> int:
    """Number of the first line of ``code``'s function, in ``source``,
    that holds ``text``.  Exits naming the marker if none does: a count
    read from no line would be 0 whatever the engine does."""
    lines = source.splitlines()
    last = max(line for *_, line in code.co_lines() if line is not None)
    for number in range(code.co_firstlineno, last + 1):
        if text in lines[number - 1]:
            return number
    sys.exit(f"engine_replay: no line of {code.co_name} holds {text!r}")


def counts(module, source: str, problems: list) -> dict:
    """Loop iterations, points added (by ``add``: carried rows are not
    counted), removes and pricings of ``module``'s engine (``source`` is
    the module's), traced over the C paths of ``problems``, and the steps
    of its SMO loop in warm solves."""
    code, smo = module._svr_active_set.__code__, module._smo.__code__
    nested = {c.co_name: c for c in code.co_consts if isinstance(c, types.CodeType)}
    add, remove = nested["add"], nested["remove"]
    body = line_of(code, source, "for _ in range(") + 1
    pricing = line_of(code, source, "np.argsort(viol)")
    step = line_of(smo, source, "iterations += 1")
    total = dict.fromkeys(("iterations", "added", "removes", "pricings",
                           "warm_smo_steps"), 0)
    m_at_call = {}

    def engine_lines(frame, event, arg):
        if event == "line":
            if frame.f_lineno == body:
                total["iterations"] += 1
            elif frame.f_lineno == pricing:
                total["pricings"] += 1
        return engine_lines

    def smo_lines(frame, event, arg):
        if event == "line" and frame.f_lineno == step:
            total["warm_smo_steps"] += 1
        return smo_lines

    def add_return(frame, event, arg):  # m is the engine's free-set size
        if event == "return":
            total["added"] += frame.f_locals["m"] - m_at_call.pop(id(frame))
        return None

    def tracer(frame, event, arg):
        if frame.f_code is code:
            return engine_lines
        if frame.f_code is smo:  # warm: a start was handed in
            return smo_lines if frame.f_locals["beta0"] is not None else None
        if frame.f_code is add:
            m_at_call[id(frame)] = frame.f_locals["m"]
            frame.f_trace_lines = False
            return add_return
        if frame.f_code is remove:
            total["removes"] += 1
        return None

    sys.settrace(tracer)
    try:
        solve_paths(module, problems)
    finally:
        sys.settrace(None)
    return total


def solve_paths(module, problems: list) -> list:
    """Each problem's C path, solved by ``module``'s solve_svr_dual."""
    grid, eps = experiments.FIXED["svr_c_grid"], experiments.FIXED["svr_epsilon"]
    return [module.solve_svr_dual(K, y, grid, eps) for K, y in problems]


def run_paths(module, problems: list) -> tuple[float, list]:
    t0 = time.perf_counter()
    paths = solve_paths(module, problems)
    seconds = time.perf_counter() - t0
    return seconds, [np.append(beta, b) for path in paths for beta, b in path]


def digest(outs) -> str:
    return hashlib.sha256(b"".join(o.tobytes() for o in outs)).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD",
                        help="git revision of kernelmod to compare against")
    parser.add_argument("--seed", type=int, default=1, help="protocol seed")
    parser.add_argument("--regress-2x", action="store_true",
                        help="the regress-2x file of data seed 1 (protocol seed 1)")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as work:
        config = (experiments.ExperimentConfig(seed=1, data_path=regress_2x_path(work))
                  if args.regress_2x else experiments.ExperimentConfig(seed=args.seed))
        problems = fold_problems(config)
    modules, sources = {"tree": kernelmod}, {"tree": Path(kernelmod.__file__).read_text()}
    modules[args.rev], sources[args.rev] = kernelmod_at(args.rev)
    label = "regress-2x" if args.regress_2x else f"seed {args.seed}"
    print(f"{label}: {len(problems)} C paths; tree against {args.rev}")

    # counted first, so that a missing marker line ends the run at once
    traced = {k: counts(modules[k], sources[k], problems) for k in modules}
    seconds = {name: [] for name in modules}
    outs = {}
    for r in range(args.rounds):
        order = list(modules) if r % 2 == 0 else list(modules)[::-1]
        for name in order:
            s, outs[name] = run_paths(modules[name], problems)
            seconds[name].append(s)
        ratio = seconds["tree"][-1] / seconds[args.rev][-1]
        print(f"round {r + 1}: tree {seconds['tree'][-1]:.4f} s, "
              f"{args.rev} {seconds[args.rev][-1]:.4f} s, ratio {ratio:.3f}")
    ratios = [a / b for a, b in zip(seconds["tree"], seconds[args.rev])]
    q = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
         else [ratios[0]] * 3)
    summary = {
        "input": label,
        "rev": args.rev,
        "rounds": args.rounds,
        "ratio_median": statistics.median(ratios),
        "ratio_q1": q[0],
        "ratio_q3": q[2],
        "tree_faster": f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}",
        "seconds_median": {k: statistics.median(v) for k, v in seconds.items()},
        "max_abs_output_difference": max(
            float(np.abs(a - b).max()) for a, b in zip(outs["tree"], outs[args.rev])),
        "output_sha256_prefix": {k: digest(v) for k, v in outs.items()},
        "counts": traced,
    }
    for name, c in summary["counts"].items():
        print(f"{name}: " + ", ".join(f"{k} {v}" for k, v in c.items()))
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
