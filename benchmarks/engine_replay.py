"""Replay one report's SVR active-set engine calls through two engines.

Records the 20 warm-start engine calls (C = 10 and C = 100 on each of
the 10 CV folds) of one regression report's SVR CV, then replays them,
interleaved, through the working tree's ``kernelmod._svr_active_set``
and the one at a git revision (read with ``git show``).  Prints, per
round, each engine's seconds for the 20 calls and their ratio; then
per engine the counts of one report: loop iterations, points added,
removes, pricings (one released block each, the last excepted) and the
SMO steps that finish the warm solves from the engine's starts.

    python benchmarks/engine_replay.py --rev HEAD --seed 1
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


def record(config: experiments.ExperimentConfig) -> list:
    """(K, y, C, epsilon, beta0) of every engine call of the report's SVR CV."""
    proto = experiments.prepare_protocol(config)
    svr = experiments._regression_table(config, proto)[0]
    calls, engine = [], kernelmod._svr_active_set

    def recorder(K, y, C, epsilon, beta0):
        calls.append((K, y.copy(), C, epsilon, beta0.copy()))
        return engine(K, y, C, epsilon, beta0)

    kernelmod._svr_active_set = recorder
    try:
        experiments.cross_validate(
            {svr.name: svr.path}, proto.Xtr_raw, proto.ytr_raw, config.cv_folds,
            proto.kfold_seed)
    finally:
        kernelmod._svr_active_set = engine
    return calls


def engine_at(rev: str) -> tuple:
    """``_svr_active_set`` of kernelmod.py at git revision ``rev``, and
    that file's source; its relative imports resolve against the working
    tree's package."""
    source = subprocess.run(
        ["git", "show", f"{rev}:src/mpgworkbench/kernelmod.py"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout
    name = f"mpgworkbench._kernelmod_at_{rev.replace('~', '_').replace('^', '_')}"
    module = types.ModuleType(name)
    module.__package__ = "mpgworkbench"
    sys.modules[name] = module
    exec(compile(source, f"{rev}:kernelmod.py", "exec"), module.__dict__)
    return module._svr_active_set, source


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


def counts(engine, calls, source: str) -> dict:
    """Loop iterations, points added, removes and pricings of ``engine``
    (whose module source is ``source``) over ``calls``, traced, and the
    SMO steps that finish each warm solve from its start."""
    code, smo = engine.__code__, kernelmod._smo.__code__
    nested = {c.co_name: c for c in code.co_consts if isinstance(c, types.CodeType)}
    add, remove = nested["add"], nested["remove"]
    body = line_of(code, source, "for _ in range(") + 1
    pricing = line_of(code, source, "np.argsort(viol)")
    step = line_of(smo, Path(kernelmod.__file__).read_text(), "iterations += 1")
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
        if frame.f_code is smo:
            return smo_lines
        if frame.f_code is add:
            m_at_call[id(frame)] = frame.f_locals["m"]
            frame.f_trace_lines = False
            return add_return
        if frame.f_code is remove:
            total["removes"] += 1
        return None

    sys.settrace(tracer)
    try:
        for K, y, C, epsilon, beta0 in calls:
            start = engine(K, y, C, epsilon, beta0)
            start[np.abs(start) <= 1e-12 * C] = 0.0  # as solve_svr_dual does
            n = y.size
            kernelmod._smo(K, y, np.full(n, -C), np.full(n, C), epsilon, start)
    finally:
        sys.settrace(None)
    return total


def run_engine(engine, calls) -> tuple[float, list]:
    t0 = time.perf_counter()
    outs = [engine(K, y, C, epsilon, beta0) for K, y, C, epsilon, beta0 in calls]
    return time.perf_counter() - t0, outs


def digest(outs) -> str:
    return hashlib.sha256(b"".join(o.tobytes() for o in outs)).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD",
                        help="git revision of the engine to compare against")
    parser.add_argument("--seed", type=int, default=1, help="protocol seed")
    parser.add_argument("--regress-2x", action="store_true",
                        help="the regress-2x file of data seed 1 (protocol seed 1)")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as work:
        config = (experiments.ExperimentConfig(seed=1, data_path=regress_2x_path(work))
                  if args.regress_2x else experiments.ExperimentConfig(seed=args.seed))
        calls = record(config)
    engines, sources = {"tree": kernelmod._svr_active_set}, {
        "tree": Path(kernelmod.__file__).read_text()}
    engines[args.rev], sources[args.rev] = engine_at(args.rev)
    label = "regress-2x" if args.regress_2x else f"seed {args.seed}"
    print(f"{label}: {len(calls)} engine calls; tree against {args.rev}")

    # counted first, so that a missing marker line ends the run at once
    traced = {k: counts(engines[k], calls, sources[k]) for k in engines}
    seconds = {name: [] for name in engines}
    outs = {}
    for r in range(args.rounds):
        order = list(engines) if r % 2 == 0 else list(engines)[::-1]
        for name in order:
            s, outs[name] = run_engine(engines[name], calls)
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
