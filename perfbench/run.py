"""End-to-end and per-layer benchmark of mpgworkbench.

Run from the repository root:

    python3 perfbench/run.py --workload regress --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

One operation is one protocol seed's report, made the way ``mpgw
regress`` / ``mpgw classify`` make it: ``run_regression_suite(config)``
or ``run_classification_grid(config)``, then ``report_to_json``.  Every
step runs in a fresh single-threaded process (see worker.py), one at a
time.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced process.  The last line of
standard output is one JSON object; the lines before it show each
operation, its report digest, and the machine the run saw.

``--workload all`` runs every workload in turn and prints every metric
of each, including the ones that are undefined on some workloads
(``failed_share``, ``mean_accuracy``) and so are left out of
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from layers import METRICS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORK_DIR = os.path.join(ROOT, "perfbench", "_work")

# Timed operations repeat a fixed panel of inputs, (data seed, protocol
# seed), data seed None being the packaged file.  Inputs move the cost of
# an operation by up to 1.8x (protocol seeds 1-12 and 21: 9.5-17.0 s;
# regress-2x data seeds 1-4: 20.1-30.0 s), so timing inputs drawn from
# --seed would move report_s more than any useful bound.  --seed picks a
# "fresh" input instead, which the traced run measures and checks.
WORKLOADS = {
    "regress": {"kind": "regress", "panel": ((None, 1),),
                "fresh": lambda seed: (None, seed)},
    "classify": {"kind": "classify", "panel": ((None, 1), (None, 21)),
                 "fresh": lambda seed: (None, seed)},
    "regress-2x": {"kind": "regress", "panel": ((1, 1),),
                   "fresh": lambda seed: (seed, 1)},
}
SETUP_REPEATS = 9  # fresh processes per run; setup_s is their median
DEADLINE_S = 170.0  # per workload, from its first step


class BenchError(RuntimeError):
    pass


def _child(args, started):
    """Run one worker step in a fresh process; return its JSON line."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   p for p in (SRC, env.get("PYTHONPATH")) if p))
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchError("out of time before the next step")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "mpgworkbench")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _print_ops(label, result):
    for i, op in enumerate(result["ops"], 1):
        status = "ok" if op["ok"] else f"FAILED {op['error']}"
        data = os.path.basename(op["data_path"] or "packaged")
        print(f"# {label} op {i} "
              f"data={data} protocol_seed={op['seed']} {op['seconds']:.4f} s "
              f"(cpu {op['cpu_seconds']:.4f} s, reference "
              f"{_value(op['ref_s'] and op['ref_s'] * 1e3)} ms, "
              f"peak rss {op['peak_rss_mb']:.1f} MB) "
              f"sha256={op['digest'] or '-'} {status}")


def _inputs(entries, started):
    """Make the input files of (data seed, protocol seed) entries; data
    seed -> prepare's report."""
    inputs = {}
    for data_seed, _ in entries:
        if data_seed in inputs:
            continue
        args = ["prepare", "--work", WORK_DIR]
        if data_seed is not None:
            args += ["--data-seed", str(data_seed)]
        info = _child(args, started)
        print(f"# input data_seed={data_seed} rows={info['rows']} "
              f"sha256={info['sha256']} file={os.path.relpath(info['file'], ROOT)}")
        inputs[data_seed] = info
    return inputs


def _ops(spec, panel, seconds, trace, started):
    args = ["ops", "--kind", spec["kind"], "--panel", json.dumps(panel),
            "--seconds", repr(seconds)]
    return _child(args + (["--trace"] if trace else []), started)


def untraced(workload, seed, seconds, started):
    """End-to-end metrics of one workload (tracing off)."""
    spec = WORKLOADS[workload]
    inputs = _inputs(spec["panel"], started)
    panel = [[inputs[d]["data_path"], p] for d, p in spec["panel"]]
    setup_file = inputs[spec["panel"][0][0]]["file"]
    _child(["setup", "--data", setup_file], started)  # warm the file cache
    setups = [_child(["setup", "--data", setup_file], started)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    result = _ops(spec, panel, seconds, False, started)
    _print_ops(workload, result)
    ops = result["ops"]
    timed = [op for op in ops if op["ok"]]
    failed = len(ops) - len(timed)
    seconds_ok = [op["seconds"] for op in timed]
    norm = [op["seconds"] / op["ref_s"] for op in timed if op["ref_s"]]
    quality = "mean_accuracy" if spec["kind"] == "classify" else "mean_test_r2"
    metrics = {
        "report_norm": (statistics.median(norm) if norm else None, "ref"),
        "setup_s": (statistics.median(setups), "s"),
        # after the first operation: later ones can raise the peak, and
        # how many run depends on the machine's speed
        "peak_rss_mb": (ops[0]["peak_rss_mb"], "MB"),
        quality: (statistics.fmean(op["score"] for op in timed) if timed
                  else None, "R2" if spec["kind"] == "regress" else "ratio"),
    }
    extra = {
        "report_s": (statistics.median(seconds_ok) if timed else None, "s"),
        "report_s_max": (max(seconds_ok) if timed else None, "s"),
        "failed_share": (failed / len(ops), "ratio"),
    }
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics, "extra": extra, "env": result}


def traced(workload, seed, seconds, started):
    """Per-layer metrics of the fresh operation: an untraced and a traced
    process run it for half the time each."""
    spec = WORKLOADS[workload]
    fresh_d, fresh_p = spec["fresh"](seed)
    inputs = _inputs([(fresh_d, fresh_p)], started)
    panel = [[inputs[fresh_d]["data_path"], fresh_p]]
    base = _ops(spec, panel, seconds / 2, False, started)
    _print_ops(f"{workload} untraced", base)
    run = _ops(spec, panel, seconds / 2, True, started)
    _print_ops(f"{workload} traced", run)
    ops = base["ops"] + run["ops"]
    failed = sum(not op["ok"] for op in ops)
    problems = []
    digests = {op["digest"] for op in ops}
    if len(digests) != 1:
        problems.append("traced and untraced reports differ: "
                        f"{sorted(map(str, digests))}")
    layer_ops = [op["layers"] for op in run["ops"]]
    metrics = {}
    for name, unit in METRICS.items():
        values = [lo[name] for lo in layer_ops]
        if unit == "count":
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced operations: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    t_base = statistics.median(op["seconds"] for op in base["ops"])
    t_run = statistics.median(op["seconds"] for op in run["ops"])
    metrics["trace_overhead_share"] = ((t_run - t_base) / t_base, "ratio")
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    return {"correct": failed == 0 and not problems, "attempted": len(ops),
            "failed": failed, "metrics": metrics, "extra": {}, "env": run}


def _value(v):
    return "-" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark mpgworkbench end to end and per layer.")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mpgworkbench", "experiments.py")):
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    measure = traced if args.trace else untraced
    print(f"# nproc={len(os.sched_getaffinity(0))} "
          f"loadavg_start={' '.join(f'{x:.2f}' for x in os.getloadavg())} "
          f"src_lines={_src_lines()} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        results = {name: measure(name, args.seed, args.seconds,
                                 time.monotonic())
                   for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = next(iter(results.values()))["env"]
    print(f"# python={env['python']} numpy={env['numpy']} "
          f"loadavg_end={' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    for name, res in results.items():
        print(f"## {name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, (value, unit) in {**res["metrics"], **res["extra"]}.items():
            print(f"{name} {metric} {_value(value)} {unit}")
    if len(results) == 1:
        res = results[names[0]]
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in res["metrics"].items()}
    else:
        metrics = {f"{name}.{k}": {"value": v, "unit": u}
                   for name, res in results.items()
                   for k, (v, u) in {**res["metrics"], **res["extra"]}.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
