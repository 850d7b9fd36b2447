"""One benchmark step in a fresh process; prints one JSON line.

    worker.py prepare --work DIR [--data-seed N]
    worker.py setup --data PATH
    worker.py ops --kind regress|classify --panel JSON --seconds S [--trace]

``run.py`` starts this with ``src`` on ``PYTHONPATH`` and the BLAS thread
variables set to 1, so they hold before numpy is imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import signal
import sys
import time

# regress-2x: each packaged row twice, in the packaged order, with a
# uniform multiplicative jitter of at most this share on every
# continuous field.
JITTER = 0.03
COPIES = 2

# An untraced operation is interrupted every SAMPLE_S seconds to time one
# reference loop (~2 ms).  This shared machine's speed drifts by up to 2x
# within minutes; over 18 operations of protocol seed 1 on a 2-core Xeon
# KVM guest, an operation's time tracked the mean reference time during
# it with correlation 0.96, against 0.5 for references timed between
# operations.  So run.py also reports operation time in units of it.
SAMPLE_S = 0.25


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def prepare(data_seed, work_dir):
    """Report the input file's path, rows and sha256, writing it first if
    it is generated.

    Without ``data_seed`` this is the packaged file, which the program
    reads when ``data_path`` is None (as the CLI does without
    ``--data``).  With it, the regress-2x file made from that seed alone.
    """
    from dataclasses import replace

    from mpgworkbench.ingest import (RawTable, parse_auto_mpg,
                                     reference_data_path, serialize_raw_table)

    with open(reference_data_path(), "r", encoding="utf-8") as fh:
        base = parse_auto_mpg(fh.read())
    if data_seed is None:
        path = reference_data_path()
        _emit({"data_path": None, "file": path, "rows": len(base),
               "sha256": _sha256_file(path)})
        return
    rnd = random.Random(data_seed)

    def jitter(value):
        if value is None:  # keep the missing-horsepower marker
            return None
        return value * (1.0 + JITTER * (2.0 * rnd.random() - 1.0))

    rows = []
    for record in base.rows:
        for _ in range(COPIES):
            rows.append(replace(
                record,
                mpg=jitter(record.mpg),
                displacement=jitter(record.displacement),
                horsepower=jitter(record.horsepower),
                weight=jitter(record.weight),
                acceleration=jitter(record.acceleration)))
    text = serialize_raw_table(RawTable(rows=tuple(rows)))
    n_rows = len(parse_auto_mpg(text))  # what the program will read
    if n_rows != COPIES * len(base):
        raise RuntimeError(f"regress-2x input re-parsed to {n_rows} rows")
    os.makedirs(work_dir, exist_ok=True)
    path = os.path.join(work_dir, f"regress-2x-seed{data_seed}.data")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    _emit({"data_path": path, "file": path, "rows": n_rows,
           "sha256": _sha256_file(path)})


def setup(data_path):
    """Time a fresh import of the experiments module plus the first load."""
    t0 = time.perf_counter()
    import mpgworkbench.experiments as ex

    ex.load_dataset(data_path)
    _emit({"setup_s": time.perf_counter() - t0})


def _non_finite(obj, path="report"):
    """Path of the first non-finite float in a report, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return None
    for key, value in items:
        found = _non_finite(value, f"{path}.{key}")
        if found:
            return found
    return None


def _check(report, kind):
    """Problems with a report, plus its quality scores (test R^2 per
    regression row, accuracy per classification row)."""
    problems = []
    for row in report["table"]:
        if "error" in row:
            problems.append(f"row {row['model']!r} carries error: {row['error']}")
    bad = _non_finite(report)
    if bad:
        problems.append(f"non-finite value at {bad}")
    key = "r2" if kind == "regress" else "accuracy"
    scores = [row[key] for row in report["table"] if key in row]
    return problems, scores


def _reference():
    """Seconds taken by a fixed mix of interpreter and small-array numpy
    work."""
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    a = np.arange(400.0)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def ops(kind, panel, seconds, traced):
    """Run whole passes over ``panel`` and stop at the end of the pass
    likely to end nearest to ``seconds`` (at least one pass).  Each entry
    is ``[data_path or None, protocol seed]``; every operation is
    checked."""
    import numpy as np

    import layers
    import mpgworkbench.experiments as ex

    if traced:
        trace = layers.install()
    else:
        layers.assert_pristine()
        trace = None
    run = ex.run_classification_grid if kind == "classify" else ex.run_regression_suite
    records, digests, samples = [], {}, []
    signal.signal(signal.SIGALRM, lambda *_: samples.append(_reference()))

    def op(data_path, pseed):
        config = ex.ExperimentConfig(data_path=data_path, seed=pseed)
        if trace:
            trace.reset()
        rec = {"data_path": data_path, "seed": pseed, "score": None,
               "digest": None}
        samples.clear()
        if not trace:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            report = run(config)
            text = ex.report_to_json(report)
        except Exception as exc:
            report, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        # the operation's own time, without the reference loops
        rec.update(seconds=wall - sum(samples), cpu_seconds=cpu - sum(samples),
                   ref_s=sum(samples) / len(samples) if samples else None,
                   peak_rss_mb=resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if report is None:
            rec.update(ok=False, error=error)
        else:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            problems, scores = _check(report, kind)
            first = digests.setdefault((data_path, pseed), digest)
            if digest != first:
                problems.append(f"digest differs from {first} earlier in this run")
            rec.update(ok=not problems, digest=digest,
                       error="; ".join(problems) or None,
                       score=sum(scores) / len(scores) if scores else None)
        if trace:
            rec["layers"] = trace.metrics(rec["seconds"])
        records.append(rec)

    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for data_path, pseed in panel:
            op(data_path, pseed)
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 > seconds:
            break  # the next pass would likely end further from ``seconds``
    _emit({
        "ops": records,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="step", required=True)
    p = sub.add_parser("prepare")
    p.add_argument("--work", required=True)
    p.add_argument("--data-seed", type=int, default=None)
    p = sub.add_parser("setup")
    p.add_argument("--data", required=True)
    p = sub.add_parser("ops")
    p.add_argument("--kind", choices=("regress", "classify"), required=True)
    p.add_argument("--panel", required=True, type=json.loads)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.step == "prepare":
        prepare(args.data_seed, args.work)
    elif args.step == "setup":
        setup(args.data)
    else:
        ops(args.kind, args.panel, args.seconds, args.trace)


if __name__ == "__main__":
    main()
