"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload es-session --seed 1 --trace 0 \
        --spawned-ns <time.monotonic_ns() just before this process started>

The pass imports weavent, writes its inputs into a scratch directory under
``perfbench/_out``, then runs its jobs one after another through
``weavent.cli.main(argv)`` with stdout and stderr captured, and checks each
report against its known answers.  It prints one JSON object: set-up time,
per-job rows, peak memory and, with ``--trace 1``, the per-layer figures.
The fresh interpreter keeps weavent's ``lru_cache``s from carrying over
between passes; within a pass they behave as in one batch session.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import families as fam
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
DEFAULT_SEED = 1


# Host speed.  The machine this runs on may change speed severalfold within
# a minute (other tenants), so every timing is also given scaled to a
# reference speed: seconds x REFERENCE_S / (time the calibration takes now).
# The calibration is a set-heavy computation of the benchmark's own, so no
# change to weavent moves it; REFERENCE_S is its time on a calm 2-core
# x86-64 virtual machine with Python 3.11.
CALIBRATION = fam.runs_es(2)
REFERENCE_S = 0.0005


def calibrate() -> float:
    """Seconds the calibration takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fam.domain_json(fam.configurations(CALIBRATION))
        best = min(best, time.perf_counter() - start)
    return best


def _write_inputs(files: dict) -> None:
    for name, obj in files.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for name in workloads.FIXTURES:
        shutil.copyfile(os.path.join(ROOT, "fixtures", name), name)


def _run_job(main, job):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(job.argv))
    except (Exception, SystemExit) as exc:  # a traceback is a wrong answer
        seconds = time.perf_counter() - start
        return None, seconds, out.getvalue(), f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    try:
        problem = job.check(code, out.getvalue(), err.getvalue())
    except (ValueError, KeyError, TypeError, OSError) as exc:
        problem = f"unreadable output: {type(exc).__name__}: {exc}"
    return code, seconds, out.getvalue(), problem


def _write_spans(tracer, path: str) -> None:
    origin = tracer.spans[0].start if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for k, sp in enumerate(tracer.spans):
            fh.write(json.dumps({"id": k, "name": sp.name, "start": sp.start - origin,
                                 "end": sp.end - origin, "parent": sp.parent,
                                 "job": sp.job}) + "\n")


def run_pass(workload: str, seed: int, trace: bool, spawned_ns: int,
             spans_path: str = "") -> dict:
    os.environ.pop("WEAVENT_CLASS_CEILING", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import weavent.cli  # noqa: F401  (imports every layer module)

    inputs, jobs = workloads.build(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    tracer = None
    try:
        os.chdir(workdir)
        _write_inputs(inputs.files)
        setup_s = (time.monotonic_ns() - spawned_ns) / 1e9
        calibrations = [calibrate()]
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        main = sys.modules["weavent.cli"].main
        rows = []
        for k, job in enumerate(jobs):
            job_id = f"{k}:{job.verb}:{job.family}{job.size}"
            if tracer:
                tracer.job = job_id
            code, seconds, stdout, problem = _run_job(main, job)
            calibrations.append(calibrate())
            scale = REFERENCE_S / ((calibrations[-2] + calibrations[-1]) / 2)
            rows.append({"job": job_id, "family": job.family, "size": job.size,
                         "verb": job.verb, "seconds": seconds * scale,
                         "raw_seconds": seconds, "code": code,
                         "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
                         "problem": problem})
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "setup_raw_s": setup_s,
        "setup_calibration_s": calibrations[0],
        "calibration_s": statistics.median(calibrations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rows": rows,
    }
    if tracer:
        scale = REFERENCE_S / result["calibration_s"]
        result["per_layer"] = {name: value * scale if name.endswith("_s") else value
                               for name, value in tracer.per_layer().items()}
        if spans_path:
            _write_spans(tracer, spans_path)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--spans", default="", help="write the traced spans here (JSONL)")
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, bool(args.trace), args.spawned_ns,
                      args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
