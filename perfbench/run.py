"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload es-session --seed 7 --seconds 20 --trace 0

Run from the root of a weavent checkout.  A run starts one pass after
another, each in a fresh interpreter (``worker.py``), until ``--seconds``
have passed and at least ``MIN_PASSES`` are done.  The load is a closed
loop with one client and no threads: within a pass the jobs run one after
another.  Every pass runs under ``PYTHONHASHSEED=HASH_SEED`` without
``WEAVENT_CLASS_CEILING``; ``--seed`` fixes the random draws.

With ``--trace 0`` every pass is untraced and the run reports the end-to-end
metrics: medians over the passes, and for job times the sum of each job's
median.  Times are scaled to a reference host speed (see ``worker.py``).  With ``--trace 1`` traced and untraced passes
alternate; the run reports the per-layer figures of the traced passes, the
per-verb times of the untraced ones and the tracing overhead between them.

Every report is checked against its known answer, and every job's stdout
must be the same bytes in every pass.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  One growth row
per job (workload, family, size, verb, median seconds, exit code) goes to
``perfbench/_out/rows-<workload>-seed<seed>.jsonl``, and the spans of the
last traced pass to ``perfbench/_out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import REFERENCE_S, calibrate  # noqa: E402

HASH_SEED = "1729"
MIN_PASSES = 3
LIMIT_S = 170  # a run must end within 180 s, whatever MIN_PASSES says

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
VERBS = ("check", "convert", "connect", "synth", "derive", "roundtrip", "axioms",
         "async", "emit")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for name in tracer.Tracer().per_layer():
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(("_ratio", "per_class")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    for verb in VERBS:
        units[f"verb.{verb}_s"] = "s"
    units["trace.untraced_wall_s"] = "s"
    units["trace.overhead"] = "ratio"
    units["host.untraced_wall_raw_s"] = "s"
    units["host.speed"] = "ratio"
    return units


class PassError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("WEAVENT_CLASS_CEILING", None)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_pass(workload: str, seed: int, trace: bool, spans_path: str = "",
             hash_seed: str = HASH_SEED, timeout: float = LIMIT_S) -> dict:
    """One pass in a fresh interpreter; its set-up clock starts here.

    Set-up time is scaled to the reference speed by the calibrations taken
    just before the start and just after the set-up."""
    env = _env()
    env["PYTHONHASHSEED"] = hash_seed
    before = calibrate()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--spans", spans_path,
           "--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise PassError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_raw_s"] * REFERENCE_S / (
        (before + result["setup_calibration_s"]) / 2)
    return result


def _check_checkout() -> str:
    for need in ("src/weavent/cli.py", "fixtures/fusion.grammar.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            return f"not a weavent checkout: {need} is missing under {ROOT}"
    return ""


def _failures(passes: List[dict]) -> List[str]:
    """Wrong answers, and stdout that differs from the first pass."""
    out = []
    first = {r["job"]: r["stdout_sha256"] for r in passes[0]["rows"]}
    for k, p in enumerate(passes):
        for r in p["rows"]:
            if r["problem"]:
                out.append(f"pass {k} job {r['job']}: {r['problem']}")
            elif r["stdout_sha256"] != first[r["job"]]:
                out.append(f"pass {k} job {r['job']}: stdout differs from pass 0")
    return out


def _growth_rows(workload: str, seed: int, plain: List[dict]) -> List[dict]:
    rows = []
    for k, row in enumerate(plain[0]["rows"]):
        rows.append({"workload": workload, "seed": seed, "hash_seed": HASH_SEED,
                     "family": row["family"], "size": row["size"], "verb": row["verb"],
                     "seconds": statistics.median(p["rows"][k]["seconds"] for p in plain),
                     "raw_seconds": statistics.median(p["rows"][k]["raw_seconds"]
                                                      for p in plain),
                     "code": row["code"]})
    return rows


def _median(passes: List[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl") if trace else ""
    # Byte-compile weavent once, untimed: users do not pay for it on every run.
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                    "import weavent.cli"], cwd=ROOT, env=_env(), check=True,
                   timeout=LIMIT_S)
    plain: List[dict] = []
    traced: List[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        short = len(plain) < MIN_PASSES or (trace and len(traced) < MIN_PASSES)
        if (elapsed >= seconds and not short) or (plain and elapsed + longest > LIMIT_S):
            break
        if trace and len(traced) < len(plain):
            traced.append(run_pass(workload, seed, True, spans_path, timeout=LIMIT_S - elapsed))
        else:
            plain.append(run_pass(workload, seed, False, timeout=LIMIT_S - elapsed))
        longest = max(longest, time.monotonic() - start - elapsed)
    if trace and not traced:
        raise PassError(f"no traced pass fits in {LIMIT_S} s")

    failures = _failures(plain + traced)
    attempted = sum(len(p["rows"]) for p in plain + traced)
    rows = _growth_rows(workload, seed, plain)
    with open(os.path.join(OUT, f"rows-{workload}-seed{seed}.jsonl"), "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")

    # Times are sums of per-job medians: a slow spell of the host then
    # spoils one sample of a few jobs, not a whole pass.
    wall_s = sum(row["seconds"] for row in rows)
    if trace:
        values = {}
        for name in traced[0]["per_layer"]:
            values[name] = statistics.median(p["per_layer"][name] for p in traced)
        for verb in VERBS:
            values[f"verb.{verb}_s"] = sum((row["seconds"] for row in rows
                                            if row["verb"] == verb), 0.0)
        values["trace.untraced_wall_s"] = wall_s
        values["trace.overhead"] = sum(
            row["seconds"] for row in _growth_rows(workload, seed, traced)) / wall_s
        values["host.untraced_wall_raw_s"] = sum(row["raw_seconds"] for row in rows)
        values["host.speed"] = REFERENCE_S / _median(plain, "calibration_s")
        units = per_layer_units()
    else:
        values = {"setup_s": _median(plain, "setup_s"), "wall_s": wall_s,
                  "peak_rss_mb": _median(plain, "peak_rss_mb")}
        units = END_TO_END
    for line in failures[:20]:
        print(line, file=sys.stderr)
    print(f"{workload} seed {seed} hash seed {HASH_SEED}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {attempted} jobs, {len(failures)} failed "
          f"(failed_ratio {len(failures) / attempted:.4f})", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description="weavent benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    problem = _check_checkout()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (PassError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
