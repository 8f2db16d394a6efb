"""latent-guard benchmark: train, score and cli_sweep workloads.

    python3 perfbench/run.py --workload <train|score|cli_sweep|all> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout that holds ``src/latent_guard``.  Each
workload runs in a fresh interpreter (``perfbench/workloads.py``) with the
BLAS thread count pinned, because ``train()`` changes process-global malloc
settings that must not leak from one workload into another.

``--trace 0`` runs the named workload untraced and reports the end-to-end
metrics listed in BENCHMARK.json.  ``--trace 1`` is the traced run: every
workload runs one traced repetition, since each per-layer metric comes from
the workload it should move, and the named workload also runs one untraced
repetition to give the tracing overhead.  ``--workload all`` runs all three.

Earlier stdout lines give one JSON report per workload: the environment,
the metrics under their per-workload names (with the sample count behind
each tail percentile) and any failed check.  The last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
nonzero when a correctness check fails or the program cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "score", "cli_sweep")
OUT_DIR = ".perfbench"
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_workload(name, args, trace, overhead):
    out = ROOT / OUT_DIR / f"{name}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "workloads.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if overhead:
        cmd.append("--overhead")
    # the program's own prints go to stderr so stdout holds only reports
    subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                   timeout=CHILD_TIMEOUT_S, check=False)
    if not out.exists():
        raise RuntimeError(f"workload {name} wrote no result")
    return json.loads(out.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latent_guard" / "__init__.py").is_file():
        print(f"error: no latent_guard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / OUT_DIR).mkdir(exist_ok=True)

    named = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in WORKLOADS if args.trace else named:
        results[name] = run_workload(name, args, bool(args.trace), args.trace and name in named)
        print(json.dumps(results[name]["env"] | {
            "workload": name, "traced": bool(args.trace), "correct": results[name]["correct"],
            "failures": results[name]["failures"], "reps": results[name].get("reps"),
            "metrics": results[name].get("report"), "tracing_overhead": results[name].get("overhead"),
        }, default=str), flush=True)

    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(results[n]["attempted"] for n in named),
        "failed": sum(results[n]["failed"] for n in named),
        "metrics": {},
    }
    # a run whose checks failed still reports what it measured
    measured = all("metrics" in r for r in results.values())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for name in named if measured else ():
        values = results[name]["metrics"]
        if args.trace:
            values = {k: v for r in results.values() for k, v in r["per_layer"].items()}
            values.update(tracing_metrics(results, name))
        prefix = f"{name}." if args.workload == "all" else ""
        for metric in wanted:
            summary["metrics"][prefix + metric["name"]] = {
                "value": values[metric["name"]], "unit": metric["unit"],
            }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


def tracing_metrics(results, name):
    overhead = results[name]["overhead"]
    return {
        "tracing.overhead_pct": overhead["images_per_s_pct"],
        "tracing.images_per_s_delta": overhead["images_per_s"],
        "tracing.spans": sum(r["spans"] for r in results.values()),
    }


if __name__ == "__main__":
    sys.exit(main())
