"""onefacemaps benchmark: three workloads, timed end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload uniform-spectra --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --runs 5 --label before
    python3 perfbench/run.py --compare bench_results/BENCH_before.json bench_results/BENCH_after.json
    python3 perfbench/run.py --selftest

Each workload runs in fresh interpreters (``workloads.py``) with the
package imported from ``src/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json, or its per-layer metrics with
``--trace 1``).  Every run also writes ``bench_results/BENCH_<label>.json``
with the metrics and their provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("uniform-spectra", "genus0-spectra", "cli")
SETUP_REPS = 3  # fresh interpreters timed from start to the end of set-up
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_config(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def child_env(root: str) -> dict:
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "onefacemaps")):
        raise BenchError(f"no package source at {src}/onefacemaps")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every process
    return env


def run_child(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Start workloads.py in a fresh interpreter; returns (start time, result)."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), *args]
    start = time.monotonic()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"workload process timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {' '.join(args)}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return start, json.loads(lines[-1])


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: int, spans: str | None) -> dict:
    env = child_env(root)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    try:
        base = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
        setups, imports = [], []

        def set_up_only():
            start, res = run_child(base + ["--setup-only"], env, deadline)
            setups.append(res["ready"] - start)
            imports.append(res["import_s"])

        # half the set-up samples before the timed run and half after it, so
        # that a slow spell of the machine does not decide the median
        for _ in range(SETUP_REPS // 2):
            set_up_only()
        extra = ["--seconds", str(seconds), "--trace", str(trace)] + (["--spans", spans] if spans else [])
        start, res = run_child(base + extra, env, deadline)
        setups.append(res["ready"] - start)
        imports.append(res["import_s"])
        for _ in range(SETUP_REPS - 1 - SETUP_REPS // 2):
            set_up_only()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res["e2e"]["setup_s"] = statistics.median(setups)
    res["import_s"] = statistics.median(imports)
    if trace:
        res["layers"]["cli.import_s"] = res["import_s"]
    return res


def git_sha(root: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.decode().strip() if done.returncode == 0 else None


def result_line(config: dict, res: dict, trace: int) -> dict:
    specs = config["per_layer"] if trace else config["end_to_end"]
    values = res["layers"] if trace else res["e2e"]
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }


def write_bench(path: str, label: str, provenance: dict, config: dict, runs: list[dict]) -> None:
    doc = {
        "label": label,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "provenance": provenance,
        "bounds": {m["name"]: m["bound"] for m in config["end_to_end"]},
        "better": {m["name"]: m["better"] for m in config["end_to_end"] + config["per_layer"]},
        "runs": runs,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# --- compare mode ---------------------------------------------------------------


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median (None below two runs)."""
    if len(values) < 2:
        return None
    med = statistics.median(values)
    if med == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> tuple[float, str]:
    """Ratio of medians B/A and a verdict on B against A.

    better: B's median beats A's by more than A's own spread and B wins at
    least nine tenths of all (A, B) pairs; worse: B's median is worse by
    more than the bound; unresolved: fewer than two runs a side, or a
    spread wider than the bound (unless B wins or loses every pair).
    """
    ma, mb = statistics.median(a), statistics.median(b)
    ratio = mb / ma if ma else float("inf")
    if bound is None:
        return ratio, "-"
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (mb - ma) / abs(ma) if ma else 0.0  # > 0: B is worse
    pairs = [sign * (y - x) for x in a for y in b]
    wins = sum(p < 0 for p in pairs) / len(pairs)
    losses = sum(p > 0 for p in pairs) / len(pairs)
    sa, sb = spread(a), spread(b)
    if sa is None or sb is None:
        return ratio, "unresolved"
    if max(sa, sb) > bound:
        if wins == 1.0:
            return ratio, "better"
        if losses == 1.0 and change > bound:
            return ratio, "worse"
        return ratio, "unresolved"
    if change > bound:
        return ratio, "worse"
    if -change > sa and wins >= 0.9:
        return ratio, "better"
    return ratio, "within bound"


def _percent(share: float | None) -> str:
    return f"{100 * share:7.1f}%" if share is not None else "     n/a"


def compare(path_a: str, path_b: str) -> int:
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    a, b = docs
    bounds, better = b.get("bounds", {}), b.get("better", {})
    print(f"A = {a['label']} ({path_a})\nB = {b['label']} ({path_b})")
    print(f"{'workload':16} {'metric':34} {'unit':8} {'A median':>12} {'B median':>12} {'B/A':>7} "
          f"{'spread A':>8} {'spread B':>8}  verdict")

    def grouped(doc):
        out: dict = {}
        for run in doc["runs"]:
            for name, m in run["metrics"].items():
                out.setdefault((run["workload"], name), []).append(m["value"])
        return out

    ga, gb = grouped(a), grouped(b)
    units = {name: m["unit"] for run in b["runs"] for name, m in run["metrics"].items()}
    for key in sorted(set(ga) & set(gb), key=lambda k: (WORKLOADS.index(k[0]) if k[0] in WORKLOADS else 99, k[1])):
        workload, name = key
        va, vb = ga[key], gb[key]
        ratio, word = verdict(va, vb, better.get(name, "lower"), bounds.get(name))
        sa, sb = spread(va), spread(vb)
        print(f"{workload:16} {name:34} {units.get(name, ''):8} {statistics.median(va):12.6g} "
              f"{statistics.median(vb):12.6g} {ratio:7.3f} {_percent(sa)} {_percent(sb)}  {word}")
    return 0


# --- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="onefacemaps benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="timed seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1, help="runs per workload, with seeds seed, seed+1, ...")
    ap.add_argument("--label", default=None, help="results go to bench_results/BENCH_<label>.json")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--selftest", action="store_true", help="show that the output checks reject corrupted outputs")
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        sys.path.insert(0, HERE)
        import oracles

        print(f"selftest: {oracles.selftest()} corrupted outputs rejected")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.runs < 1:
        ap.error("--runs must be at least 1")

    root = os.getcwd()
    try:
        config = load_config(root)
        seconds = args.seconds if args.seconds is not None else config["run_seconds"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        label = args.label or f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
        results_dir = os.path.join(root, "bench_results")
        spans = os.path.join(results_dir, f"SPANS_{label}.jsonl") if args.trace and len(names) == 1 and args.runs == 1 else None
        if spans:
            os.makedirs(results_dir, exist_ok=True)
        runs, provenance, line = [], None, None
        for k in range(args.runs):
            for name in names:
                res = run_workload(root, name, args.seed + k, seconds, args.trace, spans)
                line = result_line(config, res, args.trace)
                runs.append({"workload": name, "seed": args.seed + k, "trace": args.trace, **line,
                             "errors": res["errors"]})
                provenance = res["provenance"]
                if len(names) > 1 or args.runs > 1:
                    print(json.dumps({"workload": name, "seed": args.seed + k, **line}), flush=True)
        provenance.update(git_sha=git_sha(root), run_seconds=seconds, blas_threads_requested=int(BLAS_THREADS),
                          seeds=sorted({r["seed"] for r in runs}), workloads=list(names))
        write_bench(os.path.join(results_dir, f"BENCH_{label}.json"), label, provenance, config, runs)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for run in runs:
        for err in run["errors"]:
            print(f"check failed ({run['workload']}, seed {run['seed']}): {err}", file=sys.stderr)
    if len(names) == 1 and args.runs == 1:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
