#!/usr/bin/env python3
"""Answer-level benchmark of thetalab: one workload, one seed, one run.

    python3 perfbench/run.py --workload surface --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root.  The program is used from ./src as it stands
(pure Python; no build step).  A run starts worker.py in fresh interpreters:
a few set-up probes, then one worker that answers in a closed loop with a
single caller for --seconds (whole rounds, see inputs.py), or for a fixed
number of rounds when --trace 1 wraps the package's layers.  Every answer
is then checked against perfbench/reference.py.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).  The run's facts
and full summary go to .perfbench/results/, spans to .perfbench/spans/.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread in this process and every worker it starts
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402

SETUP_SAMPLES = 15         # fresh-interpreter set-ups per run; the median is reported
WORKER_TIMEOUT_S = 150.0
SELF_CHECK_ROUNDS = {"surface": 1, "trace": 1, "pointwise": 4, "exact": 1}


class BenchError(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="thetalab answer benchmark")
    p.add_argument("--workload", choices=("surface", "trace", "pointwise", "exact"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="a few answers of every workload, every answer checked")
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    return args


def worker_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(worker_args, env, root):
    """Start worker.py; return (process, seconds until it printed 'ready')."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *worker_args], stdout=subprocess.PIPE,
                            env=env, cwd=root, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup_s


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError(f"worker ran longer than {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def probe(base, env, root):
    """One set-up probe: a fresh interpreter that gets ready and exits."""
    proc, s = start_worker(base + ["--setup-only"], env, root)
    finish(proc, 60)
    return s


def run_worker(workload, seed, env, root, workdir, *, seconds=0.0, rounds=0, trace=0,
               check_all=0, setup_samples=1):
    """One measured worker amid set-up probes; returns (summary, setup samples).

    The probes are split between before and after the worker, so that the
    median set-up spans the run and not only the seconds before it.
    """
    base = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
    probe(base, env, root)  # the first import in a fresh checkout writes bytecode caches
    setups = [probe(base, env, root) for _ in range(setup_samples // 2)]
    args = base + ["--seconds", str(seconds), "--rounds", str(rounds), "--trace", str(trace),
                   "--check-all", str(check_all)]
    proc, s = start_worker(args, env, root)
    setups.append(s)
    out = finish(proc, WORKER_TIMEOUT_S)
    setups += [probe(base, env, root) for _ in range(setup_samples - len(setups))]
    return json.loads(out.strip().splitlines()[-1]), setups


def end_to_end(summary, setups):
    tail = summary["tail_ms"] if summary["tail_ms"] is not None else summary["p50_ms"]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "answers_per_s": {"value": summary["completed"] / summary["timed_s"], "unit": "1/s"},
        "answer_p50_ms": {"value": summary["p50_ms"], "unit": "ms"},
        "answer_tail_ms": {"value": tail, "unit": "ms"},
        "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
    }


def one_run(args, root):
    out_dir = os.path.join(root, ".perfbench")
    workdir = os.path.join(out_dir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    env = worker_env(root)
    try:
        if args.trace:
            summary, setups = run_worker(args.workload, args.seed, env, root, workdir,
                                         rounds=inputs.TRACED_ROUNDS[args.workload], trace=1)
        else:
            summary, setups = run_worker(args.workload, args.seed, env, root, workdir,
                                         seconds=args.seconds, setup_samples=SETUP_SAMPLES)
        checked, problems = checks.check_file(os.path.join(workdir, "records.jsonl"))
        name = f"{args.workload}-s{args.seed}-t{args.trace}"
        if args.trace:
            os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
            shutil.move(os.path.join(workdir, "spans.jsonl"),
                        os.path.join(out_dir, "spans", name + ".jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = summary["completed"] > 0 and checked > 0 and not problems
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in summary["layers"].items()}
    else:
        metrics = end_to_end(summary, setups)
    facts = dict(summary["facts"], workload=args.workload, trace=args.trace,
                 seconds=args.seconds, setup_samples_s=setups, checked=checked,
                 problems=problems, failures=summary["failures"], rounds=summary["rounds"])
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    with open(os.path.join(out_dir, "results", name + ".json"), "w") as fh:
        json.dump({"metrics": metrics, "summary": summary, "facts": facts}, fh, indent=1)
    print(f"perfbench: {args.workload} seed={args.seed} backend={facts['kernel_backend']} "
          f"python={facts['python']} numpy={facts['numpy']} nproc={facts['nproc']} "
          f"threads=1 rounds={summary['rounds']} failures={summary['failures']} "
          f"checked={checked} problems={problems}", file=sys.stderr)
    return {"correct": correct, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def self_check(root):
    ok = True
    for workload, rounds in SELF_CHECK_ROUNDS.items():
        workdir = os.path.join(root, ".perfbench", "work", f"self-check-{workload}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            summary, _ = run_worker(workload, 0, worker_env(root), root, workdir,
                                    rounds=rounds, check_all=1)
            checked, problems = checks.check_file(os.path.join(workdir, "records.jsonl"))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        good = summary["completed"] > 0 and not problems
        ok = ok and good
        print(f"{workload:10s} {'ok' if good else 'FAIL'}  answers={summary['completed']} "
              f"failed={summary['failures']} checked={checked} problems={problems}")
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "thetalab", "__init__.py")):
        print("perfbench: src/thetalab not found; run from the repository root", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check(root)
        result = one_run(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
