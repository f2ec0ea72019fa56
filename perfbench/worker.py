"""One benchmark process: import thetalab, build a workload's inputs, then
answer in a closed loop with a single caller.

run.py starts this script in a fresh interpreter and times it up to the
``ready`` line it prints (set-up), then reads one JSON summary from its last
line.  Every answer's output is appended to a records file outside the timed
region; run.py checks those records against perfbench/reference.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
from array import array
from time import perf_counter, perf_counter_ns

# 1 in POINTWISE_SAMPLE pointwise calls is kept for the correctness checks
POINTWISE_SAMPLE = 41


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=0, help="fixed rounds instead of --seconds")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--check-all", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def error_name(code, err_text: str) -> str:
    """The exception name the CLI printed ("error: Name: ..."), else the exit code."""
    for line in err_text.splitlines():
        if line.startswith("error: "):
            head = line[len("error: "):].split(":", 1)[0]
            if head.isidentifier():
                return head
            return "CLIInputError"
    return f"exit{code}"


def run_cli(argv):
    """One CLI invocation in process; returns (ns, fail, stdout, stderr)."""
    main = sys.modules["thetalab.cli"].main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter_ns()
        try:
            code = main(argv)
            fail = None
        except SystemExit as exc:  # argparse rejected the arguments
            code, fail = exc.code, "SystemExit"
        except Exception as exc:  # a traceback a CLI user would see
            code, fail = None, type(exc).__name__
        t1 = perf_counter_ns()
    if fail is None and code != 0:
        fail = error_name(code, err.getvalue())
    return t1 - t0, fail, out.getvalue(), err.getvalue()


def cplx(z):
    return [z.real, z.imag]


class Worker:
    def __init__(self, args, inputs_mod, thetalab):
        import checks  # after "ready": set-up times thetalab's import, not the checks'

        self.checks = checks
        self.args = args
        self.inputs_mod = inputs_mod
        self.tl = thetalab
        self.records = open(os.path.join(args.workdir, "records.jsonl"), "w")
        self.latencies = array("q")
        self.timed_ns = 0
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.calls = 0
        self.rec = None
        self.kinds_seen = set()

    def close(self):
        self.records.close()

    def account(self, ns, fail):
        self.attempted += 1
        self.timed_ns += ns
        if fail is None:
            self.latencies.append(ns)
        else:
            self.failures[fail] = self.failures.get(fail, 0) + 1

    def write(self, record):
        self.records.write(json.dumps(record) + "\n")

    def answer(self, kind, payload, facts):
        if self.rec is not None and kind not in self.kinds_seen:
            self.rec.recording = f"{kind}#{self.attempted}"
        self.kinds_seen.add(kind)
        if kind == "sweep":
            self.sweep(payload)
        elif kind in self.inputs_mod.POINTWISE_FUNCS:
            self.pointwise(kind, payload)
        else:
            ns, fail, out, _ = run_cli(payload)
            rec = {"kind": kind, "argv": payload, "facts": facts, "fail": fail, "out": out}
            # an unclosed cloud is a wrong answer: it counts as failed
            if kind == "trace" and fail is None and self.checks.trace_closure_problems(rec):
                rec["fail"] = fail = "ClosureMissing"
            self.account(ns, fail)
            self.write(rec)
        if self.rec is not None:
            self.rec.recording = None

    def pointwise(self, name, payload):
        Zt, v, tol = payload
        Z = self.tl.PeriodMatrix(*Zt)
        settings = self.tl.EvalSettings(tol=tol)
        fn = getattr(self.tl, name)
        t0 = perf_counter_ns()
        try:
            result = fn(v, Z, settings)
            fail = None
        except Exception as exc:
            result, fail = None, type(exc).__name__
        t1 = perf_counter_ns()
        self.account(t1 - t0, fail)
        self.calls += 1
        if fail is not None:
            self.write({"kind": name, "fail": fail})
        elif self.args.check_all or self.calls % POINTWISE_SAMPLE == 1:
            # the value at -v for the parity checks, outside the timed region
            # and with tracing paused, so that traced counts hold answers only
            if self.rec is not None:
                self.rec.paused = True
            neg = fn((-v[0], -v[1]), Z, settings)
            if self.rec is not None:
                self.rec.paused = False
            self.write({"kind": name, "Z": [cplx(z) for z in Zt], "v": [cplx(z) for z in v],
                        "tol": tol, "fail": None, "out": flatten(result),
                        "neg": flatten(neg)})

    def sweep(self, calls):
        twotorsion = sys.modules["thetalab.twotorsion"]
        lattice = sys.modules["thetalab.lattice"]
        parts, fail, total = [], None, 0
        for kind, payload, facts in calls:
            if kind == "cli":
                ns, fail, out, _ = run_cli(payload)
            else:
                t0 = perf_counter_ns()
                try:
                    if kind == "z23":
                        rep = twotorsion.z23_contains_isotropic(payload)
                        out = [rep.n_subgroups, rep.n_with_isotropic_klein]
                    else:
                        out = [[c, t.as_tuple()] for c, t in
                               (lattice.quotient_polarization_type(lattice.HalfTorsionSubgroup(g))
                                for g in payload)]
                except Exception as exc:
                    out, fail = None, type(exc).__name__
                ns = perf_counter_ns() - t0
            total += ns
            parts.append({"kind": kind, "argv": payload if kind == "cli" else None,
                          "facts": facts, "out": out})
            if fail is not None:
                break
        self.account(total, fail)
        self.write({"kind": "sweep", "fail": fail, "parts": parts})


def flatten(result):
    """Complex results as [re, im] pairs, in a flat list."""
    if isinstance(result, complex):
        return [cplx(result)]
    return [pair for item in result for pair in flatten(item)]


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy
    import thetalab
    import thetalab.cli  # noqa: F401  (what a CLI user imports)

    import inputs as inputs_mod

    inputs = inputs_mod.WORKLOADS[args.workload](args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    worker = Worker(args, inputs_mod, thetalab)
    if args.trace:
        import tracer

        worker.rec = tracer.Recorder()
        tracer.install(worker.rec)

    min_answers = inputs_mod.min_answers(args.workload)
    rounds = 0
    start = perf_counter()
    while True:
        if args.rounds:
            if rounds >= args.rounds:
                break
        elif perf_counter() - start >= args.seconds and len(worker.latencies) >= min_answers:
            break
        for kind, payload, facts in inputs.round():
            worker.answer(kind, payload, facts)
        rounds += 1
    loop_s = perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker.close()

    lat = sorted(worker.latencies)
    tail_p = inputs_mod.TAIL_PERCENTILE[args.workload]
    completed = len(lat)
    summary = {
        "attempted": worker.attempted,
        "completed": completed,
        "failed": worker.attempted - completed,
        "failures": worker.failures,
        "rounds": rounds,
        "loop_s": loop_s,
        "timed_s": worker.timed_ns / 1e9,
        "p50_ms": statistics.median(lat) / 1e6 if lat else None,
        "tail_percentile": tail_p,
        "tail_ms": percentile(lat, tail_p) / 1e6 if lat and tail_p else None,
        "beyond_tail": completed - math.ceil(tail_p / 100.0 * completed) if tail_p else None,
        "peak_rss_mb": peak_kb / 1024.0,
        "facts": {
            "kernel_backend": thetalab.kernel_backend(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "seed": args.seed,
            "draws": draws_used(inputs),
        },
    }
    if worker.rec is not None:
        rec = worker.rec
        summary["layers"] = {k: [v, u] for k, (v, u) in rec.metrics(completed).items()}
        summary["functions"] = {k: {"calls": c, "inclusive_s": i / 1e9, "self_s": s / 1e9}
                                for k, (c, i, s) in rec.fn.items()}
        summary["missing"] = rec.missing
        with open(os.path.join(args.workdir, "spans.jsonl"), "w") as fh:
            for span in rec.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "layer", "name", "start_ns", "end_ns", "answer"), span)))
                    + "\n")
    print(json.dumps(summary), flush=True)
    return 0


def draws_used(inputs):
    used = {}
    for name in ("verify", "product", "trace"):
        cyc = getattr(inputs, name, None)
        if cyc is not None:
            used[name] = [cyc.entries[i % len(cyc.entries)] for i in range(cyc.pos)]
    return used


if __name__ == "__main__":
    sys.exit(main())
