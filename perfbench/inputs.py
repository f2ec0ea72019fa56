"""Inputs of the four workloads, made from the benchmark's seed alone.

Period matrices are drawn like ``thetalab.random_period_matrix`` (real part
uniform in [-1/2, 1/2], imaginary part I + W W^T), product surfaces as
diag(tau1, tau2) with Re tau uniform in [-1/2, 1/2] and Im tau in [0.8, 2].
Draw k of a kind always gives the same input; ``pools.json`` lists the draws
whose answer hits a fault of the program at the time the pool was vetted
(see vet.py), and those draws are left out.  Each fault is measured instead
by one fixed input per round, in ``FAULTS``, whose answer fails in every
round and on every seed.

This module imports numpy only, so that a set-up probe measures thetalab's
own import.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
POOLS_FILE = os.path.join(HERE, "pools.json")

TRACE_GRID = 4
# fixed failing answers, in every round: (kind, draw, the failure it shows).
# ``--random --seed k`` gives draw k.  ClosureMissing is the benchmark's name
# for a trace cloud that is not closed under v -> Ze1 + De1 - v.
FAULTS = {
    "surface": [("verify", 23, "IllConditioned")],
    "trace": [("trace", 2, "RadiusExceeded"), ("trace", 52, "OverflowError"),
              ("trace", 1, "ClosureMissing")],
}

# answers per round: surface 12 verify-surface + 4 product-case + 1 fault,
# trace 6 trace-curve + 3 faults, pointwise 3 functions x 5 tolerances,
# exact 1 census sweep
SURFACE_VERIFY, SURFACE_PRODUCT = 12, 4
TRACE_PER_ROUND = 6
POINTWISE_TOLS = (1e-6, 1e-8, 1e-10, 1e-12, 1e-14)
POINTWISE_FUNCS = ("odd_theta", "odd_theta_with_gradient", "theta_basis")
KLEIN_GENERA = (2, 3, 4)
Z23_GENERA = (2, 3)
CLASSIFY_PER_GENUS = 2
COMPLEMENTS = 2
FEASIBLE_MAX = 20


def draw_period_matrix(k: int) -> tuple[complex, complex, complex]:
    """Draw k: the period matrix random_period_matrix gives for rng seed k."""
    rng = np.random.default_rng(k)
    while True:
        x11, x12, x22 = rng.uniform(-0.5, 0.5, size=3)
        W = rng.standard_normal((2, 2))
        Y = np.eye(2) + W @ W.T
        Z = (complex(x11, Y[0, 0]), complex(x12, Y[0, 1]), complex(x22, Y[1, 1]))
        if abs(Z[1]) >= 1e-3:
            return Z


def draw_product(k: int) -> tuple[complex, complex]:
    rng = np.random.default_rng([k, 1])
    re = rng.uniform(-0.5, 0.5, size=2)
    im = rng.uniform(0.8, 2.0, size=2)
    return complex(re[0], im[0]), complex(re[1], im[1])


def fault_answers(workload: str) -> list:
    answers = []
    for kind, k, expect in FAULTS.get(workload, ()):
        argv = ["--random", "--seed", str(k)]
        if kind == "verify":
            argv = ["verify-surface", *argv]
        else:
            argv = ["trace-curve", *argv, "--grid", str(TRACE_GRID)]
        answers.append((kind, argv, {"draw": k, "expect": expect}))
    return answers


def load_pools() -> dict:
    with open(POOLS_FILE) as fh:
        return json.load(fh)


def pool(kind: str, pools: dict) -> list[int]:
    entry = pools[kind]
    return [k for k in range(entry["draws"]) if str(k) not in entry["excluded"]]


def format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def write_period_matrix(path: str, Z) -> None:
    z11, z12, z22 = Z
    with open(path, "w") as fh:
        json.dump({"re": [[z11.real, z12.real], [z12.real, z22.real]],
                   "im": [[z11.imag, z12.imag], [z12.imag, z22.imag]]}, fh)


class Cycle:
    """Entries of a pool in a seeded order, starting over when used up."""

    def __init__(self, entries, rng):
        self.entries = [entries[i] for i in rng.permutation(len(entries))]
        self.pos = 0

    def next(self):
        k = self.entries[self.pos % len(self.entries)]
        self.pos += 1
        return k


# ---------------------------------------------------------------------------
# rounds: lists of answers, each (kind, payload, input facts for the checks)


class SurfaceInputs:
    def __init__(self, seed: int, workdir: str):
        pools = load_pools()
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.verify = Cycle(pool("surface", pools), rng)
        self.product = Cycle(pool("product", pools), rng)
        for k in self.verify.entries:
            write_period_matrix(self._path(k), draw_period_matrix(k))

    def _path(self, k):
        return os.path.join(self.workdir, f"Z{k}.json")

    def verify_answer(self, k):
        return ("verify", ["verify-surface", "--period-matrix", self._path(k), "--seed", str(k)],
                {"draw": k})

    def product_answer(self, k):
        t1, t2 = draw_product(k)
        return ("product", ["product-case", f"--tau1={format_complex(t1)}",
                            f"--tau2={format_complex(t2)}", "--seed", str(k)], {"draw": k})

    def round(self):
        answers = []
        per_product = SURFACE_VERIFY // SURFACE_PRODUCT
        for i in range(SURFACE_VERIFY):
            answers.append(self.verify_answer(self.verify.next()))
            if (i + 1) % per_product == 0:
                answers.append(self.product_answer(self.product.next()))
        return answers + fault_answers("surface")


class TraceInputs:
    def __init__(self, seed: int, workdir: str):
        pools = load_pools()
        if pools["trace"]["grid"] != TRACE_GRID:
            raise SystemExit("pools.json was vetted at another grid; run perfbench/vet.py")
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.trace = Cycle(pool("trace", pools), rng)
        for k in self.trace.entries:
            write_period_matrix(self._path(k), draw_period_matrix(k))

    def _path(self, k):
        return os.path.join(self.workdir, f"Z{k}.json")

    def round(self):
        answers = []
        for _ in range(TRACE_PER_ROUND):
            k = self.trace.next()
            answers.append(("trace", ["trace-curve", "--period-matrix", self._path(k),
                                      "--grid", str(TRACE_GRID)], {"draw": k}))
        return answers + fault_answers("trace")


class PointwiseInputs:
    """A fresh (Z, v) for every call: v uniform in the fundamental domain in
    torus coordinates, like thetalab.random_point."""

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)

    def round(self):
        u = self.rng.uniform(size=(len(POINTWISE_TOLS) * len(POINTWISE_FUNCS), 7))
        W = self.rng.standard_normal((len(u), 2, 2))
        answers = []
        i = 0
        for tol in POINTWISE_TOLS:
            for fn in POINTWISE_FUNCS:
                Y = np.eye(2) + W[i] @ W[i].T
                X = u[i, :3] - 0.5
                Z = (complex(X[0], Y[0, 0]), complex(X[1], Y[0, 1]), complex(X[2], Y[1, 1]))
                x1, x2, y1, y2 = u[i, 3:]
                v = (Z[0] * x1 + Z[1] * x2 + y1, Z[1] * x1 + Z[2] * x2 + 4.0 * y2)
                answers.append((fn, (Z, v, tol), None))
                i += 1
        return answers


def random_klein_pair(rng, g):
    """Two branch subsets of even size spanning a Klein subgroup at genus g."""
    from reference import canonical_subset

    n = 2 * g + 2
    while True:
        sizes = rng.choice([2, 4] if g >= 3 else [2], size=2)
        s1 = tuple(sorted(int(x) + 1 for x in rng.choice(n, size=sizes[0], replace=False)))
        s2 = tuple(sorted(int(x) + 1 for x in rng.choice(n, size=sizes[1], replace=False)))
        c1, c2 = canonical_subset(g, s1), canonical_subset(g, s2)
        if c1 and c2 and c1 != c2:
            return s1, s2


class ExactInputs:
    """One answer is the whole census sweep; the klein --classify and
    --complement arguments are drawn afresh for every sweep."""

    def __init__(self, seed: int, workdir: str):
        from reference import half_torsion_planes

        self.rng = np.random.default_rng(seed)
        self.planes = half_torsion_planes()

    def round(self):
        calls = []
        for g in KLEIN_GENERA:
            calls.append(("cli", ["klein", "--genus", str(g), "--enumerate"], {"genus": g}))
        for g in Z23_GENERA:
            calls.append(("z23", g, {"genus": g}))
        for g in KLEIN_GENERA:
            for _ in range(CLASSIFY_PER_GENUS):
                s1, s2 = random_klein_pair(self.rng, g)
                calls.append(("cli", ["klein", "--genus", str(g), "--classify",
                                      ",".join(map(str, s1)), ",".join(map(str, s2))],
                              {"genus": g, "pair": [s1, s2]}))
        for _ in range(COMPLEMENTS):
            s1, s2 = random_klein_pair(self.rng, 2)
            calls.append(("cli", ["klein", "--genus", "2", "--complement",
                                  ",".join(map(str, s1)), ",".join(map(str, s2))],
                          {"genus": 2, "pair": [s1, s2]}))
        calls.append(("quotients", [gens for gens, _ in self.planes],
                      {"isotropic": [iso for _, iso in self.planes]}))
        calls.append(("cli", ["decompose"], {}))
        calls.append(("cli", ["feasible-genera", "--max", str(FEASIBLE_MAX)], {}))
        return [("sweep", calls, None)]


WORKLOADS = {
    "surface": SurfaceInputs,
    "trace": TraceInputs,
    "pointwise": PointwiseInputs,
    "exact": ExactInputs,
}

# rounds of a traced run: fixed, so that its counts repeat exactly
TRACED_ROUNDS = {"surface": 6, "trace": 4, "pointwise": 1500, "exact": 4}
TAIL_PERCENTILE = {"surface": 90.0, "trace": 75.0, "pointwise": 99.0, "exact": None}


def min_answers(workload: str) -> int:
    """Completed answers a run needs before its tail percentile has ten
    answers beyond it."""
    p = TAIL_PERCENTILE[workload]
    return math.ceil(10 / (1 - p / 100.0)) if p else 1
