"""Checks of every recorded answer against perfbench/reference.py.

Each check returns a list of problems (empty when the answer is right).
A failed answer is a problem unless it is a fault reproducer (inputs.FAULTS)
that failed in the way expected of it.  A fault reproducer that answers is
checked like any other answer of its kind.
"""

from __future__ import annotations

import json

import inputs
import reference as ref


def _report(rec):
    try:
        return json.loads(rec["out"])
    except (TypeError, ValueError):
        return None


def check_verify(rec) -> list[str]:
    Z = inputs.draw_period_matrix(rec["facts"]["draw"])
    rep = _report(rec)
    if rep is None:
        return ["verify-surface printed no JSON report"]
    problems = []
    if rep["overall"] != "pass":
        problems.append(f"verify-surface overall={rep['overall']}")
    simple, singular = ref.vanishing_torsion_labels(Z)
    got = set(rep["extras"]["odd_vanishing_labels"])
    if got != simple or singular:
        problems.append(f"odd-vanishing labels {sorted(got)} != reference {sorted(simple)}"
                        f" (singular {singular})")
    M_ref = ref.translation_constant(Z)
    M = ref.parse_complex(rep["extras"]["M"])
    if abs(M - M_ref) > 1e-8 * abs(M_ref):
        problems.append(f"M={M} != reference {M_ref}")
    return problems


def check_product(rec) -> list[str]:
    t1, t2 = inputs.draw_product(rec["facts"]["draw"])
    rep = _report(rec)
    if rep is None:
        return ["product-case printed no JSON report"]
    problems = []
    if rep["overall"] != "pass":
        problems.append(f"product-case overall={rep['overall']}")
    nodes = ref.product_node_labels(t1, t2)
    expected = ref.expected_product_nodes()
    got = set(rep["extras"]["node_labels"])
    if not (got == nodes == expected):
        problems.append(f"nodes {sorted(got)}, jtheta {sorted(nodes)}, "
                        f"alpha1=beta1=1 {sorted(expected)}")
    return problems


def trace_points(rec):
    rows = rec["out"].strip().splitlines()[1:]
    pts = []
    for row in rows:
        a = [float(x) for x in row.split(",")]
        pts.append((complex(a[0], a[1]), complex(a[2], a[3])))
    return pts


def trace_zero_problems(Z, pts, tol=1e-12) -> list[str]:
    if not pts:
        return ["trace-curve emitted no points"]
    for v1, v2 in pts:
        t, _, rnd, _ = ref.odd_theta(Z, (v1, v2))
        bound = tol * (1.0 + ref.envelope_peak(Z, (v1, v2))) + rnd
        if abs(t) > bound:
            return [f"|theta_A({v1:.6g}, {v2:.6g})| = {abs(t):.3g} > {bound:.3g}"]
    return []


def trace_closure_problems(rec, grid=inputs.TRACE_GRID) -> list[str]:
    """The grid points of the cloud must be closed under v -> Ze1 + De1 - v."""
    Z = inputs.draw_period_matrix(rec["facts"]["draw"])
    on_grid = [p for p in trace_points(rec) if ref.on_grid(Z, p[0], grid)]
    for p in on_grid:
        img = ref.chart_image(Z, *p)
        if not any(ref.same_chart_point(Z, img, q) for q in on_grid):
            return [f"image of ({p[0]:.6g}, {p[1]:.6g}) under Ze1+De1-v is missing"]
    return []


def check_trace(rec) -> list[str]:
    Z = inputs.draw_period_matrix(rec["facts"]["draw"])
    return trace_zero_problems(Z, trace_points(rec)) + trace_closure_problems(rec)


def _pairs(flat):
    return [complex(re, im) for re, im in flat]


def check_pointwise(rec) -> list[str]:
    Z = tuple(complex(*z) for z in rec["Z"])
    v = tuple(complex(*z) for z in rec["v"])
    tol = rec["tol"]
    out, neg = _pairs(rec["out"]), _pairs(rec["neg"])
    peak = ref.envelope_peak(Z, v)
    name = rec["kind"]
    problems = []
    if name == "theta_basis":
        refs = [ref.theta_quarter(k, Z, v) for k in range(4)]
        for k, (val, _, rnd, _) in enumerate(refs):
            if abs(out[k] - val) > tol * peak + 2 * rnd:
                problems.append(f"theta_{k} off the reference by {abs(out[k] - val):.3g}")
        # theta[(0, a)](-v) = theta[(0, -a)](v): 0 and 2 even, 1 and 3 swap
        for k, j in ((0, 0), (1, 3), (2, 2), (3, 1)):
            if abs(neg[k] - out[j]) > tol * peak + 2 * refs[j][2]:
                problems.append(f"theta_{k}(-v) != theta_{j}(v)")
        return problems
    val, grad, rnd, grnd = ref.odd_theta(Z, v)
    if abs(out[0] - val) > 2 * tol * peak + 2 * rnd:
        problems.append(f"{name} value off the reference by {abs(out[0] - val):.3g}")
    if abs(neg[0] + out[0]) > 2 * tol * peak + 2 * rnd:
        problems.append(f"{name}(-v) != -{name}(v)")
    if name == "odd_theta_with_gradient":
        for i in (0, 1):
            if abs(out[1 + i] - grad[i]) > 2 * tol * peak + 2 * grnd:
                problems.append(f"gradient[{i}] off the reference by {abs(out[1 + i] - grad[i]):.3g}")
            # the gradient of an odd function is even
            if abs(neg[1 + i] - out[1 + i]) > 2 * tol * peak + 2 * grnd:
                problems.append(f"gradient[{i}](-v) != gradient[{i}](v)")
    return problems


def check_sweep(rec) -> list[str]:
    problems = []
    for part in rec["parts"]:
        kind, facts, out = part["kind"], part["facts"], part["out"]
        if kind == "z23":
            g = facts["genus"]
            want = ref.gaussian_binomial(2 * g, 3)
            if out != [want, want]:
                problems.append(f"z23({g}) = {out}, want [{want}, {want}]")
            continue
        if kind == "quotients":
            for (c, t), iso in zip(out, facts["isotropic"]):
                if tuple(t) != ((1, 1) if iso else (1, 4)):
                    problems.append(f"quotient type {t} for isotropic={iso}")
                    break
            continue
        rep = json.loads(out)
        if rep["overall"] != "pass":
            problems.append(f"{' '.join(part['argv'])}: overall={rep['overall']}")
        ex = rep["extras"]
        cmd = part["argv"][0]
        if cmd == "klein" and "--enumerate" in part["argv"]:
            g = facts["genus"]
            want = (ref.klein_total(g), ref.isotropic_klein(g), ref.hyperelliptic_klein(g))
            got = (ex["total"], ex["isotropic"], ex["hyperelliptic"])
            if got != want:
                problems.append(f"klein census g={g}: {got} != {want}")
        elif cmd == "klein" and "--classify" in part["argv"]:
            g = facts["genus"]
            s1, s2 = facts["pair"]
            iso = ref.subset_pairing(s1, s2) == 0
            elements = [ref.canonical_subset(g, s1), ref.canonical_subset(g, s2),
                        ref.symmetric_difference(g, s1, s2)]
            if iso:
                want = "NotHyperelliptic"
            elif all(len(e) == 2 for e in elements):
                want = "Hyperelliptic"
            else:
                want = "Undetermined"
            if ex["isotropic"] != iso or ex["verdict"] != want:
                problems.append(f"classify {s1} {s2}: {ex['verdict']} != {want}")
            if sorted(map(tuple, ex["elements"])) != sorted(elements):
                problems.append(f"classify {s1} {s2}: elements {ex['elements']}")
        elif cmd == "klein":
            s1, s2 = facts["pair"]
            comp = [tuple(c) for c in ex["complement"]]
            ok = len(set(comp)) == 3 and all(
                ref.subset_pairing(c, s) == 0 for c in comp for s in (s1, s2))
            ok = ok and ref.symmetric_difference(2, comp[0], comp[1]) in comp
            if not ok or ex["isotropic"] != (ref.subset_pairing(s1, s2) == 0):
                problems.append(f"complement of {s1} {s2}: {comp}")
        elif cmd == "decompose":
            dims = tuple(s[1] for s in ex["presentations"]["JC~"])
            if dims != ref.DECOMPOSITION_DIMS:
                problems.append(f"decomposition dims {dims}")
        elif cmd == "feasible-genera":
            got = [(int(g), tuple(int(x) for x in t.strip("()").split(",")))
                   for g, t in (item.split(":") for item in ex["summary"].split())]
            if got != ref.FEASIBLE_GENERA:
                problems.append(f"feasible genera {got}")
    return problems


CHECKS = {
    "verify": check_verify,
    "product": check_product,
    "trace": check_trace,
    "sweep": check_sweep,
    "odd_theta": check_pointwise,
    "odd_theta_with_gradient": check_pointwise,
    "theta_basis": check_pointwise,
}


def check_record(rec) -> list[str]:
    fail = rec.get("fail")
    expect = (rec.get("facts") or {}).get("expect")
    if fail is None:
        return CHECKS[rec["kind"]](rec)
    if fail != expect:
        return [f"failed with {fail}" + (f", expected {expect}" if expect else "")]
    if fail == "ClosureMissing":
        # the cloud came out; its points must still be zeros of theta_A
        Z = inputs.draw_period_matrix(rec["facts"]["draw"])
        return trace_zero_problems(Z, trace_points(rec))
    return []


def check_file(path) -> tuple[int, list[str]]:
    """Number of records checked and the first problems found."""
    checked, problems = 0, []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            found = check_record(rec)
            checked += 1
            if found and len(problems) < 10:
                problems.append(f"{rec['kind']}: " + "; ".join(found))
    return checked, problems
