"""Command-line driver: verification suites and point-cloud export.

Subcommands: verify-surface, product-case, klein, decompose,
feasible-genera, trace-curve.  Reports are emitted as JSON, CSV, or
Markdown with a fixed check order; identical seeds and flags reproduce
identical reports (the wall-time field aside).  Exit codes: 0 all checks
pass, 1 a check failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from .decomposition import assemble_decomposition, validate_presentation
from .errors import ThetaLabError
from .lattice import feasible_genera, genus_feasibility_report
from .report import Report
from .siegel import (
    EvalSettings,
    PeriodMatrix,
    random_period_matrix,
    random_point,
)
from .surface import (
    ScanKind,
    four_copy_scan,
    four_copy_summary,
    law_bound,
    minus_one_action,
    product_case_components,
    quasi_periodicity_check,
    two_torsion_scan,
)
from .theta import _characteristics, _points, _weighted_odd, _weighted_sums, kernel_backend
from .theta import quarter_characteristic
from .trace import MIRROR_DISAGREES, trace_curve
from .twotorsion import (
    KleinSubgroup,
    TwoTorsionClass,
    classify_klein_cover,
    enumerate_klein,
    orthogonal_complement,
)

DEFAULT_TOL = 1e-12


class CLIInputError(Exception):
    pass


def parse_complex(text: str) -> complex:
    """Parse CLI complex literals like '0+1i', '1.5-0.25i', '2', '0.3i'."""
    s = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(s)
    except ValueError as exc:
        raise CLIInputError(f"cannot parse complex literal {text!r}") from exc


def format_complex(z: complex) -> str:
    z = complex(z)  # a numpy scalar's repr would name its type
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def load_period_matrix(path: str) -> PeriodMatrix:
    """Read {"re": [[..]], "im": [[..]]}; only the upper triangle is used,
    which enforces symmetry at parse time."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        re, im = data["re"], data["im"]
        return PeriodMatrix(
            complex(re[0][0], im[0][0]),
            complex(re[0][1], im[0][1]),
            complex(re[1][1], im[1][1]),
        )
    except (OSError, KeyError, IndexError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise CLIInputError(f"cannot read period matrix from {path}: {exc}") from exc


def _resolve_tol(args) -> float:
    if getattr(args, "tol", None) is not None:
        return args.tol
    env = os.environ.get("THETA_LAB_TOL")
    if env is not None:
        try:
            return float(env)
        except ValueError as exc:
            raise CLIInputError(f"THETA_LAB_TOL={env!r} is not a number") from exc
    return DEFAULT_TOL


def _resolve_Z(args, rng) -> PeriodMatrix:
    if getattr(args, "period_matrix", None):
        return load_period_matrix(args.period_matrix)
    if getattr(args, "random", False):
        return random_period_matrix(rng)
    raise CLIInputError("need a period matrix source: --random or --period-matrix PATH")


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _label_str(label) -> str:
    return f"a{label.alpha[0]}{label.alpha[1]}b{label.beta[0]}{label.beta[1]}"


def _add_law(report: Report, name: str, residual: float, bound: float, detail: str = "") -> None:
    """A check that a weighted residual is within its derived bound."""
    report.add(name, residual <= bound, residual,
               f"{detail} residual={residual:.3e} bound={bound:.3e}".lstrip())


# ---------------------------------------------------------------------------
# subcommands: each adds its checks and extras to the report main built


def cmd_verify_surface(args, report: Report) -> None:
    rng = np.random.default_rng(args.seed)
    Z = _resolve_Z(args, rng)
    settings = EvalSettings(tol=report.tol)

    # v and -v share a weight, so each parity law's factor stays +-1
    bound = law_bound(Z, settings)
    pts = _points([random_point(Z, rng) for _ in range(min(args.samples, 100))])
    n = len(pts)
    t = _weighted_odd(np.concatenate([pts, -pts]), Z, settings)
    (p1,) = _weighted_sums(_characteristics(quarter_characteristic(1)), -pts, Z, settings)
    (p3,) = _weighted_sums(_characteristics(quarter_characteristic(3)), pts, Z, settings)
    _add_law(report, "oddness", float(np.max(np.abs(t[:n] + t[n:]))), bound)
    _add_law(report, "basis_parity", float(np.max(np.abs(p1 - p3))), bound)

    scan = two_torsion_scan(Z, settings)
    counts = scan.counts()
    ok = (
        counts["OddVanishing"] == 12
        and counts["EvenVanishing"] == 0
        and counts["NonVanishing"] == 4
        and scan.worst_zero <= scan.bound
    )
    report.add(
        "two_torsion_scan",
        ok,
        None,
        f"odd={counts['OddVanishing']} even={counts['EvenVanishing']} "
        f"non={counts['NonVanishing']} worst_zero={scan.worst_zero:.3e} "
        f"bound={scan.bound:.3e} least_nonzero={scan.least_nonzero():.3e}",
    )

    qp = quasi_periodicity_check(Z, settings, n_samples=args.samples, seed=args.seed)
    _add_law(report, "w1_antiperiodicity", qp.w1_max_residual, qp.bound)
    M = qp.constants["w2"]
    _add_law(report, "w2_translation_constant", M.spread, qp.bound,
             f"M={format_complex(M.value)} samples={M.n_admissible}")
    _add_law(report, "w1_plus_w2_translation_constant", qp.constants["w1+w2"].spread,
             qp.bound, f"samples={qp.constants['w1+w2'].n_admissible}")
    _add_law(report, "lattice_automorphy", qp.automorphy_max_residual, qp.bound)

    neg = minus_one_action(Z, settings, seed=args.seed + 1)
    _add_law(report, "minus_one_action", neg.permutation_residual, neg.bound,
             f"invariant_dim={neg.invariant_dim} anti_invariant_dim={neg.anti_invariant_dim}")

    report.extras = {
        "backend": kernel_backend(),
        "Z": {
            "z11": format_complex(Z.z11),
            "z12": format_complex(Z.z12),
            "z22": format_complex(Z.z22),
        },
        "scan_counts": counts,
        "odd_vanishing_labels": sorted(
            _label_str(lab) for lab in scan.labels(ScanKind.ODD_VANISHING)
        ),
        "M": format_complex(M.value),
    }


def cmd_product_case(args, report: Report) -> None:
    tau1, tau2 = parse_complex(args.tau1), parse_complex(args.tau2)
    try:
        Z = PeriodMatrix.diagonal(tau1, tau2)
    except ThetaLabError as exc:
        raise CLIInputError(f"invalid tau: {exc}") from exc
    settings = EvalSettings(tol=report.tol)

    pc = product_case_components(Z, settings, n_samples=args.samples, seed=args.seed)
    bound = pc.scan.bound
    _add_law(report, "five_components_vanish", max(c.max_abs for c in pc.components), bound,
             f"components={len(pc.components)}")
    ctrl = min(c.control_min_abs for c in pc.components)
    report.add(
        "negative_controls",
        ctrl > bound,
        None,
        f"min_control={ctrl:.3e} bound={bound:.3e} generic_scale={pc.generic_scale:.3e}",
    )
    counts = pc.scan.counts()
    ok = (
        counts["OddVanishing"] == 12
        and counts["EvenVanishing"] == 4
        and pc.node_labels == pc.expected_node_labels()
        and pc.scan.worst_zero <= pc.scan.bound
    )
    report.add(
        "torsion_multiplicity_split",
        ok,
        None,
        f"odd={counts['OddVanishing']} nodes={counts['EvenVanishing']} "
        f"worst_zero={pc.scan.worst_zero:.3e} bound={pc.scan.bound:.3e}",
    )

    copies = four_copy_scan(pc.scan)
    summary = four_copy_summary(copies)
    ok = summary["pairwise_distinct"] and summary["union_count"] == 16
    report.add(
        "four_copies_distinct",
        ok,
        None,
        f"union={summary['union_count']} coverage={summary['coverage_counts']}",
    )

    report.extras = {
        "backend": kernel_backend(),
        "tau1": format_complex(tau1),
        "tau2": format_complex(tau2),
        "component_max_abs": {c.label: c.max_abs for c in pc.components},
        "node_labels": sorted(_label_str(lab) for lab in pc.node_labels),
        "four_copy_even_labels": {
            r.shift_label: sorted(_label_str(lab) for lab in r.even_labels)
            for r in copies
        },
    }


def _parse_subset(text: str, genus: int) -> TwoTorsionClass:
    try:
        members = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise CLIInputError(f"cannot parse subset {text!r}") from exc
    return TwoTorsionClass.from_members(genus, members)


def cmd_klein(args, report: Report) -> None:
    g = args.genus

    if args.enumerate:
        census = enumerate_klein(g)
        n = 4**g - 1
        formula = (n * (n - 1)) // 6
        report.add(
            "census",
            census.total == formula,
            None,
            f"total={census.total} isotropic={census.isotropic} "
            f"non-isotropic={census.non_isotropic}",
        )
        report.add(
            "isotropic_partition",
            census.isotropic + census.non_isotropic == census.total,
            None,
        )
        if g == 2:
            report.add("non_isotropic_is_triangle_count", census.non_isotropic == 20)
            report.add(
                "hyperelliptic_equals_non_isotropic",
                census.hyperelliptic == census.non_isotropic and census.undetermined == 0,
            )
        report.extras = {
            "genus": g,
            "total": census.total,
            "isotropic": census.isotropic,
            "non_isotropic": census.non_isotropic,
            "hyperelliptic": census.hyperelliptic,
            "undetermined": census.undetermined,
        }
    else:
        s1, s2 = args.classify or args.complement
        G = KleinSubgroup(_parse_subset(s1, g), _parse_subset(s2, g))
        if args.classify:
            verdict = classify_klein_cover(G)
            report.add("classification", True, None, verdict.value)
            report.extras = {
                "genus": g,
                "isotropic": G.is_isotropic(),
                "verdict": verdict.value,
                "elements": [list(c.sorted_members()) for c in G.nonzero_elements()],
            }
        else:
            comp = orthogonal_complement(G)
            report.add(
                "complement_involution", orthogonal_complement(comp) == G, None
            )
            report.add(
                "isotropy_preserved", comp.is_isotropic() == G.is_isotropic(), None
            )
            report.extras = {
                "genus": g,
                "complement": [list(c.sorted_members()) for c in comp.nonzero_elements()],
                "isotropic": comp.is_isotropic(),
            }


def cmd_decompose(args, report: Report) -> None:
    result = assemble_decomposition()
    report.add("main_dims", result.main.dims() == (2, 1, 1, 1), None,
               f"dims={result.main.dims()}")
    validation = validate_presentation(result)
    for item in validation.checks:
        report.add(item.name, item.passed, None, item.detail)

    report.extras = {
        "multiplicities": {str(chi): m for chi, m in result.multiplicities.items()},
        "presentations": {
            name: [[s.label, s.dim, list(s.restricted_type)] for s in pres.slots]
            for name, pres in {"JC~": result.main, **result.quotients}.items()
        },
        "genus_table": result.genus_table,
    }


def cmd_feasible_genera(args, report: Report) -> None:
    got = feasible_genera(args.max)
    expected = [(g, (1, g - 1)) for g in range(2, min(5, args.max) + 1)]
    ok = [(g, t.as_tuple()) for g, t in got] == expected
    summary = " ".join(f"{g}:{t}" for g, t in got)
    report.add("feasible_set", ok, None, summary)

    rejected = {}
    for c in genus_feasibility_report(args.max):
        if not c.feasible:
            rejected.setdefault(c.genus, []).append(
                f"{c.type}: {c.branch_count} not in {list(c.allowed_counts)}"
            )
    for g in (6, 7):
        if g <= args.max:
            report.add(f"genus_{g}_rejected", g not in {gg for gg, _ in got}, None,
                       "; ".join(rejected.get(g, [])))

    report.extras = {
        "summary": summary,
        "rejected": {str(g): v for g, v in rejected.items()},
    }


def cmd_trace_curve(args, report: Report) -> str:
    """The one subcommand whose output is a CSV point cloud, not the report."""
    if args.grid < 1:
        raise CLIInputError(f"grid must be >= 1, got {args.grid}")
    Z = _resolve_Z(args, np.random.default_rng(args.seed))
    result = trace_curve(Z, EvalSettings(tol=report.tol), grid_size=args.grid)
    report.add("points_found", bool(result.points))

    lines = ["v1_re,v1_im,v2_re,v2_im,abs_theta,grad_norm"]
    for p in result.points:
        lines.append(
            f"{p.v1.real!r},{p.v1.imag!r},{p.v2.real!r},{p.v2.imag!r},"
            f"{p.abs_theta!r},{p.grad_norm!r}"
        )
    text = "\n".join(lines) + "\n"
    mirrors = sum(f.reason == MIRROR_DISAGREES for f in result.failures)
    print(
        f"traced {len(result.points)} points on a {result.grid_size}x{result.grid_size} grid; "
        f"{len(result.failures) - mirrors} lines without solutions; "
        f"{mirrors} mirror points disagreeing with their source",
        file=sys.stderr,
    )
    return text


# ---------------------------------------------------------------------------
# parser / entry point


def _add_common(p, samples_default=50):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None,
                   help=f"evaluation tolerance (default {DEFAULT_TOL}, or THETA_LAB_TOL)")
    p.add_argument("--samples", type=int, default=samples_default)
    p.add_argument("--format", choices=("json", "csv", "md"), default="json")
    p.add_argument("--output", default=None, help="write the report to this path")


def _add_z_source(p):
    src = p.add_mutually_exclusive_group()
    src.add_argument("--random", action="store_true",
                     help="draw a generic period matrix from the seeded sampler")
    src.add_argument("--period-matrix", metavar="PATH",
                     help='JSON file {"re": [[...]], "im": [[...]]}')


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call in the
    process: parse_args returns a fresh Namespace each time and nothing
    changes the parser after it is built."""
    parser = argparse.ArgumentParser(
        prog="thetalab",
        description="Verification lab for the odd theta curve on (1,4)-polarised "
                    "abelian surfaces and Klein coverings of hyperelliptic curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-surface", help="scan, quasi-periodicity, (-1)-action")
    _add_z_source(p)
    _add_common(p)
    p.set_defaults(func=cmd_verify_surface)

    p = sub.add_parser("product-case", help="five components over a product surface")
    p.add_argument("--tau1", required=True)
    p.add_argument("--tau2", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_product_case)

    p = sub.add_parser("klein", help="census / classification of Klein subgroups")
    p.add_argument("--genus", type=int, required=True)
    action = p.add_mutually_exclusive_group(required=True)
    action.add_argument("--enumerate", action="store_true")
    action.add_argument("--classify", nargs=2, metavar=("S1", "S2"))
    action.add_argument("--complement", nargs=2, metavar=("S1", "S2"))
    _add_common(p)
    p.set_defaults(func=cmd_klein)

    p = sub.add_parser("decompose", help="Jacobian decomposition table")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("feasible-genera", help="feasible symmetric-curve genera")
    p.add_argument("--max", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_feasible_genera)

    p = sub.add_parser("trace-curve", help="CSV point cloud on the curve")
    _add_z_source(p)
    p.add_argument("--grid", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--output", default=None, help="write the CSV to this path")
    p.set_defaults(func=cmd_trace_curve)

    return parser


def main(argv=None) -> int:
    """Parse, check the shared inputs, run the subcommand on a fresh report,
    and emit it (or the subcommand's own text).  Exit 1 when a check fails."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        tol = _resolve_tol(args)
        # the sums round at about eps relative to their peak term, so a
        # smaller tolerance could not be certified
        if not (math.isfinite(tol) and tol >= sys.float_info.epsilon):
            raise CLIInputError(
                f"tolerance must be positive, finite and at least "
                f"{sys.float_info.epsilon:.3g}, got {tol}"
            )
        if getattr(args, "samples", 1) < 1:
            raise CLIInputError(f"samples must be >= 1, got {args.samples}")
        report = Report(args.command, args.seed, tol)
        text = args.func(args, report)
    except CLIInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # OverflowError: a theta sum beyond double range
    except (ThetaLabError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    report.wall_time_s = time.perf_counter() - t0
    _emit(report.render(args.format) if text is None else text, args.output)
    return 0 if report.overall == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
