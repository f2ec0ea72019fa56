"""End-to-end tests of the command line interface via main(argv)."""

import dataclasses
import json

import numpy as np
import pytest

from thetalab import cli, surface, theta
from thetalab.cli import format_complex, load_period_matrix, main, parse_complex
from thetalab.trace import MIRROR_DISAGREES, TraceFailure, TraceResult


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def statuses(out):
    """Each check's status in a JSON report, by name."""
    return {c["name"]: c["status"] for c in json.loads(out)["checks"]}


def json_body(out):
    """Parse a JSON report and drop the timing field."""
    d = json.loads(out)
    d.pop("wall_time_s", None)
    return d


# ---------------------------------------------------------------------------
# literals and input files


def test_parse_complex_forms():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("0.5i") == 0.5j
    assert parse_complex("-3") == -3 + 0j
    assert parse_complex("1.5-0.25i") == 1.5 - 0.25j
    with pytest.raises(cli.CLIInputError):
        parse_complex("one plus two eye")


def test_format_complex_round_trips():
    for z in (1 + 2j, -0.125j, 3.0 + 0j, -1.5 - 2.25j):
        assert parse_complex(format_complex(z)) == z
    # numpy scalars print like Python numbers, not as np.float64(...)
    for z in (np.complex128(0.1 - 2.5j), np.float64(0.75)):
        assert format_complex(z) == format_complex(complex(z))
        assert parse_complex(format_complex(z)) == z


def test_verify_surface_M_round_trips(capsys):
    code, out, _ = run(capsys, ["verify-surface", "--random", "--seed", "7"])
    assert code == 0
    report = json.loads(out)
    M = parse_complex(report["extras"]["M"])
    assert M != 0
    assert format_complex(M) == report["extras"]["M"]
    detail = next(c["detail"] for c in report["checks"]
                  if c["name"] == "w2_translation_constant")
    assert f"M={report['extras']['M']} " in detail


def test_load_period_matrix(tmp_path):
    path = tmp_path / "Z.json"
    path.write_text(
        json.dumps(
            {"re": [[0.1, 0.05], [0.05, -0.2]], "im": [[1.0, 0.3], [0.3, 1.2]]}
        )
    )
    Z = load_period_matrix(str(path))
    assert Z.z11 == 0.1 + 1.0j
    assert Z.z12 == 0.05 + 0.3j
    assert Z.z22 == -0.2 + 1.2j


def test_load_period_matrix_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"re\": [[1]]}")
    with pytest.raises(cli.CLIInputError):
        load_period_matrix(str(path))
    with pytest.raises(cli.CLIInputError):
        load_period_matrix(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# verify-surface


def test_verify_surface_random(capsys):
    code, out, err = run(capsys, ["verify-surface", "--random", "--seed", "2"])
    assert code == 0
    d = json.loads(out)
    assert d["overall"] == "pass"
    names = [c["name"] for c in d["checks"]]
    assert names == [
        "oddness",
        "basis_parity",
        "two_torsion_scan",
        "w1_antiperiodicity",
        "w2_translation_constant",
        "w1_plus_w2_translation_constant",
        "lattice_automorphy",
        "minus_one_action",
    ]


def test_verify_surface_with_two_samples(capsys):
    code, out, _ = run(capsys, ["verify-surface", "--random", "--seed", "7", "--samples", "2"])
    assert code == 0
    assert json.loads(out)["overall"] == "pass"


def test_verify_surface_deterministic(capsys):
    code1, out1, _ = run(capsys, ["verify-surface", "--random", "--seed", "9"])
    code2, out2, _ = run(capsys, ["verify-surface", "--random", "--seed", "9"])
    assert code1 == code2 == 0
    assert json_body(out1) == json_body(out2)


def test_verify_surface_from_file(capsys, tmp_path):
    path = tmp_path / "Z.json"
    path.write_text(
        json.dumps(
            {"re": [[0.1, 0.05], [0.05, -0.2]], "im": [[1.0, 0.3], [0.3, 1.2]]}
        )
    )
    code, out, _ = run(capsys, ["verify-surface", "--period-matrix", str(path)])
    assert code == 0
    assert json.loads(out)["overall"] == "pass"


def test_verify_surface_rejects_nan_period_matrix(capsys, tmp_path):
    path = tmp_path / "Z.json"
    path.write_text(
        json.dumps(
            {"re": [[float("nan"), 0.05], [0.05, -0.2]], "im": [[1.0, 0.3], [0.3, 1.2]]}
        )
    )
    code, out, err = run(capsys, ["verify-surface", "--period-matrix", str(path)])
    assert code == 2
    assert out == ""
    assert "NotSiegel" in err


@pytest.mark.parametrize("seed", [23, 82, 106, 107, 135, 155, 158, 174])
def test_verify_surface_ill_conditioned_draw(capsys, seed):
    # draws with sample points at large Im v, where a least-squares fit of
    # the (-1)-action is ill-conditioned; the pointwise residual is not
    code, out, _ = run(capsys, ["verify-surface", "--random", "--seed", str(seed)])
    assert code == 0
    assert statuses(out)["minus_one_action"] == "pass"


def test_verify_surface_fails_a_wrong_translation_constant(capsys, monkeypatch):
    real = surface._translation_constant
    monkeypatch.setattr(surface, "_translation_constant", lambda Z: -real(Z))
    code, out, _ = run(capsys, ["verify-surface", "--random", "--seed", "7"])
    assert code == 1
    assert statuses(out)["w2_translation_constant"] == "fail"
    assert statuses(out)["w1_plus_w2_translation_constant"] == "fail"


def test_verify_surface_fails_a_wrong_negation_permutation(capsys, monkeypatch):
    # sigma = (0 2)(1)(3), swapping theta_0 and theta_2 and fixing theta_1
    # and theta_3: its trace is the true sigma's, so the dims are 3 and 1
    monkeypatch.setattr(surface, "NEGATION_PERMUTATION", np.eye(4)[[2, 1, 0, 3]])
    code, out, _ = run(capsys, ["verify-surface", "--random", "--seed", "7"])
    assert code == 1
    assert statuses(out)["minus_one_action"] == "fail"


def test_evaluator_calls_per_answer(capsys, monkeypatch):
    rows = []
    real_evaluate = theta._evaluate

    def counting_evaluate(chars, v, *args):
        rows.append(len(v))
        return real_evaluate(chars, v, *args)

    monkeypatch.setattr(theta, "_evaluate", counting_evaluate)
    assert run(capsys, ["verify-surface", "--random", "--seed", "7"])[0] == 0
    assert rows == [100, 50, 50, 16, 200, 243, 24]
    rows.clear()
    assert run(capsys, ["product-case", "--tau1=0.1+1.1i", "--tau2=-0.2+0.9i"])[0] == 0
    assert rows == [520, 16]


def test_verify_surface_failing_check_exits_1(capsys, monkeypatch):
    # hand the CLI a scan whose worst predicted zero reads above its bound
    real_scan = cli.two_torsion_scan

    def scan_over_bound(Z, settings):
        scan = real_scan(Z, settings)
        return dataclasses.replace(scan, worst_zero=2 * scan.bound)

    monkeypatch.setattr(cli, "two_torsion_scan", scan_over_bound)
    code, out, _ = run(capsys, ["verify-surface", "--random", "--seed", "2"])
    assert code == 1
    d = json.loads(out)
    assert d["overall"] == "fail"
    by_name = {c["name"]: c["status"] for c in d["checks"]}
    assert by_name["two_torsion_scan"] == "fail"


# ---------------------------------------------------------------------------
# product-case


def test_product_case(capsys):
    code, out, _ = run(
        capsys, ["product-case", "--tau1", "0.2+0.9i", "--tau2=-0.3+1.3i"]
    )
    assert code == 0
    d = json.loads(out)
    assert d["overall"] == "pass"
    assert {c["name"] for c in d["checks"]} == {
        "five_components_vanish",
        "negative_controls",
        "torsion_multiplicity_split",
        "four_copies_distinct",
    }


def test_product_case_rejects_non_siegel(capsys):
    code, _, err = run(capsys, ["product-case", "--tau1", "1-1i", "--tau2", "0+1i"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("tau1, tau2", [("0.1+5i", "0.2+0.9i"), ("0.1+1.1i", "0.2+8i"),
                                        ("0.1+3i", "0.2+3i")])
def test_product_case_with_a_large_imaginary_part(capsys, tau1, tau2):
    # raw values on and off the components grow with Im tau; weighted, each
    # reads against the derived bound
    code, out, _ = run(capsys, ["product-case", f"--tau1={tau1}", f"--tau2={tau2}"])
    assert code == 0
    assert set(statuses(out).values()) == {"pass"}


def test_product_case_fails_a_moved_component(capsys, monkeypatch):
    # v2 = 0 moved by a quarter of its period 4
    moved = (("v2=0", 1.0, 0.0),) + surface._HORIZONTALS[1:]
    monkeypatch.setattr(surface, "_HORIZONTALS", moved)
    code, out, _ = run(capsys, ["product-case", "--tau1=0.1+1.1i", "--tau2=-0.2+0.9i"])
    assert code == 1
    assert statuses(out)["five_components_vanish"] == "fail"


# ---------------------------------------------------------------------------
# klein


def test_klein_enumerate(capsys):
    code, out, _ = run(capsys, ["klein", "--genus", "2", "--enumerate"])
    assert code == 0
    d = json.loads(out)
    assert d["extras"]["total"] == 35
    assert d["extras"]["isotropic"] == 15
    assert d["extras"]["hyperelliptic"] == 20


def test_klein_classify(capsys):
    code, out, _ = run(capsys, ["klein", "--genus", "2", "--classify", "1,2", "1,3"])
    assert code == 0
    assert json.loads(out)["extras"]["verdict"] == "Hyperelliptic"
    code, out, _ = run(capsys, ["klein", "--genus", "2", "--classify", "1,2", "3,4"])
    assert code == 0
    assert json.loads(out)["extras"]["verdict"] == "NotHyperelliptic"


def test_klein_complement(capsys):
    code, out, _ = run(capsys, ["klein", "--genus", "2", "--complement", "1,2", "1,3"])
    assert code == 0
    d = json.loads(out)
    assert d["overall"] == "pass"


def test_klein_degenerate_input_exits_2(capsys):
    code, _, err = run(capsys, ["klein", "--genus", "2", "--classify", "1,2", "1,2"])
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# decompose / feasible-genera


def test_decompose(capsys):
    code, out, _ = run(capsys, ["decompose"])
    assert code == 0
    d = json.loads(out)
    assert d["overall"] == "pass"
    dims = [c for c in d["checks"] if c["name"] == "main_dims"]
    assert dims and dims[0]["detail"] == "dims=(2, 1, 1, 1)"


def test_feasible_genera(capsys):
    code, out, _ = run(capsys, ["feasible-genera", "--max", "12"])
    assert code == 0
    d = json.loads(out)
    feasible = [c for c in d["checks"] if c["name"] == "feasible_set"]
    assert feasible and feasible[0]["status"] == "pass"
    assert "2:(1,1) 3:(1,2) 4:(1,3) 5:(1,4)" in feasible[0]["detail"]


# ---------------------------------------------------------------------------
# trace-curve


def test_trace_curve_csv(capsys, tmp_path):
    out_path = tmp_path / "trace.csv"
    code, out, err = run(
        capsys,
        ["trace-curve", "--random", "--seed", "3", "--grid", "4", "--output", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "v1_re,v1_im,v2_re,v2_im,abs_theta,grad_norm"
    assert len(lines) > 50
    row = lines[1].split(",")
    assert len(row) == 6
    assert float(row[4]) < 1e-8
    assert "traced" in err


def test_trace_curve_stdout(capsys):
    code, out, err = run(capsys, ["trace-curve", "--random", "--seed", "3", "--grid", "3"])
    assert code == 0
    assert out.startswith("v1_re,")


def test_trace_curve_overflow_exits_2(capsys, tmp_path):
    # draw 52's Newton steps pass points whose raw theta sum is beyond double
    # range; the tracer reads weighted values, so it answers
    code, out, err = run(capsys, ["trace-curve", "--random", "--seed", "52", "--grid", "4"])
    assert code == 0
    assert out.startswith("v1_re,")
    # at Im Z = 1e300 I every point's Gaussian peak is beyond range
    path = tmp_path / "Z.json"
    path.write_text(json.dumps({"re": [[0.1, 0.05], [0.05, -0.2]],
                                "im": [[1e300, 0.0], [0.0, 1e300]]}))
    for argv in (["trace-curve", "--grid", "4"], ["verify-surface"]):
        code, out, err = run(capsys, [*argv, "--period-matrix", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: OverflowError: theta sum at v = (")
        assert "Traceback" not in err


def test_trace_curve_summary_counts_failure_kinds(capsys, monkeypatch):
    failures = [TraceFailure((0, 1), 5, "no Newton seed converged"),
                TraceFailure((1, 1), 4, "no Newton seed converged"),
                TraceFailure((2, 3), 0, MIRROR_DISAGREES)]
    monkeypatch.setattr(cli, "trace_curve",
                        lambda Z, settings, grid_size: TraceResult(grid_size, [], failures, 0))
    code, out, err = run(capsys, ["trace-curve", "--random", "--seed", "3", "--grid", "4"])
    assert code == 1  # no points found
    assert ("traced 0 points on a 4x4 grid; 2 lines without solutions; "
            "1 mirror points disagreeing with their source") in err


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_trace_curve_rejects_non_positive_grid(capsys, grid):
    code, out, err = run(capsys, ["trace-curve", "--random", "--seed", "3", "--grid", grid])
    assert code == 2
    assert out == ""
    assert "grid" in err


# ---------------------------------------------------------------------------
# common plumbing


def test_output_formats(capsys):
    code, out, _ = run(
        capsys, ["klein", "--genus", "2", "--enumerate", "--format", "md"]
    )
    assert code == 0 and out.lstrip().startswith("#")
    code, out, _ = run(
        capsys, ["klein", "--genus", "2", "--enumerate", "--format", "csv"]
    )
    assert code == 0 and "check,status" in out


def test_report_written_to_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        ["klein", "--genus", "2", "--enumerate", "--output", str(path)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["extras"]["total"] == 35


def test_tolerance_resolution(capsys, monkeypatch):
    monkeypatch.setenv("THETA_LAB_TOL", "1e-10")
    code, out, _ = run(capsys, ["klein", "--genus", "2", "--enumerate"])
    assert code == 0
    assert json.loads(out)["tol"] == 1e-10
    # an explicit flag wins over the environment
    code, out, _ = run(
        capsys, ["klein", "--genus", "2", "--enumerate", "--tol", "1e-9"]
    )
    assert json.loads(out)["tol"] == 1e-9


def test_bad_tolerance_exits_2(capsys):
    code, _, err = run(capsys, ["verify-surface", "--random", "--tol", "-1"])
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("tol", ["1e-300", "inf", "nan"])
def test_uncertifiable_tolerance_exits_2(capsys, monkeypatch, tol, source):
    # below double-precision rounding no truncated sum certifies the
    # tolerance; inf and nan certify nothing
    argv = ["verify-surface", "--random", "--seed", "7"]
    if source == "flag":
        argv += ["--tol", tol]
    else:
        monkeypatch.setenv("THETA_LAB_TOL", tol)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "tolerance" in err and "RadiusExceeded" not in err


def test_bad_env_tolerance_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("THETA_LAB_TOL", "not-a-number")
    code, _, err = run(capsys, ["klein", "--genus", "2", "--enumerate"])
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_parser_is_reused_without_leaking_state(capsys, monkeypatch):
    # one parser serves every call in a process; each report must be the
    # one the same call gives on a parser built for it alone
    def consecutive(*calls):
        """(code, report) of each (argv, THETA_LAB_TOL) call, in order."""
        parser = cli.build_parser()
        out = []
        for argv, env in calls:
            if env is None:
                monkeypatch.delenv("THETA_LAB_TOL", raising=False)
            else:
                monkeypatch.setenv("THETA_LAB_TOL", env)
            code, text, _ = run(capsys, argv)
            out.append((code, json_body(text)))
        assert cli.build_parser() is parser
        return out

    enumerate_g2 = ["klein", "--genus", "2", "--enumerate"]
    sequences = [
        [(enumerate_g2, None), (["klein", "--genus", "2", "--classify", "1,2", "1,3"], None)],
        [(enumerate_g2 + ["--tol", "1e-10"], None), (enumerate_g2, None)],
        [(enumerate_g2, "1e-9"), (enumerate_g2, "1e-11")],
    ]
    for calls in sequences:
        together = consecutive(*calls)
        for call, got in zip(calls, together):
            cli.build_parser.cache_clear()
            assert consecutive(call) == [got]
    assert [r["tol"] for _, r in consecutive(*sequences[1])] == [1e-10, cli.DEFAULT_TOL]
    assert [r["tol"] for _, r in consecutive(*sequences[2])] == [1e-9, 1e-11]
    assert [r["extras"].get("verdict") for _, r in consecutive(*sequences[0])] == [
        None, "Hyperelliptic"]
