"""CLI surface: commands, output formats, exit codes, determinism."""

import json

import pytest
from click.testing import CliRunner

from isotorus.cli import _SCAN_TARGETS, main

runner = CliRunner()


def test_eval_plain():
    result = runner.invoke(main, ["eval", "--z", "0.2"])
    assert result.exit_code == 0
    assert "iso(0.2)" in result.output
    assert "d iso/dz" in result.output


def test_eval_json():
    result = runner.invoke(main, ["eval", "--z", "0.1", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert 0.74 < payload["iso"]["value"] < 0.75
    assert payload["iso"]["bound"] <= 1e-9
    assert "derivative" in payload


def test_eval_out_of_domain_exits_2():
    result = runner.invoke(main, ["eval", "--z", "0.5"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["eval", "--z", "-0.1"])
    assert result.exit_code == 2


def test_eval_unachievable_target_exits_3():
    # a bound far below machine precision cannot be certified
    result = runner.invoke(main, ["eval", "--z", "0.2", "--target", "1e-30"])
    assert result.exit_code == 3


def test_eval_tiny_positive_target_exits_3():
    # a target whose share per series rounds to 0 is still the caller's
    # valid target: every result is flagged, none refused
    result = runner.invoke(main, ["eval", "--z", "0.1", "--target", "5e-324", "--json"])
    assert result.exit_code == 3
    payload = json.loads(result.output)
    for name in ("iso", "iso_squared", "derivative"):
        assert payload[name]["flag"] == "bound_not_achieved", name


def test_invert_round_trip():
    result = runner.invoke(main, ["invert", "--rho", "0.9"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["residual_bound"] <= 1e-8
    assert payload["flag"] is None


def test_eval_nonpositive_target_exits_2():
    for target in ("0", "-1e-10", "nan", "inf"):
        result = runner.invoke(main, ["eval", "--z", "0.2", "--target", target])
        assert result.exit_code == 2, target


def test_invert_iteration_cap_exits_3():
    result = runner.invoke(main, ["invert", "--rho", "0.9", "--tol", "1e-15", "--max-iterations", "3"])
    assert result.exit_code == 3
    assert json.loads(result.output)["flag"] == "max_iterations"


def test_invert_out_of_range_exits_2():
    result = runner.invoke(main, ["invert", "--rho", "1.2"])
    assert result.exit_code == 2


def test_invert_bad_tolerance_or_iteration_cap_exits_2():
    # these used to escape as a ValueError traceback with exit code 1, and
    # --tol inf returned an unflagged z after 0 iterations
    for args, option in ((["--tol", "0"], "tolerance"), (["--tol", "nan"], "tolerance"),
                         (["--tol", "-1"], "tolerance"), (["--tol", "inf"], "tolerance"),
                         (["--max-iterations", "0"], "--max-iterations"),
                         (["--max-iterations", "-5"], "--max-iterations")):
        result = runner.invoke(main, ["invert", "--rho", "0.9", *args])
        assert result.exit_code == 2, args
        assert option in result.output, args
        assert isinstance(result.exception, SystemExit), args


def test_coeffs_plain_golden_line():
    result = runner.invoke(main, ["coeffs", "--series", "abar", "--order", "5"])
    assert result.exit_code == 0
    assert result.output.strip() == "4, 52, 477, 3809, 451625/16, 3195333/16"


def test_coeffs_json():
    result = runner.invoke(main, ["coeffs", "--series", "vbar", "--order", "3", "--format", "json"])
    assert json.loads(result.output) == ["2", "48", "1269/2", "6600"]


def test_coeffs_csv():
    result = runner.invoke(main, ["coeffs", "--series", "f", "--order", "2", "--format", "csv"])
    lines = result.output.splitlines()
    assert lines[0] == "n,coefficient"
    assert lines[1] == "0,72"
    assert lines[2] == "1,1932"
    assert lines[3] == "2,31248"


def test_coeffs_negative_order_exits_2():
    result = runner.invoke(main, ["coeffs", "--series", "f", "--order", "-1"])
    assert result.exit_code == 2
    assert "--order" in result.output


def test_coeffs_deterministic():
    args = ["coeffs", "--series", "abar", "--order", "8", "--format", "json"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


def test_verify_small_order():
    result = runner.invoke(main, ["verify", "--order", "8"])
    assert result.exit_code == 0
    assert result.output.count("verified") == 11
    assert "failed" not in result.output


def test_verify_names_each_certificate():
    # the fourth column says what each "verified" rests on
    rows = [line.split() for line in runner.invoke(main, ["verify", "--order", "8"]).output.splitlines()]
    certificates = {row[0]: row[3] for row in rows}
    assert [name for name, c in certificates.items() if c == "all-parameters"] == [
        "lemma1", "cont1", "cont2", "euler_transform", "id_hyp", "remark1_derivative", "adjoint_form"]
    assert [name for name, c in certificates.items() if c == "degree-bound"] == ["id_war"]
    assert [certificates[n] for n in ("golden_coefficients", "ode_residuals", "f_positivity")] == [
        "exact", "through-order", "window"]


def test_verify_samples_below_one_exits_2():
    # the sample count follows from --order and is no option: below 2N+3 a
    # one-parameter "verified" proves nothing (at one sample, a = 0, four of
    # those checks compare 0 with 0)
    for count in ("0", "-3", "1", "5"):
        result = runner.invoke(main, ["verify", "--order", "8", "--samples", count])
        assert result.exit_code == 2, count
        assert "No such option '--samples'" in result.output
        assert "verified" not in result.output
    assert "--samples" not in runner.invoke(main, ["verify", "--help"]).output


def test_verify_negative_order_exits_2():
    result = runner.invoke(main, ["verify", "--order", "-1"])
    assert result.exit_code == 2
    assert "--order" in result.output
    assert isinstance(result.exception, SystemExit)


def test_verify_inject_fault_exits_1():
    result = runner.invoke(main, ["verify", "--order", "8", "--inject-fault"])
    assert result.exit_code == 1
    assert "failed" in result.output


def test_verify_inject_fault_below_order_4_exits_2():
    # the fault sits at z^3, which the ODE residual reaches only from order 4:
    # below that --inject-fault is refused instead of passing with the fault
    # in place (order 3) or failing on an index (order 2)
    for order in range(4):
        result = runner.invoke(main, ["verify", "--order", str(order), "--inject-fault"])
        assert result.exit_code == 2, order
        assert "--inject-fault needs --order 4" in result.output, order
    result = runner.invoke(main, ["verify", "--order", "4", "--inject-fault"])
    assert result.exit_code == 1
    assert "ode_residuals            failed" in result.output


def test_scan_mono_iso(tmp_path):
    csv_file = tmp_path / "scan.csv"
    result = runner.invoke(
        main, ["scan", "--target", "mono-iso", "--grid", "40", "--csv", str(csv_file)]
    )
    assert result.exit_code == 0
    summary = json.loads(result.output)
    assert summary["violations"] == 0
    text = csv_file.read_text()
    assert text.splitlines()[0] == "z,value,bound,verdict"
    assert len(text.splitlines()) == 41


def test_scan_mono_w_with_parameter():
    result = runner.invoke(main, ["scan", "--target", "mono-w", "--grid", "30", "--a", "3/2"])
    assert result.exit_code == 0
    assert json.loads(result.output)["name"] == "mono-w[3/2]"


def test_scan_nonconvex_iso_witnesses():
    result = runner.invoke(main, ["scan", "--target", "nonconvex-iso", "--grid", "120"])
    assert result.exit_code == 0
    summary = json.loads(result.output)
    assert summary["sign_change_detected"] is True
    assert len(summary["witnesses"]) == 2


@pytest.mark.parametrize("target", _SCAN_TARGETS)
def test_scan_report_named_by_its_target(target):
    result = runner.invoke(main, ["scan", "--target", target, "--grid", "12"])
    assert json.loads(result.output)["name"].startswith(target)


def test_scan_mono_w_outside_class_exits_2():
    result = runner.invoke(main, ["scan", "--target", "mono-w", "--grid", "10", "--a", "-1"])
    assert result.exit_code == 2
    assert "a > -1/2" in result.output
    assert isinstance(result.exception, SystemExit)


def test_scan_mono_w_bad_rational_exits_2():
    for text, message in (("1/0", "zero denominator"), ("1/2/3", "p/q"), ("half", "p/q")):
        result = runner.invoke(main, ["scan", "--target", "mono-w", "--grid", "10", "--a", text])
        assert result.exit_code == 2, text
        assert message in result.output, text
        assert isinstance(result.exception, SystemExit), text


def test_eval_near_endpoint_reports_derivative():
    result = runner.invoke(main, ["eval", "--z", "0.41", "--json"])
    assert result.exit_code == 0
    assert "flag" not in json.loads(result.output)["derivative"]


def test_eval_derivative_over_target_exits_3():
    result = runner.invoke(main, ["eval", "--z", "0.3", "--target", "1e-13", "--json"])
    # the derivative's rounding floor at z = 0.3 lies above 1e-13
    derivative = json.loads(result.output)["derivative"]
    assert derivative["bound"] > 1e-13
    assert derivative["flag"] == "bound_not_achieved"
    assert result.exit_code == 3


def test_scan_bad_target_exits_2():
    result = runner.invoke(main, ["scan", "--target", "bogus"])
    assert result.exit_code == 2


def test_timestamp_flag():
    result = runner.invoke(main, ["--timestamp", "coeffs", "--series", "f", "--order", "0"])
    assert result.output.startswith("# ")
    assert result.output.strip().endswith("72")
