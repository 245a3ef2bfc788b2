"""CLI surface: commands, output formats, exit codes, determinism."""

import json

from click.testing import CliRunner

from isotorus.cli import main

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


def test_coeffs_deterministic():
    args = ["coeffs", "--series", "abar", "--order", "8", "--format", "json"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


def test_verify_small_order():
    result = runner.invoke(main, ["verify", "--order", "8", "--samples", "5"])
    assert result.exit_code == 0
    assert result.output.count("verified") == 11
    assert "failed" not in result.output


def test_verify_samples_below_one_exits_2(time_limit):
    time_limit(5.0)  # --samples 0 used to hang
    for count in ("0", "-3"):
        result = runner.invoke(main, ["verify", "--order", "4", "--samples", count])
        assert result.exit_code == 2, count
        assert "--samples" in result.output


def test_verify_inject_fault_exits_1():
    result = runner.invoke(
        main, ["verify", "--order", "8", "--samples", "5", "--inject-fault"]
    )
    assert result.exit_code == 1
    assert "failed" in result.output


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


def test_scan_bad_target_exits_2():
    result = runner.invoke(main, ["scan", "--target", "bogus"])
    assert result.exit_code == 2


def test_timestamp_flag():
    result = runner.invoke(main, ["--timestamp", "coeffs", "--series", "f", "--order", "0"])
    assert result.output.startswith("# ")
    assert result.output.strip().endswith("72")
