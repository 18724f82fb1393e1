import csv
import io
import json

import pytest

from wml.cli import main, parse_grid, parse_kernel, parse_model, parse_orders, render_model
from wml.models import Cauchy, Gaussian, KernelSpec, StieltjesLogNormal, SymmetricStable


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_model_grammar():
    assert parse_model("gaussian:mu=0,sigma=1") == Gaussian(0.0, 1.0)
    assert parse_model("cauchy:mu=0.5") == Cauchy(0.5)
    assert parse_model("stable:alpha=1.5,mu=0,sigma=1") == SymmetricStable(1.5, 0.0, 1.0)
    assert parse_model("cauchy") == Cauchy(0.0)
    from wml.cli import ConfigError
    with pytest.raises(ConfigError):
        parse_model("weibull:k=2")
    with pytest.raises(ConfigError):
        parse_model("gaussian:nu=3")
    with pytest.raises(ConfigError):
        parse_model("gaussian:sigma=-1")


def test_model_text_round_trips_losslessly():
    for text in ("gaussian:mu=0.25,sigma=1.5", "cauchy:mu=-0.5",
                 "stable:alpha=1.5,mu=0,sigma=1", "stieltjes:a=0.75",
                 "lognormal:mu=0.1,sigma=0.9"):
        model = parse_model(text)
        assert parse_model(render_model(model)) == model
    assert parse_model(render_model(StieltjesLogNormal(-1.0))) == StieltjesLogNormal(-1.0)


def test_parse_grid_grammar():
    lin = parse_grid("1:5:5")
    assert lin.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    geo = parse_grid("log1:100:3")
    assert geo.tolist() == pytest.approx([1.0, 10.0, 100.0])
    from wml.cli import ConfigError
    with pytest.raises(ConfigError):
        parse_grid("1:5")
    with pytest.raises(ConfigError):
        parse_grid("log-1:5:3")


def test_parse_kernel_and_orders():
    assert parse_kernel("2") == KernelSpec(2.0, 0.0)
    assert parse_kernel("2,0.5") == KernelSpec(2.0, 0.5)
    assert parse_orders("0,1,2") == (0, 1, 2)


def test_list_command(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    names = out.strip().splitlines()
    assert "stieltjes-cancellation" in names
    assert len(names) == 12


def test_run_json_success(capsys):
    code, out, _ = run_cli(capsys, "run", "thresholds", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "thresholds"
    assert doc["pass"] is True
    assert doc["metrics"]["self_intersection_codim"] == 8


def test_run_failure_exit_code(capsys):
    code, out, err = run_cli(capsys, "run", "cauchy-fisher", "--tol", "abs_error=0")
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "abs_error" in err


def test_run_failure_names_only_the_failing_checks(capsys):
    code, out, err = run_cli(capsys, "run", "gaussian-tilted-cumulants", "--tol", "abs_kappa3=0")
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "abs_kappa3" in err
    assert "kappa1_rel_err" not in err


def test_run_unknown_experiment(capsys):
    code, _, err = run_cli(capsys, "run", "no-such-name")
    assert code == 2
    assert "no-such-name" in err


def test_bogus_flag_exits_two(capsys):
    code, _, err = run_cli(capsys, "run", "--bogus")
    assert code == 2
    assert "usage" in err.lower()
    # with the positional present the offending flag is named
    code, _, err = run_cli(capsys, "run", "thresholds", "--bogus")
    assert code == 2
    assert "--bogus" in err


def test_run_csv_and_json_values_identical(capsys):
    code, json_out, _ = run_cli(capsys, "run", "thresholds", "--format", "json")
    assert code == 0
    code, csv_out, _ = run_cli(capsys, "run", "thresholds", "--format", "csv")
    assert code == 0
    doc = json.loads(json_out)
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert {row["metric"] for row in rows} == set(doc["metrics"])
    for row in rows:
        assert float(row["value"]) == doc["metrics"][row["metric"]]


def test_eval_document(capsys):
    code, out, _ = run_cli(capsys, "eval", "--model", "gaussian:mu=0,sigma=1",
                           "--kernel", "1", "--orders", "0,1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["orders"] == [0, 1, 2]
    assert len(doc["features"]["values"]) == 3
    assert doc["transversality"]["joint_rank"] == doc["joint_rank_report"]["rank"]
    assert len(doc["metric_tensor"]["matrix"]) == 2


def test_eval_two_sample_is_config_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--model", "twosample:mu1=0,mu2=1")
    assert code == 2
    assert "model" in err


def test_eval_unconverged_quadrature_is_an_error(capsys):
    # an in-box point whose Jacobian pass misses the default target within
    # the default subdivision budget
    code, out, err = run_cli(capsys, "eval", "--model", "gaussian:mu=-1.388,sigma=5.56",
                             "--kernel", "0.051,-6.754", "--orders", "0,1,2,3,4")
    assert code == 2
    assert out == ""
    assert err.startswith("wml: error:")


def test_eval_csv_flattening(capsys):
    code, out, _ = run_cli(capsys, "eval", "--model", "cauchy:mu=0",
                           "--kernel", "1", "--orders", "0", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    keys = {row["key"] for row in rows}
    assert "features.values.0" in keys
    assert "transversality.submersive" in keys


def test_sweep_csv_contract(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--model", "gaussian:mu=0,sigma=1",
                         "--orders", "0,1,2", "--s", "1:100:12",
                         "--format", "csv", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 13  # header + 12 rows
    header = lines[0].split(",")
    assert header[0] == "s"
    rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
    assert [float(r["s"]) for r in rows] == pytest.approx(list(parse_grid("1:100:12")))


def test_sweep_json_matches_csv_values(capsys):
    args = ("sweep", "--model", "cauchy:mu=0", "--orders", "0",
            "--s", "log1:10:3", "--grid", "mu=-1:1:2")
    code, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    code, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    doc_rows = json.loads(json_out)["rows"]
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(doc_rows) == len(csv_rows) == 6
    for jrow, crow in zip(doc_rows, csv_rows):
        for key in ("s", "mu", "det_g", "condition_number"):
            assert float(crow[key]) == jrow[key], key


def test_sweep_empty_grid_is_config_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--model", "cauchy:mu=0",
                           "--orders", "0", "--s", "1:5:0")
    assert code == 2
    assert "grid" in err


def test_output_schema_is_stable_across_runs(capsys):
    code, first, _ = run_cli(capsys, "run", "thresholds")
    code2, second, _ = run_cli(capsys, "run", "thresholds")
    assert code == code2 == 0
    a, b = json.loads(first), json.loads(second)
    assert list(a) == list(b)
    assert list(a["metrics"]) == list(b["metrics"])
    assert a["metrics"] == b["metrics"]
    code, csv1, _ = run_cli(capsys, "run", "thresholds", "--format", "csv")
    code2, csv2, _ = run_cli(capsys, "run", "thresholds", "--format", "csv")
    assert csv1.splitlines()[0] == csv2.splitlines()[0]


def test_numeric_fields_have_seventeen_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "run", "behrens-fisher-w0", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    spread = next(r for r in rows if r["metric"] == "spread_s1")
    # the closed-form value 0.2052367647937096825... needs 17 digits to
    # round-trip; cut to 12 it would read 0.205236764794
    assert float(spread["value"]) != 0.205236764794
    assert abs(float(spread["value"]) - 0.205236764794) < 1e-12
