import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import wml
import wml.quad
from wml.cli import main, parse_grid, parse_kernel, parse_model, parse_orders
from wml.models import Cauchy, Gaussian, KernelSpec, SymmetricStable


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


def test_successive_runs_do_not_share_tolerances(capsys):
    # one parser serves every main call in a process; each call's --tol
    # list is its own, so the first run's override does not reach the second
    import wml.cli

    assert wml.cli._build_parser() is wml.cli._build_parser()
    code, _, _ = run_cli(capsys, "run", "gaussian-tilted-cumulants", "--tol", "abs_kappa3=0")
    assert code == 1
    code, out, _ = run_cli(capsys, "run", "gaussian-tilted-cumulants", "--tol", "kappa1_rel_err=1")
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    assert doc["tolerances"]["kappa1_rel_err"] == 1.0 and doc["tolerances"]["abs_kappa3"] > 0.0


def test_run_unknown_tolerance_is_config_error(capsys):
    # a misspelt key used to be recorded and ignored, so the default held
    code, out, err = run_cli(capsys, "run", "cauchy-fisher", "--tol", "abs_eror=0")
    assert code == 2
    assert out == ""
    assert "abs_eror" in err and "abs_error" in err


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


def test_eval_is_one_adaptive_pass(capsys, monkeypatch):
    # the features come from the value rows of the Jacobian's own pass; a
    # Gaussian's and a Cauchy's come from their closed forms, with no pass
    calls = []
    adaptive = wml.quad._adaptive
    monkeypatch.setattr(wml.quad, "_adaptive", lambda *a: calls.append(1) or adaptive(*a))
    for model, kernel, passes in (("cauchy:mu=0.3", "1,0.2", 0), ("stable:alpha=1.5", "1", 1),
                                  ("lognormal", "0.8", 1), ("gaussian:mu=0.3,sigma=1.2", "1,0.2", 0)):
        calls.clear()
        code, out, _ = run_cli(capsys, "eval", "--model", model, "--kernel", kernel, "--orders", "0,1,2")
        assert code == 0 and len(calls) == passes
        assert all(np.isfinite(json.loads(out)["features"]["values"]))


def test_sweep_rank_counts_only_singular_values_above_their_error(capsys):
    # d/dmu w_0 of Cauchy(0) vanishes by symmetry, and its computed value
    # lies far below its error estimate: the model's information is
    # singular there, and kernel variation restores submersion
    code, out, _ = run_cli(capsys, "sweep", "--model", "cauchy:mu=0", "--orders", "0",
                           "--s", "0.5:4:2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["model_rank"], r["joint_rank"], r["enrichment"]) for r in rows] == [(0, 1, 1)] * 2


def test_eval_two_sample_is_config_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--model", "twosample:mu1=0,mu2=1")
    assert code == 2
    assert "model" in err


@pytest.mark.parametrize("argv, message", (
    (("--model", "stable:alpha=1.5", "--path", "density"),
     "symmetric stable with alpha=1.5 is characteristic-function-only"),
    (("--model", "lognormal", "--orders", "0", "--path", "charfn"),
     "LogNormal has no closed-form char fn; use the density route"),
))
def test_eval_route_without_its_function_names_what_is_missing(capsys, argv, message):
    code, out, err = run_cli(capsys, "eval", *argv)
    assert code == 2
    assert out == ""
    assert err == f"wml: error: {message}\n"


def test_eval_unconverged_quadrature_is_an_error(capsys, one_bisection):
    # a window 0.06 wide over a log-normal 0.15 wide in log x needs more
    # than one bisection
    code, out, err = run_cli(capsys, "eval", "--model", "lognormal:mu=0.3,sigma=0.15",
                             "--kernel", "0.06,0", "--orders", "0,1,2,3,4")
    assert code == 2
    assert out == ""
    assert err.startswith("wml: error:")


def test_eval_metric_tensor_overflow_is_an_error(capsys):
    # at order 200 the Jacobian entries are finite but their Gram matrix
    # overflows; the verdict read off G must not come out as null
    code, out, err = run_cli(capsys, "eval", "--model", "gaussian", "--orders", "0,200")
    assert code == 2
    assert out == ""
    assert err.startswith("wml: error:")


# the order scan: at order 150 G or det G overflows for the Gaussian, x^j
# overflows in the density rows from about 200, and the window transform
# Psi_j on the char-fn route from about 300
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("order", (60, 100, 150, 250, 400))
@pytest.mark.parametrize("model", ("gaussian", "cauchy", "lognormal", "stieltjes:a=0.3", "stable:alpha=1.5",
                                   "stable:alpha=1", "gaussian:mu=3,sigma=0.2"))
def test_eval_extreme_order_ends_without_a_warning(capsys, model, order):
    code, out, err = run_cli(capsys, "eval", "--model", model, "--orders", f"0,{order}")
    assert code in (0, 2)
    assert code == 0 or (out == "" and err.startswith("wml: error:"))


def test_eval_char_fn_order_beyond_overflow_fails_at_once():
    # from about order 300 the window transform Psi_j overflows; its
    # recurrence stops at the first non-finite term rather than rolling
    # on to j = 100000
    env = dict(os.environ, PYTHONPATH=str(Path(wml.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wml.cli", "eval", "--model", "stable:alpha=1.5",
                           "--orders", "0,100000"], capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("wml: error: integrand returned a non-finite value")


def test_eval_density_order_beyond_overflow_fails_at_once():
    # on the density route x^j overflows from about order 200 (Cauchy), and
    # the Gaussian w_j of its closed form from order 344: the running product
    # and the moment recurrence stop at their first non-finite term rather
    # than running on to j = 10^8, which would take minutes.  No integrand
    # runs for the Gaussian, whose error names the order instead of a node
    env = dict(os.environ, PYTHONPATH=str(Path(wml.__file__).parents[1]))
    for model, message in (("gaussian", "the closed-form Gaussian pairing is not finite at order 100000000; "
                                        "Gaussian(mu=0.0, sigma=1.0) with KernelSpec(s=1.0, c=0.0)\n"),
                           ("cauchy", "integrand returned a non-finite value")):
        proc = subprocess.run([sys.executable, "-m", "wml.cli", "eval", "--model", model,
                               "--orders", "0,100000000"], capture_output=True, text=True, env=env, timeout=30)
        assert proc.returncode == 2
        assert proc.stderr.startswith("wml: error: " + message), model


def test_eval_char_fn_non_finite_value_names_the_frequency(capsys):
    # Psi_300(u) overflows at a frequency u of the Parseval integral, not at a point x
    code, _, err = run_cli(capsys, "eval", "--model", "stable:alpha=1.5", "--orders", "0,300")
    assert code == 2
    assert "u=[" in err
    assert "x=[" not in err


def test_eval_hostile_char_fn_point_converges(capsys):
    # a window 25x narrower than the stable model, 4 model scales from its
    # centre, on the char-fn route: the divided window identities once
    # cancelled here, and the pass exhausted its budget on d/ds w_0
    code, out, _ = run_cli(capsys, "eval", "--model", "stable:alpha=1.5,mu=-0.476,sigma=1.812",
                           "--kernel", "0.0709,7.028")
    assert code == 0
    assert json.loads(out)


@pytest.mark.parametrize("alpha", (0.1, 1.0, 1.5, 1.99))
@pytest.mark.parametrize("sigma", (0.0501, 9.99))
@pytest.mark.parametrize("s", (0.0501, 999.0))
@pytest.mark.parametrize("c", (-9.99, 0.0))
def test_eval_char_fn_at_the_box_edges_ends_within_its_bound(capsys, alpha, sigma, s, c):
    # stable models and windows at the corners of their boxes, heavy tails
    # down to alpha = 0.1: each ends in a result or a named error, at once
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "--model", f"stable:alpha={alpha},sigma={sigma}",
                             "--kernel", f"{s},{c}", "--orders", "0,1,2,3,4", "--path", "charfn")
    assert time.perf_counter() - start < 2.0
    assert (code == 0 and json.loads(out)) or (code == 2 and err.startswith("wml: error:"))


def test_eval_narrow_window_far_from_a_wide_model_converges(capsys):
    # a window 100x narrower than the model, one model sigma from its
    # centre: the Jacobian pass once exhausted its budget here
    code, out, _ = run_cli(capsys, "eval", "--model", "gaussian:mu=-1.388,sigma=5.56",
                           "--kernel", "0.051,-6.754", "--orders", "0,1,2,3,4")
    assert code == 0
    assert json.loads(out)


def test_eval_jacobian_row_that_vanishes_by_symmetry_converges(capsys):
    # d/dmu w_12 of Cauchy(0) under a centred window is 0 (an odd score
    # times an even integrand): its target is rel_tol of its int |f|, so
    # rounding cannot keep it from converging
    code, out, _ = run_cli(capsys, "eval", "--model", "cauchy", "--kernel", "1",
                           "--orders", "0,12")
    assert code == 0
    assert json.loads(out)


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


@pytest.mark.parametrize("grids, count", [(("--s", "1:2:1000000000000"), 1000000000000),
                                          (("--s", "log1:2:100", "--c", "-1:1:40", "--grid", "mu=-2:2:30"), 120000)],
                         ids=["one-huge-axis", "product-of-modest-axes"])
def test_sweep_grid_over_its_bound_is_refused_before_it_is_built(capsys, monkeypatch, grids, count):
    # the grid's size comes from its axes' counts: no axis is built, and
    # the message names the count
    def build(*args, **kwargs):
        raise AssertionError("an axis was built")

    monkeypatch.setattr(np, "linspace", build)
    monkeypatch.setattr(np, "geomspace", build)
    code, out, err = run_cli(capsys, "sweep", "--model", "gaussian", "--orders", "0", *grids)
    assert (code, out) == (2, "")
    assert err.startswith("wml: error: sweep grid of") and f" {count} points" in err and "Traceback" not in err


def test_sweep_grid_bound_counts_every_axis(capsys, monkeypatch):
    import wml.cli

    monkeypatch.setattr(wml.cli, "_MAX_GRID_POINTS", 4)
    base = ("sweep", "--model", "gaussian", "--orders", "0", "--s", "1:2:2")
    assert run_cli(capsys, *base, "--c=-1:1:2")[0] == 0
    for extra, count in ((("--c=-1:1:3",), 6), (("--grid", "sigma=1:2:3"), 6), (("--c=-1:1:2", "--grid", "mu=0:1:2"), 8)):
        code, out, err = run_cli(capsys, *base, *extra)
        assert (code, out) == (2, "") and f" {count} points" in err, extra


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


def test_sweep_negative_centre_grid_parses_spaced_or_joined(capsys):
    # a grid after its flag that starts with '-' is a value, not a flag
    base = ("sweep", "--model", "gaussian", "--orders", "0,1,2", "--s", "1:2:2")
    docs = []
    for centre in (("--c", "-1:1:2"), ("--c=-1:1:2",)):
        code, out, err = run_cli(capsys, *base, *centre)
        assert code == 0, err
        docs.append(json.loads(out))
    assert docs[0] == docs[1]
    assert [(row["s"], row["c"]) for row in docs[0]["rows"]] == [(1.0, -1.0), (1.0, 1.0), (2.0, -1.0), (2.0, 1.0)]


@pytest.mark.parametrize("argv", [
    ("eval", "--model", "gaussian", "--kernel", "1,2,3"),
    ("eval", "--model", "gaussian", "--kernel", "x"),
    ("eval", "--model", "gaussian", "--kernel", "-1"),
    ("eval", "--model", "gaussian", "--orders", "0,a"),
    ("run", "thresholds", "--tol", "foo"),
    ("run", "thresholds", "--tol", "k=abc"),
    ("sweep", "--model", "cauchy", "--s", "1:2:2", "--grid", "zz=0:1:2"),
    ("eval", "--model", "gaussian:mu=abc"),
    ("sweep", "--model", "cauchy", "--s", "0:1:x"),
], ids=["kernel-three-fields", "kernel-word", "kernel-negative", "orders-word", "tol-no-value",
        "tol-word", "grid-unknown-parameter", "model-word", "grid-word"])
def test_hostile_flag_value_is_a_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("wml: error:") and "Traceback" not in err


def test_missing_and_unknown_commands_keep_their_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    usage = "usage: wml [-h] {list,run,eval,sweep} ...\n"
    assert run_cli(capsys) == (2, "", usage + "wml: error: the following arguments are required: command\n")
    code, out, err = run_cli(capsys, "bogus")
    assert (code, out) == (2, "") and err.startswith(usage + "wml: error: argument command: invalid choice: 'bogus'")
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "") and out.startswith(usage) and "{list,run,eval,sweep}" in out
    code, out, err = run_cli(capsys, "run")
    assert (code, out) == (2, "") and err.startswith("usage: wml run [-h]")
    assert err.endswith("wml run: error: the following arguments are required: experiment\n")
