"""Experiment runner: catalog, config validation, outputs, determinism."""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlab
from chainlab import cli
from chainlab.cli import main
from chainlab.errors import InvalidOverride, UnknownExperiment
from chainlab.experiments import (
    CATALOG,
    _close,
    list_experiments,
    resolve_params,
    run_experiment,
)

EXPECTED_IDS = {
    "naive_tree", "dpi_random_chains", "crb_gaussian_mean", "crb_laplace_rate",
    "bayes_ordering_audit", "pe_separability_identity", "double_meaning_mse",
    "double_meaning_l1", "resolution_shift", "mixed_vs_targeted",
    "sparse_noiseless_recovery", "sparse_certificate_sweep", "lambda_pipeline",
    "pr_gap", "rao_blackwell_demo", "entropy_error_bound",
}


def write_config(path, exp_id, seed=None, params=None):
    lines = ["[experiment]", f"id = {exp_id}"]
    if seed is not None:
        lines.append(f"seed = {seed}")
    if params:
        lines.append("")
        lines.append("[params]")
        lines.extend(f"{k} = {v}" for k, v in params.items())
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestCatalog:
    def test_contains_the_named_suites(self):
        ids = {e[0] for e in list_experiments()}
        assert EXPECTED_IDS <= ids
        assert len(ids) >= 16

    def test_every_entry_names_a_resolvable_operation(self):
        for exp_id, description, operation in list_experiments():
            assert description
            module, _, name = operation.rpartition(".")
            assert callable(getattr(importlib.import_module(f"chainlab.{module}"), name)), exp_id

    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperiment):
            resolve_params("not_a_thing")

    def test_unknown_override_names_the_key(self):
        with pytest.raises(InvalidOverride, match="bogus"):
            resolve_params("crb_gaussian_mean", {"bogus": 1})

    def test_out_of_range_override_cites_invariant(self):
        with pytest.raises(InvalidOverride, match="sigma_x > 0"):
            resolve_params("crb_gaussian_mean", {"sigma_x": "-2"})

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_float_rejected(self, raw):
        with pytest.raises(InvalidOverride, match="finite"):
            resolve_params("crb_gaussian_mean", {"sigma_x": raw})


class TestRunExperiment:
    def test_naive_tree_report_values(self):
        report, tables, plotdata = run_experiment("naive_tree", seed=0)
        res = report["results"]
        assert abs(res["joint_x1_y_ambiguous"]["value"] - 0.1067) <= 5e-4
        assert abs(res["joint_x4_y_ambiguous"]["value"] - 0.0667) <= 5e-4
        assert abs(res["posterior_class1_given_y"]["value"] - 0.6157) <= 5e-4
        assert report["verdicts"]["map_and_ml_disagree"]
        assert report["all_passed"]
        assert "posterior_sources_given_ambiguous_y" in tables

    def test_results_carry_provenance(self):
        report, _, _ = run_experiment("crb_attainment", seed=0,
                                      overrides={"replicates": 500})
        mc = report["results"]["mse_measurement_estimator"]
        assert mc["provenance"] == "monte-carlo"
        assert mc["n"] == 500 and mc["stderr"] > 0
        exact = report["results"]["target_variance"]
        assert exact["provenance"] == "exact"

    def test_report_json_serializable(self):
        report, _, _ = run_experiment("pe_separability_identity", seed=0,
                                      overrides={"n_chains": 50})
        json.dumps(report)


class TestCliCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPECTED_IDS:
            assert exp_id in out

    def test_validate_good_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "ok.cfg", "naive_tree", seed=3)
        assert main(["validate", cfg]) == 0

    def test_validate_defaults_missing_seed_with_warning(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "noseed.cfg", "naive_tree")
        assert main(["validate", cfg]) == 0
        assert "seed" in capsys.readouterr().out

    def test_validate_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", "crb_gaussian_mean",
                           params={"nonsense": 1})
        assert main(["validate", cfg]) == 2
        assert "nonsense" in capsys.readouterr().err

    def test_validate_out_of_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "neg.cfg", "crb_gaussian_mean",
                           params={"sigma_x": -1})
        assert main(["validate", cfg]) == 2
        assert "sigma_x" in capsys.readouterr().err

    def test_validate_unknown_id(self, tmp_path):
        cfg = write_config(tmp_path / "who.cfg", "who_knows")
        assert main(["validate", cfg]) == 2

    def test_run_lists_config_errors_as_validate_does(self, tmp_path, capsys):
        """A config with an unknown [experiment] key and an out-of-range
        parameter: run reports both errors and exits as validate does."""
        cfg = tmp_path / "two.cfg"
        cfg.write_text("[experiment]\nid = crb_gaussian_mean\nseed = 0\nflavour = 1\n"
                       "\n[params]\nm = 0\n")
        seen = []
        for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(tmp_path / "out")]):
            code = main(argv)
            seen.append((code, capsys.readouterr().err))
        assert seen[0] == seen[1]
        code, err = seen[0]
        assert code == 2 and "flavour" in err and "parameter 'm'" in err
        assert not (tmp_path / "out").exists()

    def test_run_writes_outputs_and_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path / "tree.cfg", "naive_tree", seed=1)
        out = tmp_path / "runs"
        assert main(["run", cfg, "--out", str(out)]) == 0
        target = out / "naive_tree"
        assert (target / "report.json").exists()
        assert list((target / "tables").glob("*.csv"))
        assert list((target / "plotdata").glob("*.csv"))
        doc = json.loads((target / "report.json").read_text())
        assert doc["seed"] == 1 and doc["all_passed"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "gm.cfg", "crb_gaussian_mean", seed=7)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out_a)]) == 0
        assert main(["run", cfg, "--out", str(out_b)]) == 0
        ra = (out_a / "crb_gaussian_mean" / "report.json").read_bytes()
        rb = (out_b / "crb_gaussian_mean" / "report.json").read_bytes()
        assert ra == rb

    def test_seed_and_set_overrides_land_in_report(self, tmp_path):
        cfg = write_config(tmp_path / "gm.cfg", "crb_gaussian_mean", seed=0)
        out = tmp_path / "runs"
        rc = main(["run", cfg, "--out", str(out), "--seed", "9",
                   "--set", "m=5", "--set", "sigma_x=2.0"])
        assert rc == 0
        doc = json.loads((out / "crb_gaussian_mean" / "report.json").read_text())
        assert doc["seed"] == 9
        assert doc["params"]["m"] == 5
        assert doc["results"]["crb"]["value"] == pytest.approx(4.0 / 5)

    def test_set_overrides_do_not_leak_into_the_next_call(self, tmp_path):
        """main parses with one parser built at import; the append action's
        default list must not carry one call's --set items into the next call."""
        cfg = write_config(tmp_path / "gm.cfg", "crb_gaussian_mean", seed=0)
        schema = CATALOG["crb_gaussian_mean"].schema
        calls = {"a": ["--set", "m=5"], "b": [], "c": ["--set", "sigma_x=2.0"]}
        docs = {}
        for name, extra in calls.items():
            assert main(["run", cfg, "--out", str(tmp_path / name)] + extra) == 0
            docs[name] = json.loads((tmp_path / name / "crb_gaussian_mean" / "report.json")
                                    .read_text())["params"]
        assert schema["m"].default != 5 and schema["sigma_x"].default != 2.0
        assert docs["a"]["m"] == 5 and docs["a"]["sigma_x"] == schema["sigma_x"].default
        assert docs["b"] == dict(docs["a"], m=schema["m"].default)
        assert docs["c"] == dict(docs["b"], sigma_x=2.0)
        assert cli._PARSER.parse_args(["run", cfg]).set == []

    def test_csv_uses_17_significant_digits(self, tmp_path):
        cfg = write_config(tmp_path / "tree.cfg", "naive_tree", seed=0)
        out = tmp_path / "runs"
        main(["run", cfg, "--out", str(out)])
        csv_path = out / "naive_tree" / "tables" / "posterior_sources_given_ambiguous_y.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "source,probability"
        value = lines[2].split(",")[1]
        assert float(value) == float(format(float(value), ".17g"))
        assert len(value.replace("0.", "")) >= 15  # long decimal expansion kept

    def test_failing_verdict_exits_one(self, tmp_path, monkeypatch):
        """A run with a false verdict completes, writes its report, and
        signals failure through the exit code. The verdict is made false by
        a wrapped runner: blur levels 1 and 1.05 barely differ, yet as
        distinct domains they pay a small positive gap, which passes."""
        real = CATALOG["mixed_vs_targeted"].runner

        def failing(params, seed):
            results, verdicts, tables, plotdata = real(params, seed)
            assert verdicts["mixed_blur_training_pays_per_domain"]
            verdicts["mixed_blur_training_pays_per_domain"] = False
            return results, verdicts, tables, plotdata

        monkeypatch.setitem(CATALOG, "mixed_vs_targeted",
                            dataclasses.replace(CATALOG["mixed_vs_targeted"], runner=failing))
        cfg = write_config(tmp_path / "close.cfg", "mixed_vs_targeted", seed=0,
                           params={"sigma2": 1.05})
        out = tmp_path / "runs"
        assert main(["run", cfg, "--out", str(out)]) == 1
        doc = json.loads((out / "mixed_vs_targeted" / "report.json").read_text())
        assert 0.0 < min(doc["results"]["blur_gaps"]["value"])
        assert doc["results"]["blur_gap_margin"]["value"] > 0.0
        assert not doc["verdicts"]["mixed_blur_training_pays_per_domain"]
        assert not doc["all_passed"]

    def test_env_var_output_root(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "tree.cfg", "naive_tree", seed=0)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CHAINLAB_OUT", str(tmp_path / "envroot"))
        assert main(["run", cfg]) == 0
        assert (tmp_path / "envroot" / "naive_tree" / "report.json").exists()

    def test_crash_exits_three_with_one_error_line(self, tmp_path, monkeypatch, capsys):
        """An exception that is not a package error is a defect, reported
        apart from a failed verdict (exit 1) and a config error (exit 2)."""
        def boom(params, seed):
            raise RuntimeError("kaput")

        monkeypatch.setitem(CATALOG, "naive_tree",
                            dataclasses.replace(CATALOG["naive_tree"], runner=boom))
        cfg = write_config(tmp_path / "tree.cfg", "naive_tree", seed=0)
        assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "kaput" in err[0]
        assert not (tmp_path / "runs" / "naive_tree").exists()

    def test_non_finite_result_exits_three(self, tmp_path, monkeypatch, capsys):
        """report.json is JSON: a runner returning NaN is a defect, reported
        on one error line, and nothing is written."""
        real = CATALOG["naive_tree"].runner

        def runner(params, seed):
            results, verdicts, tables, plotdata = real(params, seed)
            results["pe_x"]["value"] = float("nan")
            return results, verdicts, tables, plotdata

        monkeypatch.setitem(CATALOG, "naive_tree",
                            dataclasses.replace(CATALOG["naive_tree"], runner=runner))
        cfg = write_config(tmp_path / "nan.cfg", "naive_tree", seed=0)
        assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "not JSON compliant: nan" in err[0]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("cell", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("sheet", ["tables", "plotdata"])
    def test_non_finite_csv_cell_exits_three(self, tmp_path, monkeypatch, capsys, sheet, cell):
        """A CSV cell is a reported number too: a runner that puts a
        non-finite one into a table or plot is a defect, and nothing is written."""
        real = CATALOG["naive_tree"].runner

        def runner(params, seed):
            results, verdicts, tables, plotdata = real(params, seed)
            sheets = {"tables": tables, "plotdata": plotdata}[sheet]
            name, (header, rows) = next(iter(sheets.items()))
            sheets[name] = (header, [[rows[0][0], cell]] + rows[1:])
            return results, verdicts, tables, plotdata

        monkeypatch.setitem(CATALOG, "naive_tree",
                            dataclasses.replace(CATALOG["naive_tree"], runner=runner))
        cfg = write_config(tmp_path / "nan.cfg", "naive_tree", seed=0)
        assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "not finite" in err[0]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("text,message", [
        ("[experiment]\nid = naive_tree\n[extra]\nk = 1\n", "[extra]: unknown section"),
        ("[params]\nm = 10\n", "[experiment]: section missing"),
        ("[experiment]\nseed = 1\n", "[experiment] id: required"),
        ("[experiment]\nid = naive_tree\nseed = -3\n", "unsigned 64-bit"),
        ("id = naive_tree\n", "no section headers"),
    ], ids=["unknown_section", "no_experiment_section", "no_id", "negative_seed",
            "not_ini"])
    def test_malformed_config_exits_two(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["validate", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert main(["run", str(cfg), "--out", str(tmp_path / "runs")]) == 2
        assert not (tmp_path / "runs").exists()

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.cfg")]) == 2
        assert "absent.cfg" in capsys.readouterr().err

    def test_set_without_equals_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "tree.cfg", "naive_tree", seed=0)
        assert main(["run", cfg, "--out", str(tmp_path / "runs"), "--set", "m"]) == 2
        assert "expected key=value" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_seed_flag_checked_like_config_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "tree.cfg", "naive_tree", seed=0)
        assert main(["run", cfg, "--out", str(tmp_path / "runs"), "--seed", "-5"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert main(["run", cfg, "--out", str(tmp_path / "runs"),
                     "--seed", str(2**64)]) == 2


class TestParameterContract:
    """``validate`` must reject exactly the configs ``run`` rejects."""

    @pytest.mark.parametrize("exp_id,params", [
        ("resolution_shift", {"sigma2": 0.5}),
        ("resolution_shift", {"sigma1": "inf"}),
        ("resolution_shift", {"n": 48, "sigma2": 3.0}),
        ("resolution_shift", {"sigma1": "1e-200"}),
        ("mixed_vs_targeted", {"sigma1": "nan"}),
        ("mixed_vs_targeted", {"sigma1": 2.0, "sigma2": 2.0}),
        ("mixed_vs_targeted", {"n": 17}),
        ("mixed_vs_targeted", {"n": 10**6}),
        ("mixed_vs_targeted", {"sigma2": 1.01}),
        ("mixed_vs_targeted", {"n": 1024}),
        ("mixed_vs_targeted", {"n": 256}),
        ("mixed_vs_targeted", {"offset_dim": 255}),
        ("resolution_shift", {"n": 10**6}),
        ("crb_gaussian_mean", {"sigma_x": "5e-324"}),
        ("crb_gaussian_mean", {"theta": "1e300"}),
        ("crb_laplace_rate", {"rate": "1e300"}),
        ("crb_laplace_rate", {"rate": "1e-300"}),
        ("entropy_error_bound", {"sigma": "1e-300"}),
        ("sparse_noiseless_recovery", {"fs": "1e300"}),
        ("sparse_noiseless_recovery", {"sigma": "5e-324"}),
        ("sparse_noiseless_recovery", {"n": 10**6}),
        ("crb_gaussian_mean", {"m": str(10**400)}),
        ("lambda_pipeline", {"replicates": 10**6}),
        ("lambda_pipeline", {"rate": "1e-300"}),
        ("lambda_pipeline", {"sigma_n": "1e-300"}),
        ("sparse_certificate_sweep", {"n": 16}),
        ("sparse_certificate_sweep", {"n": 1024}),
        ("sparse_certificate_sweep", {"draws": 10_001}),
        ("sparse_certificate_sweep", {"n": 10**6}),
        ("bayes_ordering_audit", {"n_chains": 11_185}),
        ("crb_attainment", {"replicates": 2**22 + 1}),
        ("crb_attainment", {"m": 2049}),
        ("crb_attainment", {"sigma_x": "1e-300"}),
        ("crb_attainment", {"theta": "1e300"}),
        ("lambda_pipeline", {"m": 2}),
        ("double_meaning_mse", {"batch": 2**19, "dim": 8}),
        ("double_meaning_l1", {"dim": 2048}),
    ])
    def test_cross_parameter_and_non_finite_rejected(self, tmp_path, exp_id, params):
        cfg = write_config(tmp_path / "bad.cfg", exp_id, seed=0, params=params)
        assert main(["validate", cfg]) == 2
        assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 2
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("params,code", [
        ({"n": 30_000, "m": 3, "replicates": 2}, 2),
        ({"n": 65, "m": 3, "replicates": 2}, 2),
        ({"n": 64, "m": 3, "replicates": 2}, 0),
        ({"n": 24, "m": 3, "replicates": 2**22 // 3}, 0),
        ({"n": 24, "m": 3, "replicates": 2**22 // 3 + 1}, 2),
        ({"n": 64, "m": 2**16, "replicates": 2}, 0),
        ({"n": 64, "m": 2**16 + 1, "replicates": 2}, 2),
    ])
    def test_lambda_pipeline_bounds_what_its_run_stacks(self, tmp_path, params, code):
        """validate bounds the kernel and the solver's stacked n x n
        active-set matrices (n <= 64), a chunk of measurements (n m <= 2^22)
        and the arrays of one entry per column (replicates m <= 2^22). These
        configs are only validated: a run at n = 30 000 would build n x n
        arrays of 7.2 GB."""
        cfg = write_config(tmp_path / "pipeline.cfg", "lambda_pipeline", seed=0, params=params)
        assert main(["validate", cfg]) == code

    @pytest.mark.parametrize("exp_id", ["double_meaning_mse", "double_meaning_l1"])
    @pytest.mark.parametrize("batch,code", [(8, 2), (9, 0)])
    def test_fit_needs_more_rows_than_dim(self, tmp_path, capsys, exp_id, batch, code):
        """[W | bias] has dim + 1 unknowns per output, so an affine fit to
        batch <= dim rows is not unique."""
        cfg = write_config(tmp_path / "rows.cfg", exp_id, seed=0, params={"dim": 8, "batch": batch})
        assert main(["validate", cfg]) == code
        assert ("batch > dim = 8" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("exp_id,name", [
        ("double_meaning_mse", "lr"),
        ("double_meaning_mse", "epochs"),
        ("double_meaning_l1", "lr"),
        ("double_meaning_l1", "train_tol"),
        ("double_meaning_l1", "epochs"),
        ("naive_tree", "value_tol"),
        ("mixed_vs_targeted", "gap_margin"),
    ])
    def test_removed_parameters_rejected(self, tmp_path, capsys, exp_id, name):
        """The double-meaning fits are exact, with no step, epoch count or
        stopping tolerance, and a verdict's pass mark is not a parameter: a
        config setting any of them is a config error."""
        cfg = write_config(tmp_path / "old.cfg", exp_id, seed=0, params={name: 0.5})
        assert main(["validate", cfg]) == 2
        assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"unknown parameter(s) for {exp_id}: [{name!r}]") == 2
        assert not (tmp_path / "runs").exists()

    @staticmethod
    def _kernel_spy(monkeypatch):
        def spy(*args, **kwargs):
            raise MemoryError("kernel_matrix called")
        monkeypatch.setattr("chainlab.experiments.kernel_matrix", spy)

    @pytest.mark.parametrize("exp_id", ["sparse_noiseless_recovery", "sparse_certificate_sweep"])
    def test_size_checked_before_the_kernel_is_built(self, tmp_path, monkeypatch, exp_id):
        """An n x n kernel at n = 10**6 would be 8 TB: the bound on n must
        reject it before any constructor allocates."""
        self._kernel_spy(monkeypatch)
        cfg = write_config(tmp_path / "big.cfg", exp_id, seed=0, params={"n": 10**6})
        assert main(["validate", cfg]) == 2
        assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 2

    @pytest.mark.parametrize("exp_id", ["sparse_noiseless_recovery", "sparse_certificate_sweep"])
    def test_validate_builds_no_kernel(self, tmp_path, monkeypatch, exp_id):
        """The size contract n >= 8 sigma fs is arithmetic: validate checks it
        without building the n x n kernel, and still rejects a short n."""
        self._kernel_spy(monkeypatch)
        cfg = write_config(tmp_path / "ok.cfg", exp_id, seed=0)
        assert main(["validate", cfg]) == 0
        short = write_config(tmp_path / "short.cfg", exp_id, seed=0, params={"n": 16, "fs": 4})
        assert main(["validate", short]) == 2

    @pytest.mark.parametrize("params,reason", [
        ({"n": 1024}, "n <= 512 (a draw's simplex keeps an (n + 1) x (n + 2) basis inverse)"),
        ({"n": 512, "draws": 10_000}, "n * draws <= 4194304 (32 MiB for the stacked draws)"),
    ], ids=["n", "n_times_draws"])
    def test_sweep_size_limits_name_their_reason(self, tmp_path, monkeypatch, capsys, params,
                                                 reason):
        """The sweep solves all draws at once, holding n x draws floats per
        stacked array: n = 512 with draws = 10 000 is rejected though each
        value is in range. A config that slipped through would reach the
        kernel spy and exit 3, never a long run."""
        self._kernel_spy(monkeypatch)
        cfg = write_config(tmp_path / "big.cfg", "sparse_certificate_sweep", seed=0, params=params)
        assert main(["validate", cfg]) == 2
        assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err.count(reason) == 2

    def test_stacked_draws_at_the_entry_bound_validate(self, tmp_path, monkeypatch):
        """n * draws = 512 * 8192 = 2**22 is the largest stack accepted."""
        self._kernel_spy(monkeypatch)
        cfg = write_config(tmp_path / "edge.cfg", "sparse_certificate_sweep", seed=0,
                           params={"n": 512, "draws": 8192})
        assert main(["validate", cfg]) == 0

    @pytest.mark.parametrize("exp_id,params,reason", [
        ("dpi_random_chains", {"n_chains": 11_185},
         "n_chains * 375 <= 4194304 (32 MiB for the stacked joints, up to 375 cells per chain)"),
        ("pe_separability_identity", {"n_chains": 83_887},
         "n_chains * 50 <= 4194304 (32 MiB for the stacked joints, up to 50 cells per chain)"),
        ("bayes_ordering_audit", {"n_conditional": 9_321},
         "n_conditional * 450 <= 4194304 (32 MiB for the stacked joints, up to 450 cells per "
         "chain)"),
        ("dpi_random_chains", {"n_chains": 10**9}, "n_chains * 375 <= 4194304"),
    ], ids=["dpi", "pe", "conditional", "dpi_huge"])
    def test_chain_counts_name_their_reason(self, tmp_path, monkeypatch, capsys, exp_id, params,
                                            reason):
        """The random-chain runners hold every chain's joint in per-shape
        stacks: n chains of at most c cells each must fit 2**22 entries. A
        config that slipped through would reach the draw spy and exit 3,
        never a long run."""
        def spy(*args, **kwargs):
            raise MemoryError("random_chain called")
        monkeypatch.setattr("chainlab.instances.random_chain", spy)
        cfg = write_config(tmp_path / "big.cfg", exp_id, seed=0, params=params)
        assert main(["validate", cfg]) == 2
        assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err.count(reason) == 2

    @pytest.mark.parametrize("exp_id,params", [
        ("dpi_random_chains", {"n_chains": 11_184}),
        ("pe_separability_identity", {"n_chains": 83_886}),
        ("bayes_ordering_audit", {"n_chains": 11_184, "n_conditional": 9_320}),
    ])
    def test_chain_counts_at_the_entry_bound_validate(self, tmp_path, exp_id, params):
        cfg = write_config(tmp_path / "edge.cfg", exp_id, seed=0, params=params)
        assert main(["validate", cfg]) == 0

    def test_crash_in_a_parameter_check_exits_three(self, tmp_path, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise MemoryError("check_kernel_size called")
        monkeypatch.setattr("chainlab.experiments.check_kernel_size", crash)
        cfg = write_config(tmp_path / "sparse.cfg", "sparse_noiseless_recovery", seed=0)
        assert main(["validate", cfg]) == 3
        assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("error:") and "MemoryError" in e for e in err)
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("scale", ["1e-150", "1e-100", "1e-10", "0.3", "1", "3", "1000",
                                       "1e10", "1e100", "1e150"])
    @pytest.mark.parametrize("exp_id,name", [
        ("crb_laplace_rate", "rate"),
        ("crb_gaussian_mean", "sigma_x"),
        ("entropy_error_bound", "sigma"),
    ])
    def test_exact_verdicts_hold_at_every_scale(self, tmp_path, exp_id, name, scale):
        """Closed-form equality claims compare relative to the expected value
        at every magnitude, so a correct run passes at any scale that validate
        accepts (at rate 1e-10, J_m reads 4.999999999999999e21 against 5e21:
        one ulp, which an absolute tolerance of 1e-12 failed), and a value off
        by a factor of two fails however small the scale."""
        cfg = write_config(tmp_path / "scale.cfg", exp_id, seed=0, params={name: scale})
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 0
        x = float(scale) ** 2
        assert _close(x * (1 + 2**-52), x, 1e-15) and not _close(2 * x, x, 1e-12)

    @pytest.mark.parametrize("params,code", [
        ({"rate": 100, "m": 4, "replicates": 10}, 1),
        ({"rate": 30, "n": 16, "m": 3, "replicates": 20}, 0),
        ({"sigma_n": 10, "m": 3, "replicates": 20}, 0),
    ])
    def test_replicate_restored_to_zero_mass_is_a_finding(self, tmp_path, params, code):
        """The penalty zeroes a whole replicate on these configs: its restored
        rate estimate is infinite, which the report writes as null, and the
        verdicts decide the exit code (the first fails
        clean_mse_matches_exact_within_4se at 10 replicates)."""
        cfg = write_config(tmp_path / "zero.cfg", "lambda_pipeline", seed=0, params=params)
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == code
        doc = json.loads((tmp_path / "runs" / "lambda_pipeline" / "report.json").read_text())
        restored = doc["results"]["mse_from_restored"]
        assert restored["value"] is None and restored["stderr"] is None
        assert doc["verdicts"]["restoration_does_not_help"]

    @pytest.mark.parametrize("exp_id,params", [
        *(("crb_attainment", {"m": 5, "sigma_x": s})
          for s in ("9.72767664453016e+75", "1e100", "1e150", "1e-100", "1e-150")),
        *(("lambda_pipeline", {"rate": r, "replicates": 20}) for r in ("1e80", "1e150", "1e-100")),
    ])
    def test_extreme_scales_run_to_a_verdict(self, tmp_path, exp_id, params):
        """Squared errors at these scales have standard deviations outside
        float range; the Monte Carlo MSEs are taken in a power-of-two unit of
        the errors, so each accepted config ends on its verdicts, and at
        seed 0 every verdict passes (not a crash, exit 3, or an underflowed
        standard error, exit 1)."""
        cfg = write_config(tmp_path / "scale.cfg", exp_id, seed=0, params=params)
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "runs")]) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_validate_agrees_with_run_at_every_delta_decade(self, tmp_path, seed):
        """The sweep's simplex can pivot onto a basis that is singular in
        floating point at tiny delta (seed 0 at 1e-12 to 1e-9 did, and the
        run crashed, exit 3). For delta at every decade from 1e-15 to 1 the
        config validates and the run ends on its verdicts."""
        for exponent in range(-15, 1):
            cfg = write_config(tmp_path / "delta.cfg", "sparse_certificate_sweep", seed=seed,
                               params={"delta": f"1e{exponent}"})
            assert main(["validate", cfg]) == 0
            assert main(["run", cfg, "--out", str(tmp_path / "runs")]) in (0, 1), exponent

    @staticmethod
    def _values(spec, center):
        wild = st.sampled_from(["inf", "-inf", "nan", "1e400", "-1", "0", "x", "2.5",
                                str(10**400)])
        if spec.kind is int:
            plausible = st.integers(center // 2, center * 2).map(str)
        else:
            plausible = st.floats(center / 4, center * 4).map(repr)
            wild = st.one_of(wild, st.floats().map(repr))
        return st.integers(0, 3).flatmap(lambda k: wild if k == 0 else plausible)

    def test_validate_accepts_what_run_runs(self):
        for exp_id in ("resolution_shift", "mixed_vs_targeted", "crb_gaussian_mean",
                       "crb_laplace_rate", "entropy_error_bound", "sparse_noiseless_recovery",
                       "crb_attainment"):
            self._fuzz(exp_id, {})
        self._fuzz("double_meaning_mse", {})
        self._fuzz("double_meaning_l1", {})
        # Around smaller sizes than the defaults, whose runs take about a second.
        self._fuzz("lambda_pipeline", {"m": 4, "replicates": 10})
        self._fuzz("sparse_certificate_sweep", {"draws": 2, "n": 32})
        self._fuzz("bayes_ordering_audit", {"n_chains": 20, "n_conditional": 5})
        self._fuzz("dpi_random_chains", {"n_chains": 20})
        self._fuzz("pe_separability_identity", {"n_chains": 20})

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def _fuzz(self, exp_id, base, data):
        schema = CATALOG[exp_id].schema
        keys = data.draw(st.sets(st.sampled_from(sorted(schema)), max_size=3))
        overrides = dict(base)
        overrides.update({k: data.draw(self._values(schema[k], base.get(k, schema[k].default)),
                                       label=k) for k in sorted(keys)})
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp) / "fuzz.cfg", exp_id, seed=0, params=overrides)
            valid = main(["validate", cfg]) == 0
            ran = main(["run", cfg, "--out", str(Path(tmp) / "runs")]) in (0, 1)
        assert valid == ran, overrides


class TestDomainExperiments:
    @pytest.mark.parametrize("exp_id", ["mixed_vs_targeted", "double_meaning_mse",
                                        "double_meaning_l1", "naive_tree"])
    def test_verdicts_pass_at_seeds_0_to_9(self, exp_id):
        for seed in range(10):
            report, _, _ = run_experiment(exp_id, seed=seed)
            assert report["all_passed"], (seed, report["verdicts"])

    def test_median_fit_exact_at_seeds_0_to_99(self):
        """At every default run the affine fit to the per-row medians is the
        median map (1 + 1e-9) I and attains the median bound, both to
        round-off."""
        for seed in range(100):
            report, _, _ = run_experiment("double_meaning_l1", seed=seed)
            res = {k: v["value"] for k, v in report["results"].items()}
            assert report["all_passed"], (seed, res)
            assert res["median_fit_vs_median_map_sup"] <= 1e-14, (seed, res)
            assert abs(res["median_fit_optimality_gap"]) <= 1e-14, (seed, res)

    def test_mean_fit_exact_at_seeds_0_to_99(self):
        """At every default run the exact mixed least-squares fit is the mean
        map 1.5 I within its round-off floor, the margin is that floor minus
        the distance, and the report holds no training record."""
        for seed in range(100):
            report, tables, plotdata = run_experiment("double_meaning_mse", seed=seed)
            res = {k: v["value"] for k, v in report["results"].items()}
            assert report["all_passed"], (seed, res)
            assert set(res) == {"closed_form_pair_mean", "closed_form_weighted_mean",
                                "mixed_fit_vs_mean_map_sup", "mean_map_margin"}
            assert tables == {} and plotdata == {}
            assert 0.0 < res["mean_map_margin"] < 1e-10, (seed, res)
            assert res["mixed_fit_vs_mean_map_sup"] <= 1e-13, (seed, res)

    @pytest.mark.parametrize("exp_id", ["double_meaning_mse", "double_meaning_l1"])
    def test_median_fit_passes_at_batch_just_above_dim(self, exp_id):
        """Dim 7, batch 8, which validate accepts: the design [y 1] is square
        and far worse conditioned than at the defaults, yet each exact fit is
        within its derived floors of its map (the mean map, or the median map
        and the median bound) at every seed."""
        for seed in range(20):
            report, _, _ = run_experiment(exp_id, seed, {"dim": 7, "batch": 8})
            assert report["all_passed"], (seed, report["results"])

    def test_mixed_vs_targeted_report_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "mvt.cfg", "mixed_vs_targeted", seed=3)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out_a)]) == 0
        assert main(["run", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "mixed_vs_targeted" / "report.json").read_bytes() == \
            (out_b / "mixed_vs_targeted" / "report.json").read_bytes()

    def test_resolution_shift_viability_at_former_failing_seeds(self):
        """Blurs cut at 3 sigma broke the variance-addition identity by just
        over the 1e-3 bound at these seeds."""
        for seed in (1, 2, 12, 23):
            report, _, _ = run_experiment("resolution_shift", seed=seed)
            assert report["all_passed"], (seed, report["results"]["two_domain_viability_sup"])


class TestOneWriter:
    def test_only_cli_imports_json_or_csv(self):
        """Report I/O is decided in one module: every number leaves through cli."""
        importers = set()
        for path in sorted(Path(chainlab.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                if any(m.split(".")[0] in ("json", "csv") for m in modules):
                    importers.add(path.name)
        assert importers == {"cli.py"}


class TestNoUnusedOptions:
    @staticmethod
    def _optional_params(fn, method):
        """(name, position or None for keyword-only) of each parameter with a default."""
        pos = fn.args.posonlyargs + fn.args.args
        if method:
            pos = pos[1:]
        first = len(pos) - len(fn.args.defaults)
        out = [(a.arg, i) for i, a in enumerate(pos) if i >= first]
        return out + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if d is not None]

    def test_every_optional_parameter_is_set_somewhere(self):
        """A parameter no call sets is an option with one value in use: it
        belongs in a constant. Calls are matched by function name."""
        package = Path(chainlab.__file__).parent
        public = []
        for path in sorted(package.glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    public.append((f"{path.stem}.{node.name}", node, False))
                elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    for fn in node.body:
                        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                         for d in fn.decorator_list)
                            public.append((f"{path.stem}.{node.name}.{fn.name}", fn, not static))
        calls = {}
        roots = (package.parent, Path(__file__).parent)
        for path in sorted(p for root in roots for p in root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)

        def sets(call, name, position):
            if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
                return True
            return position is not None and (
                len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))

        unused = [f"{qualname}({name}=)"
                  for qualname, fn, method in public
                  for name, position in self._optional_params(fn, method)
                  if not any(sets(c, name, position) for c in calls.get(fn.name, []))]
        assert unused == []


class TestNoUnreachedFunctions:
    # Public functions that nothing but their unit tests calls, with the reason each stays.
    KEPT: dict = {}

    def test_every_public_function_is_referenced(self):
        """Every public module-level function of chainlab is referenced by
        name in the package outside its own body, or in the acceptance
        tests: one that only its own unit test calls is API that no
        experiment, criterion or CLI path reaches. Methods are left out,
        since a name cannot tell a method from a builtin one (``values``)."""
        package = Path(chainlab.__file__).parent
        trees = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
        public = {node: f"{path.stem}.{node.name}"
                  for path, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        referenced = set()

        def visit(node, inside):
            if node in public:
                inside = node.name
            if isinstance(node, ast.Name) and node.id != inside:
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr != inside:
                referenced.add(node.attr)
            for child in ast.iter_child_nodes(node):
                visit(child, inside)

        acceptance = Path(__file__).parent / "test_acceptance.py"
        for tree in [*trees.values(), ast.parse(acceptance.read_text())]:
            visit(tree, None)
        unreferenced = {name for node, name in public.items() if node.name not in referenced}
        assert unreferenced == set(self.KEPT)

    def test_every_constant_is_read(self):
        """Every upper-case name that a chainlab module binds in its own scope
        (not in a function or class) is read by name in the package or in the
        acceptance tests: a constant that nothing reads fixes nothing.
        ``__version__`` is not upper-case, so it is exempt."""
        package = Path(chainlab.__file__).parent
        trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
        acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
        constants = set()

        def bind(node, module):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id.isupper():
                constants.add((module, node.id))
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for child in ast.iter_child_nodes(node):
                    bind(child, module)

        for module, tree in trees.items():
            bind(tree, module)
        read = {node.id if isinstance(node, ast.Name) else node.attr
                for tree in [*trees.values(), acceptance] for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
        # the scan sees the package: a known constant in each of three modules
        assert {("classification", "ORDERING_TOL"), ("information", "MI_EQUALITY_TOL"),
                ("sparse", "_LP_RTOL")} <= constants
        assert {f"{module}.{name}" for module, name in constants if name not in read} == set()


class TestStartup:
    def test_cli_and_catalog_do_not_import_scipy(self, tmp_path):
        # scipy costs about 0.15 s of start-up and 25 MB of RSS per run, and
        # is a test dependency only: every experiment, run at its defaults
        # through the command line, must do without it.
        src = os.path.dirname(os.path.dirname(os.path.abspath(chainlab.__file__)))
        cfgs = [write_config(tmp_path / f"{exp_id}.cfg", exp_id, seed=0)
                for exp_id in sorted(CATALOG)]
        assert len(cfgs) == 17
        out = str(tmp_path / "out")
        code = (
            "import sys\n"
            "import chainlab.cli\n"
            f"for cfg in {cfgs!r}:\n"
            f"    assert chainlab.cli.main(['run', cfg, '--out', {out!r}]) == 0, cfg\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestBlasPin:
    """OpenBLAS rounds a multithreaded solve differently from a one-thread
    solve (sparse_noiseless_recovery's n = 256 kernel, on a host with two or
    more cores), so importing chainlab pins BLAS to one thread."""

    RUN = ("import sys\n"
           "import chainlab.cli\n"
           "sys.exit(chainlab.cli.main(['run', sys.argv[1], '--out', sys.argv[2]]))\n")

    @staticmethod
    def _run(tmp_path, name, openblas_threads, code):
        src = os.path.dirname(os.path.dirname(os.path.abspath(chainlab.__file__)))
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if openblas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = openblas_threads
        cfg = write_config(tmp_path / f"{name}.cfg", "sparse_noiseless_recovery", seed=0)
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-c", code, cfg, str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stderr, (out / "sparse_noiseless_recovery" / "report.json").read_bytes()

    def test_import_binds_only_the_pin_and_loads_no_numpy(self):
        """The package is the pin alone: callers import from the modules, so
        `import chainlab` binds no public name but BLAS_PINNED (the modules it
        imports aside) and leaves numpy to the first module imported."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(chainlab.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, types\n"
                "import chainlab\n"
                "print(sorted(k for k, v in vars(chainlab).items()\n"
                "             if not k.startswith('_') and not isinstance(v, types.ModuleType)))\n"
                "print('numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["['BLAS_PINNED']", "False"]

    def test_report_bytes_do_not_depend_on_the_thread_count(self, tmp_path):
        reports = [self._run(tmp_path, f"threads-{t}", t, self.RUN)[1] for t in ("1", "2", None)]
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="the loaded OpenBLAS is found through /proc/self/maps")
    def test_numpy_loaded_first_is_pinned_and_leaves_the_report(self, tmp_path):
        """With numpy loaded first and no thread variable set, chainlab pins
        the OpenBLAS that numpy loaded through its own thread setter, and sets
        the thread variables for any OpenBLAS loaded after it."""
        err, pinned = self._run(tmp_path, "pinned", None, self.RUN)
        assert err == ""
        err, late = self._run(tmp_path, "late", None,
                              "import os, numpy\nimport chainlab\nassert chainlab.BLAS_PINNED\n"
                              "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n" + self.RUN)
        assert err == ""
        assert late == pinned

    def test_no_openblas_setter_found_warns_and_writes_the_report(self, tmp_path):
        """Where the lookup of loaded libraries finds nothing, BLAS_PINNED
        stays False and `chainlab run` warns, then writes the report."""
        hide_maps = ("import builtins, numpy\n"
                     "real_open = builtins.open\n"
                     "def open_but_maps(file, *args, **kwargs):\n"
                     "    if file == '/proc/self/maps':\n"
                     "        raise FileNotFoundError(file)\n"
                     "    return real_open(file, *args, **kwargs)\n"
                     "builtins.open = open_but_maps\n"
                     "import chainlab\n"
                     "builtins.open = real_open\n"
                     "assert not chainlab.BLAS_PINNED\n")
        err, report = self._run(tmp_path, "unfound", None, hide_maps + self.RUN)
        assert "no OpenBLAS thread setter was found" in err
        assert json.loads(report)["experiment"] == "sparse_noiseless_recovery"
