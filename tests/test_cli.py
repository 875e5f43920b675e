import json
import subprocess
import sys

import numpy as np
import pytest

from traplab import cli
from traplab.cli import execute_config, parse_config_file, resolve
from traplab.errors import ConfigError
from traplab.reporting import CheckRecord, build_report, report_bytes, sanitize


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "traplab.cli", *args],
        capture_output=True, text=True, timeout=300,
    )


class TestConfigParsing:
    def test_flat_key_value_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "command = classify\n"
            "scenario = minkowski_torus_quotient\n"
            "surface = Sigma\n"
            "n = 3  # trailing comment\n"
            'expect = "extremal"\n'
        )
        cfg = parse_config_file(str(cfg_file))
        assert cfg["command"] == "classify"
        assert cfg["n"] == 3
        assert cfg["expect"] == "extremal"

    @pytest.mark.parametrize("line, expected", [
        ('expect = "trapped # or not"', {"expect": "trapped # or not"}),
        ("n = 3  # comment", {"n": 3}),
        ("scenario = minkowski # c", {"scenario": "minkowski"}),
        ("# scenario = minkowski", {}),
    ])
    def test_comment_starts_outside_a_string(self, tmp_path, line, expected):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n")
        assert parse_config_file(str(cfg_file)) == expected

    def test_malformed_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this is not a key value pair\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(bad))

    def test_undecodable_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"n = \xff\xfe\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(bad))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_file("/nonexistent/path.cfg")


class TestExecuteConfig:
    def test_classify_torus(self):
        report = execute_config(
            {"command": "classify", "scenario": "minkowski_torus_quotient",
             "surface": "Sigma", "expect": "extremal"}
        )
        assert report["passed"]
        assert report["signature"] == "(-,+,...,+)"

    def test_perturb_values(self):
        report = execute_config(
            {"command": "perturb", "scenario": "minkowski_torus_quotient",
             "surface": "Sigma", "n": 2, "samples_per_axis": 4}
        )
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert "gnHH-value" in names and "class-after-rescale" in names

    def test_perturb_curved_background(self):
        # the extremal cylinder equator also flips to strictly trapped
        report = execute_config(
            {"command": "perturb", "scenario": "einstein_cylinder", "surface": "equator",
             "n": 3, "equator_samples": 8}
        )
        assert report["passed"]
        assert all(r["gn_H_H"] < 0 for r in report["payload"]["records"])

    def test_curvature_timelike_pass(self):
        report = execute_config({"command": "curvature", "case": "timelike", "n": 1})
        assert report["passed"]
        assert report["checks"][0]["measured"] == pytest.approx(-np.exp(2.0), rel=1e-9)

    def test_curvature_null_spacelike_reports_known_mismatch(self):
        report = execute_config({"command": "curvature", "case": "null-spacelike", "n": 4})
        assert not report["passed"]
        check = report["checks"][0]
        assert check["measured"] == pytest.approx(-2.0, rel=1e-9)
        assert check["expected"] == pytest.approx(-1.0, rel=1e-9)

    def test_energy_check_chain(self):
        report = execute_config(
            {"command": "energy-check", "scenario": "einstein_cylinder", "seed": 5, "count": 16}
        )
        assert report["passed"]
        assert report["payload"]["ricci_weak"]["verdict"] == "satisfied_on_samples"
        assert report["payload"]["ricci_strict"]["verdict"] == "violated"

    def test_constraints_schwarzschild(self):
        report = execute_config(
            {"command": "constraints", "scenario": "schwarzschild_slice_isotropic",
             "points": 25, "seed": 4}
        )
        assert report["passed"]

    def test_spectrum_and_deform(self):
        spec = execute_config(
            {"command": "spectrum", "scenario": "einstein_cylinder", "resolution": 32}
        )
        assert spec["passed"]
        assert spec["payload"]["lambda1"]["re"] == pytest.approx(-1.0, abs=1e-10)
        deform = execute_config({"command": "deform", "resolution": 32})
        assert deform["passed"]

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            execute_config({"command": "frobnicate"})

    @pytest.mark.parametrize(
        "cfg",
        [
            {"command": "spectrum", "resolutoin": 32},
            {"command": "deform", "scenario": "minkowski"},
            {"command": "curvature", "tolerances": {"lambda1": 1e-3}},
            {"command": "curvature", "tolerances": "curvature=1"},
            {"command": "curvature", "n": True},
            {"command": "curvature", "n": 1.5},
            {"command": "deform", "fd_step": "small"},
            {"command": "spectrum", "n": 3},
            {"command": "curvature", "case": "null-spacelike", "dim": 3},
            {"command": "perturb", "bump_inner": 0.5, "bump_outer": 0.4},
            {"command": "classify", "scenario": "minkowski_torus_quotient", "surface": "Sigma",
             "samples_per_axis": 0},
            {"command": "constraints", "scenario": "minkowski", "dim": 2},
            {"command": "energy-check", "scenario": "minkowski", "seed": -1},
        ],
    )
    def test_invalid_config_is_config_error(self, cfg):
        with pytest.raises(ConfigError):
            execute_config(cfg)

    def test_resolve_fills_defaults_without_touching_the_echo(self):
        cfg = {"command": "constraints", "scenario": "minkowski", "points": 3}
        resolved = resolve(cfg)
        assert resolved["seed"] == 0 and resolved["format"] == "json"
        assert resolved["tolerances"] == {"energy-density": 1e-9, "vacuum": None}
        assert resolved["mass"] is None  # scenario parameters keep the scenario's default
        assert execute_config(cfg)["config"] == cfg
        assert cfg == {"command": "constraints", "scenario": "minkowski", "points": 3}

    def test_replay_byte_identical(self):
        cfg = {"command": "linear", "seed": 11}
        a = execute_config(dict(cfg))
        b = execute_config(dict(cfg))
        assert report_bytes(a, drop_wall_time=True) == report_bytes(b, drop_wall_time=True)
        assert report_bytes(a) != b""

    def test_runtime_records_count_as_wall_time(self):
        # runtime-budget checks carry measured seconds; stripping wall time
        # must null them while keeping the pass flags
        report = execute_config({"command": "linear", "seed": 11})
        stripped = json.loads(report_bytes(report, drop_wall_time=True))
        runtime = [c for c in stripped["checks"] if c["name"].endswith("-runtime")]
        assert runtime and all(c["measured"] is None and c["passed"] for c in runtime)


class TestSanitize:
    def test_python_bool_stays_bool(self):
        assert sanitize(True) is True

    def test_numpy_bool_becomes_bool(self):
        assert sanitize(np.bool_(False)) is False

    def test_int_stays_int(self):
        value = sanitize(3)
        assert type(value) is int and value == 3

    def test_nan_payload_rejected(self):
        # reports are strict JSON: no NaN or Infinity tokens
        report = build_report("linear", {}, [], 0.0, {"value": float("nan")})
        with pytest.raises(ValueError):
            report_bytes(report)

    def test_failing_record_serialises_false(self):
        record = CheckRecord("x", "anchor", 1.0, 0.0, 1e-9, passed=False)
        data = report_bytes(build_report("linear", {}, [record], 0.0))
        assert json.loads(data)["checks"][0]["passed"] is False
        assert b'"passed": false' in data


class TestCommandLine:
    def test_classify_exit_zero(self):
        proc = run_cli("classify", "--scenario", "minkowski_torus_quotient",
                       "--surface", "Sigma")
        assert proc.returncode == 0
        assert "extremal" in proc.stdout

    def test_curvature_cli_reference_mismatch_exit_one(self):
        proc = run_cli("curvature", "--case", "null-spacelike", "--n", "1")
        assert proc.returncode == 1

    def test_unknown_scenario_exit_three(self):
        proc = run_cli("classify", "--scenario", "kerr", "--surface", "Sigma")
        assert proc.returncode == 3

    def test_singular_shifted_operator_exit_three(self):
        # q_offset 1e200 absorbs the unit gap of the Gershgorin shift
        proc = run_cli("deform", "--q-offset", "1e200")
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "scenario error: factorising A - sigma I at sigma=1e+200 failed: Singular matrix"
        ]

    def test_bad_tolerance_exit_two(self):
        proc = run_cli("curvature", "--case", "timelike", "--n", "1", "--tol", "curvature=x")
        assert proc.returncode == 2

    def test_report_and_csv_outputs(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("spectrum", "--scenario", "einstein_cylinder",
                       "--resolution", "32", "--out", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "spectrum"
        assert doc["passed"] is True

        csv_out = tmp_path / "eigen.csv"
        proc = run_cli("spectrum", "--scenario", "einstein_cylinder", "--resolution", "32",
                       "--out", str(csv_out), "--format", "csv")
        assert proc.returncode == 0
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "coord1,value"
        assert len(lines) == 33
        spectrum_lines = (tmp_path / "eigen.csv.spectrum.csv").read_text().splitlines()
        assert spectrum_lines[0] == "re,im"
        assert len(spectrum_lines) == 33
        assert float(spectrum_lines[1].split(",")[0]) == pytest.approx(-1.0, abs=1e-10)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = curvature\ncase = timelike\nn = 1\n")
        proc = run_cli("curvature", "--config", str(cfg), "--n", "2")
        assert proc.returncode == 0
        assert "1.359" in proc.stdout  # e^{2/2}/2 at n = 2, overriding n = 1

    def test_replay_byte_identical_reports(self, tmp_path):
        # same config including the output path, run twice
        out = tmp_path / "report.json"
        docs = []
        for _ in range(2):
            proc = run_cli("energy-check", "--scenario", "minkowski_torus_quotient",
                           "--seed", "9", "--out", str(out))
            assert proc.returncode == 0
            docs.append(json.loads(out.read_text()))
        for doc in docs:
            doc.pop("wall_time_s")
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)

    @pytest.mark.parametrize(
        "args",
        [
            ("energy-check", "--scenario", "minkowski", "--count", "0"),
            ("constraints", "--scenario", "schwarzschild_slice_isotropic", "--points", "0"),
            ("curvature", "--n", "0"),
            ("spectrum", "--resolution", "0"),
            ("deform", "--fd-step", "0"),
            ("deform", "--q-offset", "nan"),
            ("curvature", "--case", "null-spacelike", "--n", "1", "--tol", "curvature=inf"),
            ("curvature", "--case", "timelike", "--n", "1", "--tol", "x=nan"),
            ("spectrum", "--config", "TYPO_CONFIG"),
        ],
    )
    def test_zero_count_is_config_error(self, args, tmp_path):
        # every input the option table rejects: one line, exit 2, no traceback
        typo = tmp_path / "typo.cfg"
        typo.write_text("resolutoin = 32\n")
        proc = run_cli(*(str(typo) if a == "TYPO_CONFIG" else a for a in args))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--resolution", "abc"], "resolution must be of type int, got 'abc'"),
        (["energy-check", "--count", "2.5"], "count must be of type int, got '2.5'"),
        (["deform", "--fd-step", "abc"], "fd_step must be of type float, got 'abc'"),
    ])
    def test_flag_of_wrong_type_is_one_line(self, argv, message, capsys):
        # flag values reach the option table as strings, so a value its type
        # cannot convert gets the same message as a config-file value
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"configuration error: {message}"]

    def test_numeric_flag_value_stays_a_string(self, tmp_path, monkeypatch, capsys):
        # --out 2024 names a file; flag values are converted by type, not parsed
        monkeypatch.chdir(tmp_path)
        assert cli.main(["linear", "--out", "2024"]) == 0
        assert json.loads((tmp_path / "2024").read_text())["command"] == "linear"

    def test_deform_takes_no_scenario_or_n(self):
        proc = run_cli("deform", "--scenario", "minkowski", "--n", "7")
        assert proc.returncode == 2
        assert "unrecognized arguments: --scenario minkowski --n 7" in proc.stderr
        assert proc.stderr.startswith("usage:") and "Traceback" not in proc.stderr

    def test_perturb_n_is_the_conformal_index(self):
        proc = run_cli("perturb", "--scenario", "einstein_cylinder", "--surface", "equator",
                       "--n", "4")
        assert proc.returncode == 0, proc.stderr
        assert "[PASS] class-after-rescale" in proc.stdout

    def test_config_file_format_and_suites_are_read(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text('suites = "linear-lemmas"\nformat = "csv"\n')
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert set(doc["payload"]) == {"linear-lemmas"}
        assert doc["config"]["format"] == "csv"  # csv applies to spectrum only

    def test_crash_is_internal_error_exit_four(self, monkeypatch, capsys):
        def boom(cfg):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setitem(cli.COMMANDS, "linear", cli.COMMANDS["linear"]._replace(run=boom))
        assert cli.main(["linear"]) == 4
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["internal error: RuntimeError: boom second line"]
        assert captured.out == ""

    def test_verify_single_suite(self):
        proc = run_cli("verify", "linear-lemmas")
        assert proc.returncode == 0
        assert "checks passed" in proc.stdout

    def test_verify_unknown_suite_exit_two(self):
        proc = run_cli("verify", "no-such-suite")
        assert proc.returncode == 2

    def test_verify_curvature_perturbation_designed_red(self, tmp_path):
        # the published -4/n reference of null/spacelike stays red in the
        # report: exactly its four records fail, measuring the computed -8/n
        out = tmp_path / "report.json"
        proc = run_cli("verify", "curvature-perturbation", "--out", str(out))
        assert proc.returncode == 1
        failing = {c["name"]: c for c in json.loads(out.read_text())["checks"]
                   if not c["passed"]}
        prefix = "curvature-perturbation/curvature-perturbation-null-spacelike-n"
        assert set(failing) == {f"{prefix}{n}" for n in (1, 2, 5, 10)}
        for n in (1, 2, 5, 10):
            check = failing[f"{prefix}{n}"]
            assert check["measured"] == pytest.approx(-8.0 / n, rel=1e-9)
            assert check["expected"] == pytest.approx(-4.0 / n, rel=1e-12)

    def test_verify_all_among_other_names_runs_every_suite_once(self, tmp_path):
        from traplab.verify import SUITES

        out = tmp_path / "report.json"
        proc = run_cli("verify", "all", "linear-lemmas", "--out", str(out))
        assert proc.returncode == 1
        report = json.loads(out.read_text())
        assert set(report["payload"]) == set(SUITES)
        order = list(dict.fromkeys(c["name"].split("/")[0] for c in report["checks"]))
        assert order == list(SUITES)
        prefix = "curvature-perturbation/curvature-perturbation-null-spacelike-n"
        assert {c["name"] for c in report["checks"] if not c["passed"]} == {
            f"{prefix}{n}" for n in (1, 2, 5, 10)
        }

    def test_verify_single_case_form(self):
        proc = run_cli("verify", "curvature-perturbation", "--case", "timelike", "--n", "1")
        assert proc.returncode == 0
        assert "-7.389056" in proc.stdout

    def test_tolerance_override_changes_outcome(self):
        # an absurdly tight curvature tolerance turns rounding into failure
        proc = run_cli("curvature", "--case", "timelike", "--n", "3", "--tol",
                       "curvature=1e-18")
        assert proc.returncode == 1

    def test_classify_expect_mismatch_exit_one(self):
        proc = run_cli("classify", "--scenario", "minkowski_torus_quotient",
                       "--surface", "Sigma", "--expect", "trapped")
        assert proc.returncode == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_classify_unknown_expect_label_exit_two(self, source, tmp_path):
        # a misspelt label is a one-line configuration error, from a flag or a config file
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("expect = not_weakly_trapd\n")
        label = (["--expect", "not_weakly_trapd"] if source == "flag"
                 else ["--config", str(cfg)])
        proc = run_cli("classify", "--scenario", "minkowski", "--surface", "sphere", *label)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "configuration error: expect must be one of ['trapped', 'weakly_trapped', 'mots', "
            "'extremal', 'not_weakly_trapped'], got 'not_weakly_trapd'"
        ]

    def test_deform_with_q_offset(self):
        proc = run_cli("deform", "--resolution", "32", "--q-offset", "2.0")
        assert proc.returncode == 0
        assert "displacement -" in proc.stdout
