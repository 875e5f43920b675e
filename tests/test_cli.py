import json
import math
import subprocess
import sys

import numpy as np
import pytest

from traplab import cli, stability
from traplab.cli import execute_config, parse_config_file, resolve
from traplab.errors import ConfigError
from traplab.reporting import CheckRecord, build_report, report_bytes, sanitize


DEFORM_FLAGS = "--config, --fd-step, --out, --q-offset, --resolution, --tol"


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

    @pytest.mark.parametrize("m", [2, 4])
    def test_perturb_closed_forms_follow_sigma_dimension(self, m):
        # Sigma has dimension p = m - 1: g(H, H) = -p^2/n^2 and g(H, X) = p/n
        p = m - 1
        report = execute_config({"command": "perturb", "m": m, "n": 3, "samples_per_axis": 4})
        assert report["passed"]
        details = {c["name"]: c["detail"] for c in report["checks"]}
        assert details["gnHH-value"] == f"max relative deviation from -{p * p}/n^2 at n=3"
        assert details["gnHX-value"] == f"max relative deviation from {p}/n at n=3"
        for record in report["payload"]["records"]:
            assert record["gn_H_H"] == pytest.approx(-p * p / 9, rel=1e-12)
            assert record["gn_H_X"] == pytest.approx(p / 3, rel=1e-12)

    @pytest.mark.parametrize("n, strict", [(60000, True), (100000, False)])
    def test_strict_trapping_records_agree(self, n, strict):
        # both records read the strict inequalities with the classifier's band
        report = execute_config({"command": "perturb", "n": n, "samples_per_axis": 4})
        passed = {c["name"]: c["passed"] for c in report["checks"]}
        assert passed["strictly-trapped-after-rescale"] is strict
        assert passed["class-after-rescale"] is strict

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

    def test_constraints_three_sphere_cylinder(self):
        # two polar angles inside the chart and one azimuth: rho = 3 to rounding
        report = execute_config(
            {"command": "constraints", "scenario": "einstein_cylinder", "n": 3, "points": 200}
        )
        assert report["passed"]
        assert report["payload"]["rho_max"] - report["payload"]["rho_min"] < 1e-13

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

    @pytest.mark.parametrize("cfg, need", [
        # 3000017 has no divisor from MIN_BLOCK_NODES to its root: one block of N^2 doubles
        ({"command": "spectrum", "resolution": 3000017}, 8 * 3000017**2),
        ({"command": "deform", "resolution": 3000017}, 8 * 3000017**2),
        # blocks of 128 nodes fit, the dense matrix of the csv spectrum does not
        ({"command": "spectrum", "resolution": 16384, "format": "csv"}, 8 * 16384**2),
        # past MAX_ARRAY_BYTES / 8 nodes, the least bands of any blocking
        ({"command": "spectrum", "resolution": 10**30}, 24 * 10**30 * stability.MIN_BLOCK_NODES),
    ])
    def test_resolution_over_the_array_budget_is_config_error(self, monkeypatch, cfg, need):
        # refused before any geometry: building the case would allocate
        def refuse(*args):
            pytest.fail("equator case built for a refused resolution")

        monkeypatch.setattr(stability, "equator_deformation_cases", refuse)
        monkeypatch.setitem(cli._SPECTRUM_CASES, ("einstein_cylinder", 2), refuse)
        with pytest.raises(ConfigError, match=f"needs at least {need} bytes in one array"):
            execute_config(cfg)

    @pytest.mark.parametrize("resolution, fmt", [(8192, "json"), (2053, "json"), (1024, "csv")])
    def test_array_budget_admits_the_ci_resolutions(self, resolution, fmt):
        cli._check_array_bytes({"resolution": resolution, "format": fmt})

    def test_resolve_fills_defaults_without_touching_the_echo(self):
        cfg = {"command": "constraints", "scenario": "minkowski", "points": 3}
        resolved = resolve(cfg)
        assert resolved["seed"] == 0 and "format" not in resolved  # format is spectrum's
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

    def test_non_finite_float_names_its_path(self):
        report = build_report("linear", {}, [], 0.0, {"a": {"b": [1.0, float("inf")]}})
        with pytest.raises(ValueError, match=r"^non-finite float inf at \$\.payload\.a\.b\[1\]$"):
            report_bytes(report)

    def test_zero_d_array_becomes_scalar(self):
        for array, kind in ((np.array(1.5), float), (np.array(3), int), (np.array(True), bool)):
            value = sanitize(array)
            assert type(value) is kind and value == array

    @pytest.mark.parametrize("kind", [np.complex64, np.complex128, np.clongdouble])
    def test_numpy_complex_scalar_becomes_re_im(self, kind):
        assert sanitize(kind(1 + 2j)) == {"re": 1.0, "im": 2.0}
        assert json.loads(report_bytes({"z": sanitize(kind(1 + 2j))})) == {"z": {"re": 1.0, "im": 2.0}}

    def test_ndarray_subclass_takes_the_array_path(self):
        class Grid(np.ndarray):
            pass

        assert sanitize(np.arange(4.0).reshape(2, 2).view(Grid)) == [[0.0, 1.0], [2.0, 3.0]]
        assert sanitize(np.array([1 + 2j]).view(Grid)) == [{"re": 1.0, "im": 2.0}]

    def test_dataclass_becomes_the_dict_of_its_fields(self):
        record = CheckRecord("x", "anchor", np.float64(0.5), np.array([1, 2]), None, np.bool_(True))
        assert sanitize(record) == {
            "name": "x", "anchor": "anchor", "measured": 0.5, "expected": [1, 2],
            "tolerance": None, "passed": True, "detail": "",
        }


# every corner of the JSON text: empty and nested-empty containers, escapes,
# shortest float reprs, big ints, the literals, and an int beside a float
EDGE_DOC = {
    "wall_time_s": 0.125,
    "checks": [
        {"name": "suite-runtime", "measured": 0.5, "passed": True},
        {"name": "other", "measured": [1, 2.0], "passed": False},
    ],
    "payload": {
        "empty": [{}, [], {"a": {}, "b": [[]], "c": [[], {}]}],
        "strings": ["", "caf\u00e9 \u03bb \U0001d11e", "tab\tnew\nline\x00\x1f\x7f",
                    'quote " back \\ slash /'],
        "floats": [0.0, -0.0, 5e-324, 1e16, 1e-7, 0.1, -2.5e300, 1e308, 1e308],
        "ints": [0, -1, 2**64, -(10**30)],
        "literals": [True, False, None, 1.0, True],
        "mixed": [1, 2.0],
        "float lists": [[1.0, 2.0], [3], [1.5, "s"], [2.0, 1]],
        "tuple": (1.0, (2, "x")),
        "caf\u00e9 key": -0.0,
        "Z": 7,
    },
}


class TestReportBytes:
    @staticmethod
    def oracle(doc) -> bytes:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False).encode()

    def test_equals_the_stdlib_encoder(self):
        assert report_bytes(EDGE_DOC) == self.oracle(EDGE_DOC)

    def test_equals_the_stdlib_encoder_without_wall_time(self):
        stripped = {k: v for k, v in EDGE_DOC.items() if k != "wall_time_s"}
        stripped["checks"] = [dict(EDGE_DOC["checks"][0], measured=None), EDGE_DOC["checks"][1]]
        assert report_bytes(EDGE_DOC, drop_wall_time=True) == self.oracle(stripped)

    def test_empty_report(self):
        assert report_bytes({}) == self.oracle({}) == b"{}"

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_non_finite_in_a_float_list(self, value):
        with pytest.raises(ValueError, match=r"at \$\.x\[2\]\[0\]$"):
            report_bytes({"x": [1.0, 2.0, [value]]})
        with pytest.raises(ValueError, match=r"at \$\.x\[1\]$"):
            report_bytes({"x": [1.0, value, 3.0]})


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

    @pytest.mark.parametrize("argv, config", [
        (["energy-check", "--scenario", "schwarzschild_slice_isotropic"], "mass = 1e100"),
        (["classify", "--scenario", "schwarzschild_slice_isotropic", "--surface", "sphere"],
         "mass = 1e300"),
        (["classify", "--scenario", "minkowski", "--surface", "sphere"], "radius = 1e200"),
    ])
    def test_overflow_is_scenario_error_exit_three(self, argv, config, tmp_path, capsys):
        # a valid input whose closed form exceeds a float; the line names the parameter
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        assert cli.main([*argv, "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("scenario error: ")
        assert config.split(" = ")[0] in captured.err
        assert captured.out == ""

    def test_degenerate_scenario_metric_is_scenario_error_exit_three(self, tmp_path, capsys):
        # mass 1.8 puts the first energy point (0, 0.9, 0, 0) on r = m/2, where the
        # isotropic lapse and so g00 vanish: the signature check refuses the jet
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mass = 1.8\n")
        argv = ["energy-check", "--scenario", "schwarzschild_slice_isotropic", "--config", str(cfg)]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "scenario error: Lorentzian metric needs exactly one negative eigenvalue"
        ]
        assert captured.out == ""

    @pytest.mark.parametrize("step", ["1e200", "1e20", "10", repr(math.pi / 2)])
    def test_fd_step_past_the_injectivity_scale_is_one_line_exit_two(self, step, capsys,
                                                                     monkeypatch):
        # the displaced equator would pass the pole: refused before the eigensolve
        monkeypatch.setattr(stability, "principal_eigenvalue", None)
        assert cli.main(["deform", "--fd-step", step]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: fd_step must be less than the injectivity scale "
            f"{math.pi / 2!r}, got {float(step)!r}"]

    def test_fd_step_below_the_injectivity_scale_runs(self, capsys):
        # a large step inside the scale is a failing record, not an error
        assert cli.main(["deform", "--fd-step", "1.5"]) == 1
        assert "[FAIL] derivative-identity" in capsys.readouterr().out

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
        # the drift-free equator is bitwise symmetric: a real spectrum in ascending order
        re_im = [line.split(",") for line in spectrum_lines[1:]]
        assert all(im == "0.0" for _, im in re_im)
        re = [float(r) for r, _ in re_im]
        assert re == sorted(re)

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
            ("deform", "--q-offset", "-inf"),
            ("deform", "--fd-step", "-1e-4"),
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
        assert proc.stderr.splitlines() == [
            f"configuration error: deform reads no '--scenario'; flags: {DEFORM_FLAGS}"
        ]

    def test_perturb_n_is_the_conformal_index(self):
        proc = run_cli("perturb", "--scenario", "einstein_cylinder", "--surface", "equator",
                       "--n", "4")
        assert proc.returncode == 0, proc.stderr
        assert "[PASS] class-after-rescale" in proc.stdout

    def test_config_file_suites_are_read(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text('suites = "linear-lemmas"\n')
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert set(doc["payload"]) == {"linear-lemmas"}
        assert doc["config"] == {"command": "verify", "suites": "linear-lemmas", "out": str(out)}

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
        # one case of the suite is traplab curvature; verify reads no --case
        proc = run_cli("verify", "curvature-perturbation", "--case", "timelike", "--n", "1")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "configuration error: verify reads no '--case'; flags: --config, --out, --tol"
        ]
        assert proc.stdout == ""

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

    @pytest.mark.parametrize("value, echoed", [("-1e-3", -0.001), ("-1E2", -100.0)])
    def test_negative_flag_value_in_exponent_form(self, value, echoed, tmp_path):
        # a value flag takes the next token, whatever it starts with
        out = tmp_path / "report.json"
        proc = run_cli("deform", "--q-offset", value, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["config"]["q_offset"] == echoed

    @pytest.mark.parametrize("value", ["-1e-3", "2"])
    def test_abbreviated_flag_is_unrecognized(self, value, capsys):
        # every flag has one spelling: --q-off is an unknown flag, whatever follows it
        assert cli.main(["deform", "--q-off", value]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: deform reads no '--q-off'; flags: {DEFORM_FLAGS}"
        ]

    @pytest.mark.parametrize("argv", [["--q-offset", "-1e-3"], ["--q-offset=-1e-3"]])
    def test_full_flag_with_negative_value_runs(self, argv):
        assert cli.main(["deform", *argv]) == 0

    def test_deform_with_q_offset(self):
        proc = run_cli("deform", "--resolution", "32", "--q-offset", "2.0")
        assert proc.returncode == 0
        assert "displacement -" in proc.stdout


class ReadKeys(dict):
    """A dict that records the keys read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# one or two cheap configs per command that together take every branch reading a key
KEY_READ_CONFIGS = {
    "classify": [{"scenario": "minkowski_torus_quotient", "surface": "Sigma"}],
    "perturb": [{"samples_per_axis": 4}],
    "curvature": [{}],
    "energy-check": [{"scenario": "minkowski", "count": 2}],
    "constraints": [{"scenario": "einstein_cylinder", "points": 2},
                    {"scenario": "minkowski", "points": 2}],
    "spectrum": [{"resolution": 16}],
    "deform": [{"resolution": 16}],
    "linear": [{}],
    "verify": [{"suites": ["curvature-perturbation"]}],
}


class TestEveryKeyActs:
    """Each command's table holds the keys its run reads, and no other."""

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_every_key_and_tolerance_is_read(self, name):
        command = cli.COMMANDS[name]
        keys, tolerances = set(), set()
        for cfg in KEY_READ_CONFIGS[name]:
            resolved = ReadKeys(resolve({"command": name, **cfg}))
            resolved["tolerances"] = ReadKeys(resolved["tolerances"])
            command.run(resolved)
            keys |= resolved.read
            tolerances |= resolved["tolerances"].read
        # main reads out, and the format of spectrum
        main_reads = {"out", "format"} if name == "spectrum" else {"out"}
        assert set(command.options) - main_reads <= keys
        assert set(command.tolerances) <= tolerances

    @pytest.mark.parametrize("argv, message", [
        (["curvature", "--seed", "1"], "curvature reads no '--seed'; "
         "flags: --case, --config, --n, --out, --tol"),
        (["classify", "--scenario", "minkowski", "--surface", "sphere", "--seed", "5"],
         "classify reads no '--seed'; flags: --config, --expect, --out, --scenario, --surface, "
         "--tol"),
        (["deform", "--format", "csv"], f"deform reads no '--format'; flags: {DEFORM_FLAGS}"),
        (["curvature", "--case", "timelike", "--format", "csv", "--out", "x.csv"],
         "curvature reads no '--format'; flags: --case, --config, --n, --out, --tol"),
        (["verify", "curvature-perturbation", "--tol", "curvature=1e-3"],
         "verify reads no tolerance curvature; it reads: none"),
        (["verify", "--config", "FORMAT_CONFIG"],
         "verify reads no key format; it reads: out, suites"),
    ])
    def test_removed_key_is_one_line(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "format.cfg").write_text('format = "csv"\n')
        argv = [str(tmp_path / "format.cfg") if a == "FORMAT_CONFIG" else a for a in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"configuration error: {message}"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [tmp_path / "format.cfg"]

    def test_empty_config_path_is_one_line(self, capsys):
        assert cli.main(["curvature", "--config", ""]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: cannot read config file '': "
            "[Errno 2] No such file or directory: ''"
        ]

    @pytest.mark.parametrize("path, reason", [
        ("", "No such file or directory"),
        ("missing/r.json", "No such file or directory"),
        ("reports", "Is a directory"),
    ])
    def test_unwritable_out_is_refused_before_the_run(self, path, reason, tmp_path,
                                                       monkeypatch, capsys):
        def never(cfg):
            raise AssertionError("the run started")

        monkeypatch.chdir(tmp_path)
        (tmp_path / "reports").mkdir()
        monkeypatch.setitem(cli.COMMANDS, "verify", cli.COMMANDS["verify"]._replace(run=never))
        assert cli.main(["verify", "all", "--out", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"configuration error: cannot write {path!r}: {reason}"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [tmp_path / "reports"]
        assert list((tmp_path / "reports").iterdir()) == []

    def test_atomic_write_of_the_empty_path_makes_no_file(self, tmp_path, monkeypatch):
        # the empty path names no directory: it must not fall back on the
        # parent of the working directory, even for a temporary file
        from traplab import reporting

        def mkstemp(*args, **kwargs):
            raise AssertionError(f"temporary file made in {kwargs.get('dir')}")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(reporting.tempfile, "mkstemp", mkstemp)
        with pytest.raises(FileNotFoundError):
            reporting._write_atomic("", b"{}\n")

    def test_unread_scenario_parameter_exit_three(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mass = 5\n")
        proc = run_cli("classify", "--scenario", "minkowski", "--surface", "sphere",
                       "--config", str(cfg))
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == ["scenario error: minkowski reads no parameter mass"]


class TestArgvParser:
    """The command line is read by ``cli.COMMANDS`` alone: every error is one line."""

    @pytest.mark.parametrize("argv, message", [
        ([], f"command must be one of {sorted(cli.COMMANDS)}, got None"),
        (["frobnicate"], f"command must be one of {sorted(cli.COMMANDS)}, got 'frobnicate'"),
        (["deform", "--bogus", "1"], f"deform reads no '--bogus'; flags: {DEFORM_FLAGS}"),
        (["spectrum", "--resolution"], "--resolution expects a value"),
        (["deform", "stray"], f"deform reads no 'stray'; flags: {DEFORM_FLAGS}"),
    ])
    def test_command_line_error_is_one_line(self, argv, message, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"configuration error: {message}"]
        assert captured.out == ""

    def test_no_command_from_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["traplab"])
        assert cli.main() == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_command_help_lists_its_table(self, name, capsys):
        assert cli.main([name, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        command = cli.COMMANDS[name]
        assert text.startswith(f"usage: traplab {name} ")
        assert " ".join(command.run.__doc__.split()) in text
        for key, opt in command.options.items():
            if opt.source == cli.FLAG:
                assert f"--{key.replace('_', '-')} " in text
            elif opt.source == cli.ARG:
                assert f"{key} ..." in text
            else:
                assert f"--{key.replace('_', '-')} " not in text
                continue
            if opt.help:  # a callable help is the text of a deferred import
                assert " ".join((opt.help() if callable(opt.help) else opt.help).split()) in text
            if opt.choices:
                assert "{" + ",".join(map(str, opt.choices)) + "}" in text
        for tolerance in command.tolerances:
            assert tolerance in text.split("--tol NAME=VALUE", 1)[1]

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_top_level_help_lists_every_command(self, flag, capsys):
        assert cli.main([flag]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "usage: traplab COMMAND [FLAG VALUE ...]"
        for name, command in cli.COMMANDS.items():
            assert any(line.split() == [name, *command.run.__doc__.split()] for line in lines)

    def test_version(self, capsys):
        from traplab import __version__

        assert cli.main(["--version"]) == 0
        assert capsys.readouterr().out == f"traplab {__version__}\n"

    def test_suites_around_flags(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["verify", "determinism", "--out", str(out), "linear-lemmas"]) == 0
        report = json.loads(out.read_text())
        assert list(report["payload"]) == ["determinism", "linear-lemmas"]
        assert report["config"]["suites"] == ["determinism", "linear-lemmas"]

    def test_value_flag_takes_a_help_token(self, tmp_path, monkeypatch):
        # a value flag takes the next token whatever it starts with: --help names the file
        monkeypatch.chdir(tmp_path)
        assert cli.main(["linear", "--out", "--help"]) == 0
        assert json.loads((tmp_path / "--help").read_text())["command"] == "linear"

    def test_flag_equals_value(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["curvature", "--n=2", "--tol=curvature=1e-3", f"--out={out}"]
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["config"] == {
            "command": "curvature", "n": 2, "out": str(out), "tolerances": {"curvature": 1e-3},
        }

    def test_flags_override_the_last_config_file(self, tmp_path):
        first, last = tmp_path / "first.cfg", tmp_path / "last.cfg"
        first.write_text("n = 5\ncase = null-null\n")
        last.write_text("n = 3\ntolerances = {\"curvature\": 0.5}\n")
        out = tmp_path / "report.json"
        argv = ["curvature", "--config", str(first), "--n", "2", "--config", str(last),
                "--tol", "curvature=1e-3", "--out", str(out)]
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["config"] == {
            "command": "curvature", "n": 2, "out": str(out), "tolerances": {"curvature": 1e-3},
        }

    def test_unwritable_out_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "missing" / "report.json"
        assert cli.main(["linear", "--out", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: cannot write {str(path)!r}: No such file or directory"
        ]
        assert not (tmp_path / "missing").exists()

    def test_unwritable_csv_out_names_its_path(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "eig.csv")
        argv = ["spectrum", "--resolution", "16", "--format", "csv", "--out", path]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: cannot write {path!r}: No such file or directory"
        ]

    def test_empty_out_is_not_skipped(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["linear", "--out", ""]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: cannot write '': ")
