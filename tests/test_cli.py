import json

import pytest

from smfft import bench
from smfft.cli import EXIT_ENVELOPE, EXIT_PARSE, EXIT_SUPPORT, main
from smfft.support_recovery import SupportParams


@pytest.fixture()
def signal_file(tmp_path):
    doc = {"dims": 2, "axis_size": 32,
           "support": [[1, 2], [30, 17], [0, 5]],
           "values": [1.0, 0.75, 1.25]}
    path = tmp_path / "sig.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


class TestTransform:
    def test_recovers_and_reports(self, signal_file, capsys):
        code, out = run(["transform", "--signal", signal_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["success"] is True
        assert report["support"] == [[0, 5], [1, 2], [30, 17]]
        assert report["N"] == 1024 and report["d"] == 2
        assert report["rel_l2_error"] < 1e-9

    def test_out_file(self, signal_file, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, out = run(["transform", "--signal", signal_file,
                         "--out", str(dest)], capsys)
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["success"] is True

    def test_requires_signal(self, capsys):
        code = main(["transform"])
        assert code == EXIT_PARSE

    def test_env_seed_overrides(self, signal_file, capsys, monkeypatch):
        monkeypatch.setenv("SMFFT_SEED", "77")
        _, out = run(["transform", "--signal", signal_file, "--seed", "3"],
                     capsys)
        assert json.loads(out)["seed"] == 77

    def test_bad_env_seed(self, signal_file, capsys, monkeypatch):
        monkeypatch.setenv("SMFFT_SEED", "not-a-number")
        assert main(["transform", "--signal", signal_file]) == EXIT_PARSE

    def test_unset_tuning_flags_keep_support_params_defaults(
            self, signal_file, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(bench, "md_sfft",
                            lambda sampler, lattice, params, rng: seen.append(params) or {})
        main(["transform", "--signal", signal_file])
        main(["transform", "--signal", signal_file, "--rho", "4", "--p", "0.01"])
        assert seen == [SupportParams(r_bound=3, eta=0.0),
                        SupportParams(r_bound=3, eta=0.0, rho=4, p_fail=0.01)]

    @pytest.mark.parametrize("noise", [{"kind": "none", "eta": 0.01},
                                       {"kind": "gaussian", "eta": 0.0}],
                             ids=["none-with-eta", "gaussian-zero-eta"])
    def test_noise_kind_disagreeing_with_eta(self, noise, tmp_path, capsys):
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"dims": 1, "axis_size": 40, "support": [1],
                                    "values": [1.0], "noise": noise}))
        assert main(["transform", "--signal", str(path)]) == EXIT_PARSE
        assert "does not match eta" in capsys.readouterr().err

    def test_negative_eta_is_parse_error(self, signal_file, capsys):
        # It used to recover the spectrum exactly and then report a value
        # failure (exit 4) against a negative error cap.
        assert main(["verify", "--signal", signal_file, "--eta=-0.5"]) == EXIT_PARSE
        assert "eta" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--mu", "--delta-ratio"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_estimate_is_parse_error(self, flag, value, signal_file,
                                                capsys):
        # --delta-ratio inf used to die with an OverflowError traceback and
        # --mu inf to run and exit 3 with nothing recovered.
        assert main(["verify", "--signal", signal_file, flag, value]) == EXIT_PARSE
        field = flag[2:].replace("-", "_")
        assert f"error: {field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("command", ["transform", "verify"])
    def test_non_finite_amplitude_is_parse_error(self, command, value, tmp_path,
                                                 capsys):
        # json reads Infinity; transform used to exit 0 with nothing
        # recovered and verify to exit 3.
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"dims": 1, "axis_size": 40, "support": [1, 23],
                                    "values": [1.0, value]}))
        assert main([command, "--signal", str(path)]) == EXIT_PARSE
        assert "must be finite and > 0" in capsys.readouterr().err

    def test_huge_amplitudes_give_a_finite_error(self, tmp_path, capsys):
        # Squaring 1e300 in the error's norms used to die with an
        # OverflowError traceback; mu above the amplitudes recovers nothing.
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"dims": 2, "axis_size": 32,
                                    "support": [[1, 2], [30, 17], [0, 5]],
                                    "values": [1e300, 0.75e300, 1.25e300]}))
        code, out = run(["transform", "--signal", str(path), "--mu", "1e303"], capsys)
        assert code == 0
        assert json.loads(out)["rel_l2_error"] == pytest.approx(1.0)


def write_spec(tmp_path, dims, axis, support):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"dims": dims, "axis_size": axis, "support": support,
                                "values": [1.0] * len(support)}))
    return str(path)


class TestSpecIndices:
    """Indices are checked where the file is read: a bad one is a parse
    error (exit 2), never a traceback."""

    @pytest.mark.parametrize("support,message", [
        ([[1, 9]], "not 2 integers in [0, 8)"),
        ([[1, 2, 3]], "not 2 integers in [0, 8)"),
        ([[1, 2], [1, 2]], "listed twice"),
    ])
    @pytest.mark.parametrize("command", ["transform", "verify"])
    def test_bad_index_is_parse_error(self, command, support, message, tmp_path, capsys):
        assert main([command, "--signal", write_spec(tmp_path, 2, 8, support)]) == EXIT_PARSE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("dims,axis,support", [
        (2, 8, [[True, 2]]),
        (True, 8, [[1]]),
        (2, True, [[0, 0]]),
    ], ids=["index", "dims", "axis_size"])
    def test_boolean_is_parse_error(self, dims, axis, support, tmp_path, capsys):
        # bool is an int in Python, so true would otherwise read as 1.
        assert main(["transform", "--signal",
                     write_spec(tmp_path, dims, axis, support)]) == EXIT_PARSE
        assert "boolean true is not an integer" in capsys.readouterr().err

    def test_noise_section_not_object_is_parse_error(self, tmp_path, capsys):
        # It used to exit 1 with an AttributeError traceback.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": 1, "axis_size": 40, "support": [1],
                                    "values": [1.0], "noise": [0.01]}))
        assert main(["transform", "--signal", str(path)]) == EXIT_PARSE
        assert "noise section [0.01] is not an object" in capsys.readouterr().err

    @pytest.mark.parametrize("values,noise,message", [
        ([1.0], {"kind": "gaussian", "eta": 0.01, "seed": 2.7}, "float"),
        ([True], {}, "true is not a number"),
        (["0.75"], {}, '"0.75" is not a number'),
        ([1.0], {"eta": "0"}, '"0" is not a number'),
    ], ids=["fractional-seed", "boolean-value", "string-value", "string-eta"])
    def test_non_number_is_parse_error(self, values, noise, message, tmp_path, capsys):
        # Each of these used to run to exit 0: the seed truncated to 2, true
        # read as amplitude 1.0, and the strings read as 0.75 and 0.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": 1, "axis_size": 40, "support": [1],
                                    "values": values, "noise": noise}))
        assert main(["transform", "--signal", str(path)]) == EXIT_PARSE
        assert message in capsys.readouterr().err

    def test_one_dimensional_list_index(self, tmp_path, capsys):
        code, out = run(["transform", "--signal",
                         write_spec(tmp_path, 1, 40, [[5], 23])], capsys)
        assert code == 0
        assert json.loads(out)["support"] == [[5], [23]]

    def test_one_dimensional_report_round_trip(self, tmp_path, capsys):
        # The support a 1-D report prints reads back as a spec file.
        _, out = run(["transform", "--signal",
                      write_spec(tmp_path, 1, 40, [1, 23, 35])], capsys)
        support = json.loads(out)["support"]
        assert support == [[1], [23], [35]]
        code, out = run(["verify", "--signal", write_spec(tmp_path, 1, 40, support)],
                        capsys)
        assert code == 0 and json.loads(out)["support"] == support


class TestEnvelope:
    @pytest.mark.parametrize("command", ["transform", "verify"])
    def test_outside_envelope_has_its_own_exit_code(self, command, tmp_path,
                                                    capsys):
        # M = 2^16 with d = 3 is N = 2^48, past the 2^46 the exact
        # arithmetic covers.  It used to fail inside the sampler and exit 2,
        # as if the file could not be parsed.  With d = 5 (N = 2^80) the
        # flat index is past int64 as well.
        for key in ([1, 2, 3], [5, 0, 0, 0, (1 << 16) - 1]):
            code = main([command, "--signal", write_spec(tmp_path, len(key), 1 << 16, [key])])
            assert code == EXIT_ENVELOPE
            assert ("outside the supported envelope: padded grid size"
                    in capsys.readouterr().err)


class TestVerify:
    def test_success_exit_zero(self, signal_file, capsys):
        code, _ = run(["verify", "--signal", signal_file], capsys)
        assert code == 0

    @pytest.mark.parametrize("command", ["transform", "verify"])
    def test_one_dimensional_file(self, command, tmp_path, capsys):
        path = tmp_path / "sig1d.json"
        path.write_text(json.dumps({"dims": 1, "axis_size": 40,
                                    "support": [1, 23, 35],
                                    "values": [1.0, 0.75, 1.25]}))
        code, out = run([command, "--signal", str(path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["success"] is True
        assert report["support"] == [[1], [23], [35]]

    def test_overestimated_mu_fails_support(self, signal_file, capsys):
        # mu far above the true amplitudes thresholds every line away,
        # so the recovered support is empty and verify must say so.
        code = main(["verify", "--signal", signal_file, "--mu", "100"])
        assert code == EXIT_SUPPORT


class TestBench:
    def test_bench_r_csv_header_and_rows(self, capsys, monkeypatch):
        monkeypatch.setenv("SMFFT_SEED", "5")
        code, out = run(["bench-r", "--trials", "1", "--m", "64",
                         "--eta", "0.01"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("N,R,d,eta,seed,time_ms,samples,"
                            "rel_l2_error,success")
        assert len(lines) == 7  # header + 6 sparsity levels
        first = lines[1].split(",")
        assert first[0] == str(64**3)
        assert first[-1] == "1"

    @pytest.mark.parametrize("command,args,kwargs", [
        ("bench-n", [], {}),
        ("bench-n", ["--r", "4", "--trials", "2"], {"sparsity": 4, "trials": 2}),
        ("bench-r", [], {}),
        ("bench-r", ["--m", "64", "--d", "2", "--eta", "0"],
         {"axis_size": 64, "dims": 2, "eta": 0.0}),
    ])
    def test_unset_flags_keep_function_defaults(self, command, args, kwargs,
                                                capsys, monkeypatch):
        # The CLI passes on only the flags that were set, so it runs the
        # sweep the bench function itself runs with those arguments.
        seen = []
        monkeypatch.setattr(bench, "sweep", lambda *a: seen.append(a) or [])
        assert main([command] + args) == 0
        {"bench-n": bench.bench_n_rows, "bench-r": bench.bench_r_rows}[command](**kwargs)
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("command", ["bench-n", "bench-r"])
    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_trials_is_parse_error(self, command, trials, capsys, monkeypatch):
        # It used to run a warm-up trial per configuration and exit 0 with
        # an empty report; now it fails before any trial runs.
        monkeypatch.setattr(bench, "run_trial", lambda *a: pytest.fail("trial ran"))
        assert main([command, "--trials", trials]) == EXIT_PARSE
        assert "trials must be >= 1" in capsys.readouterr().err

    def test_bench_n_json(self, capsys):
        code, out = run(["bench-n", "--trials", "1", "--r", "4", "--d", "2",
                         "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert all(row["R"] == 4 and row["d"] == 2 for row in rows)


class TestSelftest:
    def test_all_suites_pass(self, capsys):
        code, out = run(["selftest"], capsys)
        assert code == 0
        assert "all suites passed" in out
        assert out.count("PASS") == 6
        assert "FAIL" not in out


class TestParsing:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_PARSE

    def test_version(self, capsys):
        assert main(["--version"]) == 0

    @pytest.mark.parametrize("args", [
        ["bench-r", "--rho", "8"],
        ["bench-n", "--m", "64"],
        ["transform", "--format", "csv"],
        ["selftest", "--trials", "99"],
        ["transform", "--m", "32"],
        ["verify", "--d", "2"],
    ])
    def test_flag_the_command_does_not_read(self, args, signal_file, capsys):
        # The spec file is the only source of dims and axis size, so --m
        # and --d could only agree with it (as they do here) or contradict.
        if args[0] in ("transform", "verify"):
            args = args + ["--signal", signal_file]
        assert main(args) == EXIT_PARSE

    @pytest.mark.parametrize("flag", [["--sig", "other.json"],
                                      ["--delta-r", "4"], ["--rh", "4"]])
    def test_abbreviated_flag_is_parse_error(self, flag, signal_file, capsys):
        # Flags take their exact names only: an abbreviation let
        # transform --m 32 set mu.
        args = ["transform"] + flag + ["--signal", signal_file]
        assert main(args) == EXIT_PARSE
