import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from smfft import bench, cli
from smfft.cli import EXIT_ENVELOPE, EXIT_PARSE, EXIT_SUPPORT, TUNING_FLAGS, main
from smfft.md_transform import flatten_index
from smfft.support_recovery import SupportParams

DEMOS = Path(__file__).parents[1] / "demos"
# A 32^2 spectrum with amplitudes near 1e306, also run by CI's entry-point step.
HUGE_SPEC = DEMOS / "signal_huge.json"


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

    @staticmethod
    def refuse_to_run(monkeypatch):
        monkeypatch.setattr(cli, "scored_run", lambda *a: pytest.fail("recovery ran"))
        monkeypatch.setattr(bench, "run_trial", lambda *a: pytest.fail("trial ran"))

    @pytest.mark.parametrize("command", ["transform", "bench-r"])
    def test_unwritable_out_is_parse_error(self, command, signal_file, tmp_path,
                                           capsys, monkeypatch):
        # It used to die in the write with a FileNotFoundError traceback and
        # exit 1, and then to exit 2, but only after the whole run.
        self.refuse_to_run(monkeypatch)
        dest = tmp_path / "missing" / "report.json"
        args = (["transform", "--signal", signal_file] if command == "transform"
                else ["bench-r", "--trials", "1", "--m", "32"])
        assert main(args + ["--out", str(dest)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"cannot write report {dest}: No such file or directory" in err

    @pytest.mark.parametrize("command", ["transform", "bench-n"])
    def test_directory_out_fails_before_sampling(self, command, signal_file,
                                                 tmp_path, capsys, monkeypatch):
        self.refuse_to_run(monkeypatch)
        args = (["transform", "--signal", signal_file] if command == "transform"
                else ["bench-n", "--trials", "1"])
        assert main(args + ["--out", str(tmp_path)]) == EXIT_PARSE
        assert f"cannot write report {tmp_path}: Is a directory" in capsys.readouterr().err

    def test_out_under_a_regular_file_fails_before_sampling(self, signal_file, tmp_path,
                                                            capsys, monkeypatch):
        # The check used to model the OS's rules and called this "No such
        # file or directory"; it now reports what the open says.
        self.refuse_to_run(monkeypatch)
        dest = tmp_path / "sig.json" / "r.json"
        assert main(["transform", "--signal", signal_file, "--out", str(dest)]) == EXIT_PARSE
        assert f"cannot write report {dest}: Not a directory" in capsys.readouterr().err

    @pytest.mark.skipif(os.geteuid() == 0, reason="root writes to a read-only file")
    def test_read_only_out_fails_before_sampling(self, signal_file, tmp_path, capsys,
                                                 monkeypatch):
        # It used to pass the check and fail in the write, after the run.
        self.refuse_to_run(monkeypatch)
        dest = tmp_path / "report.json"
        dest.write_text("kept\n")
        dest.chmod(0o444)
        assert main(["transform", "--signal", signal_file, "--out", str(dest)]) == EXIT_PARSE
        assert f"cannot write report {dest}: Permission denied" in capsys.readouterr().err
        assert dest.read_text() == "kept\n"

    def test_failed_write_is_parse_error(self, signal_file, tmp_path, capsys,
                                         monkeypatch):
        # A report path that passed the check but fails at write time
        # (here a directory, the check turned off) is still exit 2.
        monkeypatch.setattr(cli, "_check_out", lambda out: None)
        assert main(["transform", "--signal", signal_file, "--out", str(tmp_path)]) == EXIT_PARSE
        assert f"cannot write report {tmp_path}: Is a directory" in capsys.readouterr().err

    def test_out_to_devnull(self, signal_file, capsys):
        # A writable file in a folder the user cannot write to: the check
        # used to refuse /dev/null for any unprivileged user.
        code, out = run(["transform", "--signal", signal_file, "--out", os.devnull],
                        capsys)
        assert code == 0 and out == ""

    def test_checked_out_path_is_not_left_behind(self, tmp_path, capsys):
        # The spec is read after the check, so the run fails after the
        # report path was opened; the file the check created is gone.
        spec = tmp_path / "bad.json"
        spec.write_text("{")
        dest = tmp_path / "report.json"
        assert main(["transform", "--signal", str(spec), "--out", str(dest)]) == EXIT_PARSE
        assert "cannot read signal spec" in capsys.readouterr().err
        assert not dest.exists()

    def test_requires_signal(self, capsys):
        code = main(["transform"])
        assert code == EXIT_PARSE

    def test_unset_tuning_flags_keep_support_params_defaults(
            self, signal_file, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(bench, "md_sfft",
                            lambda sampler, lattice, params, rng: seen.append(params) or {})
        main(["transform", "--signal", signal_file])
        main(["transform", "--signal", signal_file, "--mu", "0.25"])
        assert seen == [SupportParams(r_bound=3, eta=0.0),
                        SupportParams(r_bound=3, eta=0.0, mu=0.25)]

    def test_tuning_flags_are_the_support_params_fields(self, signal_file, capsys):
        # R defaults to the file's support size and the file alone sets the
        # noise; alpha, rho and delta are constants of the support search,
        # and the prime-grid fallback's draws a constant of the value stage.
        fields = {f.name for f in dataclasses.fields(SupportParams)}
        assert {dest for _, dest, _, _ in TUNING_FLAGS} == fields - {"r_bound", "eta"}
        for command in ("transform", "verify"):
            assert main([command, "--help"]) == 0
            flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
            assert flags == {"--help", "--signal", "--r", "--seed", "--out",
                             *(flag for flag, _, _, _ in TUNING_FLAGS)}
            for flag in ("--alpha", "--rho", "--delta", "--eta", "--p"):
                assert main([command, "--signal", signal_file, flag, "0.5"]) == EXIT_PARSE
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", [{"kind": "none", "eta": 0.01},
                                       {"kind": "gaussian", "eta": 0.0}],
                             ids=["none-with-eta", "gaussian-zero-eta"])
    def test_noise_kind_disagreeing_with_eta(self, noise, tmp_path, capsys):
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"dims": 1, "axis_size": 40, "support": [1],
                                    "values": [1.0], "noise": noise}))
        assert main(["transform", "--signal", str(path)]) == EXIT_PARSE
        assert "does not match eta" in capsys.readouterr().err

    def test_unknown_key_is_parse_error(self, tmp_path, capsys):
        # A misspelt "noise" used to run noiseless samples and exit 0.
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"dims": 3, "axis_size": 16,
                                    "support": [[1, 2, 3], [0, 0, 1]], "values": [1.0, 0.5],
                                    "nosie": {"kind": "gaussian", "eta": 0.01, "seed": 4}}))
        assert main(["verify", "--signal", str(path)]) == EXIT_PARSE
        assert "unknown top-level key 'nosie'" in capsys.readouterr().err

    def test_negative_eta_is_parse_error(self, tmp_path, capsys):
        # It used to recover the spectrum exactly and then report a value
        # failure (exit 4) against a negative error cap.
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"dims": 1, "axis_size": 40, "support": [1],
                                    "values": [1.0],
                                    "noise": {"kind": "none", "eta": -0.5}}))
        assert main(["verify", "--signal", str(path)]) == EXIT_PARSE
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

    def test_huge_amplitudes_verify(self, tmp_path, capsys):
        # At 1e200 the value stage runs, and its residual norms must stay
        # finite: an overflow warning is an error under pytest.
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"dims": 2, "axis_size": 32,
                                    "support": [[1, 2], [30, 17], [0, 5]],
                                    "values": [1e200, 0.75e200, 1.25e200]}))
        code, out = run(["verify", "--signal", str(path), "--mu", "5e199"], capsys)
        assert code == 0
        assert json.loads(out)["rel_l2_error"] < 1e-9

    def test_amplitudes_near_float_max_verify(self, capsys):
        # At 1e306 a sum over a period of samples leaves float64's range
        # unless the run works in units of mu; under pytest an overflow
        # warning is an error.  CI runs the same file through the installed
        # entry point without --mu, where it exits 5.  mu = 5e305 declares
        # [mu, 3*mu] at the default delta_ratio, which holds the file's lines.
        assert max(json.loads(HUGE_SPEC.read_text())["values"]) == 1.25e306
        code, out = run(["verify", "--signal", str(HUGE_SPEC), "--mu", "5e305"], capsys)
        assert code == 0
        assert json.loads(out)["rel_l2_error"] < 1e-9

    def test_amplitudes_overflowing_units_of_mu(self, capsys):
        # In units of mu = 1e-100 the 1e306 samples leave float64's range;
        # the run stops outside the envelope rather than probe inf samples
        # and report an empty spectrum.
        code, _ = run(["transform", "--signal", str(HUGE_SPEC), "--mu", "1e-100"], capsys)
        assert code == EXIT_ENVELOPE

    def test_amplitudes_far_above_default_mu(self, capsys):
        # At the default mu = 0.5 the samples fit float64, but the probes'
        # sums of them do not.  It used to exit 4 with every value draw
        # rejected, and exit 1 with an overflow warning as an error.
        assert main(["verify", "--signal", str(HUGE_SPEC)]) == EXIT_ENVELOPE
        assert ("outside the supported envelope: a sum overflows in units of mu"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["transform", "verify"])
    def test_fit_overflowing_units_of_mu(self, command, tmp_path, capsys):
        # At the default mu the 1e200 samples and the support stage's sums
        # fit float64, but the fit's sums of squares do not.  The fit used to
        # rescale by a unit of its own, miss CG's tolerance on the many
        # candidates the oracle's rounding lights, and hand over to the
        # prime grids: transform exited 0 with 68 lines, and verify 3.
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"dims": 1, "axis_size": 100, "support": [5, 23, 71],
                                    "values": [1e200, 0.75e200, 1.25e200]}))
        assert main([command, "--signal", str(path)]) == EXIT_ENVELOPE
        assert ("outside the supported envelope: a sum overflows in units of mu"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["transform", "verify"])
    def test_oracle_overflowing_float64(self, command, tmp_path, capsys):
        # The three lines lie within delta_ratio 3 of mu = 1e308, but the
        # synthetic oracle's samples, their sums, pass float64's maximum
        # before anything is scaled.  The error names the oracle: it used to
        # blame amplitudes far above mu.
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"dims": 2, "axis_size": 32,
                                    "support": [[1, 2], [5, 7], [30, 31]],
                                    "values": [1.5e308, 1.2e308, 1.7e308]}))
        assert main([command, "--signal", str(path), "--mu", "1e308"]) == EXIT_ENVELOPE
        assert ("outside the supported envelope: the oracle's samples overflow float64"
                in capsys.readouterr().err)

    def test_subnormal_amplitudes_verify(self, tmp_path, capsys):
        # mu = 5e-310 is below 2^-1023, where the unit 2^e of mu is held so
        # that 2^-e stays a float; the run still works in near-unit values.
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"dims": 2, "axis_size": 32,
                                    "support": [[1, 2], [30, 17], [0, 5]],
                                    "values": [1e-309, 0.75e-309, 1.25e-309]}))
        code, out = run(["verify", "--signal", str(path), "--mu", "5e-310"], capsys)
        assert code == 0
        assert json.loads(out)["rel_l2_error"] < 1e-9


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

    @pytest.mark.parametrize("values,noise", [
        ([10**400], {}),
        ([1.0], {"kind": "gaussian", "eta": 10**400}),
    ], ids=["value", "eta"])
    @pytest.mark.parametrize("command", ["transform", "verify"])
    def test_integer_too_large_for_a_float_is_parse_error(self, command, values, noise,
                                                          tmp_path, capsys):
        # float() of a 400-digit JSON integer raises OverflowError, which
        # used to escape as a traceback and exit 1.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": 1, "axis_size": 40, "support": [1],
                                    "values": values, "noise": noise}))
        assert main([command, "--signal", str(path)]) == EXIT_PARSE
        assert "too large to convert to float" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 - 1])
    @pytest.mark.parametrize("command", ["transform", "verify"])
    def test_noise_seed_is_64_bits(self, command, seed, tmp_path, capsys):
        # The noise is keyed by the seed modulo 2^64, so seeds 1 and
        # 2^64 + 1 (and -(2^64 - 1)) used to give the same noise.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": 1, "axis_size": 40, "support": [1],
                                    "values": [1.0], "noise": {"kind": "gaussian",
                                                               "eta": 0.01, "seed": seed}}))
        refused = not 0 <= seed < 2**64
        assert main([command, "--signal", str(path)]) == (EXIT_PARSE if refused else 0)
        assert (f"noise seed must be in [0, 2^64), got {seed}"
                in capsys.readouterr().err) == refused

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

    @pytest.mark.parametrize("flags", [["--r", "1000000000000"],
                                       ["--delta-ratio", "1e307", "--r", "4"]],
                             ids=["r-1e12", "delta-ratio-1e307"])
    def test_k_bound_past_2_17(self, flags, signal_file, capsys):
        # These put K's bound past 1e13 or at infinity (2R*Delta/delta =
        # 2e308 at R = 4 and delta = 0.4), which is rejected before it is
        # rounded up to an 11-smooth size.
        code = main(["transform", "--signal", signal_file] + flags)
        assert code == EXIT_ENVELOPE
        assert ("outside the supported envelope: base modulus K bound"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("scale", [1e13, 1e15, 1e17])
    def test_values_above_the_declared_range(self, scale, tmp_path, capsys):
        # Lines f times [1.0, 0.75, 1.25] at the default mu = 0.5 and
        # delta_ratio 3.  The oracle's rounding, about 1e-13 of the largest
        # line, lit candidates far above mu: these runs exited 0 with 9 and
        # 18 certified lines, and with 71 through the prime grids.
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"dims": 1, "axis_size": 100, "support": [5, 23, 71],
                                    "values": [scale, 0.75 * scale, 1.25 * scale]}))
        assert main(["verify", "--signal", str(path)]) == EXIT_ENVELOPE
        assert "mu lies outside the declared range" in capsys.readouterr().err


class TestVerify:
    def test_success_exit_zero(self, signal_file, capsys):
        code, _ = run(["verify", "--signal", signal_file], capsys)
        assert code == 0

    @pytest.mark.parametrize("spec,flags,samples", [
        ("signal_3d.json", [], None),
        # The file's amplitudes are 1.0 and 0.5, so delta_ratio 2 is its own
        # dynamic range: the narrowest probe window it allows.
        ("signal_3d.json", ["--delta-ratio", "2"], None),
        ("signal_3d.json", ["--seed", "7"], None),
        # 16 points are at most 5K/2: the grid is sampled whole and its
        # values read off its DFT, a path no benchmark workload takes.
        ("signal_one_level.json", [], 9),
        # A 1-D grid of 35 * 8^13 (about 2^44.1) points, padded to itself,
        # with two lines at its last two flat indices, where the oracle takes
        # mulmod's float-quotient path at its largest products.
        ("signal_top_of_grid.json", [], 463),
    ], ids=["3d", "3d-delta-ratio-2", "3d-seed-7", "one-level", "top-of-grid"])
    def test_demo_spec(self, spec, flags, samples, capsys):
        code, out = run(["verify", "--signal", str(DEMOS / spec)] + flags, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["success"] is True
        if samples is not None:
            assert report["samples"] == samples

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

    @pytest.mark.parametrize("command", ["transform", "verify"])
    def test_candidate_blowup_names_r(self, command, tmp_path, capsys):
        # 200 lines on a 465^3 grid read with --r 50: the candidates outgrow
        # their cap, and the message names the likely cause, R set too small.
        entries, _, _ = bench.random_instance(465, 3, 200, 0.0, 0)
        path = write_spec(tmp_path, 3, 465, [list(key) for key in entries])
        assert main([command, "--signal", path, "--r", "50"]) == EXIT_SUPPORT
        err = capsys.readouterr().err
        assert err.startswith("support recovery failed: ")
        assert "check the sparsity bound R and the mu/delta_ratio estimates" in err


class TestEdgeInputs:
    # Edge inputs take the general formulas: -log2 of a subnormal eta is
    # finite, where log2(1/x) overflowed, and the error cap is never below
    # the noiseless 1e-8.
    @pytest.mark.parametrize("eta", [1e-310, 1e-16])
    def test_tiny_eta_verify(self, eta, tmp_path, capsys):
        # At 1e-310 it used to die with an OverflowError traceback (exit 1);
        # at 1e-16 it exited 4, its error of about 4e-16 above 3*eta.
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"dims": 2, "axis_size": 32,
                                    "support": [[1, 2], [30, 17], [0, 5]],
                                    "values": [1.0, 0.75, 1.25],
                                    "noise": {"kind": "gaussian", "eta": eta,
                                              "seed": 3}}))
        code, out = run(["verify", "--signal", str(path)], capsys)
        assert code == 0 and json.loads(out)["success"] is True

    def test_success_rule_caps_the_error_at_1e_8(self):
        truth = {(1,): 1.0}
        assert bench.meets_success_rule(truth, truth, 4e-16, 1e-16)
        assert bench.meets_success_rule(truth, truth, 1e-8, 0.0)
        assert not bench.meets_success_rule(truth, truth, 2e-8, 0.0)
        assert not bench.meets_success_rule(truth, truth, 0.031, 0.01)


class TestBench:
    def test_bench_r_csv_header_and_rows(self, capsys):
        code, out = run(["bench-r", "--trials", "1", "--m", "64",
                         "--eta", "0.01", "--seed", "5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("N,R,d,eta,seed,time_ms,samples,"
                            "rel_l2_error,success")
        assert len(lines) == 7  # header + 6 sparsity levels
        first = lines[1].split(",")
        assert first[0] == str(64**3)
        assert first[-1] == "1"

    def test_bench_r_seed_near_2_64(self, capsys):
        # A trial's noise is seeded (seed + 1) mod 2^64.  Seeded seed + 1,
        # it was refused past 2^64, so the last 64-bit base seed made the
        # sweep exit 2 with no row.
        code, out = run(["bench-r", "--trials", "1", "--m", "32",
                         "--seed", str(2**64 - 1)], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 7  # header + 6 sparsity levels

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
        # sweep the bench function itself runs with those arguments.  The
        # stub returns one row, as every sweep does, for the CSV header.
        seen = []
        monkeypatch.setattr(bench, "sweep", lambda *a: seen.append(a) or [{"N": 1}])
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

    def test_sparsity_above_grid_size_is_parse_error(self, capsys):
        # R = 8 lines do not fit on the N = 1^3 grid of --m 1.  numpy's
        # "Cannot take a larger sample than population" named neither.
        assert main(["bench-r", "--trials", "1", "--m", "1"]) == EXIT_PARSE
        assert "sparsity R = 8 exceeds the grid size N = 1" in capsys.readouterr().err
        with pytest.raises(ValueError, match="R = 5 exceeds the grid size N = 4"):
            bench.random_instance(2, 2, 5, 0.0, 0)
        entries, _, _ = bench.random_instance(2, 2, 4, 0.0, 0)
        assert sorted(entries) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("axis,dims,sparsity", [
        (256, 2, 256), (10321, 3, 50), (5_000_000, 2, 6910),
        (70_317_741_441_024, 1, 6910), (41_275, 3, 6910)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_draw_rule_at_every_grid_size(self, axis, dims, sparsity, seed):
        # The support is R distinct flat indices drawn over the whole grid
        # by one rule at every N, so a large grid's lines reach its top,
        # where the flat indices are largest.
        entries, lattice, _ = bench.random_instance(axis, dims, sparsity, 0.0, seed)
        flat = np.random.default_rng(seed).choice(lattice.total, sparsity, replace=False)
        assert list(entries) == lattice.unflatten(flat)
        if lattice.total >= 1 << 30:
            assert max(flatten_index(k, lattice) for k in entries) > lattice.total / 2

    def test_bench_n_json(self, capsys):
        code, out = run(["bench-n", "--trials", "1", "--r", "4", "--d", "2",
                         "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert all(row["R"] == 4 and row["d"] == 2 for row in rows)


class TestParsing:
    def test_unknown_command(self, capsys):
        # The lemma battery runs in the test suite; the CLI has no selftest.
        for command in ("frobnicate", "selftest"):
            assert main([command]) == EXIT_PARSE

    def test_version(self, capsys):
        assert main(["--version"]) == 0

    @pytest.mark.parametrize("args", [
        ["bench-r", "--rho", "8"],
        ["bench-n", "--m", "64"],
        ["transform", "--format", "csv"],
        ["verify", "--format", "json"],
        ["transform", "--m", "32"],
        ["verify", "--d", "2"],
    ])
    def test_flag_the_command_does_not_read(self, args, signal_file, capsys):
        # The spec file is the only source of dims and axis size, so --m
        # and --d could only agree with it (as they do here) or contradict.
        if args[0] in ("transform", "verify"):
            args = args + ["--signal", signal_file]
        assert main(args) == EXIT_PARSE

    @pytest.mark.parametrize("command", ["transform", "verify", "bench-n", "bench-r"])
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_is_parse_error(self, command, seed, tmp_path, capsys,
                                     monkeypatch):
        # A negative seed used to reach numpy, and the run ended with
        # "error: expected non-negative integer" after the spec file was
        # read.  The flag is now refused while parsing, by name and value:
        # the spec file named here does not exist, and no trial runs.
        monkeypatch.setattr(bench, "run_trial", lambda *a: pytest.fail("trial ran"))
        args = [command, "--seed", seed]
        if command in ("transform", "verify"):
            args += ["--signal", str(tmp_path / "missing.json")]
        assert main(args) == EXIT_PARSE
        assert (f"argument --seed: expected a nonnegative integer, got '{seed}'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag", [["--sig", "other.json"],
                                      ["--delta-r", "4"], ["--rh", "4"]])
    def test_abbreviated_flag_is_parse_error(self, flag, signal_file, capsys):
        # Flags take their exact names only: an abbreviation let
        # transform --m 32 set mu.
        args = ["transform"] + flag + ["--signal", signal_file]
        assert main(args) == EXIT_PARSE
