import json

import pytest

from smfft.cli import (EXIT_PARSE, EXIT_SUPPORT, main)


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

    def test_contradicting_dims(self, signal_file, capsys):
        assert main(["transform", "--signal", signal_file, "--d", "3"]) == EXIT_PARSE

    def test_env_seed_overrides(self, signal_file, capsys, monkeypatch):
        monkeypatch.setenv("SMFFT_SEED", "77")
        _, out = run(["transform", "--signal", signal_file, "--seed", "3"],
                     capsys)
        assert json.loads(out)["seed"] == 77

    def test_bad_env_seed(self, signal_file, capsys, monkeypatch):
        monkeypatch.setenv("SMFFT_SEED", "not-a-number")
        assert main(["transform", "--signal", signal_file]) == EXIT_PARSE


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
    ])
    def test_flag_the_command_does_not_read(self, args, capsys):
        assert main(args) == EXIT_PARSE
