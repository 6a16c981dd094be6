import collections
import dataclasses
import json
import math
import os
import random
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import no_child_left, within, workers
from triemoments import cli, exact, mc
from triemoments.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExact:
    def test_csv_n2_row(self, capsys):
        code, out, _ = run_cli(["exact", "--p", "0.5", "--nmax", "64"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config:")
        row2 = lines[4].split(",")
        assert row2[0] == "2"
        assert float(row2[1]) == 2.0   # ES(2)
        assert float(row2[2]) == 4.0   # EK(2)

    def test_bad_p_exit_2(self, capsys):
        code, _, err = run_cli(["exact", "--p", "1.0", "--nmax", "64"], capsys)
        assert code == 2
        assert "p must be in (0,1)" in err

    def test_nmax_past_budget_exit_3(self, capsys):
        # the exact work budget is the one bound on --nmax: 7.7e8 split
        # outcomes at 200,000 rows, refused before any DP work
        code, out, err = run_cli(["exact", "--p", "0.5", "--nmax", "200000"],
                                 capsys)
        assert code == 3 and out == ""
        assert err.startswith("work budget exceeded: "), err
        code, _, err = run_cli(["exact", "--p", "0.5", "--nmax", "1"], capsys)
        assert code == 2
        assert "nmax must be >= 2" in err

    def test_pq_symmetry_of_files(self, capsys):
        strip = lambda text: [ln for ln in text.split("\n") if not ln.startswith("#")]
        for precision in ("standard", "extended"):
            tail = ["--nmax", "32", "--precision", precision]
            _, a, _ = run_cli(["exact", "--p", "0.3"] + tail, capsys)
            _, b, _ = run_cli(["exact", "--p", "0.7"] + tail, capsys)
            assert strip(a) == strip(b), precision

    def test_extended_refused_without_long_double(self, capsys, monkeypatch):
        # where long double is only a double, "extended" would add no bits
        monkeypatch.setattr(exact, "_EXTENDED", np.float64)
        with pytest.raises(ValueError, match="64-bit significand"):
            exact.compute(0.5, 8, "extended")
        code, _, err = run_cli(["exact", "--p", "0.5", "--nmax", "8",
                                "--precision", "extended"], capsys)
        assert code == 2
        assert "53 bits" in err
        assert "Traceback" not in err

    def test_identical_across_blas_threads(self):
        # the DP's Gram matrix is a BLAS product; its result must depend
        # neither on the BLAS thread count nor on the forked DP workers that
        # call it: at p = 0.3 the table to 4096 is solved in two processes
        outs = []
        for threads, cpus in (("1", 1), ("1", 2), ("2", 2)):
            proc = subprocess.run(
                [sys.executable, "-c", "import sys\n"
                 "from triemoments import cli, fork\n"
                 f"fork.cpus = lambda: {cpus}\n"
                 "sys.exit(cli.main(sys.argv[1:]))",
                 "exact", "--p", "0.3", "--nmax", "4096"],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] == outs[2]

    def test_atomic_out_file(self, tmp_path, capsys):
        # the staged file gets the mode a plain open would give it
        for umask in (0o022, 0o002):
            out, raw = tmp_path / f"{umask:o}.csv", tmp_path / f"{umask:o}.raw"
            umask = os.umask(umask)
            try:
                code, _, _ = run_cli(["exact", "--p", "0.5", "--nmax", "16",
                                      "--out", str(out)], capsys)
                assert code == 0
                code, _, _ = run_cli(["simulate", "--p", "0.5", "--n", "16",
                                      "--trials", "100", "--dump-raw",
                                      str(raw)], capsys)
                assert code == 0
            finally:
                umask = os.umask(umask)
            assert out.read_text().startswith("# config:")
            for f in (out, raw):
                assert stat.S_IMODE(f.stat().st_mode) == 0o666 & ~umask, f
        leftovers = [f for f in tmp_path.iterdir() if f.name.startswith(".stage")]
        assert not leftovers

    @pytest.mark.parametrize("rows", [
        ["--nmax", str(cli._CHUNK_ROWS - 3)], ["--nmax", str(cli._CHUNK_ROWS - 1)],
        ["--nmax", str(cli._CHUNK_ROWS)], ["--nmax", str(cli._CHUNK_ROWS + 1)],
        ["--at", f"{cli._CHUNK_ROWS + 1},2,77"]])
    def test_csv_written_in_chunks_renders_columns(self, capsys, rows):
        # the CSV is formatted and written _CHUNK_ROWS rows and lines at a
        # time; n_max + 3 lines fill one chunk exactly at chunk - 3, and
        # n_max + 1 rows fill one at chunk - 1
        code, out, _ = run_cli(["exact", "--p", "0.3"] + rows, capsys)
        assert code == 0
        if rows[0] == "--nmax":
            table = exact.compute(0.3, int(rows[1]))
        else:
            table = exact.compute(0.3, cli._CHUNK_ROWS + 1,
                                  at=[2, 77, cli._CHUNK_ROWS + 1])
        assert out.endswith("\n")
        assert out.splitlines()[1:] == [",".join(table.COLUMNS)] + [
            ",".join(map(repr, row)) for row in zip(*table.columns())]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_degenerate_table_writes_nothing(self, monkeypatch, capsys, fmt):
        # the table is refused before the first byte of its output
        t = exact.compute(0.3, 16)
        bad = t.VarK.copy()
        bad[7] = 0.0
        monkeypatch.setattr(exact, "compute",
                            lambda *a, **k: dataclasses.replace(t, VarK=bad))
        code, out, err = run_cli(["exact", "--p", "0.3", "--nmax", "16",
                                  "--format", fmt], capsys)
        assert code == 3 and out == ""
        assert err == "numeric error: correlation undefined at n=7\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["exact", "--p", "0.5", "--nmax", "8",
                                "--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["columns"]["ES"][2] == 2.0

    @pytest.mark.parametrize("p, precision", [(0.3, "standard"),
                                              (0.5, "extended")])
    def test_at_rows_equal_nmax_rows(self, capsys, p, precision):
        # --at prints the --nmax table's lines at its rows, byte for byte
        tail = ["--p", str(p), "--precision", precision]
        _, full, _ = run_cli(["exact", "--nmax", "600"] + tail, capsys)
        code, part, _ = run_cli(["exact", "--at", "600,2,77,77"] + tail, capsys)
        assert code == 0
        full, part = full.splitlines(), part.splitlines()
        assert (part[0].replace("at=600,2,77,77 ", "")
                == full[0].replace("n_max=600 ", ""))
        assert part[1:] == [full[1], full[2 + 2], full[2 + 77], full[2 + 600]]
        _, full, _ = run_cli(["exact", "--nmax", "600", "--format", "json"]
                             + tail, capsys)
        _, part, _ = run_cli(["exact", "--at", "77,600", "--format", "json"]
                             + tail, capsys)
        full, part = json.loads(full), json.loads(part)
        assert part["config"]["at"] == "77,600"
        assert part["columns"] == {k: [v[77], v[600]]
                                   for k, v in full["columns"].items()}

    def test_at_budget_exit_3_before_dp(self, capsys, monkeypatch):
        def no_dp(*a):
            raise AssertionError("ran the DP")

        monkeypatch.setattr(exact, "_compute_centred", no_dp)
        for at in ("1048576", "1000,4194304"):
            code, out, err = run_cli(["exact", "--p", "0.3", "--at", at], capsys)
            assert code == 3 and out == ""
            assert err.startswith("work budget exceeded: "), err

    def test_at_refusals_exit_2(self, capsys):
        for args in (["--at", "1,64"], ["--at", "64", "--nmax", "64"], []):
            code, out, err = run_cli(["exact", "--p", "0.3"] + args, capsys)
            assert code == 2 and out == ""
        assert "at values must be >= 2" in run_cli(
            ["exact", "--p", "0.3", "--at", "0"], capsys)[2]


class TestAsym:
    def test_symmetric_families(self, capsys):
        code, out, _ = run_cli(["asym", "--p", "0.5", "--kmax", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["ratio"] == "1/1"
        assert abs(doc["F_average"] - 0.9272416035) < 1e-8
        fam = {f["family"]: f for f in doc["families"]}
        assert set(fam) == {"g1", "g2", "g3"}
        g20 = [c for c in fam["g2"]["coefficients"] if c["k"] == 0][0]
        assert abs(g20["re"] - 1.7792274862) < 1e-9

    def test_general_p(self, capsys):
        code, out, _ = run_cli(["asym", "--p", "0.3"], capsys)
        doc = json.loads(out)
        assert doc["g1"] == "unavailable (general p)"
        assert doc["config"]["ratio"] == "irrational"
        assert abs(doc["lambda"] - doc["lambda_alt"]) < 1e-13 * doc["lambda"]

    def test_emit_F(self, capsys):
        code, out, _ = run_cli(["asym", "--p", "0.5", "--emit-F",
                                "--points", "256"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "log2n,F"
        vals = [float(ln.split(",")[1]) for ln in lines[2:]]
        assert len(vals) == 256
        assert max(vals) - min(vals) <= 3e-5

    def test_emit_F_needs_half(self, capsys):
        code, _, _ = run_cli(["asym", "--p", "0.3", "--emit-F"], capsys)
        assert code == 2

    def test_points_below_one_exit_2(self, capsys):
        code, _, err = run_cli(["asym", "--p", "0.5", "--emit-F",
                                "--points", "0"], capsys)
        assert code == 2
        assert "--points" in err

    def test_overflow_is_numeric_error_exit_3(self, capsys):
        # at p = 1e-9 the general-p series needs more terms than its cap;
        # no rational ratio may be detected (its chi_k would overflow Gamma)
        code, _, err = run_cli(["asym", "--p", "1e-9"], capsys)
        assert code == 3
        assert "numeric error" in err
        assert "math range error" not in err

    def test_detected_ratio_7_6_matches_irrational_g2_0(self, capsys):
        # at the detected ratio 7/6 the j-terms are below 1e-70, so g2_0
        # matches the irrational reading although Gamma(chi_5 + ...) needs
        # the log-space reflection
        g2_0 = {}
        for extra in ([], ["--irrational"]):
            code, out, err = run_cli(["asym", "--p", "0.47331101329926406"]
                                     + extra, capsys)
            assert code == 0, err
            doc = json.loads(out)
            coef = {c["k"]: c["re"] for c in doc["families"][0]["coefficients"]}
            g2_0[doc["config"]["ratio"]] = coef[0]
        assert g2_0["7/6"] == pytest.approx(g2_0["irrational"], rel=1e-13)

    def test_pq_symmetry(self, capsys):
        # p and 1 - p share the canonical pair, so only p itself may differ
        docs = []
        for p in ("0.3", "0.7"):
            code, out, _ = run_cli(["asym", "--p", p], capsys)
            assert code == 0
            doc = json.loads(out)
            del doc["config"]
            for fam in doc["families"]:
                del fam["p"]
            docs.append(doc)
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("p", ["0.98", "0.9995"])
    def test_skewed_p_converges(self, capsys, p):
        code, out, _ = run_cli(["asym", "--p", p], capsys)
        assert code == 0
        assert json.loads(out)["families"][0]["coefficients"][0]["re"] > 0.0

    def test_series_caps_are_not_flags(self, capsys):
        for flag in ("--lmax", "--jmax"):
            code, _, err = run_cli(["asym", "--p", "0.5", flag, "100"], capsys)
            assert code == 2
            assert flag in err

    def test_ratio_flag(self, capsys):
        code, out, _ = run_cli(["asym", "--p", "0.5", "--ratio", "1/1"], capsys)
        assert json.loads(out)["config"]["ratio_source"] == "supplied"
        code, _, _ = run_cli(["asym", "--p", "0.5", "--ratio", "3/1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("config, flags", [
        ("", ["--ratio", "1/1", "--irrational"]),
        ("irrational=true\n", ["--ratio", "1/1"]),
        ("ratio=1/1\n", ["--irrational"]),
    ])
    def test_ratio_and_irrational_exclude_each_other(self, tmp_path, capsys,
                                                     config, flags):
        # a supplied ratio and a forced irrational reading contradict each
        # other, on the command line or between config file and flags
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=0.5\n" + config)
        code, out, err = run_cli(["asym", "--config", str(cfg)] + flags, capsys)
        assert code == 2 and out == ""
        assert "--ratio and --irrational exclude each other" in err


class TestSimulate:
    def test_deterministic_json(self, capsys):
        args = ["simulate", "--p", "0.5", "--n", "64", "--trials", "400",
                "--seed", "7"]
        _, a, _ = run_cli(args, capsys)
        _, b, _ = run_cli(args, capsys)
        assert a == b
        doc = json.loads(a)
        assert doc["config"]["seed"] == 7
        assert abs(doc["rho"]["SK"]) <= 1.0

    def test_dump_raw(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        code, _, _ = run_cli(["simulate", "--p", "0.5", "--n", "16",
                              "--trials", "150", "--seed", "1",
                              "--dump-raw", str(raw)], capsys)
        assert code == 0
        lines = raw.read_text().strip().split("\n")
        assert lines[0] == "trial,S,K,N"
        assert len(lines) == 151

    def test_raw_dump_rows_match_sample_matrix(self, tmp_path, capsys):
        # the dumped rows are the sample matrix's trials, numbered in order,
        # and the printed summary is that of the same rows
        raw = tmp_path / "raw.csv"
        code, out, _ = run_cli(["simulate", "--p", "0.4", "--n", "32",
                                "--trials", "2100", "--seed", "3",
                                "--dump-raw", str(raw)], capsys)
        assert code == 0
        rows = np.array([[int(v) for v in ln.split(",")]
                         for ln in raw.read_text().splitlines()[1:]])
        x = mc.sample_matrix(32, 0.4, 2100, seed=3)
        assert np.array_equal(rows[:, 0], np.arange(2100))
        assert np.array_equal(rows[:, 1:], x)
        doc = json.loads(out)
        del doc["config"]
        assert doc == mc.summary(x)

    def test_raw_dump(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        code, _, _ = run_cli(["simulate", "--p", "0.5", "--n", "16",
                              "--trials", "200", "--seed", "1",
                              "--dump-raw", str(raw)], capsys)
        assert code == 0
        lines = raw.read_text().strip().split("\n")[1:]
        assert len(lines) == 200
        first = lines[0].split(",")
        assert first[0] == "0" and len(first) == 4

    def test_threads_flag_rejected(self, capsys):
        code, _, err = run_cli(["simulate", "--p", "0.5", "--n", "8",
                                "--trials", "100", "--threads", "2"], capsys)
        assert code == 2
        assert "--threads" in err


class TestWhitenCmd:
    def test_exact_source(self, capsys):
        code, out, _ = run_cli(["whiten", "--p", "0.3", "--n", "512",
                                "--trials", "1500", "--seed", "3",
                                "--source", "exact"], capsys)
        assert code == 0
        doc = json.loads(out)
        wc = doc["whitened_cov"]
        assert abs(wc[0][0] - 1.0) < 0.15
        assert abs(wc[0][1]) < 0.15

    def test_sample_degenerate_exit_3(self, capsys):
        code, _, err = run_cli(["whiten", "--p", "0.5", "--n", "2",
                                "--trials", "300", "--seed", "1",
                                "--source", "sample"], capsys)
        assert code == 3
        assert "numeric error" in err

    def test_asymptotic_off_half_exit_2(self, capsys):
        # a request the asymptotic route does not cover, not a numeric failure
        code, _, err = run_cli(["whiten", "--p", "0.3", "--n", "64",
                                "--trials", "300", "--seed", "1",
                                "--source", "asymptotic"], capsys)
        assert code == 2
        assert "only for p = 1/2" in err


class TestHistCmd:
    def test_counts_sum(self, capsys):
        code, out, _ = run_cli(["hist", "--p", "0.5", "--n", "256",
                                "--trials", "500", "--seed", "2",
                                "--bins", "12"], capsys)
        doc = json.loads(out)
        assert sum(sum(row) for row in doc["counts"]) == 500


class TestCompare:
    def test_symmetric_csv(self, capsys):
        code, out, _ = run_cli(["compare", "--p", "0.5",
                                "--n-grid", "256,512,1024"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        hdr = lines[1].split(",")
        i = hdr.index("diff_g2")
        g20 = 1.7792274862482201
        for ln in lines[2:5]:
            assert float(ln.split(",")[i]) < 1e-2 * g20

    def test_byte_identical(self, capsys):
        args = ["compare", "--p", "0.5", "--n-grid", "128,256"]
        _, a, _ = run_cli(args, capsys)
        _, b, _ = run_cli(args, capsys)
        assert a == b

    def test_general_p_json(self, capsys):
        code, out, _ = run_cli(["compare", "--p", "0.3", "--format", "json",
                                "--n-grid", "1024,2048,4096"], capsys)
        doc = json.loads(out)
        assert doc["summary"]["slope_rel_err"] < 0.05
        for row in doc["rows"]:
            assert row[3] < 1e-2 * row[2]  # |cov/n - g2_0| < 1e-2 g2_0


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=0.5\nnmax=8\nformat=json\n")
        code, out, _ = run_cli(["exact", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["config"]["n_max"] == 8
        code, out, _ = run_cli(["exact", "--config", str(cfg),
                                "--nmax", "4"], capsys)
        assert json.loads(out)["config"]["n_max"] == 4

    def test_missing_config(self, capsys):
        code, _, _ = run_cli(["exact", "--config", "/nope/none.cfg"], capsys)
        assert code == 4

    def test_comments_and_blank_lines_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# exact table\n\np = 0.5\n  # nmax=99\nnmax=8\n")
        code, out, _ = run_cli(["exact", "--config", str(cfg)], capsys)
        assert code == 0
        assert "n_max=8 " in out.splitlines()[0]

    def test_line_without_equals_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=0.5\nnmax 8\n")
        code, _, err = run_cli(["exact", "--config", str(cfg)], capsys)
        assert code == 2
        assert "bad config line: 'nmax 8'" in err

    def test_boolean_flags(self, tmp_path, capsys):
        # irrational=true sets the flag, a false value leaves it off
        cfg = tmp_path / "run.cfg"
        for value, ratio in (("true", "irrational"), ("no", "2/1")):
            cfg.write_text(f"p=0.381966011250105\nirrational={value}\n")
            code, out, _ = run_cli(["asym", "--config", str(cfg)], capsys)
            assert code == 0
            assert json.loads(out)["config"]["ratio"] == ratio

    def test_config_without_command_exit_2(self, tmp_path, capsys):
        # a config file holds flags, never the command
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=0.5\nnmax=8\n")
        code, out, err = run_cli(["--config", str(cfg)], capsys)
        assert code == 2
        assert out == "" and "usage: triemoments" in err
        assert "name the command before --config" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "triemoments.cli", "exact", "--p", "0.5",
         "--nmax", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("# config:")


BAD_INPUT = [  # (arguments, exit code)
    (["asym", "--p", "0.5", "--kmax", "-1"], 2),
    (["asym", "--p", "0.3", "--kmax", "-1"], 2),
    (["whiten", "--p", "0.5", "--n", "16", "--trials", "0"], 2),
    (["whiten", "--p", "0.5", "--n", "16", "--trials", "1"], 2),
    (["hist", "--p", "0.5", "--n", "16", "--trials", "0"], 2),
    (["hist", "--p", "0.5", "--n", "16", "--trials", "1"], 2),
    (["asym", "--p", "0.9996"], 3),
    (["asym", "--p", "0.999999"], 3),
    (["exact", "--p", "1e-17", "--nmax", "8"], 2),
    (["exact", "--p", "5e-17", "--nmax", "8", "--precision", "extended"], 2),
    (["simulate", "--p", "1e-17", "--n", "16", "--trials", "200"], 2),
    (["asym", "--p", "1e-17"], 2),
    (["compare", "--p", "1e-17"], 2),
    # detected ratios 7/6 and 64/63 put |Im chi_k| past 226, where
    # sin(pi z) in the gamma reflection overflows
    (["asym", "--p", "0.47331101329926406"], 0),
    (["asym", "--p", "0.49727104254994325"], 0),
    # above the Monte-Carlo work budget: millions of unary levels at tiny
    # p, and 1.4e10 nodes at n = 1e8
    (["simulate", "--p", "1e-6", "--n", "100", "--trials", "100"], 3),
    (["simulate", "--p", "0.5", "--n", "100000000", "--trials", "100"], 3),
    # the (trials, 3) sample matrix would take 21.3 PiB
    (["simulate", "--p", "0.5", "--n", "16", "--trials", "1000000000000000"], 3),
    # one n >= 2 check for every Monte-Carlo command
    (["whiten", "--p", "0.5", "--n", "1", "--trials", "300", "--source",
      "sample"], 2),
    (["whiten", "--p", "0.5", "--n", "0", "--trials", "300"], 2),
    (["hist", "--p", "0.5", "--n", "1", "--trials", "300"], 2),
    (["hist", "--p", "0.5", "--n", "-5", "--trials", "300"], 2),
    # more bins than trials: refused before the bins^2 counts are allocated
    (["hist", "--p", "0.5", "--n", "16", "--trials", "200", "--bins",
      "100000000"], 2),
    # the asymptotic covariance matrix exists only at p = 1/2
    (["whiten", "--p", "0.3", "--n", "64", "--trials", "300", "--source",
      "asymptotic"], 2),
    # Monte-Carlo inputs refused before a 30,000-row (or 20,000-row) solve
    (["whiten", "--p", "0.5", "--n", "30000", "--trials", "1", "--source",
      "exact"], 2),
    (["compare", "--p", "0.3", "--n-grid", "20000", "--trials", "1"], 2),
    # exact solves past 30,000 rows run under the work budget alone
    (["whiten", "--p", "0.5", "--n", "40000", "--trials", "10", "--source",
      "exact"], 0),
    # exact solves above the work budget, refused before any DP or
    # Monte-Carlo work: 7.7e8 split outcomes at 200,000 rows, and 1.5e9 in
    # the p = 0.3 cone of 2^20
    (["exact", "--p", "0.3", "--nmax", "200000"], 3),
    (["compare", "--p", "0.3", "--n-grid", "1048576"], 3),
    (["whiten", "--p", "0.3", "--n", "1048576", "--trials", "10", "--source",
      "exact"], 3),
    # Philox keys are 128 bits: these seeds would wrap onto seeds 2**128 - 1
    # and 1
    (["simulate", "--p", "0.5", "--n", "16", "--trials", "100", "--seed",
      "-1"], 2),
    (["simulate", "--p", "0.5", "--n", "16", "--trials", "100", "--seed",
      str(2 ** 128 + 1)], 2),
    # a bad seed is refused before a 20,000-row exact table
    (["whiten", "--p", "0.5", "--n", "20000", "--trials", "10", "--seed",
      "-1", "--source", "exact"], 2),
    # g_k is exactly 0.0 past k = 52 at p = 1/2, yet these ran for minutes
    (["asym", "--p", "0.5", "--kmax", "10000000"], 2),
    (["asym", "--p", "0.5", "--emit-F", "--kmax", "1000000"], 2),
    (["asym", "--p", "0.5", "--emit-F", "--points", "100000000"], 2),
    # rational p: the j-convolution of every harmonic up to the --kmax cap
    # converges (ratios 2/1 and 7/6)
    (["asym", "--p", "0.3819660112501051", "--kmax", "100"], 0),
    (["asym", "--p", "0.47331101329926406", "--kmax", "100"], 0),
    # cones above the exact work budget: 1.5e9 split outcomes at p = 0.3,
    # and a 256 MiB moment array at 2^22
    (["exact", "--p", "0.3", "--at", "1048576"], 3),
    (["exact", "--p", "0.5", "--at", "4194304"], 3),
    # an extended cell weighs 5 standard ones: 2.8e8 split outcomes near
    # p = 0 took 41-61 s in long double
    (["exact", "--p", "7.5e-8", "--nmax", "160000", "--precision",
      "extended"], 3),
]


@pytest.mark.parametrize("args, code", [pytest.param(a, c, id=" ".join(a))
                                        for a, c in BAD_INPUT])
def test_bad_input_fails_fast(args, code):
    # each input must end in its documented exit code (2 usage, 3 numeric),
    # not a traceback or a minutes-long loop
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "triemoments.cli"] + args,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 10.0
    if "1000000000000000" in args:
        assert proc.stderr.startswith("out of memory: "), proc.stderr
    elif args[0] != "asym" and code == 3:   # work budgets
        assert proc.stderr.startswith("work budget exceeded: "), proc.stderr
    if args[0] in ("whiten", "hist") and args[4] in ("1", "0", "-5"):
        assert "n must be >= 2" in proc.stderr, proc.stderr
    if "--bins" in args:
        assert "bins must be <= trials" in proc.stderr, proc.stderr
    for flag, cap in (("--kmax", 100), ("--points", 10000)):
        if flag in args and int(args[args.index(flag) + 1]) > cap:
            assert f"{flag} must be <= {cap}" in proc.stderr, proc.stderr
    if "--seed" in args:
        assert "seed must be in [0, 2**128)" in proc.stderr, proc.stderr
    elif "30000" in args or "20000" in args:
        least = 2 if args[0] == "whiten" else 100
        assert f"trials must be >= {least}" in proc.stderr, proc.stderr


def _fuzz_cases(rng, count, missing_dir):
    """``count`` random command lines of every command.

    p is log-uniform in its distance to the nearer end, from 1e-12 (1e-3
    for a Monte-Carlo run) to 1/2, or 1/2 itself.  Integer flags come from
    their edges -1, 0, 1, 2, from past their caps (the exact work budget at
    any p, --kmax 100, --points 10,000, the 2**128 seeds) or from a typical
    range.  The Monte-Carlo level budget admits runs of minutes (10**6
    levels at 60-120 us each), so a Monte-Carlo run whose batches are
    expected to take more than 10**4 levels in all is drawn again; a fifth
    of the Monte-Carlo cases are at p in [1e-12, 1e-7] instead, which that
    budget refuses at once.  One case in ten writes --out into a missing
    directory (exit 4 where the command succeeds).
    """
    def p_value(lo, hi=0.5):
        u = 10 ** rng.uniform(math.log10(lo), math.log10(hi))
        return u if rng.random() < 0.5 else 1.0 - u

    def integer(low, high, caps=()):
        r = rng.random()
        if r < 0.15:
            return rng.choice((-1, 0, 1, 2))
        if r < 0.25 and caps:
            return rng.choice(caps)
        return rng.randint(low, high)

    def rows():     # 2**22 rows take 256 MiB of moments, above the budget
        return ",".join(str(integer(3, 1024, (4_194_304, 10 ** 12)))
                        for _ in range(rng.randint(1, 3)))

    def levels(n, p, trials):
        if n < 2 or trials < 2:
            return 0.0
        g = min(mc._batch_size(n), trials)
        return -(-trials // g) * mc._batch_height(n, p, g)

    cases = []
    for _ in range(count):
        cmd = rng.choice(["exact", "exact --at", "asym", "asym --emit-F",
                          "compare", "simulate", "whiten", "hist",
                          "compare --trials"])
        args = cmd.split()[:1] + ["--p"]
        half = rng.random() < 0.15
        if cmd in ("simulate", "whiten", "hist", "compare --trials"):
            refused = rng.random() < 0.2
            while True:
                p = (p_value(1e-12, 1e-7) if refused else 0.5 if half
                     else p_value(1e-3))
                n = integer(3, 2000)
                trials = integer(3, 400, (99, 100, 400))
                if refused or levels(n, p, trials) <= 1e4:
                    break
            seed = integer(3, 2 ** 64, (2 ** 128 - 1, 2 ** 128))
            args += [repr(p), "--trials", str(trials), "--seed", str(seed)]
            args += (["--n-grid", str(n)] if cmd == "compare --trials"
                     else ["--n", str(n)])
            if cmd == "whiten":
                args += ["--source",
                         rng.choice(["exact", "sample", "asymptotic"])]
            elif cmd == "hist":
                args += ["--bins", str(rng.choice(
                    (-1, 0, 9, 10, 50, trials, trials + 1)))]
        else:
            args.append(repr(0.5 if half else p_value(1e-12)))
            if cmd == "exact":  # 300,000 rows are above the budget at any p
                args += ["--nmax", str(integer(3, 1024, (300_000, 4_194_304)))]
            elif cmd == "exact --at":
                args += ["--at", rows()]
            elif cmd == "compare":
                args += ["--n-grid", rows()]
            else:
                args += ["--kmax", str(integer(3, 52, (100, 101)))]
                if cmd == "asym --emit-F":
                    args += ["--emit-F",
                             "--points", str(integer(3, 512, (10_000, 10_001)))]
                elif rng.random() < 0.2:
                    args += rng.choice([["--irrational"], ["--ratio", "2/1"],
                                        ["--ratio", "0/1"], ["--ratio", "x"]])
            if args[0] != "asym" and rng.random() < 0.3:
                args += ["--precision", "extended"]
        args += ["--format", rng.choice(["csv", "json"])]
        if rng.random() < 0.1:
            args += ["--out", str(missing_dir / "out")]
        cases.append(args)
    return cases


def test_cli_fuzz(capsys, tmp_path):
    # every input ends in a documented exit code, with no traceback and
    # within a few seconds
    seen = collections.Counter()
    begin = time.perf_counter()
    for args in _fuzz_cases(random.Random(20), 100, tmp_path / "missing"):
        start = time.perf_counter()
        try:
            code = main(args)
        except Exception as e:
            pytest.fail(f"{' '.join(args)}: {e!r}")
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (args, code, err)
        assert "Traceback" not in err, (args, err)
        assert elapsed < 3.0, (args, elapsed)
        seen[code] += 1
    assert time.perf_counter() - begin < 10.0
    assert all(seen[code] for code in (0, 2, 3)), seen


@pytest.mark.parametrize("args, least", [
    (["whiten", "--p", "0.5", "--n", "30000", "--trials", "1", "--source",
      "exact"], 2),
    (["compare", "--p", "0.3", "--n-grid", "64,20000", "--trials", "99"], 100),
])
def test_monte_carlo_inputs_checked_before_table(monkeypatch, capsys, args,
                                                 least):
    def no_table(*a):
        raise AssertionError("built an exact table")

    monkeypatch.setattr(exact, "compute", no_table)
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert f"trials must be >= {least}" in err


@pytest.mark.parametrize("args", [
    ["whiten", "--p", "0.5", "--n", "20000", "--trials", "10", "--source",
     "exact"],
    ["compare", "--p", "0.3", "--n-grid", "64,20000", "--trials", "100"],
])
def test_bad_seed_refused_before_table(monkeypatch, capsys, args):
    def no_table(*a):
        raise AssertionError("built an exact table")

    monkeypatch.setattr(exact, "compute", no_table)
    code, out, err = run_cli(args + ["--seed", "-1"], capsys)
    assert code == 2 and out == ""
    assert "seed must be in [0, 2**128), got -1" in err


def test_exact_solve_refused_before_sampling(monkeypatch, capsys):
    # whiten --source exact solves its row before it draws a trie, so a
    # solve above the work budget costs no Monte-Carlo work
    def no_sample(*a):
        raise AssertionError("drew a Monte-Carlo sample")

    monkeypatch.setattr(mc, "sample_matrix", no_sample)
    code, out, err = run_cli(["whiten", "--p", "0.3", "--n", "1048576",
                              "--trials", "10", "--source", "exact"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("work budget exceeded: "), err


# Runs the CLI with sys.argv[1:], seeing two CPUs, with module.name
# replaced in the forked worker processes by a function whose body is
# ``action``; exits 99 if a child process is left afterwards.
_FAULTY_WORKERS = """
import os, sys
from triemoments import cli, exact, fork, mc, trie
real, parent = {module}.{name}, os.getpid()

def faulty(*args):
    if os.getpid() == parent:
        return real(*args)
    {action}

{module}.{name} = faulty
fork.cpus = lambda: 2
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    code = 99
except ChildProcessError:
    pass
sys.exit(code)
"""


def _run_faulty(module, name, action, args):
    script = _FAULTY_WORKERS.format(module=module, name=name, action=action)
    return subprocess.run([sys.executable, "-c", script] + args,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module, name, action, err", [
    ("trie", "_default_max_depth", "return 3",
     "numeric error: splitting recursion past depth 3 at n=1000, p=0.3\n"),
    ("mc", "sample_shapes", "os._exit(1)",
     "numeric error: worker process "),
])
def test_worker_failure_exits_3(module, name, action, err):
    # simulate at 3.2e6 keys draws in two processes; a worker's exception,
    # or a worker that ends without a result, exits 3 at once with no
    # traceback and no child left
    proc = _run_faulty(module, name, action,
                       ["simulate", "--p", "0.3", "--n", "1000", "--trials",
                        "3200", "--seed", "4"])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(err), proc.stderr


@pytest.mark.parametrize("action, err", [
    ("raise FloatingPointError('batch in a worker')",
     "numeric error: batch in a worker\n"),
    ("os._exit(1)", "numeric error: worker process "),
])
def test_compare_worker_failure_exits_3(action, err):
    # compare --trials draws its 14 batches in a worker while this process
    # solves the cone (about 0.2 s) before it takes any; a failure in the
    # worker ends the command as in simulate
    proc = _run_faulty("mc", "sample_shapes", action,
                       ["compare", "--p", "0.3", "--n-grid", "64,4096",
                        "--trials", "400", "--seed", "4"])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert proc.stderr.startswith(err), proc.stderr


@pytest.mark.parametrize("action, err", [
    ("raise FloatingPointError('row in a worker')",
     "numeric error: row in a worker\n"),
    ("os._exit(1)", "numeric error: worker process "),
])
def test_dp_worker_failure_exits_3(action, err):
    # the table to 4096 at p = 0.3 solves its 23 waves (2.2e6 cells) in two
    # processes; a failure in a DP worker ends the command as in the sampler
    proc = _run_faulty("exact", "_row", action,
                       ["exact", "--p", "0.3", "--nmax", "4096"])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert proc.stderr.startswith(err), proc.stderr


@pytest.mark.parametrize("args, cells", [
    (["--p", "0.5", "--precision", "extended", "--n-grid", "64,256,1024",
      "--trials", "400", "--seed", "3"], exact._WORKER_CELLS),
    (["--p", "0.3", "--n-grid", "64,1000,2000", "--trials", "300"],
     exact._WORKER_CELLS),
    (["--p", "0.5", "--n-grid", "64,1024", "--trials", "200", "--format",
      "json"], 1),
])
def test_compare_identical_for_every_worker_count(monkeypatch, capsys, args,
                                                  cells):
    # compare --trials deals its cone (index 0, kept by this process) and
    # its batches to k = 1, 2, 3 workers with the same output; with
    # _WORKER_CELLS = 1 the cone forks its own k - 1 DP workers from this
    # process inside the deal.  workers() fails a worker that forks.
    monkeypatch.setattr(exact, "_WORKER_CELLS", cells)
    outs = []
    for k in (1, 2, 3):
        forked = workers(monkeypatch, k)
        with within(60):
            code, out, err = run_cli(["compare"] + args, capsys)
        assert code == 0, err
        no_child_left()
        assert len(forked) == (k - 1) * (2 if cells == 1 else 1)
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("trials, forks", [("100", 1),
                                           ("1000000000000000", 0)])
def test_compare_cone_past_budget_with_trials(monkeypatch, capsys, trials,
                                              forks):
    # the cone of 2^20 at p = 0.3 is refused in this process while a
    # worker draws tries of 2^20 keys, and the worker is killed and
    # reaped; where the sample matrices cannot be allocated, nothing forks
    # and the cone's refusal still comes first, as in one process
    forked = workers(monkeypatch, 2)
    start = time.perf_counter()
    with within(60):
        code, out, err = run_cli(["compare", "--p", "0.3", "--n-grid",
                                  "64,1048576", "--trials", trials], capsys)
    assert time.perf_counter() - start < 2.0
    assert code == 3 and out == ""
    assert err.startswith("work budget exceeded: the DP over "), err
    assert len(forked) == forks
    no_child_left()


@pytest.mark.parametrize("args", [
    ["compare", "--p", "0.3", "--n-grid", "64"],
    ["compare", "--p", "0.3", "--n-grid", "64", "--trials", "100"],
    ["exact", "--p", "0.3", "--nmax", "4"],
])
def test_json_writes_non_finite_as_null(capsys, args):
    # JSON has no NaN (RFC 8259): compare's rho_mc without trials and its
    # slope on a single grid point, and exact's correlations at n < 2, are
    # null; the CSV keeps nan
    def no_constant(name):
        raise AssertionError(f"JSON output holds {name}")

    code, out, _ = run_cli(args + ["--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out, parse_constant=no_constant)
    if args[0] == "exact":
        assert doc["columns"]["RhoSK"][:2] == [None, None]
    else:
        assert doc["summary"]["varK_slope"] is None
        assert (doc["rows"][0][-1] is None) == ("--trials" not in args)
    code, out, _ = run_cli(args + ["--format", "csv"], capsys)
    assert code == 0 and "nan" in out


def test_compare_past_30000_rows_matches_exact_at(capsys):
    # compare reads its exact columns from the rows exact --at prints, also
    # past 30,000 rows, at full float precision
    code, out, _ = run_cli(["compare", "--p", "0.5", "--n-grid", "4096,65536",
                            "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    code, out, _ = run_cli(["exact", "--p", "0.5", "--at", "4096,65536",
                            "--format", "json"], capsys)
    assert code == 0
    cols = json.loads(out)["columns"]
    assert cols["n"] == [row[0] for row in doc["rows"]] == [4096, 65536]
    for i, row in enumerate(doc["rows"]):
        got = dict(zip(doc["columns"], row))
        n = cols["n"][i]
        assert got["covSK_over_n"] == cols["CovSK"][i] / n
        assert got["varS_over_n"] == cols["VarS"][i] / n
        assert got["varK_over_n"] == cols["VarK"][i] / n
        assert got["rho_exact"] == cols["RhoSK"][i]


CONFIG_CASES = [
    ["exact", "--p", "0.3", "--nmax", "16"],
    ["exact", "--p", "0.02", "--nmax", "16", "--precision", "extended"],
    ["asym", "--p", "0.5", "--kmax", "2"],
    ["asym", "--p", "0.3", "--kmax", "2"],
    ["simulate", "--p", "0.5", "--n", "16", "--trials", "200", "--seed", "1"],
    ["whiten", "--p", "0.3", "--n", "64", "--trials", "200", "--seed", "1"],
    ["whiten", "--p", "0.3", "--n", "64", "--trials", "200", "--source",
     "sample"],
    ["hist", "--p", "0.5", "--n", "64", "--trials", "200", "--bins", "10"],
    ["compare", "--p", "0.5", "--n-grid", "16,32", "--trials", "100"],
    ["compare", "--p", "0.3", "--n-grid", "16,32"],
]


@pytest.mark.parametrize("args", CONFIG_CASES, ids=" ".join)
def test_json_and_csv_carry_one_config(args, capsys):
    # the JSON "config" object and the CSV "# config:" line are the same
    # configuration, and it appears nowhere else in the file
    code, out, _ = run_cli(args + ["--format", "json"], capsys)
    assert code == 0
    cfg = json.loads(out)["config"]
    code, out, _ = run_cli(args + ["--format", "csv"], capsys)
    assert code == 0
    first, *body = out.splitlines()
    assert first.startswith("# config: ")
    pairs = dict(kv.split("=", 1) for kv in first[len("# config: "):].split(" "))
    assert pairs == {k: str(v) for k, v in {**cfg, "format": "csv"}.items()}
    assert cfg["command"] == args[0] and cfg["p"] == float(args[2])
    assert not [ln for ln in body if ln.startswith(("config", "# config"))]
