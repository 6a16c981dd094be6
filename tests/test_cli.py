import json
import os
import subprocess
import sys
import time

import pytest

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

    def test_nmax_cap(self, capsys):
        code, _, err = run_cli(["exact", "--p", "0.5", "--nmax", "50000"], capsys)
        assert code == 2

    def test_pq_symmetry_of_files(self, capsys):
        strip = lambda text: [ln for ln in text.split("\n") if not ln.startswith("#")]
        for precision in ("standard", "extended"):
            tail = ["--nmax", "32", "--precision", precision]
            _, a, _ = run_cli(["exact", "--p", "0.3"] + tail, capsys)
            _, b, _ = run_cli(["exact", "--p", "0.7"] + tail, capsys)
            assert strip(a) == strip(b), precision

    def test_identical_across_blas_threads(self):
        # the DP's Gram matrix is a BLAS product; its result must not
        # depend on the BLAS thread count
        outs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "triemoments.cli", "exact", "--p",
                 "0.3", "--nmax", "1024"],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_atomic_out_file(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code, _, _ = run_cli(["exact", "--p", "0.5", "--nmax", "16",
                              "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text().startswith("# config:")
        leftovers = [f for f in tmp_path.iterdir() if f.name.startswith(".stage")]
        assert not leftovers

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["exact", "--p", "0.5", "--nmax", "8",
                                "--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["columns"]["ES"][2] == 2.0


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
        # p = 1e-9 drives the gamma reflection out of range (OverflowError)
        code, _, err = run_cli(["asym", "--p", "1e-9"], capsys)
        assert code == 3
        assert "numeric error" in err

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

    def test_asymptotic_off_half_exit_3(self, capsys):
        code, _, _ = run_cli(["whiten", "--p", "0.3", "--n", "64",
                              "--trials", "300", "--seed", "1",
                              "--source", "asymptotic"], capsys)
        assert code == 3


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
