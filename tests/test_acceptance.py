"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are fixed here, not calibrated at runtime.  The moment
tables are shared session fixtures (see conftest); the heavy Monte-Carlo
criteria use the seeds written below and nothing else.
"""

import math

import numpy as np

from conftest import table
from poisson import PoissonModel
from triemoments import (F_profile, cdigamma, cgamma, fluct_eval, fork,
                         g1_sym, g2_general, g2_sym, g3_sym, invsqrt2,
                         key_shapes, params, sample_keys, sqrt2, sym_coeffs,
                         trial_rng, whiten, SymMatrix2)
from triemoments.gammafn import EULER_GAMMA
from triemoments.mc import sample_matrix

LN2 = math.log(2.0)
F_AVG = 0.9272416035


def report(num: int, text: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_figure_trie():
    keys = ["00011100", "01010100", "01100111", "10111010",
            "11000011", "11001000", "11001110"]
    size, kpl, npl, _ = key_shapes(
        np.array([[[c == "1" for c in k] for k in keys]]))[0]
    ok = (size, kpl, npl) == (8, 27, 18)
    report(1, f"worked-example trie -> (S,K,N)=({size},{kpl},{npl}), "
              "want (8,27,18)", ok)


def test_criterion_02_average_correlation_constant():
    got = g2_sym(0).real / math.sqrt(g1_sym(0).real * g3_sym(0).real)
    ok = abs(got - F_AVG) < 1e-8
    report(2, f"g2_0/sqrt(g1_0 g3_0) = {got:.12f}, want {F_AVG} +- 1e-8", ok)


def test_criterion_03_fluctuation_amplitude():
    _, f = F_profile(points=1024)
    spread = float(f.max() - f.min())
    ok = 1e-6 < spread <= 3e-5
    report(3, f"F period spread = {spread:.3e}, want in (1e-6, 3e-5]", ok)


def test_criterion_04_cross_formula_identity():
    m = params(0.5)
    diffs = [abs(g2_general(m, k) - g2_sym(k)) for k in (0, 1, 2)]
    ok = all(d < 1e-9 for d in diffs)
    report(4, "general-p covariance formula vs symmetric series at p=1/2: "
              f"max|diff| = {max(diffs):.2e}, want < 1e-9", ok)


def test_criterion_05_cross_engine_covariance(table_05_ext):
    c2 = sym_coeffs("g2")
    g20 = abs(c2.value(0))
    worst = 0.0
    for n in (256, 1024, 4096):
        diff = abs(table_05_ext.cov_SK(n) / n - fluct_eval(c2, n))
        worst = max(worst, diff)
    ok = worst < 1e-2 * g20
    report(5, f"|cov_SK(n)/n - fluct| (extended DP) worst = {worst:.2e}, "
              f"want < {1e-2 * g20:.2e}", ok)


def test_criterion_06_correlation_dichotomy(table_05, table_02):
    rhos_half = [table_05.rho_SK(n) for n in range(256, 4097)]
    in_band = all(0.92 < r < 0.935 for r in rhos_half)
    seq = [table_02.rho_SK(2 ** e) for e in range(8, 15)]
    decreasing = all(a > b for a, b in zip(seq, seq[1:]))
    gap = seq[0] - seq[-1]
    ok = in_band and decreasing and seq[-1] < seq[0] - 0.05
    report(6, f"p=1/2 rho in ({min(rhos_half):.4f},{max(rhos_half):.4f}) "
              f"subset of (0.92,0.935); p=0.2 strictly decreasing with "
              f"drop {gap:.3f} > 0.05", ok)


def test_criterion_07_lambda_recovery(table_02, table_03):
    ok = True
    msgs = []
    for t in (table_02, table_03):
        m = params(t.p)
        q = 1.0 - t.p
        alt = ((t.p * math.log(t.p) ** 2 + q * math.log(q) ** 2)
               - m.h ** 2) / m.h ** 3
        forms_agree = abs(m.lam - alt) <= 1e-13 * m.lam
        ns = [2 ** e for e in range(10, 15)]
        xs = np.log(ns)
        ys = np.array([t.var_K(n) / n for n in ns])
        slope = float(np.polyfit(xs, ys, 1)[0])
        rel = abs(slope - m.lam) / m.lam
        ok = ok and forms_agree and rel < 0.05
        msgs.append(f"p={t.p}: slope={slope:.4f} lambda={m.lam:.4f} "
                    f"rel={rel:.2%}")
    report(7, "; ".join(msgs) + " (want < 5%, forms to 1e-13)", ok)


def test_criterion_08_rho_SN_trend(table_03, table_05):
    r03 = table_03.rho_SN(2 ** 12)
    r05 = table_05.rho_SN(2 ** 12)
    ok = r03 > 0.9 and r05 > 0.9
    report(8, f"rho_SN(4096): p=0.3 -> {r03:.4f}, p=0.5 -> {r05:.4f}, "
              "want both > 0.9", ok)


def test_criterion_09_whitening():
    ok = True
    msgs = []
    for p in (0.3, 0.5):
        r = whiten(10_000, p, 10_000, seed=1, source="exact")
        dev = float(np.abs(np.array(r["whitened_cov"]) - np.eye(2)).max())
        sk = max(abs(s) for s in r["skewness"])
        ku = max(abs(k) for k in r["ex_kurtosis"])
        ok = ok and dev < 0.05 and sk < 0.1 and ku < 0.2
        msgs.append(f"p={p}: |cov-I|={dev:.3f} |skew|={sk:.3f} "
                    f"|kurt|={ku:.3f}")
    report(9, "; ".join(msgs) + " (want < 0.05 / 0.1 / 0.2)", ok)


def test_criterion_10_poisson_residuals(table_03, table_05):
    zs = np.linspace(1.0, 20.0, 39)
    worst_mean = 0.0
    worst_cov = 0.0
    for t in (table_03, table_05):
        m = PoissonModel(t)
        p, q = m.p, m.q
        for z in zs:
            r1 = (m.f10.eval(z) - m.f10.eval(p * z) - m.f10.eval(q * z)
                  - (1.0 - (1.0 + z) * math.exp(-z)))
            r2 = (m.f01.eval(z) - m.f01.eval(p * z) - m.f01.eval(q * z)
                  - z * (1.0 - math.exp(-z)))
            rc = m.cov(z) - m.cov(p * z) - m.cov(q * z) - m.h1(z) - m.h2(z)
            worst_mean = max(worst_mean, abs(r1), abs(r2))
            worst_cov = max(worst_cov, abs(rc))
    h1_half = max(abs(PoissonModel(table_05).h1(z)) for z in zs)
    ok = worst_mean < 1e-8 and worst_cov < 1e-6 and h1_half == 0.0
    report(10, f"functional-eq residuals: means {worst_mean:.2e} (<1e-8), "
               f"covariance {worst_cov:.2e} (<1e-6), h1|p=1/2 = {h1_half}", ok)


def _explicit_key_shapes(n: int, p: float, trials: int, seed: int):
    """(trials, 3) shapes of tries over explicit keys: trial t draws its
    keys from its own stream trial_rng(seed, t), and key_shapes measures
    1024 tries a call.  The calls are dealt out to up to one worker process
    per call (``fork.run``, which counts the CPUs); the streams are
    independent, so the split changes no sample."""
    out = fork.shared((trials, 3), np.float64)
    starts = range(0, trials, 1024)

    def work(deal):
        for b in deal(len(starts)):
            start, stop = starts[b], min(starts[b] + 1024, trials)
            bits = np.stack([sample_keys(n, p, trial_rng(seed, t))
                             for t in range(start, stop)])
            out[start:stop] = key_shapes(bits)[:, :3]

    fork.run(work, len(starts))
    return out


def test_criterion_11_sampler_law_equivalence():
    # the batched splitting sampler the CLI uses vs explicit keys, p = 0.3,
    # 1e5 trials
    p = 0.3
    trials = 100_000
    ok = True
    msgs = []
    for n in (2, 3, 4, 5, 6, 7, 8, 64):
        a = sample_matrix(n, p, trials, seed=1000 + n).astype(np.float64)
        b = _explicit_key_shapes(n, p, trials, 5000 + n)
        worst_z = 0.0
        for j in range(3):
            se = math.sqrt(a[:, j].var() / trials + b[:, j].var() / trials)
            worst_z = max(worst_z, abs(a[:, j].mean() - b[:, j].mean()) / se)
        ok = ok and worst_z < 4.0
        msgs.append(f"n={n}: max|z|={worst_z:.2f}")
    report(11, "sampler agreement " + ", ".join(msgs) + " (want < 4 SE)", ok)


def test_criterion_12_special_functions():
    rng = np.random.default_rng(77)
    worst_rec = 0.0
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        if abs(z.imag) < 0.1:
            continue
        worst_rec = max(worst_rec,
                        abs(cgamma(z + 1) - z * cgamma(z)) / abs(cgamma(z + 1)))
        checked += 1
    t = 2.0 * math.pi / LN2
    ident = abs(abs(cgamma(complex(1.0, t))) ** 2
                - math.pi * t / math.sinh(math.pi * t)) / (
        math.pi * t / math.sinh(math.pi * t))
    psi1 = abs(cdigamma(1.0).real + EULER_GAMMA)
    worst_rt = 0.0
    for _ in range(100):
        x = rng.normal(size=(2, 2))
        mm = x.T @ x + 0.05 * np.eye(2)
        m = SymMatrix2(mm[0, 0], mm[0, 1], mm[1, 1])
        r = sqrt2(m)
        w = invsqrt2(m)
        worst_rt = max(
            worst_rt,
            float(np.abs(r.as_array() @ r.as_array() - m.as_array()).max()
                  / np.abs(m.as_array()).max()),
            float(np.abs(w.as_array() @ m.as_array() @ w.as_array()
                         - np.eye(2)).max()))
    ok = (worst_rec < 1e-12 and ident < 1e-12 and psi1 < 1e-13
          and worst_rt < 1e-10)
    report(12, f"gamma recurrence {worst_rec:.1e} (<1e-12), axis identity "
               f"{ident:.1e} (<1e-12), psi(1)+gamma {psi1:.1e}, matrix "
               f"round-trips {worst_rt:.1e} (<1e-10)", ok)
