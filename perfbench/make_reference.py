"""Generate the reference values that the benchmark checks outputs against.

Run once from the repository root and commit the result:

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes perfbench/reference.json.  Benchmark runs only read that file;
they never call this script.  Three independent sources are used:

* an mpmath split-recurrence DP (``mp_moments``), written here in matrix
  form and sharing no code with ``triemoments.exact`` or ``triemoments.dd``;
* closed-form sums over trie words for the means (``mp_means``), which
  share no code with either DP and cross-check the mpmath DP;
* the package's own extended-precision DP, for the checked n beyond the
  reach of the mpmath DP.  It is cross-checked against the mpmath DP where
  both exist, and the agreement is recorded in the provenance.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time

import mpmath
from mpmath import mp, mpf

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DPS = 50

# n at which the workloads check DP outputs; every one <= MP_NMAX comes from
# the mpmath DP, the rest from the extended DP.
MP_NMAX = 1024
DP_CHECKS = {"0.3": [16, 64, 256, 1024, 2048, 4096],
             "0.5": [16, 64, 256, 1024]}
# (p, n) pairs whose means and variances the Monte-Carlo checks use
MC_POINTS = [("0.5", 16), ("0.1", 10000)]


def mp_moments(p: mpf, n_max: int):
    """First and second moments of X_n = (S_n, K_n, N_n), n <= n_max.

    Given the split k ~ Binom(n, p), X_n = c + A (X_k + X'_{n-k}) with
    c = (1, n, 0) and A = [[1,0,0],[0,1,0],[1,0,1]] (NPL adds the subtree
    sizes).  Taking expectations, the k = 0 and k = n terms bring X_n back
    with weight b = p^n + q^n, so each n solves
        (I - b A) m_n = c + A s1
        M_n - b A M_n A^T = c c^T + c u^T + u c^T + A S2 A^T,  u = m_n - c
    with s1 = sum v_k m_k, S2 = sum v_k (M_k + m_k m_{n-k}^T), v_k = w_k + w_{n-k}.
    Returns lists m[n] (3-vectors) and M[n] (3x3 matrices of E X X^T).
    """
    q = 1 - p
    A = mp.matrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    AA = mp.matrix(9, 9)  # A (x) A acting on row-major vec(M)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    AA[3 * i + j, 3 * k + l] = A[i, k] * A[j, l]
    zero3 = [mpf(0)] * 3
    m = [zero3, zero3]
    M = [mp.matrix(3, 3), mp.matrix(3, 3)]
    # column views for fdot: mc[i][k] = m[k][i], Mc[i][j][k] = M[k][i, j]
    mc = [[mpf(0), mpf(0)] for _ in range(3)]
    Mc = [[[mpf(0), mpf(0)] for _ in range(3)] for _ in range(3)]
    for n in range(2, n_max + 1):
        w = [q ** n]
        for k in range(n):
            w.append(w[-1] * (n - k) / (k + 1) * p / q)
        b = w[0] + w[n]
        v = [w[k] + w[n - k] for k in range(1, n)]
        s1 = [mpmath.fdot(v, mc[i][1:n]) for i in range(3)]
        S2 = mp.matrix(3, 3)
        for i in range(3):
            rev_j = [mc[j][n - 1:0:-1] for j in range(3)]
            for j in range(3):
                prod = [x * y for x, y in zip(mc[i][1:n], rev_j[j])]
                S2[i, j] = mpmath.fdot(v, Mc[i][j][1:n]) + mpmath.fdot(v, prod)
        c = mp.matrix([1, n, 0])
        mn = mp.lu_solve(mp.eye(3) - b * A, c + A * mp.matrix(s1))
        u = mn - c
        R = c * c.T + c * u.T + u * c.T + A * S2 * A.T
        vecM = mp.lu_solve(mp.eye(9) - b * AA,
                           mp.matrix([R[i, j] for i in range(3) for j in range(3)]))
        Mn = mp.matrix(3, 3)
        for i in range(3):
            for j in range(3):
                Mn[i, j] = vecM[3 * i + j]
        m.append([mn[0], mn[1], mn[2]])
        M.append(Mn)
        for i in range(3):
            mc[i].append(mn[i])
            for j in range(3):
                Mc[i][j].append(Mn[i, j])
    return m, M


def mp_means(p: mpf, n: int):
    """(E S_n, E K_n, E N_n) as sums over trie words w of length d.

    A word with probability P holds Binom(n, P) keys and is an internal node
    iff it holds at least two; K counts each key once per internal ancestor.
    """
    q = 1 - p
    lp, lq, ln_ = (math.log10(float(x)) for x in (p, q, n))
    es = ek = en = mpf(0)
    d = 0
    while True:
        ls = lk = mpf(0)
        for j in range(d + 1):
            # 1 - (1-P)^n - nP(1-P)^(n-1) ~ (nP)^2/2 cancels 2 log10(1/nP)
            # digits when nP is small, so carry that many more
            lnp = ln_ + j * lp + (d - j) * lq
            lcnt = (math.lgamma(d + 1) - math.lgamma(j + 1)
                    - math.lgamma(d - j + 1)) / math.log(10)
            if lnp < 0 and lcnt + 2 * lnp < -DPS - 10:
                continue  # below the working precision of the totals (>= 1)
            extra = max(0, math.ceil(-2.0 * lnp)) + 10
            with mp.extradps(extra):
                pw = p ** j * q ** (d - j)
                miss = (1 - pw) ** (n - 1)
                cnt = mpmath.binomial(d, j)
                ls += cnt * (1 - (1 - pw) * miss - n * pw * miss)
                lk += cnt * n * pw * (1 - miss)
        es += ls
        ek += lk
        en += d * ls
        if d > 10 and lk < mpf(10) ** (-DPS + 5) * ek:
            return es, ek, en
        d += 1


def _summary(m, M, n):
    """Float values of the reported second-order quantities at n."""
    es, ek, en = m[n]
    var_s = M[n][0, 0] - es * es
    var_k = M[n][1, 1] - ek * ek
    cov_sk = M[n][0, 1] - es * ek
    return {"ES": float(es), "EK": float(ek), "EN": float(en),
            "VarS": float(var_s), "VarK": float(var_k),
            "CovSK": float(cov_sk),
            "RhoSK": float(cov_sk / mp.sqrt(var_s * var_k))}


def _table_summary(table, n):
    return {"ES": table.mean_S(n), "EK": table.mean_K(n), "EN": table.mean_N(n),
            "VarS": table.var_S(n), "VarK": table.var_K(n),
            "CovSK": table.cov_SK(n), "RhoSK": table.rho_SK(n)}


def _rel(a, b):
    return abs(a - b) / abs(b)


def mp_g2_0():
    """g2_0 at p = 1/2 by its gamma series summed in mpmath."""
    ln2 = mp.log(2)

    def term(ell):
        ell = int(ell)
        return ((-1) ** ell * mp.gamma(ell)
                * (ell * (2 * ell + 1) * ell - (ell + 1) ** 2)
                / (mp.factorial(ell + 1) * (2 ** ell - 1)))

    return 1 - 1 / (4 * ln2) + mpmath.nsum(term, [1, mpmath.inf]) / ln2


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"


def main():
    import numpy as np
    from triemoments import exact

    mp.dps = DPS
    t0 = time.time()
    dp, cross = {}, {}
    for key, checks in DP_CHECKS.items():
        p = mpf(float(key))
        n_mp = max(n for n in checks if n <= MP_NMAX)
        m, M = mp_moments(p, n_mp)
        rows = {str(n): dict(_summary(m, M, n), source="mpmath-dp")
                for n in checks if n <= n_mp}
        ext = exact.compute(float(key), max(checks), "extended")
        for n in checks:
            if n > n_mp:
                rows[str(n)] = dict(_table_summary(ext, n), source="extended-dp")
        worst = max(_rel(_table_summary(ext, n)[k], rows[str(n)][k])
                    for n in checks if n <= n_mp
                    for k in ("VarK", "CovSK", "RhoSK"))
        es, ek, _ = mp_means(p, n_mp)
        cross[key] = {
            "extended_vs_mpmath_worst_rel": worst,
            f"mpmath_dp_vs_word_sums_rel_ES_{n_mp}": float(abs(m[n_mp][0] - es) / es),
            f"mpmath_dp_vs_word_sums_rel_EK_{n_mp}": float(abs(m[n_mp][1] - ek) / ek),
        }
        dp[key] = rows
        print(f"p={key}: done at {time.time() - t0:.0f}s", flush=True)

    mc = {}
    for key, n in MC_POINTS:
        p = mpf(float(key))
        es, ek, en = mp_means(p, n)
        std = exact.compute(float(key), n, "standard")
        mc[f"{key}/{n}"] = {
            "ES": float(es), "EK": float(ek), "EN": float(en),
            "VarS": std.var_S(n), "VarK": std.var_K(n), "CovSK": std.cov_SK(n),
            "means_source": "mpmath-word-sums",
            "second_moments_source": "standard-dp",
            "standard_dp_vs_word_sums_rel_ES": _rel(std.mean_S(n), float(es)),
        }
        print(f"mc {key}/{n}: done at {time.time() - t0:.0f}s", flush=True)

    doc = {
        "provenance": {
            "script": "perfbench/make_reference.py",
            "program_commit": _git_commit(),
            "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_dps": DPS,
            "mpmath_dp_nmax": MP_NMAX,
            "note": ("dp rows with source mpmath-dp come from an mpmath "
                     "split-recurrence DP in matrix form that shares no code "
                     "with triemoments; rows with source extended-dp come "
                     "from triemoments.exact.compute(precision='extended') "
                     "at the commit above.  MC means come from closed-form "
                     "sums over trie words; MC variances, used only to scale "
                     "z-bounds, from the standard DP.  g2_0 is the p=1/2 "
                     "gamma series summed by mpmath.nsum."),
            "cross_checks": cross,
        },
        "dp": dp,
        "mc": mc,
        "g2_0": float(mp_g2_0()),
    }
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote reference.json in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    sys.exit(main())
