"""Command-line front end.

Commands: exact, asym, simulate, whiten, hist, compare.  This module alone
writes output: each command builds its effective configuration (defaults
included) and a result document of plain data, and ``_render`` writes
both, as JSON {"config": ..., **document} or as CSV, a ``# config:`` line
and the command's rows.  ``simulate --dump-raw`` also writes the sample
matrix it summarises, as ``trial,S,K,N`` rows.  Outputs contain no
timestamps, so they are byte-identical across runs with the same config.
A file output is staged to a temp file with the mode ``open`` would give
it (0666 less the umask) and atomically renamed; nothing partial is ever
left at the target path.  The exact table's CSV and the raw dump are
formatted and written a chunk of rows at a time, never held whole.

Exit codes: 0 success, 2 usage/validation, 3 numeric failure (series not
converged, positive definiteness, the Monte-Carlo depth guard
DepthGuardExceeded, floating-point overflow), a Monte-Carlo batch or an
exact solve above its work budget or out of memory, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from functools import partial
from itertools import chain, islice

import numpy as np

from . import asym, exact, mc
from .errors import RatioSpecMismatch, TrieMomentsError, WorkBudgetExceeded

# asym: at p = 1/2 every g_k is exactly 0.0 past k = 52, and --emit-F
# evaluates 3 (kmax + 1) terms at each of --points points
_MAX_KMAX = 100
_MAX_POINTS = 10_000
# rows of a CSV formatted and written at a time, so that a large table or
# raw dump is never held whole as Python objects or text
_CHUNK_ROWS = 4096


def _cfg_line(cfg: dict) -> str:
    return "# config: " + " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))


def _chunks(lines: Iterable[str]) -> Iterator[str]:
    """The strings ``lines``, each ended by a newline, joined _CHUNK_ROWS
    at a time."""
    it = iter(lines)
    while block := list(islice(it, _CHUNK_ROWS)):
        yield "\n".join(block) + "\n"


def _emit(lines: Iterable[str], out: str | None):
    """Write ``lines``, each ended by a newline, to stdout, or to a temp file
    in the directory of ``out`` that gets mode 0o666 less the umask, as
    ``open`` would create it, and is renamed to ``out`` once written.  An
    OSError names ``out``, not the temp file."""
    if out in (None, "-"):
        sys.stdout.writelines(_chunks(lines))
        return
    target, tmp = os.path.abspath(out), None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                                   prefix=".stage-")
        with os.fdopen(fd, "w") as f:
            umask = os.umask(0)     # read it: os.umask also sets it
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            f.writelines(_chunks(lines))
        os.replace(tmp, target)
    except BaseException as e:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror, out) from None
        raise


def _table_lines(cols: list) -> Iterator[str]:
    """The CSV lines of the rows of the equal-length numpy arrays ``cols``,
    each value the repr of its Python number, _CHUNK_ROWS rows converted at
    a time."""
    for i in range(0, len(cols[0]), _CHUNK_ROWS):
        for row in zip(*(c[i:i + _CHUNK_ROWS].tolist() for c in cols)):
            yield ",".join(map(repr, row))


def _flat_kv(doc: dict) -> list[str]:
    """CSV rows key,value of a nested document of Python numbers, keys
    joined by "." and list items numbered [i]."""
    lines = ["key,value"]

    def walk(prefix, v):
        if isinstance(v, dict):
            for k in v:
                walk(f"{prefix}.{k}" if prefix else str(k), v[k])
        elif isinstance(v, list):
            for i, item in enumerate(v):
                walk(f"{prefix}[{i}]", item)
        else:
            lines.append(f"{prefix},{v}")

    walk("", doc)
    return lines


def _finite(v):
    """``v`` with every non-finite float, at any depth, made None."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return v


def _render(cfg: dict, doc: dict, fmt: str,
            csv_body=_flat_kv) -> Iterable[str]:
    """The lines of the output file: JSON {"config": cfg, **doc} on one
    line, with null for a non-finite number (JSON has no NaN), or CSV, the
    ``# config:`` line and then the rows csv_body(doc), where nan stays
    nan."""
    if fmt == "json":
        return [json.dumps(_finite({"config": cfg, **doc}), allow_nan=False)]
    return chain([_cfg_line(cfg)], csv_body(doc))


def _parse_ratio(args) -> asym.RatioSpec | str | None:
    if args.irrational and args.ratio is not None:
        raise ValueError("--ratio and --irrational exclude each other")
    if args.irrational:
        return asym.IRRATIONAL
    if args.ratio is None:
        return None
    try:
        r, l = args.ratio.split("/")
        return asym.RatioSpec(int(r), int(l))
    except (ValueError, TypeError) as e:
        raise ValueError(f"--ratio must look like r/l: {e}")


def _rows(text: str, name: str) -> list[int]:
    """The sorted distinct n of a comma-separated list, each >= 2."""
    rows = sorted({int(v) for v in text.split(",")})
    if rows[0] < 2:
        raise ValueError(f"{name} values must be >= 2")
    return rows


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_exact(args) -> Iterable[str]:
    if args.at is None:
        if args.nmax < 2:
            raise ValueError("nmax must be >= 2")
        at, n_max, cfg = None, args.nmax, {"p": args.p, "n_max": args.nmax}
    else:
        at = _rows(args.at, "at")
        n_max, cfg = at[-1], {"p": args.p, "at": args.at}
    # exact.compute refuses a solve above its work budget (exit 3)
    table = exact.compute(args.p, n_max, args.precision, at=at)
    cfg.update(precision=args.precision, command="exact", format=args.format)
    if args.format == "json":
        return _render(cfg, {"columns": dict(zip(table.COLUMNS,
                                                 table.columns()))}, "json")
    cols = table.arrays()   # a degenerate table is refused before any output
    return _render(cfg, {}, "csv", lambda doc: chain(
        [",".join(table.COLUMNS)], _table_lines(cols)))


def _coefficient_rows(doc: dict) -> list[str]:
    rows = ["family,k,re,im"]
    for fam in doc["families"]:
        for c in fam["coefficients"]:
            rows.append(f"{fam['family']},{c['k']},{c['re']!r},{c['im']!r}")
    return rows


def _cmd_asym(args) -> Iterable[str]:
    if args.kmax > _MAX_KMAX:
        raise ValueError(f"--kmax must be <= {_MAX_KMAX}")
    if args.points > _MAX_POINTS:
        raise ValueError(f"--points must be <= {_MAX_POINTS}")
    model = asym.params(args.p, _parse_ratio(args))
    cfg = {"command": "asym", "p": args.p, "kmax": args.kmax,
           "points": args.points, "emit_F": args.emit_F,
           "format": args.format,
           "ratio": f"{model.ratio.r}/{model.ratio.l}" if model.ratio else "irrational",
           "ratio_source": model.ratio_source}

    if args.emit_F:
        if not model.symmetric:
            raise ValueError("--emit-F requires p = 0.5")
        x, f = asym.F_profile(points=args.points, k_max=args.kmax)
        # the profile is CSV whatever --format says
        return _render(cfg, {"log2n": x.tolist(), "F": f.tolist()}, "csv",
                       lambda doc: ["log2n,F"] + [
                           f"{xi!r},{fi!r}" for xi, fi in zip(doc["log2n"], doc["F"])])

    doc = {"h": model.h, "lambda": model.lam, "lambda_alt": model.lam_alt}
    if model.symmetric:
        tabs = [asym.sym_coeffs(f, args.kmax) for f in ("g1", "g2", "g3")]
        g10, g20, g30 = (t.value(0).real for t in tabs)
        doc["F_average"] = g20 / math.sqrt(g10 * g30)
    else:
        tabs = [asym.cov_coeffs(model, args.kmax)]
        doc["g1"] = doc["g3"] = "unavailable (general p)"
    doc["families"] = [t.doc() for t in tabs]
    return _render(cfg, doc, args.format, _coefficient_rows)


def _cmd_simulate(args) -> Iterable[str]:
    cfg = {"n": args.n, "p": args.p, "trials": args.trials, "seed": args.seed,
           "command": "simulate", "format": args.format}
    mc.check(args.n, args.p, args.trials, args.seed, 100)
    x = mc.sample_matrix(args.n, args.p, args.trials, args.seed)
    if args.dump_raw:
        _emit(chain(["trial,S,K,N"],
                    _table_lines([np.arange(len(x)), *x.T])), args.dump_raw)
    return _render(cfg, mc.summary(x), args.format)


def _cmd_whiten(args) -> Iterable[str]:
    cfg = {"n": args.n, "p": args.p, "trials": args.trials, "seed": args.seed,
           "source": args.source, "command": "whiten", "format": args.format}
    report = mc.whiten(args.n, args.p, args.trials, args.seed, args.source)
    return _render(cfg, report, args.format)


def _histogram_rows(doc: dict) -> list[str]:
    return ([f"rho,{doc['rho']!r}",
             "s_edges," + ",".join(map(repr, doc["s_edges"])),
             "k_edges," + ",".join(map(repr, doc["k_edges"])),
             "counts"]
            + [",".join(map(str, row)) for row in doc["counts"]])


def _cmd_hist(args) -> Iterable[str]:
    cfg = {"n": args.n, "p": args.p, "trials": args.trials, "seed": args.seed,
           "bins": args.bins, "command": "hist", "format": args.format}
    h = mc.joint_histogram(args.n, args.p, args.trials, args.seed,
                           bins=args.bins)
    return _render(cfg, h, args.format, _histogram_rows)


def _comparison_rows(doc: dict) -> list[str]:
    lines = [",".join(doc["columns"])]
    for row in doc["rows"]:
        lines.append(",".join([str(row[0])] + [repr(float(v)) for v in row[1:]]))
    summary = doc["summary"]
    return lines + [f"# {k}={summary[k]!r}" for k in sorted(summary)]


def _cmd_compare(args) -> Iterable[str]:
    """Exact, asymptotic and (with --trials) Monte-Carlo values side by
    side on the grid.  The Monte-Carlo inputs are ``mc.check``ed before
    anything is solved or forked; ``mc.sample_beside`` then solves the
    cone here while the batches of every grid point are drawn, with the
    same output for every number of workers."""
    grid = _rows(args.n_grid, "n-grid")
    cfg = {"command": "compare", "p": args.p, "n_grid": args.n_grid,
           "trials": args.trials, "seed": args.seed,
           "precision": args.precision, "format": args.format}
    model = asym.params(args.p)
    solve = partial(exact.compute, args.p, grid[-1], args.precision, at=grid)
    rho_mc = [math.nan] * len(grid)
    if args.trials:     # refuse Monte-Carlo inputs before building the table
        for n in grid:
            mc.check(n, args.p, args.trials, args.seed, 100)
        table, samples = mc.sample_beside(solve, grid, args.p, args.trials,
                                          args.seed)
        rho_mc = [mc.summary(x)["rho"]["SK"] for x in samples]
    else:
        table = solve()
    if model.symmetric:
        c1, c2, c3 = (asym.sym_coeffs(f) for f in ("g1", "g2", "g3"))
        header = ("n,covSK_over_n,fluct_g2,diff_g2,varS_over_n,fluct_g1,"
                  "diff_g1,varK_over_n,fluct_g3,diff_g3,rho_exact,rho_mc")
    else:
        g20 = asym.g2_general(model, 0).real
        header = ("n,covSK_over_n,g2_0,diff_g2,varK_over_n,ln_n,"
                  "rho_exact,rho_mc")
    rows = []
    for n, rho in zip(grid, rho_mc):
        cover, vsover, vkover = (table.cov_SK(n) / n, table.var_S(n) / n,
                                 table.var_K(n) / n)
        if model.symmetric:
            f1, f2, f3 = (asym.fluct_eval(c, n) for c in (c1, c2, c3))
            row = [f2, abs(cover - f2), vsover, f1, abs(vsover - f1), vkover,
                   f3, abs(vkover - f3)]
        else:
            row = [g20, abs(cover - g20), vkover, math.log(n)]
        rows.append([n, cover] + row + [table.rho_SK(n), rho])
    if model.symmetric:
        summary = {"g2_0": c2.value(0).real}
    else:   # the slope of VarK/n against ln n
        xs, ys = [r[5] for r in rows], [r[4] for r in rows]
        slope = float(np.polyfit(xs, ys, 1)[0]) if len(grid) >= 2 else math.nan
        summary = {"lambda": model.lam, "varK_slope": slope,
                   "slope_rel_err": abs(slope - model.lam) / model.lam}

    doc = {"columns": header.split(","), "rows": rows, "summary": summary}
    return _render(cfg, doc, args.format, _comparison_rows)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="triemoments",
        description="Exact, asymptotic and Monte-Carlo moments of random tries")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, mc_flags=False):
        sp.add_argument("--p", type=float, required=True,
                        help="bit probability, in (0,1)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if mc_flags:
            sp.add_argument("--n", type=int, required=True)
            sp.add_argument("--trials", type=int, required=True)
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("exact", help="exact moment table as CSV/JSON")
    common(sp)
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--nmax", type=int, help="all rows n <= NMAX")
    which.add_argument("--at", default=None,
                      help="only the rows N[,N...], over their dependency cone")
    sp.add_argument("--precision", choices=("standard", "extended"),
                    default="standard")
    sp.set_defaults(fn=_cmd_exact)

    sp = sub.add_parser("asym", help="fluctuation coefficients, lambda, F(n)")
    common(sp)
    sp.set_defaults(format="json")
    sp.add_argument("--kmax", type=int, default=5)
    sp.add_argument("--ratio", default=None, help="log p/log q as r/l")
    sp.add_argument("--irrational", action="store_true")
    sp.add_argument("--emit-F", dest="emit_F", action="store_true",
                    help="emit (log2n, F) samples over one period (p=1/2)")
    sp.add_argument("--points", type=_positive_int, default=512)
    sp.set_defaults(fn=_cmd_asym)

    sp = sub.add_parser("simulate", help="Monte-Carlo moment summary")
    common(sp, mc_flags=True)
    sp.set_defaults(format="json")
    sp.add_argument("--dump-raw", dest="dump_raw", default=None,
                    help="also write per-trial (trial,S,K,N) CSV to this path")
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("whiten", help="whitened-covariance CLT check")
    common(sp, mc_flags=True)
    sp.set_defaults(format="json")
    sp.add_argument("--source", choices=("exact", "sample", "asymptotic"),
                    default="exact")
    sp.set_defaults(fn=_cmd_whiten)

    sp = sub.add_parser("hist", help="joint histogram of standardized (S,K)")
    common(sp, mc_flags=True)
    sp.set_defaults(format="json")
    sp.add_argument("--bins", type=int, default=50)
    sp.set_defaults(fn=_cmd_hist)

    sp = sub.add_parser("compare", help="exact vs asymptotic vs Monte-Carlo")
    common(sp)
    sp.add_argument("--n-grid", dest="n_grid", default="256,512,1024,2048,4096")
    sp.add_argument("--trials", type=int, default=0,
                    help="MC trials per grid point (0 = skip MC column)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--precision", choices=("standard", "extended"),
                    default="standard")
    sp.set_defaults(fn=_cmd_compare)
    return top


def _apply_config_file(parser: argparse.ArgumentParser,
                       argv: list[str]) -> list[str]:
    """Inline --config key=value file contents as flags (flags override,
    but --ratio and --irrational exclude each other wherever they come
    from).  The command must come first: a config file carries flags only."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i == 0 or argv[0].startswith("-"):
        parser.error("name the command before --config")
    if i + 1 >= len(argv):
        raise ValueError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    flags: list[str] = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            k, v = (s.strip() for s in line.split("=", 1))
            if v.lower() in ("true", "yes", "1") and k in ("irrational", "emit-F"):
                flags.append(f"--{k}")
            elif v.lower() in ("false", "no", "0") and k in ("irrational", "emit-F"):
                continue
            else:
                flags.extend([f"--{k}", v])
    # keep the subcommand first; user flags come after config flags so they win
    return rest[:1] + flags + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _build_parser()
        args = parser.parse_args(_apply_config_file(parser, argv))
        _emit(args.fn(args), args.out)
        return 0
    except SystemExit as e:
        return int(e.code or 0)
    except (ValueError, RatioSpecMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except WorkBudgetExceeded as e:
        print(f"work budget exceeded: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return 3
    except (TrieMomentsError, ArithmeticError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
