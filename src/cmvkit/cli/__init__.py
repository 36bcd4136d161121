"""Command-line front end.

Subcommands cover generation (gen), operator assembly (assemble),
split-rank analysis (decouple), polynomial solution families (laurent),
spectral functions (mfun), Green's kernel evaluation (green), sample
validity checks (analytic), and the invariant suites (verify).

Exit codes: 0 success, 1 failed checks, 2 usage or input errors, which
are exactly a CmvError (errors.py) or an OSError; 141 (128 + SIGPIPE, what
a shell reports for a writer its pipe's reader left) when stdout's reader
closes early, with nothing on stderr; anything else is a bug.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from ..analytic import is_caratheodory
from ..assembly import SplitSpec, assemble, assemble_split
from ..coefficients import (
    _as_square,
    _matrix_from_json,
    _matrix_to_json,
    _read_json,
    as_boundary,
    factorize_svd,
    load_sequence,
    sequence_document,
)
from ..decoupling import decoupling_report, det_criterion, minimal_phases, phase_unitaries
from ..errors import CmvError, DimensionMismatch, MalformedInput, OutOfRange, require_tolerance
from ..greens import dense_resolvent_entries, full_green_entries, half_green_entries
from ..laurent import propagate, seed_family
from ..weyl import spectral_sample
from .ensembles import Distribution, EnsembleSpec, generate
from .suites import SUITES, Tolerances, run_suite

EXIT_BROKEN_PIPE = 141


def _parse(text: str, form: str, *kinds) -> list:
    """The comma-separated fields of text, one converter each (any count of floats if none)."""
    parts = text.split(",")
    kinds = kinds or (float,) * len(parts)
    if len(parts) == len(kinds):
        try:
            return [kind(part) for kind, part in zip(kinds, parts)]
        except ValueError:
            pass
    raise MalformedInput(f"expected {form}, got {text!r}")


def _parse_window(text: str) -> tuple[int, int]:
    return tuple(_parse(text, "a window 'A,B' of integers", int, int))


def _parse_complex(text: str) -> complex:
    return complex(*_parse(text, "'RE,IM'", float, float))


def _resolve_seed(value: int | None) -> int:
    if value is None:
        value, = _parse(os.environ.get("CMV_SEED", "0"), "an integer CMV_SEED", int)
    return value


def _load_gamma(path: str | None, m: int) -> np.ndarray:
    if path is None:
        return np.eye(m, dtype=complex)
    return _matrix_from_json(_read_json(path), where=str(path))


def _emit_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload, out: str | None) -> None:
    _emit_text(json.dumps(payload, indent=2), out)


def _spec_from_args(args) -> EnsembleSpec:
    k_min, k_max = _parse_window(args.window)
    dist = Distribution(args.distribution)
    return EnsembleSpec(m=args.m, k_min=k_min, k_max=k_max,
                        seed=_resolve_seed(args.seed),
                        radius_max=args.radius, distribution=dist)


def cmd_gen(args) -> int:
    _emit_json(sequence_document(generate(_spec_from_args(args))), args.out)
    return 0


def cmd_assemble(args) -> int:
    seq = load_sequence(args.infile)
    if args.split is not None:
        g_left = _load_gamma(args.gamma_left, seq.m)
        g_right = _load_gamma(args.gamma_right, seq.m)
        ops = assemble_split(seq, SplitSpec(k0=args.split, gamma_left=g_left,
                                            gamma_right=g_right))
    else:
        ops = assemble(seq)
    _emit_json({"offset": ops.offset, "m": ops.m,
                **{name: _matrix_to_json(getattr(ops, name)) for name in "UVW"}}, args.out)
    return 0


def cmd_decouple(args) -> int:
    seq = load_sequence(args.infile)
    m = seq.m
    alpha = seq.alpha(args.k0)
    s = np.asarray(_parse(args.s, "phases in --s"), dtype=float) if args.s \
        else np.zeros(m)
    if s.size != m:
        raise DimensionMismatch(f"need {m} phases in --s, got {s.size}")
    if args.t:
        t = np.asarray(_parse(args.t, "phases in --t"), dtype=float)
        if t.size != m:
            raise DimensionMismatch(f"need {m} phases in --t, got {t.size}")
        gamma1, gamma2 = phase_unitaries(factorize_svd(alpha), t, s)
    else:
        sol = minimal_phases(alpha, s)
        t, gamma1, gamma2 = sol.t, sol.gamma1, sol.gamma2
    rep = decoupling_report(seq, args.k0, gamma1, gamma2, rtol=args.tol_rank)
    payload = {
        "k0": args.k0,
        "s": list(map(float, s)),
        "t": list(map(float, t)),
        "singular_values": list(map(float, rep.singular_values)),
        "op_rank": rep.op_rank,
        "resolvent_ranks": {f"{z.real},{z.imag}": r
                            for z, r in rep.resolvent_ranks.items()},
        "minimal": rep.minimal,
        "local_block": _matrix_to_json(rep.local_block),
    }
    if m == 1:
        # the criterion takes the boundary phases themselves, which fold
        # in the unitary factors of alpha, not the bare s and t angles
        payload["det_criterion"] = abs(det_criterion(
            alpha[0, 0], float(np.angle(gamma1[0, 0])),
            float(np.angle(gamma2[0, 0]))))
    _emit_json(payload, args.out)
    return 0


def cmd_laurent(args) -> int:
    seq = load_sequence(args.infile)
    gamma = as_boundary(_load_gamma(args.gamma, seq.m), seq.m)
    z = _parse_complex(args.z)
    lo, hi = _parse_window(args.range) if args.range else (seq.k_min, seq.k_max - 1)
    if lo > hi:
        raise OutOfRange(f"--range {lo},{hi} is reversed; expected A <= B")
    fam = propagate(seq, seed_family(gamma, z, args.k0, args.sign), lo, hi)
    sites = [{"k": k, **{name: _matrix_to_json(v) for name, v in fam.at(k)._asdict().items()}}
             for k in range(lo, hi + 1)]
    payload = {
        "k0": args.k0,
        "sign": args.sign,
        "z": [z.real, z.imag],
        "gamma": _matrix_to_json(gamma.gamma),
        "sites": sites,
    }
    _emit_json(payload, args.out)
    return 0


_MATRICES = ("m_plus", "m_minus", "M_plus", "M_minus", "Phi_plus", "Phi_minus")
_FLAGS = ("caratheodory_plus", "anti_caratheodory_minus", "schur_plus", "anti_schur_minus")


def _kept(names, sign: str | None) -> list:
    """The names of one sign's half with sign '+' or '-', else all of them."""
    drop = {"+": "_minus", "-": "_plus"}.get(sign)
    return [name for name in names if not (drop and name.endswith(drop))]


def _sample_payload(sample, sign: str | None) -> dict:
    return {"z": [sample.z.real, sample.z.imag],
            **{name: _matrix_to_json(getattr(sample, name)) for name in _kept(_MATRICES, sign)},
            **{name: getattr(sample, name) for name in _kept(_FLAGS, sign)}}


def _grid_rows(seq, k0, gamma, radii, n_theta, sign: str | None):
    cells = [(i, j) for i in range(seq.m) for j in range(seq.m)]
    matrices, flags = _kept(_MATRICES, sign), _kept(_FLAGS, sign)
    rows = [["z_re", "z_im"] + [f"{name}_{i}{j}_{part}" for name in matrices
                                for i, j in cells for part in ("re", "im")] + flags]
    for r in radii:
        for jt in range(n_theta):
            z = r * np.exp(2j * np.pi * jt / n_theta)
            samp = spectral_sample(seq, k0, gamma, z)
            row = [z.real, z.imag]
            for name in matrices:
                for i, j in cells:
                    row.extend([getattr(samp, name)[i, j].real, getattr(samp, name)[i, j].imag])
            rows.append(row + [int(getattr(samp, name)) for name in flags])
    return rows


def _emit_csv(rows, out: str | None) -> None:
    if out is None:
        csv.writer(sys.stdout).writerows(rows)
    else:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)


def cmd_mfun(args) -> int:
    seq = load_sequence(args.infile)
    gamma = as_boundary(_load_gamma(args.gamma, seq.m), seq.m)
    if args.grid:
        if args.z is not None:
            raise MalformedInput("mfun takes --z or --grid, not both")
        r1, r2, n_theta = _parse(args.grid, "--grid 'R1,R2,NTHETA'", float, float, int)
        if n_theta < 1:
            raise OutOfRange(f"--grid needs NTHETA >= 1, got {n_theta}")
        if not (r1 > 0 and r2 > 0):
            raise OutOfRange(f"--grid needs radii R1, R2 > 0, got {r1}, {r2}")
        _emit_csv(_grid_rows(seq, args.k0, gamma, (r1, r2), n_theta, args.sign), args.out)
        return 0
    if args.z is None:
        raise MalformedInput("need --z RE,IM (or --grid) for mfun")
    samp = spectral_sample(seq, args.k0, gamma, _parse_complex(args.z))
    _emit_json(_sample_payload(samp, args.sign), args.out)
    return 0


def _read_pairs(path: str) -> list[tuple[int, int]]:
    """The (k, kp) rows of a CSV file. Blank rows and a first-row header (its first cell
    not an integer) are skipped; any other row that is not two integers is MalformedInput."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = [row for row in csv.reader(fh) if "".join(row).strip()]
        except (ValueError, csv.Error) as exc:      # ValueError: not UTF-8
            raise MalformedInput(f"{path}: not a UTF-8 CSV file: {exc}") from exc
    if rows and not rows[0][0].strip().lstrip("+-").isdigit():
        rows = rows[1:]
    try:
        pairs = [(int(k), int(kp)) for k, kp in rows]
    except ValueError as exc:       # a cell not an integer, or a row not two cells
        raise MalformedInput(f"{path}: rows must be integer pairs 'k,kp': {exc}") from exc
    if not pairs:
        raise MalformedInput(f"no index pairs found in {path}")
    return pairs


def cmd_green(args) -> int:
    seq = load_sequence(args.infile)
    gamma = as_boundary(_load_gamma(args.gamma, seq.m), seq.m)
    z = _parse_complex(args.z)
    pairs = _read_pairs(args.pairs)
    m = seq.m
    rows = [["k", "kp", "i", "j", "value_re", "value_im",
             "oracle_re", "oracle_im", "residual"]]
    if args.half:
        entries = half_green_entries(seq, args.k0, gamma, z, pairs, args.half)
    else:
        entries = full_green_entries(seq, args.k0, gamma, z, pairs)
    oracles = dense_resolvent_entries(seq, z, pairs, half=args.half, k0=args.k0, gamma=gamma)
    for entry, oracle, (k, kp) in zip(entries, oracles, pairs):
        for i in range(m):
            for j in range(m):
                val = entry.value[i, j]
                ora = oracle[i, j]
                rows.append([k, kp, i, j, val.real, val.imag,
                             ora.real, ora.imag, abs(val - ora)])
    _emit_csv(rows, args.out)
    return 0


def cmd_analytic(args) -> int:
    tol = require_tolerance(args.tol_identity, "--tol-identity")
    try:
        samples = [(complex(item["z"][0], item["z"][1]),
                    _as_square(_matrix_from_json(item["F"], where="sample")))
                   for item in _read_json(args.infile)]
    except (KeyError, IndexError, TypeError) as exc:
        raise MalformedInput(f"{args.infile}: each sample needs 'z': [RE, IM] and "
                             f"a matrix 'F' ({type(exc).__name__}: {exc})") from exc
    if args.check == "caratheodory":
        report = is_caratheodory(samples, tol=tol)
        payload = {
            "check": "caratheodory",
            "valid": report.valid,
            "min_eigenvalues": list(map(float, report.min_eigenvalues)),
            "tol": report.tol,
        }
        ok = report.valid
    else:
        excess = [max(0.0, float(np.linalg.norm(F, 2)) - 1.0)
                  for _, F in samples]
        ok = all(e <= tol for e in excess)
        payload = {"check": "schur", "valid": ok, "norm_excess": excess, "tol": tol}
    _emit_json(payload, args.out)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite is None \
        else [n.strip() for n in args.suite.split(",") if n.strip()]
    spec = _spec_from_args(args)
    tols = Tolerances(rank=args.tol_rank, identity=args.tol_identity)
    report = run_suite(names, spec, tols)
    for res in report.results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.suite}/{res.check}: residual {res.residual:.3e}"
              f" (tol {res.tol:.3e})", file=sys.stderr)
    if args.format == "csv":
        rows = [["suite", "check", "residual", "tol", "passed"]]
        rows += [[r.suite, r.check, r.residual, r.tol, r.passed]
                 for r in report.results]
        _emit_csv(rows, args.out)
    else:
        _emit_json(report.to_dict(), args.out)
    return 0 if report.passed else 1


def _add_ensemble_flags(p) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (falls back to CMV_SEED, then 0)")
    p.add_argument("--m", type=int, default=1, help="coefficient block size")
    p.add_argument("--window", default="0,20", metavar="A,B",
                   help="lattice window bounds")
    p.add_argument("--radius", type=float, default=0.9,
                   help="max coefficient norm")
    p.add_argument("--distribution", default="uniform-disk",
                   choices=[d.value for d in Distribution])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmv",
        description="Five-diagonal unitary operators: assembly, decoupling, "
                    "spectral functions, and Green's kernels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random coefficient sequence")
    _add_ensemble_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("assemble", help="build the operator matrices")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--split", type=int, default=None, metavar="K0")
    p.add_argument("--gamma-left", default=None)
    p.add_argument("--gamma-right", default=None)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("decouple", help="rank analysis of a lattice split")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k0", type=int, required=True)
    p.add_argument("--s", default=None, help="comma-separated phases")
    p.add_argument("--t", default=None,
                   help="comma-separated phases (default: minimal choice)")
    p.add_argument("--tol-rank", type=float, default=1e-8)
    p.set_defaults(func=cmd_decouple)

    p = sub.add_parser("laurent", help="polynomial solution family")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k0", type=int, required=True)
    p.add_argument("--gamma", default=None)
    p.add_argument("--z", required=True, metavar="RE,IM")
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--range", default=None, metavar="A,B")
    p.set_defaults(func=cmd_laurent)

    p = sub.add_parser("mfun", help="spectral function sample or grid")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k0", type=int, required=True)
    p.add_argument("--gamma", default=None)
    p.add_argument("--z", default=None, metavar="RE,IM")
    p.add_argument("--sign", choices=["+", "-"], default=None)
    p.add_argument("--grid", default=None, metavar="R1,R2,NTHETA")
    p.set_defaults(func=cmd_mfun)

    p = sub.add_parser("green", help="Green's kernel entries vs the banded oracle")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k0", type=int, required=True)
    p.add_argument("--gamma", default=None)
    p.add_argument("--z", required=True, metavar="RE,IM")
    p.add_argument("--half", choices=["+", "-"], default=None)
    p.add_argument("--pairs", required=True, help="CSV of k,k' rows")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("analytic", help="validity checks on sampled functions")
    p.add_argument("--check", choices=["caratheodory", "schur"],
                   required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol-identity", type=float, default=1e-10)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("verify", help="run invariant suites")
    _add_ensemble_flags(p)
    p.add_argument("--suite", default=None,
                   help="comma-separated suite names (default: all)")
    p.add_argument("--tol-rank", type=float, default=1e-8)
    p.add_argument("--tol-identity", type=float, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()                  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:                 # the reader of stdout left: stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (CmvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

