"""End-to-end runs of the cmv command line, in process."""

import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cmvkit import assembly, cli
from cmvkit.cli import main
from cmvkit.cli.ensembles import MAX_RADIUS, Distribution, EnsembleSpec, generate
from cmvkit.cli.suites import MIN_SPAN, SUITES, _worst, run_suite
from cmvkit.coefficients import CONTRACTION_TOL, load_sequence, sequence_document
from cmvkit.errors import CmvError, OutOfRange
from cmvkit.laurent import MINUS, PLUS, seed_family, window_family


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def mat_json(a):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return [[[z.real, z.imag] for z in row] for row in a]


def from_json(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def free_sequence_file(tmp_path, n=8):
    alphas = {str(k): mat_json([[0.0]]) for k in range(n + 1)}
    alphas["0"] = mat_json([[1.0]])
    alphas[str(n)] = mat_json([[1.0]])
    return write_json(tmp_path / "free.json",
                      {"m": 1, "k_min": 0, "k_max": n, "alphas": alphas})


def test_gen_then_assemble_round_trip(tmp_path, capsys):
    seq_file = str(tmp_path / "seq.json")
    code, _, _ = run(capsys, "gen", "--seed", "3", "--m", "2",
                     "--window", "0,16", "--out", seq_file)
    assert code == 0
    seq = load_sequence(seq_file)
    assert seq.m == 2 and (seq.k_min, seq.k_max) == (0, 16)

    code, out, _ = run(capsys, "assemble", "--in", seq_file)
    assert code == 0
    doc = json.loads(out)
    U = from_json(doc["U"])
    n = U.shape[0]
    assert doc["m"] == 2 and doc["offset"] == 0
    assert np.linalg.norm(U.conj().T @ U - np.eye(n)) < 1e-12
    V, W = from_json(doc["V"]), from_json(doc["W"])
    np.testing.assert_allclose(V @ W, U, atol=1e-14)


def test_gen_writes_the_sequence_document(tmp_path, capsys):
    """cmv gen prints (and writes) the sequence document at indent 2."""
    seq = generate(EnsembleSpec(m=2, k_min=-2, k_max=6, seed=4))
    doc = {"m": 2, "k_min": -2, "k_max": 6,
           "alphas": {str(k): [[[float(z.real), float(z.imag)] for z in row]
                               for row in seq.alpha(k)] for k in range(-2, 7)}}
    want = json.dumps(doc, indent=2)
    code, out, _ = run(capsys, "gen", "--seed", "4", "--m", "2", "--window=-2,6")
    assert code == 0 and out == want + "\n"
    path = tmp_path / "seq.json"
    run(capsys, "gen", "--seed", "4", "--m", "2", "--window=-2,6", "--out", str(path))
    assert path.read_text(encoding="utf-8") == want


def test_generate_output_bytes_are_pinned():
    """The sampled coefficients are a fixed function of the spec: one SHA-256 over
    the value bytes of 54 specs (m = 1..3, 4, 40 and 200 sites, both radius laws,
    three seeds, windows and radii), recorded when sampling looped site by site."""
    digest = hashlib.sha256()
    grid = itertools.product((1, 2, 3), (4, 40, 200), Distribution,
                             ((0, 0, 0.9), (-3, 7, 0.5), (1, 2 ** 40, 0.99)))
    for m, n, law, (k_min, seed, radius) in grid:
        seq = generate(EnsembleSpec(m=m, k_min=k_min, k_max=k_min + n, seed=seed,
                                    radius_max=radius, distribution=law))
        digest.update(seq.values.tobytes())
    assert digest.hexdigest() == \
        "422b3ed4f09049383e868dccef699f57e5c2fccd81c5dc20e3eddf1bd570fa22"


def _generate_site_by_site(spec):
    """The values generate drew with one Python step per site: rng.uniform() for the
    radius, then a Gaussian fill of that site's draw; scaled by numpy.linalg.norm's 2-norm."""
    rng = np.random.default_rng(spec.seed)
    m = spec.m
    values = np.empty((spec.k_max - spec.k_min + 1, m, m), dtype=complex)
    values[0] = values[-1] = np.eye(m)
    n = len(values) - 2
    normals, targets = np.empty((n, 2, m, m)), np.full(n, spec.radius_max)
    for i in range(n):
        if spec.distribution is Distribution.UNIFORM_DISK:
            targets[i] = spec.radius_max * np.sqrt(rng.uniform())
        rng.standard_normal(out=normals[i])
    draws = normals[:, 0] + 1j * normals[:, 1]
    norms = np.linalg.norm(draws, 2, axis=(1, 2))
    values[1:-1] = draws * (targets / norms)[:, None, None]
    values[1:-1][norms < 1e-12] = 0.0
    return values


def test_generate_keeps_the_site_by_site_draw_stream():
    """generate's draws equal, bit for bit, the site-by-site loop above: one uniform and
    then 2 m^2 Gaussians per site, for m = 1..3, both radius laws, three radii, two
    window starts and 20 seeds. Both sides run on the same numpy, so this holds on any
    build."""
    grid = itertools.product((1, 2, 3), Distribution, (0.5, 0.9, MAX_RADIUS), (0, -7), range(20))
    for m, law, radius, k_min, seed in grid:
        spec = EnsembleSpec(m=m, k_min=k_min, k_max=k_min + 40, seed=seed,
                            radius_max=radius, distribution=law)
        assert np.array_equal(generate(spec).values, _generate_site_by_site(spec))


def test_fixed_radius_draws_build_at_every_accepted_radius(capsys):
    """A fixed-radius draw at the largest accepted radius builds on every seed, at
    m = 1..3; the sequences' own contraction bound is rejected as a radius, naming
    the largest one."""
    for m in (1, 2, 3):
        for seed in range(20):
            seq = generate(EnsembleSpec(m=m, k_min=0, k_max=40, seed=seed, radius_max=MAX_RADIUS,
                                        distribution=Distribution.FIXED_RADIUS))
            norms = np.linalg.norm(seq.values[1:-1], 2, axis=(1, 2))
            np.testing.assert_allclose(norms, MAX_RADIUS, rtol=1e-14)
    with pytest.raises(OutOfRange, match=str(MAX_RADIUS)):
        EnsembleSpec(m=1, k_min=0, k_max=8, seed=0, radius_max=1.0 - CONTRACTION_TOL)
    for radius, code in ((MAX_RADIUS, 0), (1.0 - CONTRACTION_TOL, 2)):
        got, _, err = run(capsys, "gen", "--radius", repr(radius),
                          "--distribution", "fixed-radius")
        assert got == code and (code == 0 or str(MAX_RADIUS) in err)


def test_assemble_split_decouples(tmp_path, capsys):
    seq_file = str(tmp_path / "seq.json")
    run(capsys, "gen", "--seed", "5", "--window", "0,12", "--out", seq_file)
    code, out, _ = run(capsys, "assemble", "--in", seq_file, "--split", "6")
    assert code == 0
    doc = json.loads(out)
    U = from_json(doc["U"])
    cut = 6 - doc["offset"]
    assert np.all(U[:cut, cut:] == 0)
    assert np.all(U[cut:, :cut] == 0)


def test_decouple_minimal_and_bumped(tmp_path, capsys):
    seq_file = str(tmp_path / "seq.json")
    run(capsys, "gen", "--seed", "7", "--window", "0,12", "--out", seq_file)
    code, out, _ = run(capsys, "decouple", "--in", seq_file, "--k0", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal"] is True
    assert doc["op_rank"] == 1
    assert doc["det_criterion"] < 1e-10
    assert all(r == 1 for r in doc["resolvent_ranks"].values())
    assert len(doc["t"]) == 1 and len(doc["s"]) == 1

    bumped = str(doc["t"][0] + 0.1)
    code, out, _ = run(capsys, "decouple", "--in", seq_file, "--k0", "6",
                       "--s", "0.0", "--t", bumped)
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal"] is False
    assert doc["op_rank"] == 2
    assert doc["det_criterion"] > 0.01


def test_laurent_free_case_monomials(tmp_path, capsys):
    seq_file = free_sequence_file(tmp_path)
    code, out, _ = run(capsys, "laurent", "--in", seq_file, "--k0", "4",
                       "--z", "0.5,0.0", "--range", "2,6")
    assert code == 0
    doc = json.loads(out)
    got = {site["k"]: from_json(site["P"])[0, 0] for site in doc["sites"]}
    z = 0.5
    want = {2: z, 3: 1.0, 4: 1.0, 5: z, 6: 1 / z}
    for k, val in want.items():
        assert got[k] == pytest.approx(val, abs=1e-13)


def test_laurent_matches_library(tmp_path, capsys):
    seq_file = str(tmp_path / "seq.json")
    run(capsys, "gen", "--seed", "11", "--m", "2", "--window", "0,10",
        "--out", seq_file)
    code, out, _ = run(capsys, "laurent", "--in", seq_file, "--k0", "5",
                       "--z", "0.4,0.3", "--sign", "+")
    assert code == 0
    doc = json.loads(out)
    seq = load_sequence(seq_file)
    fam = window_family(seq, np.eye(2), 0.4 + 0.3j, 5, PLUS)
    for site in doc["sites"]:
        ref = fam.at(site["k"])
        np.testing.assert_allclose(from_json(site["Q"]), ref.Q, atol=1e-13)
        np.testing.assert_allclose(from_json(site["S"]), ref.S, atol=1e-13)


def test_laurent_minus_sign_writes_the_minus_family(tmp_path, capsys):
    """--sign - seeds the minus family: at k0 of either parity its letters are
    seed_family(..., MINUS)'s, which differ from the plus family's."""
    seq_file = str(tmp_path / "seq.json")
    run(capsys, "gen", "--seed", "11", "--m", "2", "--window", "0,10", "--out", seq_file)
    z = 0.4 + 0.3j
    for k0 in (5, 6):
        code, out, _ = run(capsys, "laurent", "--in", seq_file, "--k0", str(k0),
                           "--z", "0.4,0.3", "--sign", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["sign"] == "-"
        site, = (site for site in doc["sites"] if site["k"] == k0)
        minus, plus = (seed_family(np.eye(2), z, k0, sign).at(k0) for sign in (MINUS, PLUS))
        for name in "PRQS":
            assert np.array_equal(from_json(site[name]), getattr(minus, name))
        assert not np.array_equal(from_json(site["P"]), plus.P)


def test_laurent_range_propagates_only_to_the_range(tmp_path, capsys):
    """On 3000 sites (m = 2, seed 7) the whole-window family overflows; --range seeds at
    k0 and propagates to the range's ends only, so its values are finite."""
    seq_file = str(tmp_path / "seq.json")
    run(capsys, "gen", "--seed", "7", "--m", "2", "--window", "0,3000", "--out", seq_file)
    code, out, err = run(capsys, "laurent", "--in", seq_file, "--k0", "1500",
                         "--z", "0.4,0.3", "--range", "1495,1505")
    assert code == 0, err
    sites = json.loads(out)["sites"]
    assert [site["k"] for site in sites] == list(range(1495, 1506))
    assert all(np.isfinite(from_json(site[name])).all() for site in sites for name in "PRQS")


def test_mfun_single_sample_and_sign_filter(tmp_path, capsys):
    seq_file = str(tmp_path / "seq.json")
    run(capsys, "gen", "--seed", "13", "--window", "0,14", "--out", seq_file)
    code, out, _ = run(capsys, "mfun", "--in", seq_file, "--k0", "7",
                       "--z", "0.0,0.0")
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(from_json(doc["m_plus"]), [[1.0]], atol=0)
    np.testing.assert_allclose(from_json(doc["m_minus"]), [[-1.0]], atol=0)
    assert doc["caratheodory_plus"] is True
    assert doc["anti_caratheodory_minus"] is True

    code, out, _ = run(capsys, "mfun", "--in", seq_file, "--k0", "7",
                       "--z", "0.3,0.1", "--sign", "+")
    doc = json.loads(out)
    assert "m_plus" in doc and "m_minus" not in doc
    assert "Phi_minus" not in doc


def test_mfun_grid_csv(tmp_path, capsys):
    seq_file = str(tmp_path / "seq.json")
    run(capsys, "gen", "--seed", "17", "--window", "0,14", "--out", seq_file)
    code, out, _ = run(capsys, "mfun", "--in", seq_file, "--k0", "7",
                       "--grid", "0.5,1.8,4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    assert header[:2] == ["z_re", "z_im"]
    assert "m_plus_00_re" in header and "Phi_minus_00_im" in header
    assert "schur_plus" in header
    assert len(rows) == 1 + 2 * 4
    flag = header.index("caratheodory_plus")
    assert all(row[flag] == "1" for row in rows[1:])


def test_mfun_grid_sign_keeps_one_sign_columns(tmp_path, capsys):
    """--sign drops the other sign's matrices and flags from the grid CSV, by the rule the
    JSON sample uses; every kept column equals the full grid's."""
    seq_file = str(tmp_path / "seq.json")
    run(capsys, "gen", "--seed", "17", "--m", "2", "--window", "0,14", "--out", seq_file)
    grid = ("mfun", "--in", seq_file, "--k0", "7", "--grid", "0.5,1.8,2")
    _, out, _ = run(capsys, *grid)
    full = list(csv.reader(io.StringIO(out)))
    assert len(full[0]) == 2 + 6 * 4 * 2 + 4
    for sign, other in (("+", "minus"), ("-", "plus")):
        code, out, _ = run(capsys, *grid, "--sign", sign)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [name for name in full[0] if f"_{other}" not in name]
        assert len(rows[0]) == 2 + 3 * 4 * 2 + 2
        kept = [full[0].index(name) for name in rows[0]]
        assert rows[1:] == [[row[i] for i in kept] for row in full[1:]]


def test_closed_stdout_exits_quietly(tmp_path):
    """When the reader of cmv's stdout leaves after the first line, cmv exits 141 with
    nothing on stderr instead of an 'error:' line; the line read is the CSV header."""
    seq_file = tmp_path / "seq.json"
    seq_file.write_text(json.dumps(sequence_document(
        generate(EnsembleSpec(m=2, k_min=0, k_max=12, seed=3)))))
    src = str(Path(cli.__file__).parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [sys.executable, "-m", "cmvkit.cli", "mfun", "--in", str(seq_file), "--k0", "6",
            "--grid", "0.5,2,400"]      # about 0.8 MB of CSV, more than a pipe holds
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first.startswith(b"z_re,z_im,m_plus_00_re")
    assert code == cli.EXIT_BROKEN_PIPE == 141 and err == b""


def test_green_csv_residuals(tmp_path, capsys):
    seq_file = str(tmp_path / "seq.json")
    run(capsys, "gen", "--seed", "19", "--window", "0,16", "--radius", "0.8",
        "--out", seq_file)
    pairs_file = tmp_path / "pairs.csv"
    pairs_file.write_text("k,kp\n8,8\n7,9\n10,6\n")
    for extra in ([], ["--half", "+"]):
        if extra:
            pairs_file.write_text("k,kp\n8,9\n9,8\n10,10\n")
        code, out, _ = run(capsys, "green", "--in", seq_file, "--k0", "8",
                           "--z", "0.4,0.2", "--pairs", str(pairs_file),
                           *extra)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][-1] == "residual"
        assert len(rows) == 4
        assert all(float(r[-1]) < 1e-9 for r in rows[1:])


def test_csv_written_with_out_equals_the_stdout_csv(tmp_path, capsys):
    """verify --format csv, green and mfun --grid write the same bytes to --out as to stdout."""
    seq_file = str(tmp_path / "seq.json")
    run(capsys, "gen", "--seed", "17", "--window", "0,14", "--out", seq_file)
    pairs_file = tmp_path / "pairs.csv"
    pairs_file.write_text("k,kp\n7,7\n6,8\n")
    commands = {
        "verify": ("verify", "--suite", "analytic", "--seed", "2", "--format", "csv"),
        "green": ("green", "--in", seq_file, "--k0", "7", "--z", "0.4,0.2",
                  "--pairs", str(pairs_file)),
        "mfun": ("mfun", "--in", seq_file, "--k0", "7", "--grid", "0.5,1.8,2"),
    }
    for name, argv in commands.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.count("\n") > 1
        path = tmp_path / f"{name}.csv"
        code, written, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and written == ""
        assert path.read_bytes() == out.encode("utf-8")

def test_green_runs_past_the_dense_row_cap(tmp_path, capsys):
    """m = 2 on 300 sites: 600 rows, past the 512 that dense assembly allows."""
    seq_file = str(tmp_path / "seq.json")
    run(capsys, "gen", "--seed", "5", "--m", "2", "--window", "0,300", "--out", seq_file)
    pairs_file = tmp_path / "pairs.csv"
    pairs_file.write_text("k,kp\n150,150\n151,154\n156,152\n")
    for extra in ([], ["--half", "+"]):
        code, out, _ = run(capsys, "green", "--in", seq_file, "--k0", "150",
                           "--z", "0.4,0.2", "--pairs", str(pairs_file), *extra)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 3 * 4
        assert all(float(r[-1]) < 1e-9 for r in rows[1:])


def test_decouple_runs_past_the_dense_row_cap(tmp_path, capsys):
    """m = 2 on 300 sites: 600 rows, past the 512 that dense assembly allows."""
    seq_file = str(tmp_path / "seq.json")
    run(capsys, "gen", "--seed", "5", "--m", "2", "--window", "0,300", "--out", seq_file)
    for k0 in ("150", "151"):                 # the cut block in V, then in W
        code, out, _ = run(capsys, "decouple", "--in", seq_file, "--k0", k0)
        assert code == 0
        rep = json.loads(out)
        assert rep["op_rank"] == 2 and rep["minimal"] is True
        assert len(rep["resolvent_ranks"]) == 8
        assert set(rep["resolvent_ranks"].values()) == {2}


def test_analytic_exit_codes(tmp_path, capsys):
    rng = np.random.default_rng(0)
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    H = rng.standard_normal((2, 2))
    F = G @ G.conj().T + 1j * (H + H.T)
    good = [{"z": [0.2, 0.1], "F": mat_json(F)}]
    bad = [{"z": [0.2, 0.1], "F": mat_json(-np.eye(2))}]
    good_file = write_json(tmp_path / "good.json", good)
    bad_file = write_json(tmp_path / "bad.json", bad)

    code, out, _ = run(capsys, "analytic", "--check", "caratheodory",
                       "--in", good_file)
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run(capsys, "analytic", "--check", "caratheodory",
                       "--in", bad_file)
    assert code == 1 and json.loads(out)["valid"] is False

    small = [{"z": [0.2, 0.1], "F": mat_json(0.5 * np.eye(2))}]
    code, _, _ = run(capsys, "analytic", "--check", "schur",
                     "--in", write_json(tmp_path / "s.json", small))
    assert code == 0
    code, _, _ = run(capsys, "analytic", "--check", "schur",
                     "--in", write_json(tmp_path / "s2.json",
                                        [{"z": [0.2, 0.1],
                                          "F": mat_json(2 * np.eye(2))}]))
    assert code == 1


def test_verify_subset_and_formats(capsys):
    code, out, err = run(capsys, "verify", "--suite", "unitarity,analytic",
                         "--seed", "2", "--window", "0,20")
    assert code == 0
    doc = json.loads(out)
    assert all(r["passed"] for r in doc["results"])
    suites = {r["suite"] for r in doc["results"]}
    assert suites == {"unitarity", "analytic"}
    assert "PASS unitarity/" in err

    code, out, _ = run(capsys, "verify", "--suite", "analytic",
                       "--seed", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["suite", "check", "residual", "tol", "passed"]
    assert all(row[-1] == "True" for row in rows[1:])


def test_python_m_runs_the_command_line():
    """`python -m cmvkit.cli` is the cmv command."""
    src = str(Path(cli.__file__).parents[2])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-m", "cmvkit.cli", "verify", "--suite", "analytic"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert all(r["passed"] for r in json.loads(done.stdout)["results"])


def test_verify_meta_times_each_suite():
    """Per-suite seconds sit in meta beside the total; results do not move."""
    spec = EnsembleSpec(m=2, k_min=0, k_max=16, seed=5)
    names = ["analytic", "unitarity"]
    report = run_suite(names, spec)
    seconds = report.meta["suite_seconds"]
    assert list(seconds) == names and all(s >= 0.0 for s in seconds.values())
    assert sum(seconds.values()) <= report.meta["runtime_seconds"]
    again = run_suite(names[::-1], spec).to_dict()
    assert json.dumps(again["results"]) == json.dumps(report.to_dict()["results"])


def test_worst_floors_at_zero_and_keeps_a_non_finite_residual():
    """One check's residual: the largest value floored at 0, or the first non-finite
    one as nan or +inf, which no tolerance passes."""
    assert _worst([3e-16, -2.0, 1e-15]) == 1e-15
    assert _worst([-1.0, -2.0]) == 0.0
    assert _worst([]) == 0.0
    assert _worst(4e-12) == 4e-12 and _worst(-4e-12) == 0.0
    assert np.isnan(_worst([0.0, np.nan, 1.0, np.inf]))
    assert _worst(np.array([[1.0, np.inf], [2.0, 0.0]])) == np.inf
    assert _worst([0.5, -np.inf]) == np.inf


def test_no_check_passes_on_a_non_finite_residual(monkeypatch):
    """A suite whose residuals hold a NaN or an infinity fails that check through
    run_suite, instead of passing on its finite residuals."""
    monkeypatch.setitem(SUITES, "connection", lambda spec, tol: [
        ("has-nan", [1e-16, np.nan, 2e-16], 1e-9), ("has-inf", [np.inf, 0.0], 1e-9),
        ("finite", [1e-16], 1e-9)])
    report = run_suite(["connection"], EnsembleSpec(m=2, k_min=0, k_max=20, seed=7))
    passed = {r.check: r.passed for r in report.results}
    assert passed == {"finite": True, "has-inf": False, "has-nan": False}
    assert not report.passed


def test_long_window_residuals_are_finite():
    """At 1500 sites (m = 2, seed 7) the connection and quadratic identities compare
    values near 1e300: scaled by powers of two, every residual stays finite and passes."""
    report = run_suite(["connection", "quadratic"],
                       EnsembleSpec(m=2, k_min=0, k_max=1500, seed=7))
    assert len(report.results) == 6
    assert all(np.isfinite(r.residual) and r.passed for r in report.results)
    assert report.passed


def test_wronskian_suite_reaches_a_verdict_on_a_long_window():
    """The wronskian suite forms its solutions on the sites it reads, k0 - 4 .. k0 + 4, so
    at 3000 sites (m = 2, seed 7), where whole-window families overflow, it passes."""
    report = run_suite(["wronskian"], EnsembleSpec(m=2, k_min=0, k_max=3000, seed=7))
    assert len(report.results) == 6 and report.passed
    assert all(np.isfinite(r.residual) for r in report.results)


def test_gauge_suite_raises_at_the_row_cap_before_building_its_gauge_matrices():
    """Past the dense row cap (m = 2, 3000 sites) the gauge suite raises from assemble
    before it builds an n x n gauge matrix: its traced peak stays below 16 MB."""
    spec = EnsembleSpec(m=2, k_min=0, k_max=3000, seed=7)
    tracemalloc.start()
    try:
        with pytest.raises(CmvError, match="dense storage limited"):
            run_suite(["gauge"], spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_tol_identity_replaces_nonzero_defaults_and_exact_checks_stay_exact(capsys):
    code, out, err = run(capsys, "verify", "--suite", "unitarity,decoupling", "--seed", "2",
                         "--m", "2", "--window", "0,20", "--tol-identity", "1e-30")
    assert code == 1
    results = {(r["suite"], r["check"]): r for r in json.loads(out)["results"]}
    band = results["unitarity", "band-zeros"]
    assert band["tol"] == 0.0 and band["passed"]
    exact = [r for r in results.values() if r["tol"] == 0.0]
    assert len(exact) == 9 and all(r["passed"] for r in exact)   # band-zeros and 8 rank checks
    assert all(r["tol"] == 1e-30 for r in results.values() if r["tol"] != 0.0)
    assert not results["unitarity", "U-star-U"]["passed"]
    assert "FAIL unitarity/U-star-U" in err


def test_u_equals_vw_reads_the_band_storage(monkeypatch):
    """U-equals-VW compares the dense U with V and W unpacked from seq.bands: exactly
    0 while the two scatters agree, a failure once one band entry is corrupted."""
    spec = EnsembleSpec(m=2, k_min=0, k_max=12, seed=3)

    def check():
        return next(r for r in run_suite(["unitarity"], spec).results if r.check == "U-equals-VW")

    clean = check()
    assert clean.residual == 0.0 and clean.passed
    real = assembly.band_storage

    def corrupted(seq):
        V, W_star = (a.copy() for a in real(seq))
        V[2 * (2 * seq.m - 1), 5] += 1e-6          # V's diagonal entry (5, 5)
        return V, W_star

    monkeypatch.setattr(assembly, "band_storage", corrupted)
    got = check()
    assert not got.passed and got.residual == pytest.approx(1e-6, rel=0.5)


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("name", sorted(SUITES))
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k_min", [0, 1])
def test_suite_runs_at_its_shortest_window_and_not_one_site_shorter(name, m, k_min):
    """At k_max - k_min = its minimum a suite passes; one site less is OutOfRange before it
    runs (from EnsembleSpec itself at its own minimum, 4)."""
    need = MIN_SPAN.get(name, 4)
    assert run_suite([name], EnsembleSpec(m=m, k_min=k_min, k_max=k_min + need, seed=7)).passed
    with pytest.raises(OutOfRange, match=f"suite '{name}'" if need > 4 else "window"):
        run_suite([name], EnsembleSpec(m=m, k_min=k_min, k_max=k_min + need - 1, seed=7))


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    monkeypatch.setenv("CMV_SEED", "23")
    run(capsys, "gen", "--window", "0,8", "--out", a)
    monkeypatch.delenv("CMV_SEED")
    run(capsys, "gen", "--seed", "23", "--window", "0,8", "--out", b)
    sa, sb = load_sequence(a), load_sequence(b)
    for k in range(0, 9):
        np.testing.assert_allclose(sa.alpha(k), sb.alpha(k), atol=0)


def test_negative_seed_is_one_error_line(capsys, monkeypatch):
    """A seed below 0, from --seed or CMV_SEED, exits 2 with one line naming it, before
    numpy's generator sees it."""
    monkeypatch.delenv("CMV_SEED", raising=False)
    for argv, seed in ((("gen", "--seed", "-1"), -1), (("verify", "--seed", "-3"), -3)):
        assert run(capsys, *argv) == (2, "", f"error: seed must be at least 0, got {seed}\n")
    monkeypatch.setenv("CMV_SEED", "-5")
    assert run(capsys, "gen") == (2, "", "error: seed must be at least 0, got -5\n")


def test_missing_input_file_is_error(capsys):
    code, _, err = run(capsys, "mfun", "--in", "/nonexistent.json",
                       "--k0", "3", "--z", "0.1,0.1")
    assert code == 2
    assert "error:" in err


@pytest.fixture(scope="module")
def bad_input_files(tmp_path_factory):
    """Files for the exit-code cases; {name} in an argument is replaced by its path."""
    tmp_path = tmp_path_factory.mktemp("bad-input")
    files = {"seq": str(tmp_path / "seq.json"), "big": str(tmp_path / "big.json")}
    main(["gen", "--seed", "5", "--window", "0,12", "--out", files["seq"]])
    main(["gen", "--seed", "5", "--m", "2", "--window", "0,300", "--out", files["big"]])
    texts = {"out_pairs": "k,kp\n3,40\n", "x_pairs": "3,x\n", "one_col": "3\n",
             "header_pairs": "k,kp\n", "float_pairs": "k,kp\n10,11\n12.5,13\n8,9\n",
             "word_pairs": "k,kp\n10,11\nabc,3\n8,9\n",
             "trunc": '{"m": 1, "k_min": 0, "k_max"',
             "obj_gamma": json.dumps({"m": 1}),
             "no_f": json.dumps([{"z": [0.2, 0.1]}]),
             "not_obj": json.dumps([5]),
             "short_z": json.dumps([{"z": [0.2], "F": mat_json([[1.0]])}]),
             "sample": json.dumps([{"z": [0.2, 0.1], "F": mat_json([[0.5]])}])}
    for name, text in texts.items():
        files[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text, encoding="utf-8")
    files["binary"] = str(tmp_path / "binary")
    (tmp_path / "binary").write_bytes(b"\xff\xfe\x80 not utf-8 \xc3")
    return files


_SEQ = ("--in", "{seq}")
_Z = ("--k0", "6", "--z", "0.4,0.2")
BAD_INPUTS = {
    "decouple-k0-outside": ("decouple", *_SEQ, "--k0", "99"),
    "laurent-range-outside": ("laurent", *_SEQ, *_Z, "--range", "0,99"),
    "laurent-range-reversed": ("laurent", *_SEQ, *_Z, "--range", "9,3"),
    "green-full-pair-outside": ("green", *_SEQ, *_Z, "--pairs", "{out_pairs}"),
    "green-half-pair-outside": ("green", *_SEQ, *_Z, "--pairs", "{out_pairs}", "--half", "+"),
    "analytic-sample-without-F": ("analytic", "--check", "schur", "--in", "{no_f}"),
    "gen-window-not-numbers": ("gen", "--window", "a,b"),
    "gen-m-zero": ("gen", "--m", "0"),
    "gen-window-too-short": ("gen", "--window", "0,3"),
    "seed-env-not-integer": ("gen",),
    "seed-env-negative": ("gen",),
    "gen-seed-negative": ("gen", "--seed", "-1"),
    "verify-seed-negative": ("verify", "--seed", "-3"),
    "mfun-grid-count-not-integer": ("mfun", *_SEQ, "--k0", "6", "--grid", "0.5,2,x"),
    "mfun-grid-count-zero": ("mfun", *_SEQ, "--k0", "6", "--grid", "0.5,2,0"),
    "mfun-grid-count-negative": ("mfun", *_SEQ, "--k0", "6", "--grid", "0.5,2,-3"),
    "mfun-grid-radius-zero": ("mfun", *_SEQ, "--k0", "6", "--grid", "0,2,4"),
    "mfun-grid-radius-negative": ("mfun", *_SEQ, "--k0", "6", "--grid=-0.5,2,2"),
    "mfun-z-on-circle": ("mfun", *_SEQ, "--k0", "6", "--z", "1,0"),
    "mfun-k0-outside": ("mfun", *_SEQ, "--k0", "99", "--z", "0.4,0.2"),
    "mfun-z-nan": ("mfun", *_SEQ, "--k0", "6", "--z", "nan,0"),
    "mfun-z-inf": ("mfun", *_SEQ, "--k0", "6", "--z", "inf,0"),
    "laurent-z-zero": ("laurent", *_SEQ, "--k0", "6", "--z", "0,0"),
    "laurent-z-nan": ("laurent", *_SEQ, "--k0", "6", "--z", "nan,0"),
    "laurent-z-overflows": ("laurent", *_SEQ, "--k0", "6", "--z", "1e200,0"),
    "assemble-split-outside": ("assemble", *_SEQ, "--split", "99"),
    "decouple-s-count": ("decouple", *_SEQ, "--k0", "6", "--s", "1,2"),
    "decouple-s-not-number": ("decouple", *_SEQ, "--k0", "6", "--s", "1,x"),
    "decouple-t-count": ("decouple", *_SEQ, "--k0", "6", "--t", "1,2"),
    "decouple-tol-rank-zero": ("decouple", *_SEQ, "--k0", "6", "--tol-rank", "0"),
    "decouple-tol-rank-nan": ("decouple", *_SEQ, "--k0", "6", "--tol-rank", "nan"),
    "mfun-neither-z-nor-grid": ("mfun", *_SEQ, "--k0", "6"),
    "mfun-z-with-grid": ("mfun", *_SEQ, "--k0", "6", "--z", "0.3,0.1", "--grid", "0.5,2,2"),
    "pairs-header-only": ("green", *_SEQ, *_Z, "--pairs", "{header_pairs}"),
    "assemble-dense-row-cap": ("assemble", "--in", "{big}"),
    "verify-radius-too-large": ("verify", "--radius", "2"),
    "verify-window-too-short-for-a-suite": ("verify", "--window", "0,5"),
    "verify-suite-list-empty": ("verify", "--suite", ","),
    "verify-suite-repeated": ("verify", "--suite", "analytic,analytic"),
    "verify-tol-identity-nan": ("verify", "--tol-identity", "nan"),
    "verify-tol-identity-inf": ("verify", "--tol-identity", "inf"),
    "verify-tol-identity-negative": ("verify", "--tol-identity=-1"),
    "verify-tol-rank-zero": ("verify", "--tol-rank", "0"),
    "verify-tol-rank-above-one": ("verify", "--tol-rank", "5"),
    "in-truncated-json": ("assemble", "--in", "{trunc}"),
    "in-not-utf8": ("assemble", "--in", "{binary}"),
    "pairs-not-utf8": ("green", *_SEQ, *_Z, "--pairs", "{binary}"),
    "gamma-not-utf8": ("laurent", *_SEQ, *_Z, "--gamma", "{binary}"),
    "gamma-not-a-matrix": ("laurent", *_SEQ, *_Z, "--gamma", "{obj_gamma}"),
    "pairs-row-not-integer": ("green", *_SEQ, *_Z, "--pairs", "{x_pairs}"),
    "pairs-row-one-column": ("green", *_SEQ, *_Z, "--pairs", "{one_col}"),
    "pairs-float-row-after-data": ("green", *_SEQ, *_Z, "--pairs", "{float_pairs}"),
    "pairs-word-row-after-data": ("green", *_SEQ, *_Z, "--pairs", "{word_pairs}"),
    "analytic-sample-not-object": ("analytic", "--check", "schur", "--in", "{not_obj}"),
    "analytic-z-one-element": ("analytic", "--check", "schur", "--in", "{short_z}"),
    **{f"analytic-{check}-tol-identity-{name}":
       ("analytic", "--check", check, "--in", "{sample}", f"--tol-identity={tol}")
       for check in ("schur", "caratheodory") for name, tol in (("nan", "nan"), ("negative", "-1"))},
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2(case, bad_input_files, capsys, monkeypatch):
    """Every malformed input is reported in one 'error:' line with exit code 2."""
    monkeypatch.delenv("CMV_SEED", raising=False)
    env = {"seed-env-not-integer": "abc", "seed-env-negative": "-5"}.get(case)
    if env is not None:
        monkeypatch.setenv("CMV_SEED", env)
    argv = (arg.format(**bad_input_files) for arg in BAD_INPUTS[case])
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_out_of_window_error_names_the_site_and_window(bad_input_files, capsys):
    code, _, err = run(capsys, "decouple", "--in", bad_input_files["seq"], "--k0", "99")
    assert code == 2
    assert err == "error: site 99 outside the window [0, 12]\n"


@pytest.mark.parametrize("exc", [CmvError("bad input"), OSError("no such file"),
                                 ValueError("a bug"), KeyError("a bug"),
                                 IndexError("a bug"), TypeError("a bug")])
def test_main_catches_exactly_the_error_family_and_os_errors(exc, capsys, monkeypatch):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_gen", fail)
    if isinstance(exc, (CmvError, OSError)):
        code, _, err = run(capsys, "gen")
        assert code == 2 and err == f"error: {exc}\n"
    else:
        with pytest.raises(type(exc)):
            main(["gen"])
