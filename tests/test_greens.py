"""Resolvent kernels against dense solves, and the pairing identities."""

import numpy as np
import pytest

from cmvkit import assembly, greens, laurent, weyl
from cmvkit.cli import suites
from cmvkit.greens import (
    GreensBranch,
    dense_resolvent_entries,
    dense_resolvent_entry,
    full_green_entries,
    full_green_scalar_prefactor,
    half_green_entries,
    half_green_scalar_prefactor,
    half_lattice_green,
    wronskian,
    wronskian_symmetry_check,
)
from cmvkit.errors import MalformedInput, SiteOutOfWindow
from cmvkit.laurent import MINUS, PLUS, MatrixCaseUnsupported, window_family
from cmvkit.weyl import weyl_solution
from cmvkit.cli.ensembles import EnsembleSpec, generate, random_unitary


def make_case(m, seed, n=32, radius=0.8):
    spec = EnsembleSpec(m=m, k_min=0, k_max=n, seed=seed, radius_max=radius)
    seq = generate(spec)
    g = random_unitary(np.random.default_rng(seed + 100), m)
    return seq, g, n // 2


def test_pairing_of_first_and_second_kind():
    seq, g, k0 = make_case(2, 30)
    z = 0.5 * np.exp(1.1j)
    fam = window_family(seq, g, z, k0, PLUS)
    fam_c = window_family(seq, fam.boundary, 1.0 / np.conj(z), k0, PLUS)
    for k in range(k0 - 3, k0 + 4):
        got = wronskian((fam_c.at(k).P, fam_c.at(k).R),
                        (fam.at(k).Q, fam.at(k).S), k)
        np.testing.assert_allclose(got, np.eye(2), atol=1e-11)


def test_pairing_constant_and_equals_M_difference():
    seq, g, k0 = make_case(2, 31)
    z = 0.45 * np.exp(2.3j)
    zc = 1.0 / np.conj(z)
    sol_p = weyl_solution(seq, k0, g, z, PLUS)
    sol_m = weyl_solution(seq, k0, g, z, MINUS)
    sol_pc = weyl_solution(seq, k0, g, zc, PLUS)
    vals = [wronskian(sol_pc.at(k), sol_m.at(k), k)
            for k in range(k0 - 4, k0 + 5)]
    for v in vals[1:]:
        np.testing.assert_allclose(v, vals[0], atol=1e-10)
    np.testing.assert_allclose(vals[0], sol_m.M - sol_p.M, atol=1e-10)


def test_same_sign_pairings_vanish():
    seq, g, k0 = make_case(2, 32)
    z = 0.5 * np.exp(0.4j)
    zc = 1.0 / np.conj(z)
    sol_p = weyl_solution(seq, k0, g, z, PLUS)
    sol_pc = weyl_solution(seq, k0, g, zc, PLUS)
    sol_m = weyl_solution(seq, k0, g, z, MINUS)
    sol_mc = weyl_solution(seq, k0, g, zc, MINUS)
    for k in (k0 - 2, k0 + 1):
        np.testing.assert_allclose(wronskian(sol_pc.at(k), sol_p.at(k), k),
                                   0, atol=1e-10)
        np.testing.assert_allclose(wronskian(sol_mc.at(k), sol_m.at(k), k),
                                   0, atol=1e-10)


def test_full_kernel_propagates_one_family_per_z(count_calls):
    """Both Weyl signs share the plus family: one family at z and one at 1/conj(z), each
    seeded at k0 and run both ways, all four paths in one banded solve."""
    seq, g, k0 = make_case(2, 35)
    z = 0.5 * np.exp(0.9j)
    zc = 1.0 / np.conj(z)
    pairs = [(k0 - 3, k0 + 2), (k0 + 4, k0 - 1), (k0, k0), (k0 + 1, k0 + 1)]
    chains = count_calls(greens, "_chain")
    got = full_green_entries(seq, k0, g, z, pairs)
    (_, paths), = chains
    assert [(w, k_from, k_to) for w, _, k_from, k_to in paths] == [
        (z, k0, k0 - 3), (z, k0, k0 + 4), (zc, k0, k0 - 3), (zc, k0, k0 + 4)]
    for w, X0, _, _ in paths:
        assert np.array_equal(X0, laurent.seed_family(g, w, k0, PLUS).X[0])
    sol = {s: weyl_solution(seq, k0, g, z, s) for s in (PLUS, MINUS)}
    X_c = window_family(seq, g, zc, k0, PLUS).X
    U_c = {s: weyl._combination(X_c, -sol[s].M.conj().T)[:, :2] for s in (PLUS, MINUS)}
    W = sol[PLUS].M - sol[MINUS].M
    for entry, (k, kp) in zip(got, pairs):
        ik, ikp = k - sol[PLUS].k_lo, kp - sol[PLUS].k_lo
        if entry.branch is GreensBranch.UPPER_ODD:
            left, right = sol[MINUS].U[ik], U_c[PLUS][ikp]
        else:
            left, right = sol[PLUS].U[ik], U_c[MINUS][ikp]
        want = left @ np.linalg.solve(W, right.conj().T) / (2.0 * z)
        assert np.array_equal(entry.value, want)


def test_full_kernel_forms_solution_values_only_at_the_pairs_sites(monkeypatch):
    """One full call puts exactly two rows per pair through X [c; I] (the left factor at k,
    the right one at kp) and never a stack over the propagated span."""
    seq, g, k0 = make_case(2, 38, n=60)
    pairs = [(k0 - 20, k0 + 25), (k0 + 4, k0 - 1), (k0, k0), (k0 + 1, k0 + 1), (3, 56)]
    real = greens._combination
    rows = []

    def counting(X, M):
        rows.append(X.shape[0])
        return real(X, M)

    monkeypatch.setattr(greens, "_combination", counting)
    for batch in (pairs, pairs[:1], pairs[1:2]):      # mixed, all-upper, all-lower
        rows.clear()
        full_green_entries(seq, k0, g, 0.5 * np.exp(0.3j), batch)
        assert sum(rows) == 2 * len(batch)
        assert all(r <= len(batch) for r in rows)


def test_batched_entries_factor_once_per_cut_and_z(count_calls):
    """The oracle makes one banded LU per (cut, z) for any number of pairs; the
    half kernel one for its m-function at z, which gives m at 1/conj(z) too, the
    full kernel one for both half windows, and both one family per z, in one solve."""
    seq, g, k0 = make_case(2, 36)
    z = 0.5 * np.exp(0.7j)
    near = [(k, kp) for k in range(k0 - 4, k0 + 5) for kp in range(k0 - 4, k0 + 5, 2)]
    halves = {PLUS: [(k, kp) for k, kp in near if min(k, kp) >= k0],
              MINUS: [(k, kp) for k, kp in near if max(k, kp) <= k0]}
    lu = count_calls(assembly, "_gbtrf")
    for half, pairs in ((None, near), *halves.items()):
        del lu[:]
        dense_resolvent_entries(seq, z, pairs, half=half, k0=k0, gamma=g)
        assert len(lu) == 1, half
    chains = count_calls(greens, "_chain")
    for sign, pairs in halves.items():      # one path per z, away from k0 into the half
        del lu[:], chains[:]
        half_green_entries(seq, k0, g, z, pairs, sign)
        assert len(lu) == 1 and [[p[0] for p in paths] for _, paths in chains] == [
            [z, 1.0 / np.conj(z)]]
    del lu[:], chains[:]
    full_green_entries(seq, k0, g, z, near)
    assert len(lu) == 1 and [[p[0] for p in paths] for _, paths in chains] == [
        [z, z, 1.0 / np.conj(z), 1.0 / np.conj(z)]]


def test_each_kernel_call_is_one_triangular_solve(count_calls):
    """Every kernel call, half or full, one pair or many, near k0 or across the window, makes
    exactly one banded triangular solve (ztbtrs) for all it propagates."""
    seq, g, k0 = make_case(2, 37, n=40)
    solves = count_calls(laurent, "_tbtrs")
    for z in (0.5 * np.exp(0.7j), 1.8 * np.exp(-1.2j)):
        for call in (lambda: half_lattice_green(seq, k0, g, z, k0 + 2, k0 + 15, PLUS),
                     lambda: half_lattice_green(seq, k0, g, z, k0, k0, MINUS),
                     lambda: half_green_entries(seq, k0, g, z, [(1, k0), (k0, 3)], MINUS),
                     lambda: full_green_entries(seq, k0, g, z, [(k0, k0)]),
                     lambda: full_green_entries(seq, k0, g, z, [(0, 39), (39, 0), (5, 7)])):
            del solves[:]
            call()
            assert len(solves) == 1


def test_single_pair_forms_equal_the_batched_forms():
    """Each single-pair name returns exactly the block its batched form gives in a
    batch: m = 1..3, both k_min parities, the window and both half windows, pairs
    in shuffled order with repeats."""
    for m in (1, 2, 3):
        for k_min in (0, 1):
            seq = generate(EnsembleSpec(m=m, k_min=k_min, k_max=k_min + 24,
                                        seed=70 + 2 * m + k_min, radius_max=0.85))
            g = random_unitary(np.random.default_rng(71 + m), m)
            k0 = k_min + 12
            rng = np.random.default_rng(m + k_min)
            pairs = [tuple(int(s) for s in rng.integers(k0 - 5, k0 + 6, 2)) for _ in range(30)]
            halves = {None: pairs, PLUS: [(max(k, k0), max(kp, k0)) for k, kp in pairs],
                      MINUS: [(min(k, k0), min(kp, k0)) for k, kp in pairs]}
            for z in (0.5 * np.exp(0.9j), 2.0 * np.exp(-1.3j)):
                for half, hp in halves.items():
                    got = dense_resolvent_entries(seq, z, hp, half=half, k0=k0, gamma=g)
                    want = [dense_resolvent_entry(seq, z, k, kp, half=half, k0=k0, gamma=g)
                            for k, kp in hp]
                    assert all(np.array_equal(a, b) for a, b in zip(got, want))
                    if half is None:
                        batch = full_green_entries(seq, k0, g, z, hp)
                        one = [full_green_entries(seq, k0, g, z, [pair])[0] for pair in hp]
                    else:
                        batch = half_green_entries(seq, k0, g, z, hp, half)
                        one = [half_lattice_green(seq, k0, g, z, k, kp, half) for k, kp in hp]
                    assert [(e.k, e.kp, e.branch) for e in batch] == \
                        [(e.k, e.kp, e.branch) for e in one]
                    assert all(np.array_equal(a.value, b.value) for a, b in zip(batch, one))
    assert dense_resolvent_entries(seq, z, []) == [] and full_green_entries(seq, k0, g, z, []) == []


def test_batched_half_kernel_equals_its_single_pair_calls():
    """One stacked half_green_entries call gives bit for bit the blocks of its single-pair
    calls and of its all-upper and all-lower sub-batches, with pairs over the whole half
    window in both branches: m = 1..3, both signs, k0 even and odd, |z| < 1 and |z| > 1.
    So does one full_green_entries call with pairs over the whole window."""
    for m in (1, 2, 3):
        seq = generate(EnsembleSpec(m=m, k_min=0, k_max=30, seed=90 + m, radius_max=0.85))
        g = random_unitary(np.random.default_rng(95 + m), m)
        rng = np.random.default_rng(m)
        for k0 in (14, 15):
            for sign in (PLUS, MINUS, None):
                lo, hi = {PLUS: (k0, seq.k_max - 1), MINUS: (seq.k_min, k0),
                          None: (seq.k_min, seq.k_max - 1)}[sign]
                pairs = [tuple(int(s) for s in rng.integers(lo, hi + 1, 2)) for _ in range(12)]
                pairs += [(lo, hi), (hi, lo), (k0, k0), (lo, lo), (hi, hi)]
                if sign is None:
                    kernel = lambda z, pairs: full_green_entries(seq, k0, g, z, pairs)
                else:
                    kernel = lambda z, pairs: half_green_entries(seq, k0, g, z, pairs, sign)
                for z in (0.6 * np.exp(0.7j), 1.7 * np.exp(-2.4j)):
                    batch = kernel(z, pairs)
                    assert {e.branch for e in batch} == set(GreensBranch)
                    for entry, (k, kp) in zip(batch, pairs):
                        one, = kernel(z, [(k, kp)])
                        assert (entry.k, entry.kp, entry.branch) == (one.k, one.kp, one.branch)
                        assert np.array_equal(entry.value, one.value)
                    for branch in GreensBranch:     # all-upper and all-lower batches
                        want = [e for e in batch if e.branch is branch]
                        got = kernel(z, [(e.k, e.kp) for e in want])
                        for entry, one in zip(got, want, strict=True):
                            assert (entry.k, entry.kp, entry.branch) == (one.k, one.kp, branch)
                            assert np.array_equal(entry.value, one.value)


def test_batched_forms_reject_any_pair_outside_their_window():
    """One bad pair first or last in the batch raises SiteOutOfWindow, naming where."""
    seq, g, k0 = make_case(2, 37)
    good = {PLUS: [(k0, k0), (k0 + 1, k0 + 2)], MINUS: [(k0, k0), (k0 - 2, k0 - 1)],
            None: [(k0, k0), (k0 - 2, k0 + 1)]}
    for half, bad, where in ((PLUS, (k0 - 1, k0), "half-window"),
                             (MINUS, (k0, k0 + 1), "half-window"),
                             (None, (k0, seq.k_max), "window"),
                             (None, (seq.k_min - 1, k0), "window")):
        for pairs in ([bad] + good[half], good[half] + [bad]):
            with pytest.raises(SiteOutOfWindow, match=f"outside the {where}"):
                dense_resolvent_entries(seq, 0.5, pairs, half=half, k0=k0, gamma=g)
            with pytest.raises(SiteOutOfWindow, match=f"outside the {where}"):
                if half is None:
                    full_green_entries(seq, k0, g, 0.5, pairs)
                else:
                    half_green_entries(seq, k0, g, 0.5, pairs, half)


def test_malformed_pairs_raise_malformed_input_in_kernels_and_oracle():
    """A non-integral site, an entry that is not two sites, or pairs that are no iterable at
    all is MalformedInput in both kernels and the oracle alike; numpy integer sites are
    accepted, and tagged as ints."""
    seq, g, k0 = make_case(2, 38)
    calls = {
        PLUS: lambda pairs: half_green_entries(seq, k0, g, 0.5, pairs, PLUS),
        None: lambda pairs: full_green_entries(seq, k0, g, 0.5, pairs),
        "oracle": lambda pairs: dense_resolvent_entries(seq, 0.5, pairs),
        "half oracle": lambda pairs: dense_resolvent_entries(seq, 0.5, pairs, half=PLUS,
                                                             k0=k0, gamma=g),
    }
    for bad in ((k0 + 0.5, k0 + 1), (k0, k0 + 1, k0 + 2), (k0,), k0, "ab", (k0, None)):
        for form, call in calls.items():
            with pytest.raises(MalformedInput, match="each pair must be two integer sites"):
                call([(k0, k0 + 1), bad])
    for bad in (None, k0):
        for form, call in calls.items():
            with pytest.raises(MalformedInput, match="pairs must be an iterable"):
                call(bad)
    for form, call in calls.items():
        want = call([(k0, k0 + 1), (k0 + 2, k0 + 1)])
        got = call([(np.int64(k0), np.int32(k0 + 1)), np.array([k0 + 2, k0 + 1])])
        if form in (PLUS, None):     # the kernels tag each entry with its sites
            assert [(e.k, e.kp) for e in got] == [(k0, k0 + 1), (k0 + 2, k0 + 1)]
            assert all(type(e.k) is type(e.kp) is int for e in got)
            got, want = [e.value for e in got], [e.value for e in want]
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_wronskian_suite_reuses_the_weyl_families(monkeypatch):
    """The suite pairs first and second kind on the families inside its
    Weyl solutions: one propagation at z and one at 1/conj(z)."""
    spec = EnsembleSpec(m=2, k_min=0, k_max=24, seed=41)
    real = laurent.seed_family
    seen = []

    def counting(*args, **kwargs):
        seen.append(args[1])
        return real(*args, **kwargs)

    for module in (laurent, weyl):
        monkeypatch.setattr(module, "seed_family", counting)
    report = suites.run_suite(["wronskian"], spec)
    assert len(seen) == 2
    assert report.passed
    monkeypatch.undo()
    seq, g, k0 = make_case(2, 42)
    z = 0.5 * np.exp(1.7j)
    for sol in weyl.weyl_solutions(seq, k0, g, z):
        fam = window_family(seq, g, z, k0, PLUS)
        for letter in "PRQS":
            assert np.array_equal(getattr(sol.family, letter), getattr(fam, letter))


def test_symmetry_residual():
    seq, g, k0 = make_case(2, 33)
    z = 0.55 * np.exp(1.9j)
    sol_p = weyl_solution(seq, k0, g, z, PLUS)
    sol_m = weyl_solution(seq, k0, g, z, MINUS)
    assert wronskian_symmetry_check(sol_p.M, sol_m.M) < 1e-10


def test_jump_and_null_identities():
    seq, g, k0 = make_case(2, 34)
    z = 0.5 * np.exp(2.6j)
    zc = 1.0 / np.conj(z)
    sol_p = weyl_solution(seq, k0, g, z, PLUS)
    sol_m = weyl_solution(seq, k0, g, z, MINUS)
    sol_pc = weyl_solution(seq, k0, g, zc, PLUS)
    sol_mc = weyl_solution(seq, k0, g, zc, MINUS)
    W = sol_p.M - sol_m.M
    eye = np.eye(2)
    for k in (k0 - 3, k0, k0 + 2):
        sgn = 1.0 if k % 2 == 1 else -1.0
        Up, Vp = sol_p.at(k)
        Um, Vm = sol_m.at(k)
        Upc, _ = sol_pc.at(k)
        Umc, _ = sol_mc.at(k)
        jump = Up @ np.linalg.solve(W, Umc.conj().T) \
            - Um @ np.linalg.solve(W, Upc.conj().T)
        np.testing.assert_allclose(jump, 2.0 * sgn * eye, atol=1e-10)
        null = Vp @ np.linalg.solve(W, Umc.conj().T) \
            - Vm @ np.linalg.solve(W, Upc.conj().T)
        np.testing.assert_allclose(null, 0, atol=1e-10)


def test_half_kernel_matches_dense():
    for m, seed in ((1, 40), (2, 41)):
        seq, g, k0 = make_case(m, seed)
        for sign in (PLUS, MINUS):
            lo = k0 if sign == PLUS else k0 - 4
            pairs = [(lo, lo), (lo + 1, lo + 3), (lo + 4, lo + 2)]
            for z in (0.5 * np.exp(0.8j), 1.9 * np.exp(1.3j)):
                for k, kp in pairs:
                    got = half_lattice_green(seq, k0, g, z, k, kp, sign)
                    want = dense_resolvent_entry(seq, z, k, kp, half=sign,
                                                 k0=k0, gamma=g)
                    scale = max(1.0, np.linalg.norm(want))
                    assert np.linalg.norm(got.value - want) / scale < 1e-8
                    assert got.k == k and got.kp == kp


def test_half_kernel_short_propagation_is_exact(monkeypatch):
    """Far from k0, propagating to the needed sites only changes no bit: each family (the
    paths at one z) spans exactly k0 and the pair's sites, and running every path to its
    half window's end instead gives the same entry."""
    seq, g, k0 = make_case(2, 44, n=40)
    z = 0.6 * np.exp(0.7j)
    limited = greens._chain
    spans = []

    def recording(seq, paths):
        for w in dict.fromkeys(p[0] for p in paths):
            ends = [k for p in paths if p[0] == w for k in p[2:]]
            spans.append((min(ends), max(ends)))
        return limited(seq, paths)

    def whole(seq, paths):      # each path on to the end of the half window on its side
        lo, hi = assembly.half_sites(seq, k0, sign)
        return limited(seq, [(w, X0, k_from, k_to if k_to == k_from else
                              lo if k_to < k_from else hi) for w, X0, k_from, k_to in paths])

    branches = set()
    for sign, k, kp in ((PLUS, k0 + 9, k0 + 11), (PLUS, k0 + 11, k0 + 9),
                        (MINUS, k0 - 11, k0 - 9), (MINUS, k0 - 9, k0 - 11)):
        spans.clear()
        monkeypatch.setattr(greens, "_chain", recording)
        short = half_lattice_green(seq, k0, g, z, k, kp, sign)
        assert spans == [(min(k, kp, k0), max(k, kp, k0))] * 2
        monkeypatch.setattr(greens, "_chain", whole)
        full = half_lattice_green(seq, k0, g, z, k, kp, sign)
        assert short.branch is full.branch
        assert np.array_equal(short.value, full.value)
        branches.add(short.branch)
    assert branches == set(GreensBranch)


def test_half_kernel_branch_tags():
    seq, g, k0 = make_case(1, 42)
    e = half_lattice_green(seq, k0, g, 0.5, k0 + 1, k0 + 2, PLUS)
    assert e.branch is GreensBranch.UPPER_ODD
    e = half_lattice_green(seq, k0, g, 0.5, k0 + 2, k0 + 1, PLUS)
    assert e.branch is GreensBranch.LOWER_EVEN
    odd = k0 + 1 if k0 % 2 == 0 else k0
    assert half_lattice_green(seq, k0, g, 0.5, odd, odd, PLUS).branch \
        is GreensBranch.UPPER_ODD
    even = odd + 1
    assert half_lattice_green(seq, k0, g, 0.5, even, even, PLUS).branch \
        is GreensBranch.LOWER_EVEN


def test_half_kernel_rejects_sites_outside_window():
    """So does the oracle, for its half windows and for the whole window."""
    seq, g, k0 = make_case(1, 43)
    with pytest.raises(ValueError, match="outside the half-window"):
        half_lattice_green(seq, k0, g, 0.5, k0 - 1, k0, PLUS)
    with pytest.raises(ValueError, match="outside the half-window"):
        half_lattice_green(seq, k0, g, 0.5, k0, k0 + 1, MINUS)
    for half, k, kp, where in ((PLUS, k0, k0 - 1, "half-window"),
                               (MINUS, k0 + 1, k0, "half-window"),
                               (None, seq.k_max, k0, "window"),
                               (None, k0, seq.k_min - 1, "window")):
        with pytest.raises(SiteOutOfWindow, match=f"outside the {where}"):
            dense_resolvent_entry(seq, 0.5, k, kp, half=half, k0=k0, gamma=g)


def test_full_kernel_matches_dense():
    for m, seed in ((1, 44), (2, 45)):
        seq, g, k0 = make_case(m, seed)
        pairs = [(k0, k0), (k0 + 1, k0 + 1), (k0 - 3, k0 + 2),
                 (k0 + 4, k0 - 1)]
        for z in (0.5 * np.exp(1.6j), 2.0 * np.exp(0.2j)):
            entries = full_green_entries(seq, k0, g, z, pairs)
            for e in entries:
                want = dense_resolvent_entry(seq, z, e.k, e.kp)
                scale = max(1.0, np.linalg.norm(want))
                assert np.linalg.norm(e.value - want) / scale < 1e-8


def test_full_kernel_on_a_long_window():
    """At 4000 sites the Weyl solutions are built only between k0 and the
    pairs' sites, so pairs next to k0 neither overflow nor lose accuracy."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=4000, seed=4000))
    g = random_unitary(np.random.default_rng(4001), 2)
    k0 = 2000
    for z in (0.5, 0.6 * np.exp(0.7j)):
        entries = full_green_entries(seq, k0, g, z, [(2000, 2001), (2001, 2000), (1999, 2002)])
        for e in entries:
            want = dense_resolvent_entry(seq, z, e.k, e.kp)
            assert np.linalg.norm(e.value - want) <= 1e-12 * np.linalg.norm(want)
    for pair in ((k0, seq.k_max), (seq.k_min - 1, k0)):
        with pytest.raises(SiteOutOfWindow, match="outside the window"):
            full_green_entries(seq, k0, g, 0.5, [pair])


def test_full_kernel_independent_of_gamma():
    seq, _, k0 = make_case(2, 46)
    rng = np.random.default_rng(99)
    g1, g2 = random_unitary(rng, 2), random_unitary(rng, 2)
    z = 0.5 * np.exp(2.9j)
    a = full_green_entries(seq, k0, g1, z, [(k0 - 2, k0 + 3)])[0].value
    b = full_green_entries(seq, k0, g2, z, [(k0 - 2, k0 + 3)])[0].value
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_scalar_prefactor_half_forms():
    seq, g, k0 = make_case(1, 47)
    for sign in (PLUS, MINUS):
        lo = k0 if sign == PLUS else k0 - 4
        for k, kp in ((lo, lo + 2), (lo + 3, lo + 1), (lo + 1, lo + 1)):
            for z in (0.5 * np.exp(0.7j), 1.8 * np.exp(2.1j)):
                want = dense_resolvent_entry(seq, z, k, kp, half=sign,
                                             k0=k0, gamma=g)[0, 0]
                got = half_green_scalar_prefactor(seq, k0, g, z, k, kp, sign)
                kernel = half_green_entries(seq, k0, g, z, [(k, kp)], sign)[0].value[0, 0]
                assert abs(got - want) / max(1.0, abs(want)) < 1e-8
                assert abs(got - kernel) / max(1.0, abs(kernel)) < 1e-8


def test_scalar_prefactor_full_form():
    seq, g, k0 = make_case(1, 49)
    for k, kp in ((k0, k0), (k0 - 2, k0 + 3), (k0 + 4, k0 - 1)):
        for z in (0.5 * np.exp(0.3j), 1.9 * np.exp(1.1j)):
            want = dense_resolvent_entry(seq, z, k, kp)[0, 0]
            got = full_green_scalar_prefactor(seq, k0, g, z, k, kp)
            kernel = full_green_entries(seq, k0, g, z, [(k, kp)])[0].value[0, 0]
            assert abs(got - want) / max(1.0, abs(want)) < 1e-8
            assert abs(got - kernel) / max(1.0, abs(kernel)) < 1e-8


def test_prefactor_forms_scalar_only():
    seq, g, k0 = make_case(2, 50)
    with pytest.raises(MatrixCaseUnsupported):
        half_green_scalar_prefactor(seq, k0, g, 0.5, k0, k0 + 1, PLUS)
    with pytest.raises(MatrixCaseUnsupported):
        full_green_scalar_prefactor(seq, k0, g, 0.5, k0, k0 + 1)


def test_small_z_stability():
    """Kernels stay accurate down to |z| = 1e-3 near the reference site."""
    seq, g, k0 = make_case(1, 51)
    for theta in (0.0, 1.3, 2.7, 4.4):
        z = 1e-3 * np.exp(1j * theta)
        for k, kp in ((k0, k0 + 1), (k0 + 2, k0 + 1)):
            got = half_lattice_green(seq, k0, g, z, k, kp, PLUS).value[0, 0]
            want = dense_resolvent_entry(seq, z, k, kp, half=PLUS, k0=k0,
                                         gamma=g)[0, 0]
            assert abs(got - want) / max(1.0, abs(want)) < 1e-6
        got = full_green_entries(seq, k0, g, z, [(k0 - 1, k0 + 1)])[0].value[0, 0]
        want = dense_resolvent_entry(seq, z, k0 - 1, k0 + 1)[0, 0]
        assert abs(got - want) / max(1.0, abs(want)) < 1e-6


@pytest.mark.parametrize("m", [1, 2, 3])
def test_functions_at_the_reflected_point_are_minus_adjoints(m):
    """The half-window operators are unitary, so m(1/conj(z)) = -m(z)* and
    M(1/conj(z)) = -M(z)*: both signs, both parities of k0, radii on both sides
    of the circle, each side solved by itself."""
    seq = generate(EnsembleSpec(m=m, k_min=0, k_max=30, seed=80 + m, radius_max=0.9))
    g = random_unitary(np.random.default_rng(81 + m), m)
    for k0 in (14, 15):
        for r, theta in ((0.5, 0.3), (0.99, 2.0), (1.01, -1.0), (2.0, 4.1)):
            z = r * np.exp(1j * theta)
            zc = 1.0 / np.conj(z)
            for sign in (PLUS, MINUS):
                for f in (weyl.m_function, weyl.M_function):
                    at_z, at_zc = (f(seq, k0, g, w, sign) for w in (z, zc))
                    scale = max(np.linalg.norm(at_z), np.linalg.norm(at_zc))
                    assert np.linalg.norm(at_zc + at_z.conj().T) <= 1e-12 * scale, \
                        (f.__name__, k0, r, sign)


def test_kernels_factor_one_pencil_per_half_window(count_calls):
    """A half kernel call makes one banded LU of its half window's pencil, and a full
    kernel call one of both half windows' pencils side by side, whatever the number of
    pairs."""
    seq, g, k0 = make_case(2, 38)
    z = 0.6 * np.exp(2.2j)
    lu = count_calls(assembly, "_gbtrf")
    for n in (1, 7):
        for sign in (PLUS, MINUS):
            del lu[:]
            half_green_entries(seq, k0, g, z, [(k0, k0 + sign * d) for d in range(n)], sign)
            assert len(lu) == 1, (sign, n)
        del lu[:]
        full_green_entries(seq, k0, g, z, [(k0 - d, k0 + d) for d in range(n)])
        assert len(lu) == 1, n
