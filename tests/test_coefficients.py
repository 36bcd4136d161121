"""Coefficient containers, defect matrices, and unitary factorizations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cmvkit import coefficients
from cmvkit.coefficients import (
    CoefficientKind,
    DefectPair,
    DimensionMismatch,
    MalformedInput,
    NotContractive,
    NotFinite,
    NotUnitary,
    OutOfRange,
    SiteOutOfWindow,
    VerblunskyCoefficient,
    VerblunskySequence,
    contractive,
    defect_matrices,
    factorize_svd,
    gauge_transform,
    is_contraction,
    is_unitary,
    load_sequence,
    operator_norm,
    parse_sequence,
    principal_unitary_sqrt,
    save_sequence,
    sequence_document,
    sequence_from_values,
    theta_block,
    unitary,
)
from cmvkit.cli.ensembles import Distribution, EnsembleSpec, generate, random_unitary
from cmvkit.laurent import MINUS, PLUS
from cmvkit.weyl import m_function


def random_contraction(rng, m, norm):
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return norm * g / operator_norm(g)


def test_scalar_defects():
    d = defect_matrices(np.array([[0.6]]))
    np.testing.assert_allclose(d.rho, [[0.8]], atol=1e-15)
    np.testing.assert_allclose(d.rho_tilde, [[0.8]], atol=1e-15)


def test_defect_intertwining():
    """rho_tilde alpha = alpha rho, also with the inverse defects."""
    rng = np.random.default_rng(0)
    for m in (1, 2, 3):
        a = random_contraction(rng, m, 0.85)
        d = defect_matrices(a)
        np.testing.assert_allclose(d.rho_tilde @ a, a @ d.rho, atol=1e-13)
        np.testing.assert_allclose(np.linalg.inv(d.rho_tilde) @ a,
                                   a @ np.linalg.inv(d.rho), atol=1e-12)
        np.testing.assert_allclose(d.rho @ d.rho,
                                   np.eye(m) - a.conj().T @ a, atol=1e-14)
        np.testing.assert_allclose(d.rho_tilde @ d.rho_tilde,
                                   np.eye(m) - a @ a.conj().T, atol=1e-14)


def test_defect_rejects_non_contraction():
    with pytest.raises(NotContractive):
        defect_matrices(np.array([[1.0]]))
    with pytest.raises(NotContractive):
        defect_matrices(1.2 * random_unitary(np.random.default_rng(1), 2))


def test_theta_block_scalar():
    blk = theta_block(np.array([[0.6]]))
    np.testing.assert_allclose(blk, [[-0.6, 0.8], [0.8, 0.6]], atol=1e-15)


def test_theta_block_unitary():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3):
        a = random_contraction(rng, m, 0.9)
        blk = theta_block(a)
        np.testing.assert_allclose(blk.conj().T @ blk, np.eye(2 * m),
                                   atol=1e-13)
        # unitary input degenerates to a diagonal pair
        g = random_unitary(rng, m)
        blk_u = theta_block(g)
        np.testing.assert_allclose(blk_u[:m, m:], 0, atol=1e-7)
        np.testing.assert_allclose(blk_u[:m, :m], -g, atol=1e-15)


def test_factorize_svd_reconstructs():
    rng = np.random.default_rng(4)
    a = random_contraction(rng, 3, 0.8)
    fac = factorize_svd(a)
    np.testing.assert_allclose(fac.reconstruct(), a, atol=1e-14)
    assert fac.beta.ndim == 1
    assert np.all(np.diff(fac.beta) <= 1e-15)
    assert is_unitary(fac.sigma) and is_unitary(fac.tau)
    # deterministic: repeated runs give identical factors
    fac2 = factorize_svd(a.copy())
    np.testing.assert_allclose(fac.sigma, fac2.sigma, atol=0)
    np.testing.assert_allclose(fac.tau, fac2.tau, atol=0)


def test_principal_sqrt_frozen_values():
    np.testing.assert_allclose(principal_unitary_sqrt(np.array([[-1.0]])),
                               [[1j]], atol=1e-15)
    got = principal_unitary_sqrt(np.diag([1j, 1.0]))
    np.testing.assert_allclose(got, np.diag([np.exp(1j * np.pi / 4), 1.0]),
                               atol=1e-15)


def test_principal_sqrt_squares_back():
    rng = np.random.default_rng(5)
    for m in (1, 2, 4):
        g = random_unitary(rng, m)
        r = principal_unitary_sqrt(g)
        np.testing.assert_allclose(r @ r, g, atol=1e-13)
        assert is_unitary(r)
        # principal choice: all eigenvalue angles in (-pi/2, pi/2]
        ang = np.angle(np.linalg.eigvals(r))
        assert np.all(ang > -np.pi / 2 - 1e-12)
        assert np.all(ang <= np.pi / 2 + 1e-12)


def test_principal_sqrt_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        principal_unitary_sqrt(np.array([[0.5]]))


def test_coefficient_constructors():
    c = contractive([[0.3 + 0.1j]])
    assert c.kind is CoefficientKind.CONTRACTIVE
    assert c.m == 1
    with pytest.raises(NotContractive):
        contractive([[1.0]])
    u = unitary([[np.exp(0.4j)]])
    assert u.kind is CoefficientKind.UNITARY
    with pytest.raises(NotUnitary):
        unitary([[0.5]])


def test_sequence_from_values_scalar_promotion():
    vals = {0: 1.0, 1: 0.3, 2: 0.1j, 3: 0.2, 4: -1.0}
    seq = sequence_from_values(vals)
    assert seq.m == 1
    assert seq.kind(0) is CoefficientKind.UNITARY
    assert seq.kind(2) is CoefficientKind.CONTRACTIVE
    np.testing.assert_allclose(seq.alpha(2), [[0.1j]], atol=0)
    # operator sites stop one short of the last coefficient index
    assert list(seq.sites) == [0, 1, 2, 3]
    assert seq.n_sites == 4


def test_sequence_restrict_and_replace():
    spec = EnsembleSpec(m=2, k_min=0, k_max=10, seed=9)
    seq = generate(spec)
    rng = np.random.default_rng(6)
    g_left, g_right = random_unitary(rng, 2), random_unitary(rng, 2)
    sub = seq.restrict(3, 8, left=g_left, right=g_right)
    assert (sub.k_min, sub.k_max) == (3, 8)
    np.testing.assert_allclose(sub.alpha(3), g_left, atol=0)
    assert sub.kind(3) is CoefficientKind.UNITARY
    np.testing.assert_allclose(sub.alpha(5), seq.alpha(5), atol=0)
    swapped = seq.replace(5, contractive(np.zeros((2, 2))))
    np.testing.assert_allclose(swapped.alpha(5), 0, atol=0)
    with pytest.raises(ValueError):
        seq.restrict(-2, 5)
    with pytest.raises(NotUnitary):
        seq.restrict(3, 8, left=g_left)


def test_coefficient_value_is_a_frozen_copy():
    """Stored values cannot change, so the algebra stacked from them cannot go stale."""
    src = np.array([[0.3, 0.1j], [0.0, 0.2]])
    c = contractive(src)
    assert c.value is not src
    src[0, 0] = 5.0
    np.testing.assert_array_equal(c.value, [[0.3, 0.1j], [0.0, 0.2]])
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=8, seed=3))
    with pytest.raises(ValueError, match="read-only"):
        seq.alpha(3)[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        seq.alpha(0)[:] = 0.0


def test_sequences_hold_one_read_only_stack(monkeypatch):
    """No sequence path builds a coefficient object; its defects are read-only stacks."""
    built = []
    real = VerblunskyCoefficient.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(VerblunskyCoefficient, "__post_init__", counting)
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=12, seed=21))
    g = random_unitary(np.random.default_rng(22), 2)
    made = (seq, seq.restrict(2, 9, left=g, right=g), seq.restrict(6, 12, left=g),
            gauge_transform(seq, g, g.conj().T), parse_sequence(sequence_document(seq)),
            sequence_from_values({k: 1.0 if k in (0, 6) else 0.3 for k in range(7)}))
    assert built == []
    for view in made:
        assert view.values.shape == (view.n_sites + 1, view.m, view.m)
        with pytest.raises(ValueError, match="read-only"):
            view.values[1, 0, 0] = 0.0
        for a in (view.defects.rho, view.defects.rho_tilde):
            assert a.shape == (view.n_sites - 1, view.m, view.m) and not a.flags.writeable


def test_sub_windows_share_coefficient_objects():
    """restrict (also to half windows) and replace carry the parent's interior values."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=12, seed=21))
    g = random_unitary(np.random.default_rng(22), 2)
    k0 = 6
    views = (
        (seq.restrict(2, 9, left=g, right=g), range(3, 9)),
        (seq.replace(5, contractive(np.zeros((2, 2)))),
         [k for k in range(1, 12) if k != 5]),
        (seq.restrict(k0, 12, left=g), range(k0 + 1, 12)),
        (seq.restrict(0, k0 + 1, right=g), range(1, k0 + 1)),
    )
    for view, interior in views:
        for k in interior:
            assert np.array_equal(view.alpha(k), seq.alpha(k))
        assert not np.shares_memory(view.values, seq.values)


def test_replace_outside_the_window_raises():
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=10, seed=1))
    for k in (99, -1, 11):
        with pytest.raises(SiteOutOfWindow, match=f"site {k} outside the window"):
            seq.replace(k, contractive(0.3 * np.eye(2)))


def _scalar_values(n=8):
    return {k: 1.0 if k in (0, n) else 0.3 for k in range(n + 1)}


def _document_with(k, value):
    doc = sequence_document(generate(EnsembleSpec(m=2, k_min=0, k_max=8, seed=31)))
    doc["alphas"][str(k)] = coefficients._matrix_to_json(value)
    return doc


def _error_cases():
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=10, seed=9))
    g = random_unitary(np.random.default_rng(6), 2)
    gap = _scalar_values()
    del gap[3]

    def values_with(k, value):
        return lambda: sequence_from_values({**_scalar_values(), k: value})

    def document_with(k, value):
        return lambda: parse_sequence(_document_with(k, value))

    cases = [
        ("restrict-wrong-size-left", lambda: seq.restrict(2, 8, left=np.eye(3), right=g),
         DimensionMismatch, "site 2:"),
        ("restrict-non-unitary-left", lambda: seq.restrict(2, 8, left=0.5 * g, right=g),
         NotUnitary, "site 2:"),
        ("restrict-no-override", lambda: seq.restrict(2, 8), NotUnitary, "site 2:"),
        ("restrict-no-right-override", lambda: seq.restrict(2, 8, left=g), NotUnitary, "site 8:"),
        ("restrict-too-short", lambda: seq.restrict(2, 5, left=g, right=g),
         OutOfRange, "[2, 5]"),
        ("replace-end-with-contraction", lambda: seq.replace(10, contractive(0.3 * np.eye(2))),
         NotUnitary, "site 10:"),
        ("replace-wrong-size", lambda: seq.replace(5, contractive([[0.3]])),
         DimensionMismatch, "site 5:"),
        ("values-gap", lambda: sequence_from_values(gap), MalformedInput, "site 3"),
        ("values-empty", lambda: sequence_from_values({}), MalformedInput, "no coefficients"),
        ("values-not-a-number", values_with(4, "x"), MalformedInput, "site 4:"),
        ("values-ragged", values_with(4, [[0.1, 0.2], [0.3]]), MalformedInput, "site 4:"),
        ("values-string-keys", lambda: sequence_from_values({"0": 1.0, "1": 0.1, "2": 1.0}),
         MalformedInput, "integer"),
        ("values-not-a-map", lambda: sequence_from_values([1.0, 0.1, 1.0]), MalformedInput,
         "integer sites"),
        ("ragged-stack", lambda: VerblunskySequence(0, [[[1]], [[0.1, 0.2]]]),
         DimensionMismatch, "regular array"),
    ]
    for k in (0, 8):
        cases += [(f"values-end-{k}", values_with(k, 0.5), NotUnitary, f"site {k}:"),
                  (f"parse-end-{k}", document_with(k, 0.5 * np.eye(2)), NotUnitary, f"site {k}:")]
    for k in (1, 4, 7):     # the first, a middle and the last interior site
        cases += [
            (f"values-norm-one-{k}", values_with(k, 1.0), NotContractive, f"site {k}:"),
            (f"values-nan-{k}", values_with(k, np.nan), NotFinite, f"site {k}:"),
            (f"values-mixed-sizes-{k}", values_with(k, 0.1 * np.eye(2)), DimensionMismatch,
             f"site {k}:"),
            (f"parse-unitary-interior-{k}", document_with(k, np.eye(2)), NotContractive,
             f"site {k}:")]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("call, error, where", _error_cases())
def test_sequence_validation_errors_are_pinned(call, error, where):
    """Each violated invariant raises one exact type that names the offending site."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert where in str(info.value)


def test_restricted_arrays_equal_a_fresh_stack():
    """A sub-window's defect pair and both transfer bands equal those of a fresh sequence
    of its coefficients."""
    seq = generate(EnsembleSpec(m=2, k_min=-1, k_max=15, seed=23))
    g = random_unitary(np.random.default_rng(24), 2)
    views = (seq.restrict(2, 9, left=g, right=g), seq.restrict(0, 15, left=g),
             seq.restrict(7, 15, left=g), seq.restrict(-1, 8, right=g))
    for view in views:
        fresh = VerblunskySequence(view.k_min, view.values)
        for name in ("rho", "rho_tilde"):
            got, want = getattr(view.defects, name), getattr(fresh.defects, name)
            assert got.shape == (view.n_sites - 1, 2, 2)
            assert np.array_equal(got, want)
            assert not got.flags.writeable
        for name in ("transfer_band", "transfer_inverse_band"):
            got, want = getattr(view, name), getattr(fresh, name)
            assert got.shape == (view.n_sites - 1, 4, 8)
            assert np.array_equal(got, want)
            assert not got.flags.writeable


def test_m_function_on_sub_windows_stacks_nothing(monkeypatch):
    """After the first call, m-functions factor no site."""
    seq = generate(EnsembleSpec(m=2, k_min=0, k_max=30, seed=25))
    g = random_unitary(np.random.default_rng(26), 2)
    m_function(seq, 15, g, 0.5j, PLUS)
    defects = []
    raw = coefficients._defects_raw

    def counted_raw(alpha):
        defects.append(1)
        return raw(alpha)

    monkeypatch.setattr(coefficients, "_defects_raw", counted_raw)
    for k0 in (9, 15, 20):
        for z in (0.5j, 1.7 - 0.4j):
            for sign in (PLUS, MINUS):
                m_function(seq, k0, g, z, sign)
    assert defects == []


def test_sequence_json_round_trip(tmp_path):
    spec = EnsembleSpec(m=2, k_min=-3, k_max=7, seed=13)
    seq = generate(spec)
    path = tmp_path / "seq.json"
    save_sequence(seq, path)
    back = load_sequence(path)
    assert (back.m, back.k_min, back.k_max) == (2, -3, 7)
    for k in seq.sites:
        np.testing.assert_allclose(back.alpha(k), seq.alpha(k), atol=0)
        assert back.kind(k) is seq.kind(k)


def test_gauge_transform_maps_coefficients():
    spec = EnsembleSpec(m=2, k_min=0, k_max=8, seed=17)
    seq = generate(spec)
    rng = np.random.default_rng(7)
    sigma, tau = random_unitary(rng, 2), random_unitary(rng, 2)
    out = gauge_transform(seq, sigma, tau)
    for k in seq.sites:
        np.testing.assert_allclose(out.alpha(k),
                                   sigma @ seq.alpha(k) @ tau.conj().T,
                                   atol=1e-14)
        assert out.kind(k) is seq.kind(k)


@settings(max_examples=40, deadline=None)
@given(re=st.floats(-0.95, 0.95), im=st.floats(-0.95, 0.95))
def test_scalar_defect_matches_formula(re, im):
    a = complex(re, im)
    if abs(a) >= 0.999:
        a = 0.9 * a / abs(a)
    d = defect_matrices(np.array([[a]]))
    np.testing.assert_allclose(d.rho[0, 0], np.sqrt(1 - abs(a) ** 2),
                               atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 3))
def test_theta_block_always_unitary(seed, m):
    rng = np.random.default_rng(seed)
    a = random_contraction(rng, m, float(rng.uniform(0.0, 0.95)))
    blk = theta_block(a)
    assert is_contraction(a)
    np.testing.assert_allclose(blk @ blk.conj().T, np.eye(2 * m), atol=1e-12)


def test_is_unitary_and_norm_helpers():
    assert is_unitary(np.exp(1.3j) * np.eye(2))
    assert not is_unitary(np.diag([1.0, 0.5]))
    assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)


def test_dimension_mismatch_reported():
    with pytest.raises(DimensionMismatch):
        theta_block(np.zeros((2, 2)),
                    defect_matrices(np.zeros((3, 3))))


def test_stacked_theta_block_equals_one_block_at_a_time():
    """A stack gives each coefficient's theta_block bit for bit, with computed or given
    defects; defects of another shape than the stack raise DimensionMismatch."""
    for m in (1, 2, 3):
        seq = generate(EnsembleSpec(m=m, k_min=0, k_max=9, seed=60 + m))
        alpha, d = seq.values[1:-1], seq.defects
        stacked = theta_block(alpha)
        given = theta_block(alpha, d)
        assert stacked.shape == given.shape == (len(alpha), 2 * m, 2 * m)
        for i, a in enumerate(alpha):
            assert np.array_equal(stacked[i], theta_block(a))
            assert np.array_equal(given[i], theta_block(a, DefectPair(d.rho[i], d.rho_tilde[i])))
        for defects in (DefectPair(d.rho[0], d.rho_tilde[0]),
                        DefectPair(d.rho[1:], d.rho_tilde[1:]),
                        DefectPair(d.rho, d.rho_tilde[0])):
            with pytest.raises(DimensionMismatch):
                theta_block(alpha, defects)
        with pytest.raises(DimensionMismatch):
            theta_block(alpha[0], DefectPair(d.rho[:1], d.rho_tilde[:1]))


def test_the_contraction_bound_is_inclusive():
    """A norm of exactly 1 - CONTRACTION_TOL is a contraction, at an interior site too;
    the next float up is not, for is_contraction, sequences and defect_matrices alike."""
    edge = 1.0 - coefficients.CONTRACTION_TOL
    for bound, ok in ((edge, True), (np.nextafter(edge, 2.0), False)):
        for a in (np.array([[bound]]), np.diag([bound, 0.5])):
            eye, zero = np.eye(len(a)), np.zeros_like(a)
            assert is_contraction(a) is ok
            if ok:
                seq = sequence_from_values({0: eye, 1: a, 2: zero, 3: zero, 4: eye})
                assert np.array_equal(seq.alpha(1), a)
                defect_matrices(a)
                continue
            with pytest.raises(NotContractive, match="site 1: "):
                VerblunskySequence(0, [eye, a, zero, zero, eye])
            with pytest.raises(NotContractive):
                defect_matrices(a)


def _svd_verdict(a, k_first=None):
    """The contraction check by one batched SVD of every block: (verdict, NotContractive's
    message or None), as _require_contraction gave it before its SVD-free bound."""
    a = np.asarray(a, dtype=complex)
    norms = np.linalg.svd(a.reshape(-1, *a.shape[-2:]), compute_uv=False)[:, 0]
    bad = ~(norms <= 1.0 - coefficients.CONTRACTION_TOL)
    if not bad.any():
        return True, None
    where = "" if k_first is None else f"site {k_first + np.argmax(bad)}: "
    return False, (f"{where}coefficient norm {norms[bad][0]:.3e} exceeds "
                   f"{1.0 - coefficients.CONTRACTION_TOL}")


def _bound_verdict(a, k_first=None):
    try:
        return coefficients._require_contraction(a, k_first), None
    except NotContractive as exc:
        assert not coefficients._require_contraction(a, k_first, raises=False)
        return False, str(exc)


def _float_neighbours(x, steps=3):
    """x and its `steps` nearest floats on either side."""
    out = [x]
    for direction in (0.0, 2.0):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


def test_the_contraction_bound_gives_the_svd_verdicts():
    """_require_contraction clears blocks by ||a||^4 <= ||a* a||_F^2 and decides the rest
    by SVD: on rank-one blocks (where the bound is tight), scaled unitaries and scalars at
    the edge 1 - CONTRACTION_TOL, at the bound's own threshold and at their float
    neighbours, it gives the verdict and the message of an SVD of every block."""
    edge = 1.0 - coefficients.CONTRACTION_TOL
    radii = _float_neighbours(edge) + _float_neighbours(coefficients._CLEARED ** 0.25)
    rng = np.random.default_rng(90)
    blocks = []
    for m in (1, 2, 3):
        for _ in range(4):
            u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            rank_one = np.outer(u, v.conj()) / (np.linalg.norm(u) * np.linalg.norm(v))
            w = random_unitary(rng, m)
            blocks += [r * b for r in radii for b in (rank_one, w)]
        blocks += [random_contraction(rng, m, float(rng.uniform(0.0, 0.95))) for _ in range(20)]
    verdicts = set()
    for a in blocks:
        want = _svd_verdict(a)
        assert _bound_verdict(a) == want
        assert _bound_verdict(a[None], 5) == _svd_verdict(a[None], 5)
        assert is_contraction(a) is want[0]
        verdicts.add(want[0])
    assert verdicts == {True, False}


def test_a_bad_block_amid_open_blocks_is_named_by_its_site():
    """Blocks the bound leaves open but the SVD accepts (unitaries scaled just inside the
    edge) sit before and after the one bad block: the error names the bad block's site
    and its SVD norm, at m = 1 and m = 2 alike."""
    edge = 1.0 - coefficients.CONTRACTION_TOL
    rng = np.random.default_rng(91)
    for m in (1, 2):
        stack = np.array([random_contraction(rng, m, 0.5) for _ in range(39)])
        for i in (3, 10, 30):
            stack[i] = edge * (1.0 - 1e-14) * random_unitary(rng, m)
            assert np.linalg.norm(stack[i].conj().T @ stack[i]) ** 2 > coefficients._CLEARED
        stack[17] = edge * (1.0 + 1e-14) * random_unitary(rng, m)
        want = _svd_verdict(stack, -4)
        assert want[0] is False and want[1].startswith("site 13: ")
        assert _bound_verdict(stack, -4) == want
        assert _bound_verdict(np.delete(stack, 17, axis=0), -4) == (True, None)


def test_validating_a_generated_window_makes_at_most_one_svd(count_calls):
    """A 40-site, radius-0.9, uniform-disk window is validated with no SVD at m = 1 and at
    most one batched SVD at m = 2 and 3: the bound clears almost every block."""
    calls = count_calls(np.linalg, "svd")
    for m, most in ((1, 0), (2, 1), (3, 1)):
        for seed in range(20):
            values = generate(EnsembleSpec(m=m, k_min=0, k_max=40, seed=seed)).values
            calls.clear()
            VerblunskySequence(0, values)
            assert len(calls) <= most


def test_each_new_root_makes_one_zgees_call_without_a_workspace_query(count_calls):
    """principal_unitary_sqrt and as_boundary on an unseen value each run zgees once,
    with the wrapper's default workspace; a value seen before runs it no more."""
    calls = count_calls(coefficients, "zgees", lambda select, a, **kwargs: kwargs)
    rng = np.random.default_rng(20)
    for m in (1, 2, 3, 4):
        g = random_unitary(rng, m)
        before = len(calls)
        principal_unitary_sqrt(g)
        assert len(calls) == before + 1
        coefficients.as_boundary(g)
        coefficients.as_boundary(g.copy())
        assert len(calls) == before + 2
    assert calls and all(call.get("lwork") != -1 for call in calls)


@settings(max_examples=300, deadline=None)
@given(x=hnp.arrays(st.sampled_from((np.float64, np.complex128)),
                    hnp.array_shapes(min_dims=0, max_dims=3, max_side=6),
                    elements={"allow_nan": False, "allow_infinity": False}),
       scale=st.sampled_from((1.0, 2.0 ** -600, 3.0e-160, 7.0e150)),
       layout=st.sampled_from(("C", "transposed", "strided")))
def test_frobenius_helper_equals_numpy_norm(x, scale, layout):
    """The helper behind is_unitary, quadratic_identities and the suites' _rel gives
    np.linalg.norm's value bit for bit, for any layout, over- and underflow included."""
    with np.errstate(over="ignore"):
        x = x * scale
        if layout == "transposed":
            x = x.T
        elif layout == "strided" and x.ndim:
            x = x[..., ::2]
        got, want = coefficients._frobenius(x), np.linalg.norm(x)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("distribution, radius", ((Distribution.UNIFORM_DISK, 0.9),
                                                  (Distribution.FIXED_RADIUS, 0.999)))
def test_defects_equal_the_two_call_formula(m, distribution, radius):
    """Both defects from one batched eigh equal one eigh per Gram stack bit for bit, for a
    stack and for one coefficient."""
    seq = generate(EnsembleSpec(m=m, k_min=0, k_max=40, seed=70 + m, radius_max=radius,
                                distribution=distribution))
    alpha = seq.values[1:-1]
    eye, alpha_star = np.eye(m), alpha.conj().swapaxes(-1, -2)
    rho = coefficients._positive_root(eye - alpha_star @ alpha)
    rho_tilde = coefficients._positive_root(eye - alpha @ alpha_star)
    for got in (seq.defects, coefficients._defects_raw(alpha)):
        assert np.array_equal(got.rho, rho) and np.array_equal(got.rho_tilde, rho_tilde)
    for i in (0, len(alpha) // 2, len(alpha) - 1):
        one = defect_matrices(alpha[i])
        a, a_star = alpha[i], alpha[i].conj().T
        assert np.array_equal(one.rho, coefficients._positive_root(eye - a_star @ a))
        assert np.array_equal(one.rho_tilde, coefficients._positive_root(eye - a @ a_star))
