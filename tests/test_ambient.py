import numpy as np
import pytest
from hypothesis import given, strategies as st

import biconsurf as bc
from biconsurf.ambient import EUCLIDEAN3, EUCLIDEAN4, LORENTZ4, _cofactor_complement

E4 = np.eye(4)
E3 = np.eye(3)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestInner:
    def test_euclidean_unit(self):
        assert EUCLIDEAN4.inner(E4[0], E4[0]) == 1.0

    def test_lorentz_timelike(self):
        assert LORENTZ4.inner(E4[3], E4[3]) == -1.0

    def test_lorentz_null(self):
        v = np.array([1.0, 0.0, 0.0, 1.0])
        assert LORENTZ4.inner(v, v) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(bc.UsageError):
            EUCLIDEAN4.inner(np.ones(3), np.ones(4))

    @given(st.lists(finite, min_size=4, max_size=4),
           st.lists(finite, min_size=4, max_size=4),
           st.lists(finite, min_size=4, max_size=4),
           finite)
    def test_bilinear_symmetric(self, a, b, c, lam):
        a, b, c = map(np.array, (a, b, c))
        for sig in (EUCLIDEAN4, LORENTZ4):
            assert sig.inner(a, b) == sig.inner(b, a)
            lhs = sig.inner(lam * a + c, b)
            rhs = lam * sig.inner(a, b) + sig.inner(c, b)
            scale = 1.0 + abs(lam) * np.abs(a).max() * np.abs(b).max() \
                + np.abs(c).max() * np.abs(b).max()
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_broadcasting(self):
        pts = np.random.default_rng(0).normal(size=(5, 7, 4))
        out = LORENTZ4.inner(pts, pts)
        assert out.shape == (5, 7)

    @pytest.mark.parametrize("sig", [EUCLIDEAN3, EUCLIDEAN4, LORENTZ4])
    def test_matches_sum_reference(self, sig):
        # the np.sum reduction the coordinate sum replaced, kept as the
        # reference: equal values, equal zero signs, equal shapes
        def reference(a, b):
            return np.sum(a * b * sig.metric, axis=-1)

        d = sig.dim
        rng = np.random.default_rng(5)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                            1e308, -1e308, np.inf, -np.inf, np.nan, 1.0, -1.0])
        rand = rng.normal(size=(64, d)) * 10.0 ** rng.integers(-20, 20, size=(64, d))
        spec_a = rng.choice(special, size=(2000, d))
        spec_b = rng.choice(special, size=(2000, d))
        wide = rng.normal(size=(3, 2 * d))
        pairs = [
            (rand, rand[::-1]),
            (spec_a, spec_b),
            (-np.zeros((4, d)), np.ones(d)),
            (rand, rng.normal(size=d)),
            (rand[:5, None, :], rand[None, :7, :]),
            (np.asfortranarray(rand), rand[::-1]),
            (wide[:, ::2], wide[:, 1::2]),
            (rand.T.copy().T, np.broadcast_to(rand[0], rand.shape)),
            (rand[0], rand[1]),
            (special[:d], special[-d:]),
        ]
        with np.errstate(all="ignore"):
            for a, b in pairs:
                got, want = np.asarray(sig.inner(a, b)), np.asarray(reference(a, b))
                assert got.shape == want.shape
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got[got == 0]),
                                      np.signbit(want[want == 0]))
            if not sig.timelike:
                # the verifier's second_partials_fd takes Euclidean norms so
                for a in (rand, spec_a):
                    assert np.array_equal(sig.norm(a), np.linalg.norm(a, axis=-1),
                                          equal_nan=True)


class TestSpaceForm:
    def test_curvature_to_ambient(self):
        assert bc.R3.ambient.dim == 3 and bc.R3.ambient.timelike == 0
        assert bc.S3.ambient.dim == 4 and bc.S3.ambient.timelike == 0
        assert bc.H3.ambient.dim == 4 and bc.H3.ambient.timelike == 1

    def test_on_model_apex(self):
        assert bc.H3.on_model(np.array([0.0, 0.0, 0.0, 1.0]))

    def test_on_model_sphere(self):
        assert bc.S3.on_model(np.array([1.0, 0.0, 0.0, 0.0]))

    def test_null_vector_off_model(self):
        assert not bc.H3.on_model(np.array([1.0, 0.0, 0.0, 1.0]))

    def test_lower_sheet_rejected(self):
        assert not bc.H3.on_model(np.array([0.0, 0.0, 0.0, -1.0]))

    def test_flat_has_no_constraint(self):
        with pytest.raises(bc.UsageError):
            bc.R3.on_model(np.zeros(3))

    def test_ricci_normal(self):
        assert bc.S3.ricci_normal == 2.0
        assert bc.H3.ricci_normal == -2.0

    def test_bad_curvature(self):
        with pytest.raises(bc.UsageError):
            bc.space_form(2)

    @pytest.mark.parametrize("c", [1.5, -0.5, "1", True, False, np.True_, np.nan])
    def test_curvature_is_not_truncated(self, c):
        # no truncation: 1.5, "1" and True name no model, and neither does NaN
        with pytest.raises(bc.UsageError, match="curvature must be -1, 0 or \\+1"):
            bc.space_form(c)

    @pytest.mark.parametrize("c, model", [
        (1, bc.S3), (0, bc.R3), (-1, bc.H3), (1.0, bc.S3), (-1.0, bc.H3), (np.int64(0), bc.R3),
    ])
    def test_integral_curvature_names_its_model(self, c, model):
        assert bc.space_form(c) == model
        assert type(bc.space_form(c).c) is int


class TestComplement:
    def test_euclidean3(self):
        n = bc.orthonormal_complement(EUCLIDEAN3, [E3[0], E3[1]], E3[2])
        assert np.allclose(n, E3[2])

    def test_euclidean4_flipped(self):
        n = bc.orthonormal_complement(EUCLIDEAN4, [E4[0], E4[1], E4[2]], -E4[3])
        assert np.allclose(n, -E4[3])

    def test_lorentz_gram_solve(self):
        # hand solve: n must satisfy n1 = n2 = 0 and -n4 = 0, |<n,n>| = 1
        n = bc.orthonormal_complement(LORENTZ4, [E4[0], E4[1], E4[3]], E4[2])
        assert np.allclose(n, E4[2])

    def test_lorentz_timelike_complement(self):
        # the convention asks for positive Lorentz inner product with e4,
        # so a timelike complement comes back as -e4
        n = bc.orthonormal_complement(LORENTZ4, [E4[0], E4[1], E4[2]], E4[3])
        assert np.allclose(n, -E4[3])
        assert LORENTZ4.inner(n, n) == -1.0
        n2 = bc.orthonormal_complement(LORENTZ4, [E4[0], E4[1], E4[2]], -E4[3])
        assert np.allclose(n2, E4[3])

    def test_degenerate_span(self):
        with pytest.raises(bc.DegenerateSpanError):
            bc.orthonormal_complement(EUCLIDEAN3, [E3[0], E3[0]], E3[2])

    def test_lorentz_null_span(self):
        null = E4[2] + E4[3]
        with pytest.raises(bc.DegenerateSpanError):
            bc.orthonormal_complement(LORENTZ4, [E4[0], E4[1], null], E4[2])

    def test_wrong_count(self):
        with pytest.raises(bc.UsageError):
            bc.orthonormal_complement(EUCLIDEAN4, [E4[0], E4[1]], E4[3])

    @pytest.mark.parametrize("sig", [EUCLIDEAN3, EUCLIDEAN4, LORENTZ4])
    def test_random_spans_orthogonal(self, sig):
        rng = np.random.default_rng(42)
        for _ in range(50):
            vs = [rng.normal(size=sig.dim) for _ in range(sig.dim - 1)]
            try:
                n = bc.orthonormal_complement(sig, vs, sig.metric * 0 + 1.0)
            except bc.DegenerateSpanError:
                continue
            scale = max(np.linalg.norm(v) for v in vs)
            for v in vs:
                assert abs(sig.inner(n, v)) <= 1e-12 * scale
            assert abs(abs(sig.inner(n, n)) - 1.0) <= 1e-12

    def test_batched(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(10, 4))
        b = rng.normal(size=(10, 4))
        c = rng.normal(size=(10, 4))
        n = bc.orthonormal_complement(LORENTZ4, [a, b, c], E4[3])
        assert n.shape == (10, 4)
        assert np.max(np.abs(LORENTZ4.inner(n, a))) < 1e-10

    @pytest.mark.parametrize("sig", [EUCLIDEAN4, LORENTZ4])
    def test_closed_form_matches_det_minors(self, sig):
        # reference: the signed 3x3 minors taken by np.linalg.det
        def reference(mat):
            cols = np.arange(4)
            w = np.stack(
                [(-1.0) ** j * np.linalg.det(mat[..., :, cols != j]) for j in range(4)],
                axis=-1,
            )
            return w * sig.metric

        rng = np.random.default_rng(11)
        n = 400
        generic = rng.normal(size=(n, 3, 4)) * 10.0 ** rng.uniform(-3, 3, size=(n, 3, 1))
        a, b = rng.normal(size=(2, n, 4))
        mix = rng.normal(size=(n, 2, 1))
        in_span = mix[:, 0] * a + mix[:, 1] * b + 1e-9 * rng.normal(size=(n, 4))
        nearly_parallel = a + 1e-10 * rng.normal(size=(n, 4))
        for mat in (
            generic,
            np.stack([a, b, in_span], axis=1),
            np.stack([a, nearly_parallel, b], axis=1),
        ):
            got = _cofactor_complement(sig, mat)
            tol = 1e-12 * np.prod(np.linalg.norm(mat, axis=-1), axis=-1)
            assert np.all(np.abs(got - reference(mat)) <= tol[:, None])


def test_tangency_of_model_tangents():
    # vectors built tangent to the quadric stay orthogonal to the position
    rng = np.random.default_rng(3)
    p = rng.normal(size=4)
    p /= np.linalg.norm(p)
    for _ in range(20):
        v = rng.normal(size=4)
        t = v - EUCLIDEAN4.inner(v, p) * p
        assert abs(EUCLIDEAN4.inner(t, p)) < 1e-12 * np.linalg.norm(v)


def test_signature_validation():
    with pytest.raises(bc.UsageError):
        bc.Signature(4, timelike=2)
    with pytest.raises(bc.UsageError):
        bc.Signature(3, timelike=1)
    with pytest.raises(bc.UsageError):
        bc.Signature(5)
