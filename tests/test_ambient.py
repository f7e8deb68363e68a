import numpy as np
import pytest
from hypothesis import given, strategies as st

import biconsurf as bc
from biconsurf.ambient import EUCLIDEAN3, EUCLIDEAN4, LORENTZ4, _cofactor_complement
from biconsurf.verify import _positive, _unit_normal

E4 = np.eye(4)
E3 = np.eye(3)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _rows(mat):
    """The rows of a stack (..., k, dim) as the k fields _cofactor_complement takes."""
    return tuple(mat[..., i, :] for i in range(mat.shape[-2]))


_MODEL = {EUCLIDEAN3: bc.R3, EUCLIDEAN4: bc.S3, LORENTZ4: bc.H3}


def _unit(sig, vectors):
    """The verifier's unit normal (``verify._unit_normal``, the normalized
    ``_cofactor_complement``) to rows (Xu, Xv) in dimension 3, (Xu, Xv, X) in 4."""
    Xu, Xv, *X = (np.reshape(np.array(v, dtype=float), (-1, sig.dim)) for v in vectors)
    return _unit_normal(_MODEL[sig], (X or [None])[0], Xu, Xv).reshape(np.shape(vectors[0]))


def _signs(sig):
    """The diagonal of the signature's metric: +1, and -1 on the timelike axis."""
    eps = np.ones(sig.dim)
    if sig.timelike:
        eps[-1] = -1.0
    return eps


def _membership(model, p):
    """The verifier's model_membership row at p: <p, p> minus the quadric's value."""
    return model.inner(p, p) - model.quadric_target


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
            return np.sum(a * b * _signs(sig), axis=-1)

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
                # the verifier's jet rows take Euclidean sizes so
                for a in (rand, spec_a):
                    assert np.array_equal(sig.norm(a), np.linalg.norm(a, axis=-1),
                                          equal_nan=True)


class TestSpaceForm:
    def test_curvature_to_ambient(self):
        assert bc.R3.ambient.dim == 3 and bc.R3.ambient.timelike == 0
        assert bc.S3.ambient.dim == 4 and bc.S3.ambient.timelike == 0
        assert bc.H3.ambient.dim == 4 and bc.H3.ambient.timelike == 1

    def test_on_model_apex(self):
        assert _membership(bc.H3, np.array([0.0, 0.0, 0.0, 1.0])) == 0.0

    def test_on_model_sphere(self):
        assert _membership(bc.S3, np.array([1.0, 0.0, 0.0, 0.0])) == 0.0

    def test_null_vector_off_model(self):
        assert _membership(bc.H3, np.array([1.0, 0.0, 0.0, 1.0])) == 1.0

    def test_lower_sheet_rejected(self):
        # on the quadric, but the h3 sheet row (x4 > 0) refuses it
        p = np.array([0.0, 0.0, 0.0, -1.0])
        assert _membership(bc.H3, p) == 0.0
        assert _positive("x4", p[..., 3:], None, None, None, None) == (
            None, False, ["points with nonpositive x4 found"])

    def test_flat_has_no_constraint(self):
        with pytest.raises(bc.UsageError):
            bc.R3.quadric_target

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
        assert np.array_equal(_unit(EUCLIDEAN3, [E3[0], E3[1]]), E3[2])

    def test_euclidean4_flipped(self):
        # the cofactor orientation of (e1, e2, e3) in E4 is -e4
        assert np.array_equal(_unit(EUCLIDEAN4, [E4[0], E4[1], E4[2]]), -E4[3])

    def test_lorentz_gram_solve(self):
        # hand solve: n must satisfy n1 = n2 = 0 and -n4 = 0, |<n,n>| = 1
        assert np.array_equal(_unit(LORENTZ4, [E4[0], E4[1], E4[3]]), E4[2])

    def test_lorentz_timelike_complement(self):
        # a timelike complement is unit in the modulus norm, and swapping two
        # rows flips the cofactor orientation
        n = _unit(LORENTZ4, [E4[0], E4[1], E4[2]])
        assert np.array_equal(n, E4[3])
        assert LORENTZ4.inner(n, n) == -1.0
        assert np.array_equal(_unit(LORENTZ4, [E4[1], E4[0], E4[2]]), -E4[3])

    def test_lorentz_null_span(self):
        # a null span has a null complement, which no normalization makes a
        # unit vector: the verifier's unit normal comes out non-finite
        null = E4[2] + E4[3]
        w = _cofactor_complement(LORENTZ4, (E4[0], E4[1], null))
        assert LORENTZ4.inner(w, w) == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(_unit(LORENTZ4, [E4[0], E4[1], null])))

    def test_wrong_count(self):
        # the model fixes the rows: flat space takes (Xu, Xv) and never reads
        # X, the curved models take (Xu, Xv, X)
        nan = np.full((1, 3), np.nan)
        assert np.array_equal(_unit_normal(bc.R3, nan, E3[:1], E3[1:2]), E3[2:])
        assert np.array_equal(_unit_normal(bc.S3, E4[2:3], E4[:1], E4[1:2]), -E4[3:])

    @pytest.mark.parametrize("sig", [EUCLIDEAN3, EUCLIDEAN4, LORENTZ4])
    def test_random_spans_orthogonal(self, sig):
        rng = np.random.default_rng(42)
        for _ in range(50):
            vs = [rng.normal(size=sig.dim) for _ in range(sig.dim - 1)]
            scale = max(np.linalg.norm(v) for v in vs)
            w = _cofactor_complement(sig, vs)
            if abs(sig.inner(w, w)) <= 1e-6 * scale ** (2 * len(vs)):
                continue  # a nearly null complement: no unit normal
            n = _unit(sig, vs)
            for v in vs:
                assert abs(sig.inner(n, v)) <= 1e-12 * scale
            assert abs(abs(sig.inner(n, n)) - 1.0) <= 1e-12

    def test_batched(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(10, 4))
        b = rng.normal(size=(10, 4))
        c = rng.normal(size=(10, 4))
        n = _unit(LORENTZ4, [a, b, c])
        assert n.shape == (10, 4)
        assert np.max(np.abs(LORENTZ4.inner(n, a))) < 1e-10

    @pytest.mark.parametrize("sig", [EUCLIDEAN3, EUCLIDEAN4, LORENTZ4])
    def test_orientation_is_continuous(self, sig):
        # along a smooth family of spans the cofactor orientation never jumps
        t = np.linspace(0.0, 2.0 * np.pi, 721)[:, None]
        e = np.eye(sig.dim)
        vs = [e[0] * np.cos(t) + e[1] * np.sin(t),
              e[1] * np.cos(t) - e[0] * np.sin(t) + 0.3 * e[2] * np.sin(t), e[-1] + 0.2 * e[2]]
        assert np.max(np.abs(np.diff(_unit(sig, vs[:sig.dim - 1]), axis=0))) < 0.05

    @pytest.mark.parametrize("sig", [EUCLIDEAN4, LORENTZ4])
    def test_closed_form_matches_det_minors(self, sig):
        # reference: the signed 3x3 minors taken by np.linalg.det
        def reference(mat):
            cols = np.arange(4)
            w = np.stack(
                [(-1.0) ** j * np.linalg.det(mat[..., :, cols != j]) for j in range(4)],
                axis=-1,
            )
            return w * _signs(sig)

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
            got = _cofactor_complement(sig, _rows(mat))
            tol = 1e-12 * np.prod(np.linalg.norm(mat, axis=-1), axis=-1)
            assert np.all(np.abs(got - reference(mat)) <= tol[:, None])

    @pytest.mark.parametrize("sig", [EUCLIDEAN3, EUCLIDEAN4, LORENTZ4])
    def test_in_place_fill_matches_stacked_formula(self, sig):
        # the formula the in-place fill replaced: the minors stacked, then
        # times the signs; equal bits, zero signs included (NaN sign bits
        # may differ, as -(-x) and x differ there only)
        def reference(mat):
            a, b = mat[..., 0, :], mat[..., 1, :]
            if sig.dim == 3:
                w = np.cross(a, b)
            else:
                c = mat[..., 2, :]
                a0, a1, a2, a3 = (a[..., i] for i in range(4))
                b0, b1, b2, b3 = (b[..., i] for i in range(4))
                c0, c1, c2, c3 = (c[..., i] for i in range(4))
                p01, p02, p03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
                p12, p13, p23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
                w = np.stack([c1 * p23 - c2 * p13 + c3 * p12,
                              -(c0 * p23 - c2 * p03 + c3 * p02),
                              c0 * p13 - c1 * p03 + c3 * p01,
                              -(c0 * p12 - c1 * p02 + c2 * p01)], axis=-1)
            return w * _signs(sig)

        d, k = sig.dim, sig.dim - 1
        rng = np.random.default_rng(13)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                            1e308, -1e308, np.inf, -np.inf, np.nan, 1.0, -1.0])
        rand = rng.normal(size=(64, k, d)) * 10.0 ** rng.integers(-20, 20, size=(64, k, d))
        mats = [
            rand,
            rng.choice(special, size=(2000, k, d)),
            rng.choice(special[[0, 1, 11, 12]], size=(500, k, d)),
            np.asfortranarray(rand),
            rand[:8].reshape(2, 4, k, d),
            rand[0],
        ]
        with np.errstate(all="ignore"):
            for mat in mats:
                got, want = _cofactor_complement(sig, _rows(mat)), reference(mat)
                assert got.shape == want.shape
                assert np.array_equal(got, want, equal_nan=True)
                number = ~np.isnan(want)
                assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))


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
