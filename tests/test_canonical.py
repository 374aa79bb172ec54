import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lct_numra.canonical import (
    CanonicalMatrix,
    MatrixError,
    compose,
    fourier,
    frft,
    fresnel,
    identity,
    kernel,
    validate,
)


def nonzero_floats(lo, hi, floor=0.1):
    return st.floats(min_value=lo, max_value=hi).filter(lambda x: abs(x) >= floor)


@st.composite
def unimodular(draw):
    """Random valid matrix: pick a, b, c and solve for d."""
    a = draw(nonzero_floats(-3, 3))
    b = draw(nonzero_floats(-3, 3))
    c = draw(st.floats(min_value=-3, max_value=3))
    d = (1.0 + b * c) / a
    return CanonicalMatrix(a, b, c, d)


class TestValidate:
    def test_fourier_ok(self):
        assert validate(CanonicalMatrix(0, 1, -1, 0)).ok

    def test_haar_matrix_ok(self):
        report = validate(CanonicalMatrix(2, 1, 1, 1))
        assert report.ok
        assert report.det == pytest.approx(1.0, abs=1e-15)

    def test_det_minus_two_rejected(self):
        report = validate(CanonicalMatrix(0, 1, 2, -1))
        assert not report.ok
        assert report.det == -2.0
        assert any("unimodular" in v for v in report.violations)

    def test_permissive_mode_accepts_nonunit_det(self):
        report = validate(CanonicalMatrix(0, 1, 2, -1), allow_nonunimodular=True)
        assert report.ok
        assert report.det == -2.0

    def test_small_entries_keep_absolute_tolerance(self):
        # |ad|, |bc| <= 1: the bound is UNIMODULAR_TOL itself
        assert not validate(CanonicalMatrix(1.0, 0.5, 4e-12, 1.0)).ok
        assert validate(CanonicalMatrix(1.0, 0.5, 1e-12, 1.0)).ok

    def test_tolerance_scales_with_products(self):
        # the rounded det of a valid product with |ad| ~ 7e3 is 1.8e-12 from 1
        m2 = CanonicalMatrix(0.25, 3, 3, 40)
        p = compose(m2, CanonicalMatrix(0.1015625, 1, 2, 29.53846153846154))
        assert abs(p.det - 1.0) > 1e-12
        assert validate(p).ok

    @pytest.mark.parametrize("entries", [(np.nan, 1, -1, 0), (np.inf, 1, -1, 0), (0, 1, -1, -np.inf)])
    @pytest.mark.parametrize("permissive", [False, True])
    def test_non_finite_entries_rejected(self, entries, permissive):
        from lct_numra.canonical import require_valid

        m = CanonicalMatrix(*entries)
        name = "abcd"[next(i for i, v in enumerate(entries) if not np.isfinite(v))]
        report = validate(m, allow_nonunimodular=permissive)
        assert not report.ok
        assert any(v.startswith(f"non-finite entry: {name} =") for v in report.violations)
        with pytest.raises(MatrixError, match="non-finite"):
            require_valid(m, allow_nonunimodular=permissive)

    def test_b_zero_passes_validation_but_not_transform_gate(self):
        from lct_numra.canonical import require_valid

        # the identity is a legitimate matrix for composition purposes
        report = validate(CanonicalMatrix(1, 0, 0, 1))
        assert report.ok
        # but every transform-facing entry point rejects b = 0
        with pytest.raises(MatrixError, match="b = 0"):
            require_valid(CanonicalMatrix(1, 0, 0, 1))


class TestCompose:
    def test_identity(self):
        m = CanonicalMatrix(2, 1, 1, 1)
        assert compose(identity(), m) == m
        assert compose(m, identity()) == m

    def test_fourier_squared(self):
        m = compose(fourier(), fourier())
        assert m.as_tuple() == (-1.0, 0.0, 0.0, -1.0)

    def test_rotation_angles_add(self):
        got = compose(frft(0.3), frft(0.5))
        want = frft(0.8)
        np.testing.assert_allclose(got.as_tuple(), want.as_tuple(), atol=1e-12)

    def test_rejects_invalid(self):
        with pytest.raises(MatrixError):
            compose(CanonicalMatrix(0, 1, 2, -1), fourier())

    @given(unimodular(), unimodular())
    @settings(max_examples=100, deadline=None)
    def test_product_unimodular(self, m1, m2):
        assert abs(compose(m1, m2).det - 1.0) <= 1e-9

    @given(unimodular(), unimodular(), unimodular())
    @example(  # compose(m2, m3) has |ad| ~ 7e3 and a rounded det 1.8e-12 from 1
        CanonicalMatrix(1, 1, 0, 1),
        CanonicalMatrix(0.25, 3, 3, 40),
        CanonicalMatrix(0.1015625, 1, 2, 29.53846153846154),
    )
    @settings(max_examples=50, deadline=None)
    def test_associative(self, m1, m2, m3):
        left = compose(compose(m1, m2), m3)
        right = compose(m1, compose(m2, m3))
        np.testing.assert_allclose(left.as_tuple(), right.as_tuple(), atol=1e-9, rtol=1e-9)


class TestSpecial:
    def test_fourier(self):
        assert fourier().as_tuple() == (0.0, 1.0, -1.0, 0.0)

    def test_frft_quarter_turn(self):
        got = frft(np.pi / 2)
        np.testing.assert_allclose(got.as_tuple(), fourier().as_tuple(), atol=1e-15)

    def test_fresnel(self):
        assert fresnel(2.0).as_tuple() == (1.0, 2.0, 0.0, 1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(MatrixError):
            frft(np.pi)
        with pytest.raises(MatrixError, match="b = 0"):
            fresnel(0.0)


class TestKernel:
    def test_fourier_case(self):
        m = fourier()
        t, w = 0.7, -1.3
        want = np.exp(-2j * np.pi * t * w) / np.sqrt(1j)
        assert kernel(m, t, w) == pytest.approx(want, abs=1e-15)

    def test_origin_value(self):
        m = CanonicalMatrix(2, 1, 1, 1)
        assert kernel(m, 0.0, 0.0) == pytest.approx(1.0 / np.sqrt(1j * m.b))

    def test_time_frequency_symmetry(self):
        m = CanonicalMatrix(2.0, 1.5, 1.0, 1.0)
        swapped = CanonicalMatrix(m.d, m.b, m.c, m.a)
        t, w = 0.4, 0.9
        assert kernel(m, t, w) == pytest.approx(kernel(swapped, w, t), abs=1e-15)

    def test_unit_chirp_modulus(self):
        m = CanonicalMatrix(1.0, -2.0, 1.0, -1.0)
        t = np.linspace(-3, 3, 41)
        w = np.linspace(-2, 2, 41)
        mags = np.abs(kernel(m, t, w))
        np.testing.assert_allclose(mags, 1.0 / np.sqrt(abs(m.b)), atol=1e-15)

    def test_b_zero_rejected(self):
        with pytest.raises(MatrixError):
            kernel(CanonicalMatrix(1, 0, 0, 1), 0.0, 0.0)

    def test_principal_branch(self):
        # sqrt(i b) must have argument in (-pi/2, pi/2]
        for b in (1.0, -1.0, 2.5, -0.3):
            amp = kernel(CanonicalMatrix(0, b, -1 / b, 0), 0.0, 0.0)
            root = 1.0 / amp
            assert -np.pi / 2 < np.angle(root) <= np.pi / 2
