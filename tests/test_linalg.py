import numpy as np
import pytest

from srpfl import checks, linalg
from srpfl.errors import EigenGapDegenerateWarning, SrpflError


def random_orthonormal(d, k, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return q


class TestThinQR:
    def test_identity(self):
        q, r = linalg.thin_qr(np.eye(3))
        np.testing.assert_allclose(q, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-14)

    def test_positive_diagonal_convention(self):
        a = np.diag([2.0, 3.0])
        q, r = linalg.thin_qr(a)
        np.testing.assert_allclose(q, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(r, a, atol=1e-14)
        # negated input still yields a positive diagonal on r
        q2, r2 = linalg.thin_qr(-a)
        assert np.all(np.diag(r2) > 0)
        np.testing.assert_allclose(q2 @ r2, -a, atol=1e-14)

    def test_reconstruction_oracle_seed0(self):
        a = np.random.default_rng(0).standard_normal((4, 2))
        q, r = linalg.thin_qr(a)
        assert np.linalg.norm(q.T @ q - np.eye(2)) <= 1e-10
        assert np.linalg.norm(q @ r - a) <= 1e-9 * np.linalg.norm(a)
        assert np.allclose(r, np.triu(r))

    def test_invertible_mix_keeps_span(self):
        b = random_orthonormal(5, 2, 3)
        c = np.random.default_rng(4).standard_normal((2, 2))
        q, _ = linalg.thin_qr(b @ c)
        assert linalg.principal_angle_dist(q, b) <= 1e-12

    def test_rank_deficient(self):
        a = np.ones((4, 2))  # identical columns
        with pytest.raises(SrpflError, match="column rank collapsed"):
            linalg.thin_qr(a)
        with pytest.raises(SrpflError, match="column rank collapsed"):
            linalg.thin_qr(np.zeros((3, 2)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e308], ids=["nan", "inf", "norm_overflows"])
    def test_non_finite_factor_rejected(self, entry):
        # a column of 1e308 entries is finite, but its norm is not
        a = np.eye(4, 2)
        a[:, 0] = entry
        with pytest.raises(SrpflError, match="QR factor is not finite"):
            linalg.thin_qr(a)

    def test_wide_input_rejected(self):
        with pytest.raises(SrpflError, match=r"thin_qr expects a tall d x k matrix, got shape \(2, 3\)"):
            linalg.thin_qr(np.ones((2, 3)))


class TestSpanBasis:
    # a round's basis: span_basis(b, B*) starts with the moving b, and its rest
    # spans the part of the fixed B* outside span(b); its distance is b's to B*
    @pytest.mark.parametrize("d, k", [(20, 2), (8, 3), (5, 3), (4, 4)])
    def test_orthonormal_and_spans_both(self, d, k):
        fixed, moving = random_orthonormal(d, k, 1), random_orthonormal(d, k, 2)
        q, dist = linalg.span_basis(moving, fixed)
        assert q.shape == (d, min(d, 2 * k))
        assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-13
        for b in (fixed, moving):
            assert np.linalg.norm(b - q @ (q.T @ b)) <= 1e-13
        np.testing.assert_allclose(q[:, :k] @ q[:, :k].T, moving @ moving.T, atol=1e-13)
        assert np.all(q[np.abs(q).argmax(axis=0), np.arange(q.shape[1])] > 0)
        assert abs(dist - linalg.principal_angle_dist(moving, fixed)) <= 1e-13

    @pytest.mark.parametrize("d, k", [(20, 2), (8, 3), (5, 3)])
    def test_depends_on_moving_only_through_its_span(self, d, k):
        fixed, moving = random_orthonormal(d, k, 3), random_orthonormal(d, k, 4)
        rot = random_orthonormal(k, k, 5)
        np.testing.assert_allclose(
            linalg.span_basis(moving @ rot, fixed)[0], linalg.span_basis(moving, fixed)[0], atol=1e-12,
        )

    @pytest.mark.parametrize("d, k", [(20, 2), (8, 3), (5, 3)])
    def test_non_orthonormal_lead_gives_its_thin_qr_basis(self, d, k):
        fixed = random_orthonormal(d, k, 9)
        lead = random_orthonormal(d, k, 10) @ np.random.default_rng(11).standard_normal((k, k))
        q, dist = linalg.span_basis(lead, fixed)
        orthonormal = linalg.thin_qr(lead)[0]
        np.testing.assert_allclose(q, linalg.span_basis(orthonormal, fixed)[0], atol=1e-12)
        assert abs(dist - linalg.principal_angle_dist(orthonormal, fixed)) <= 1e-13

    @pytest.mark.parametrize("gap", [1e-6, 1e-12, 0.0])
    def test_orthonormal_as_spans_meet(self, gap):
        fixed = random_orthonormal(20, 2, 6)
        moving, _ = np.linalg.qr(fixed @ random_orthonormal(2, 2, 7) + gap * random_orthonormal(20, 2, 8))
        q, dist = linalg.span_basis(moving, fixed)
        assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-13
        assert np.linalg.norm(fixed - q @ (q.T @ fixed)) <= 1e-13
        assert abs(dist - linalg.principal_angle_dist(moving, fixed)) <= 1e-13

    def test_collapsed_lead_refused_as_thin_qr_refuses_it(self):
        fixed = random_orthonormal(4, 2, 12)
        for lead in (np.ones((4, 2)), np.zeros((4, 2))):
            with pytest.raises(SrpflError, match="column rank collapsed"):
                linalg.span_basis(lead, fixed)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e308], ids=["nan", "inf", "norm_overflows"])
    def test_non_finite_lead_refused_as_thin_qr_refuses_it(self, entry):
        lead = np.eye(4, 2)
        lead[:, 0] = entry
        with pytest.raises(SrpflError, match="QR factor is not finite"):
            linalg.span_basis(lead, random_orthonormal(4, 2, 13))

    def test_kernel_invariants_catch_a_distance_off_by_1e_9(self, monkeypatch):
        # criterion 7 holds each span_basis distance to principal_angle_dist within 1e-13
        real = linalg.span_basis

        def off(lead, other):
            q, dist = real(lead, other)
            return q, dist + 1e-9

        monkeypatch.setattr(linalg, "span_basis", off)
        ok, detail = checks.kernel_invariants()
        assert not ok
        assert "'span basis distance #0'" in detail and "span basis orthonormality" not in detail


class TestRankKEig:
    def test_diagonal_top1(self):
        basis = linalg.rank_k_eig(np.diag([5.0, 2.0, 1.0]), 1)
        assert abs(abs(basis[0, 0]) - 1.0) <= 1e-12

    def test_diagonal_top2(self):
        basis = linalg.rank_k_eig(np.diag([5.0, 2.0, 1.0]), 2)
        span_target = np.eye(3)[:, :2]
        assert linalg.principal_angle_dist(basis, span_target) <= 1e-12

    def test_matches_full_decomposition_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        s = a + a.T
        # oracle: full eigendecomposition, top-k by eigenvalue
        vals, vecs = np.linalg.eigh(s)
        oracle = vecs[:, np.argsort(vals)[::-1][:2]]
        basis = linalg.rank_k_eig(s, 2)
        assert linalg.principal_angle_dist(basis, oracle) <= 1e-9

    def test_scaling_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        s = a + a.T
        b1 = linalg.rank_k_eig(s, 2)
        b2 = linalg.rank_k_eig(37.5 * s, 2)
        assert linalg.principal_angle_dist(b1, b2) <= 1e-9

    def test_not_symmetric(self):
        s = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(SrpflError, match=r"_F = 2\.828e\+00 exceeds 1e-10 \* max\(1, \|\|s\|\|_F\) = 2\.449e-10"):
            linalg.rank_k_eig(s, 1)

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_not_finite(self, entry):
        # nan > bound is False, so a nan would pass the symmetry test
        s = np.eye(3)
        s[0, 1] = s[1, 0] = entry
        with pytest.raises(SrpflError, match="expected a finite matrix, got an inf or nan entry"):
            linalg.rank_k_eig(s, 1)

    def test_rounding_asymmetry_scales_with_the_matrix(self):
        # an asymmetry far above 1e-10 is still rounding at this scale
        a = np.random.default_rng(12).standard_normal((6, 6))
        s = 1e6 * (a + a.T)
        b = linalg.rank_k_eig(s, 2)
        s[0, 1] += 1e-6
        assert linalg.principal_angle_dist(linalg.rank_k_eig(s, 2), b) <= 1e-9

    @pytest.mark.parametrize("s, k, message", [
        (np.ones((3, 2)), 1, r"expected a square matrix, got shape \(3, 2\)"),
        (np.eye(3), 0, r"k=0 outside 1\.\.3"),
        (np.eye(3), 4, r"k=4 outside 1\.\.3"),
    ])
    def test_bad_shape_or_rank(self, s, k, message):
        with pytest.raises(SrpflError, match=message):
            linalg.rank_k_eig(s, k)

    def test_degenerate_gap_warns(self):
        with pytest.warns(EigenGapDegenerateWarning):
            linalg.rank_k_eig(np.diag([5.0, 5.0, 1.0]), 1)


class TestPrincipalAngleDist:
    def test_self_distance_zero(self):
        b = random_orthonormal(7, 3, seed=9)
        assert linalg.principal_angle_dist(b, b) <= 1e-12

    def test_orthogonal_lines(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert linalg.principal_angle_dist(e1, e2) == pytest.approx(1.0, abs=1e-12)

    def test_sine_oracle(self):
        # explicit complement of span{(1,0)} is (0,1): distance is |sin(theta)|
        theta = np.pi / 6
        b1 = np.array([[1.0], [0.0]])
        b2 = np.array([[np.cos(theta)], [np.sin(theta)]])
        assert linalg.principal_angle_dist(b1, b2) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_equal_k(self):
        b1 = random_orthonormal(6, 2, seed=3)
        b2 = random_orthonormal(6, 2, seed=4)
        d12 = linalg.principal_angle_dist(b1, b2)
        d21 = linalg.principal_angle_dist(b2, b1)
        assert d12 == pytest.approx(d21, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(SrpflError, match=r"basis shapes differ: \(3, 1\) vs \(4, 1\)"):
            linalg.principal_angle_dist(np.eye(3)[:, :1], np.eye(4)[:, :1])

    @pytest.mark.parametrize("shape", [(1, 1), (20, 2), (40, 4), (7, 3)])
    def test_bit_equal_to_numpy_2_norm(self, shape):
        d, k = shape
        rng = np.random.default_rng(d * k)
        for scale in (1e-12, 1e-6, 1.0):
            for _ in range(50):
                b1 = random_orthonormal(d, k, seed=int(rng.integers(2**31)))
                b2, _ = np.linalg.qr(b1 + scale * rng.standard_normal((d, k)))
                expected = min(1.0, float(np.linalg.norm(b2 - b1 @ (b1.T @ b2), 2)))
                assert linalg.principal_angle_dist(b1, b2) == expected
