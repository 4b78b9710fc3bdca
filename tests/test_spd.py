import numpy as np
import pytest
from conftest import (
    loop_distance,
    loop_log_euclidean_mean,
    loop_matrix_function,
    loop_tangent_vector,
    random_invertible,
    random_spd,
    relative_error,
    tangent_unmap,
    unflatten_sym,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from labelalign import spd
from labelalign.errors import (
    DimMismatchError,
    EigFailureError,
    EmptyInputError,
    NonFiniteError,
    NotPositiveDefiniteError,
)
from labelalign.spd import (
    arithmetic_mean_cov,
    flatten_sym,
    log_euclidean_mean,
    riemannian_distance,
    spd_exp,
    spd_from_matrix,
    spd_inv_sqrt,
    spd_log,
    spd_sqrt,
    symmetrize,
    tangent_map,
)


def eig2x2(a, b, c, d):
    """Characteristic-polynomial eigenvalues of [[a, b], [c, d]]."""
    disc = np.sqrt((a - d) ** 2 + 4 * b * c)
    return sorted([(a + d - disc) / 2, (a + d + disc) / 2])


def eigvalsh_rule(m, tol):
    """Whether the smallest eigenvalue of ``m`` fails the threshold ``tol * trace / dim``."""
    return bool(np.linalg.eigvalsh(m)[0] <= tol * np.trace(m) / m.shape[-1])


@st.composite
def boundary_stacks(draw):
    """(tol, sides, stack): SPD matrices whose smallest eigenvalue is
    ``side * t`` for the threshold t of ``tol``, with ``side`` 1 ± 1e-3."""
    dim = draw(st.integers(2, 8))
    tol = draw(st.sampled_from([1e-10, 1e-6, 1e-3]))
    sides = draw(st.lists(st.sampled_from([1.0 - 1e-3, 1.0 + 1e-3]), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for side in sides:
        rest = 10.0 ** rng.uniform(0.0, 2.0, dim - 1)
        # w = side * tol * (w + sum(rest)) / dim, solved for w
        w = side * tol * rest.sum() / (dim - side * tol)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        stack.append(symmetrize((q * np.r_[w, rest]) @ q.T))
    return tol, sides, np.stack(stack)


class TestSpdFromMatrix:
    def test_identity_accepted(self):
        p = spd_from_matrix(np.eye(2))
        assert p.shape == (2, 2)
        assert np.array_equal(p, np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_from_matrix([[1.0, 0.0], [0.0, -1.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            spd_from_matrix([[1.0, np.nan], [0.0, 1.0]])

    def test_empty_matrix_rejected(self):
        for empty in (np.empty((0, 0)), np.empty((3, 0, 0))):
            with pytest.raises(DimMismatchError, match="square and nonempty"):
                spd_from_matrix(empty)

    def test_2x2_against_characteristic_polynomial(self):
        raw = np.array([[2.0, 1.0], [1.0, 2.0]])
        expected = eig2x2(2.0, 1.0, 1.0, 2.0)
        assert expected == [1.0, 3.0]
        p = spd_from_matrix(raw)
        assert np.allclose(np.linalg.eigvalsh(p), expected)

    def test_asymmetric_input_symmetrized(self):
        p = spd_from_matrix([[2.0, 1.0 + 1e-13], [1.0, 2.0]])
        assert np.array_equal(p, p.T)

    @settings(max_examples=60, deadline=None)
    @given(boundary_stacks())
    def test_decides_as_the_eigenvalue_rule(self, case):
        tol, sides, stack = case
        bad = [eigvalsh_rule(m, tol) for m in stack]
        assert bad == [side < 1.0 for side in sides]  # the stack straddles the threshold
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spd, "SPD_TOL", tol)
            for m, rejected in zip(stack, bad):
                if rejected:
                    with pytest.raises(NotPositiveDefiniteError,
                                       match="^matrix: smallest eigenvalue"):
                        spd_from_matrix(m)
                else:
                    assert np.array_equal(spd_from_matrix(m), m)
            if any(bad):
                first = bad.index(True)
                with pytest.raises(NotPositiveDefiniteError,
                                   match=f"^matrix {first}: smallest eigenvalue"):
                    spd_from_matrix(stack)
            else:
                assert np.array_equal(spd_from_matrix(stack), stack)

    def test_a_valid_stack_takes_no_eigendecomposition(self, monkeypatch):
        calls = []
        for solver in ("eigh", "eigvalsh"):
            def spy(a, *args, _solver=getattr(np.linalg, solver), **kwargs):
                calls.append(a)
                return _solver(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, solver, spy)
        rng = np.random.default_rng(29)
        stack = np.stack([random_spd(rng, 6) for _ in range(10)])
        calls.clear()
        assert np.array_equal(spd_from_matrix(stack), stack)
        assert np.array_equal(spd_from_matrix(stack[0]), stack[0])
        assert calls == []
        stack[3] = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        with pytest.raises(NotPositiveDefiniteError, match="matrix 3: smallest eigenvalue"):
            spd_from_matrix(stack)
        assert len(calls) == 1  # only a failing stack is decomposed, to name its trial


class TestMatrixFunctions:
    def test_sqrt_identity(self):
        assert np.allclose(spd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_log_of_diagonal(self):
        p = np.diag([np.e, np.e**2])
        assert np.allclose(spd_log(p), np.diag([1.0, 2.0]), atol=1e-12)

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(7)
        p = random_spd(rng, 8)
        s = spd_sqrt(p)
        assert np.linalg.norm(s @ s - p) / np.linalg.norm(p) <= 1e-10

    def test_inv_sqrt_whitens(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            p = random_spd(rng, 6)
            isq = spd_inv_sqrt(p)
            assert np.linalg.norm(isq @ p @ isq - np.eye(6)) <= 1e-10

    def test_exp_log_inversion(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            p = random_spd(rng, 5)
            assert np.linalg.norm(spd_exp(spd_log(p)) - p) / np.linalg.norm(p) <= 1e-9
            s = symmetrize(rng.standard_normal((5, 5)))
            s *= 5.0 / max(np.abs(np.linalg.eigvalsh(s)))  # spectral radius 5
            back = spd_log(spd_exp(s))
            assert np.linalg.norm(back - s) / np.linalg.norm(s) <= 1e-9

    def test_outputs_exactly_symmetric(self):
        rng = np.random.default_rng(10)
        p = random_spd(rng, 7)
        for f in (spd_sqrt, spd_inv_sqrt, spd_log):
            out = f(p)
            assert np.array_equal(out, out.T)

    def test_a_failed_eigendecomposition_raises_eig_failure(self, monkeypatch):
        def fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(spd.np.linalg, "eigh", fails)
        with pytest.raises(EigFailureError, match="^symmetric eigendecomposition failed: "
                                                  "Eigenvalues did not converge$"):
            spd_sqrt(np.eye(3))

    def test_log_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_log(np.diag([1.0, -1.0]))


class TestRiemannianDistance:
    def test_zero_at_same_point(self):
        rng = np.random.default_rng(11)
        p = random_spd(rng, 5)
        assert riemannian_distance(p, p) <= 1e-10

    def test_hand_computed_value(self):
        # Eigenvalues of I^-1 diag(4, 1) are {4, 1}: distance log 4.
        d = riemannian_distance(np.eye(2), np.diag([4.0, 1.0]))
        assert d == pytest.approx(np.log(4.0), abs=1e-12)
        assert d == pytest.approx(1.3862944, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        p1, p2 = random_spd(rng, 4), random_spd(rng, 4)
        assert riemannian_distance(p1, p2) == pytest.approx(
            riemannian_distance(p2, p1), abs=1e-12
        )

    def test_congruence_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            p1, p2 = random_spd(rng, dim), random_spd(rng, dim)
            w = random_invertible(rng, dim)
            d = riemannian_distance(p1, p2)
            d_t = riemannian_distance(w.T @ p1 @ w, w.T @ p2 @ w)
            assert abs(d_t - d) <= 1e-9 * (1.0 + d)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            riemannian_distance(np.eye(2), np.eye(3))


class TestTangentSpace:
    def test_zero_vector_at_base_point(self):
        rng = np.random.default_rng(14)
        p = random_spd(rng, 4)
        assert np.linalg.norm(tangent_map(spd_inv_sqrt(p), p[None])) <= 1e-10

    def test_identity_reference_is_matrix_log(self):
        v = tangent_map(np.eye(2), np.diag([np.e, 1.0])[None])
        assert np.allclose(v, [[1.0, 0.0, 0.0]], atol=1e-12)
        with pytest.raises(DimMismatchError, match="tangent_map: expected a stack"):
            tangent_map(np.eye(2), np.diag([np.e, 1.0]))  # one matrix is not a stack

    def test_round_trip_random_pairs(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            ref, p = random_spd(rng, 6), random_spd(rng, 6)
            back = tangent_unmap(ref, tangent_map(spd_inv_sqrt(ref), p[None]))[0]
            assert np.linalg.norm(back - p) / np.linalg.norm(p) <= 1e-9

    def test_flat_length_validation(self):
        with pytest.raises(DimMismatchError):
            tangent_unmap(np.eye(3), np.zeros(5))
        with pytest.raises(DimMismatchError):
            tangent_unmap(np.eye(3), np.zeros(10))  # a triangle number, but of dim 4

    def test_inner_product_preserved(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            s1 = symmetrize(rng.standard_normal((5, 5)))
            s2 = symmetrize(rng.standard_normal((5, 5)))
            frobenius = float(np.sum(s1 * s2))
            euclidean = float(flatten_sym(s1) @ flatten_sym(s2))
            assert abs(euclidean - frobenius) <= 1e-10

    def test_flatten_unflatten_inverse(self):
        rng = np.random.default_rng(17)
        s = symmetrize(rng.standard_normal((6, 6)))
        assert np.allclose(unflatten_sym(flatten_sym(s)), s, atol=1e-14)

    def test_triangle_is_built_once_per_dimension_and_read_only(self):
        # flatten_sym runs once per tangent chunk, so its layout is cached.
        (rows, cols), weights = spd._triangle(6)
        assert spd._triangle(6)[1] is weights
        for a in (rows, cols, weights):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        s = symmetrize(np.random.default_rng(18).standard_normal((6, 6)))
        iu = np.triu_indices(6)
        expected = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0)) * s[iu]
        assert flatten_sym(s).tobytes() == expected.tobytes()


class TestMeans:
    def test_log_euclidean_singleton(self):
        rng = np.random.default_rng(18)
        p = random_spd(rng, 4)
        assert np.allclose(log_euclidean_mean(spd_log([p])), p, atol=1e-12)

    def test_log_euclidean_diagonal(self):
        mean = log_euclidean_mean(spd_log([np.eye(2), np.diag([np.e**2, np.e**2])]))
        assert np.allclose(mean, np.diag([np.e, np.e]), atol=1e-12)

    def test_commuting_case_matches_scalar_geometric_mean(self):
        rng = np.random.default_rng(19)
        diags = rng.uniform(0.5, 3.0, size=(5, 4))
        mats = [np.diag(d) for d in diags]
        expected = np.exp(np.log(diags).mean(axis=0))  # per-entry geometric mean
        assert np.allclose(np.diag(log_euclidean_mean(spd_log(mats))), expected, atol=1e-12)

    def test_log_euclidean_permutation_invariant_and_idempotent(self):
        rng = np.random.default_rng(20)
        mats = [random_spd(rng, 3) for _ in range(4)]
        m1 = log_euclidean_mean(spd_log(mats))
        m2 = log_euclidean_mean(spd_log(mats[::-1]))
        assert np.allclose(m1, m2, atol=1e-12)
        p = mats[0]
        assert np.allclose(log_euclidean_mean(spd_log([p, p, p])), p, atol=1e-11)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            log_euclidean_mean([])
        with pytest.raises(EmptyInputError):
            arithmetic_mean_cov([])

    def test_arithmetic_mean_trivial(self):
        rng = np.random.default_rng(21)
        p = random_spd(rng, 4)
        assert np.allclose(arithmetic_mean_cov([p]), p, atol=1e-14)
        mean = arithmetic_mean_cov([np.diag([1.0, 3.0]), np.diag([3.0, 1.0])])
        assert np.array_equal(mean, np.diag([2.0, 2.0]))

    def test_arithmetic_mean_against_naive_summation(self):
        rng = np.random.default_rng(22)
        mats = [random_spd(rng, 5) for _ in range(20)]
        naive = np.zeros((5, 5))
        for m in mats:
            naive = naive + m
        naive /= len(mats)
        mean = arithmetic_mean_cov(mats)
        assert np.linalg.norm(mean - naive) / np.linalg.norm(naive) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            log_euclidean_mean([np.eye(2), np.eye(3)])


class TestSpdStacks:
    def test_single_matrix_kernel_is_bitwise_the_per_matrix_formula(self):
        rng = np.random.default_rng(23)
        p = random_spd(rng, 6)
        s = symmetrize(rng.standard_normal((6, 6)))
        assert np.array_equal(spd_sqrt(p), loop_matrix_function(p, np.sqrt))
        assert np.array_equal(
            spd_inv_sqrt(p), loop_matrix_function(p, lambda w: 1.0 / np.sqrt(w))
        )
        assert np.array_equal(spd_log(p), loop_matrix_function(p, np.log))
        assert np.array_equal(spd_exp(s), loop_matrix_function(s, np.exp))

    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(24)
        stack = np.stack([random_spd(rng, 5) for _ in range(7)])
        for f in (spd_sqrt, spd_inv_sqrt, spd_log, spd_exp):
            assert np.array_equal(f(stack), np.stack([f(p) for p in stack]))

    def test_stacked_sqrt_of_wishart_factors_is_the_loop(self):
        # The synthetic generator takes its noise roots stacked, as one batch,
        # and relies on these bits being those of one root per trial.
        rng = np.random.default_rng(26)
        for dim, df, n in ((3, 5, 1), (8, 20, 10), (16, 34, 4), (22, 40, 5)):
            g = rng.standard_normal((n, dim, df))
            stack = g @ g.swapaxes(-1, -2) / df
            assert spd_sqrt(stack).tobytes() == np.stack(
                [loop_matrix_function(q, np.sqrt) for q in stack]).tobytes()

    def test_tangent_vectors_match_loop(self):
        rng = np.random.default_rng(25)
        for dim in (3, 8, 22):
            ref = random_spd(rng, dim)
            stack = np.stack([random_spd(rng, dim) for _ in range(12)])
            expected = np.stack([loop_tangent_vector(ref, p) for p in stack])
            got = tangent_map(spd_inv_sqrt(ref), stack)
            assert got.shape == (12, dim * (dim + 1) // 2)
            assert relative_error(got, expected) <= 1e-10

    def test_log_euclidean_mean_matches_loop(self):
        rng = np.random.default_rng(26)
        for dim in (3, 8, 22):
            stack = np.stack([random_spd(rng, dim) for _ in range(15)])
            expected = loop_log_euclidean_mean(stack)
            assert relative_error(log_euclidean_mean(spd_log(stack)), expected) <= 1e-10

    def test_distances_broadcast_and_match_loop(self):
        rng = np.random.default_rng(27)
        p = random_spd(rng, 6)
        stack = np.stack([random_spd(rng, 6) for _ in range(9)])
        expected = np.array([loop_distance(p, q) for q in stack])
        got = riemannian_distance(p, stack)
        assert got.shape == (9,)
        assert relative_error(got, expected) <= 1e-10
        grid = riemannian_distance(stack[:, None], stack[:4])
        assert grid.shape == (9, 4)
        loops = [[loop_distance(a, b) for b in stack[:4]] for a in stack]
        assert relative_error(grid, np.array(loops)) <= 1e-10

    def test_validation_names_the_failing_matrix(self):
        stack = np.stack([np.eye(3), np.eye(3), np.diag([1.0, 1.0, 0.0])])
        with pytest.raises(NotPositiveDefiniteError, match="matrix 2: smallest eigenvalue"):
            spd_from_matrix(stack)
        stack[1, 0, 0] = np.inf
        with pytest.raises(NonFiniteError, match="trial contains"):
            spd_from_matrix(stack, name="trial")

    @pytest.mark.parametrize("matrices", [
        pytest.param(1, id="one-matrix-chunks"),
        pytest.param(3, id="uneven-last-chunk"),  # 7 = 3 + 3 + 1
        pytest.param(10, id="one-chunk"),
    ])
    def test_tangent_chunks_give_the_whole_stack_bit_for_bit(self, monkeypatch, matrices):
        rng = np.random.default_rng(29)
        dim = 5
        ref = random_spd(rng, dim)
        stack = np.stack([random_spd(rng, dim) for _ in range(7)])
        inv_half = spd_inv_sqrt(ref)
        whole = flatten_sym(spd_log(inv_half @ stack @ inv_half))
        batches = []  # the leading shape of each eigendecomposition
        eigh = spd._eigh
        monkeypatch.setattr(spd, "_eigh", lambda a: batches.append(a.shape[:-2]) or eigh(a))
        monkeypatch.setattr(spd, "CHUNK_WORDS", matrices * dim * dim)
        got = tangent_map(inv_half, stack)
        assert got.shape == whole.shape and got.tobytes() == whole.tobytes()
        chunk = min(matrices, 7)
        chunks = [(chunk,)] * (7 // chunk) + [(7 % chunk,)] * (7 % chunk > 0)
        assert batches == chunks  # each chunk; the caller took the reference's root
        assert tangent_map(inv_half, stack[4:5]).tobytes() == whole[4].tobytes()

    def test_tangent_unmap_inverts_a_stack(self):
        rng = np.random.default_rng(28)
        ref = random_spd(rng, 4)
        stack = np.stack([random_spd(rng, 4) for _ in range(5)])
        back = tangent_unmap(ref, tangent_map(spd_inv_sqrt(ref), stack))
        assert relative_error(back, stack) <= 1e-9
