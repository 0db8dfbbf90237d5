import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import exact_roots as ex
import root_rounding_loop
from wynerdof import tridiag as td


def eig_product_roots(p):
    """Independent oracle: det H_p(a) = prod_k (1 + 2a cos(k pi/(p+1))),
    so the real roots are -1/(2cos(k pi/(p+1))) for the nonzero cosines."""
    roots = []
    for k in range(1, p + 1):
        c = math.cos(k * math.pi / (p + 1))
        if abs(c) > 1e-12:
            roots.append(-1.0 / (2.0 * c))
    return sorted(roots)


def dense_det(p, a):
    return 1.0 if p == 0 else float(np.linalg.det(td.h_matrix(p, a)))


def definitional_residual(vs):
    """max_p |v_p * (-alpha)^p - u_p| over the computed range of a td.VSequence."""
    a = vs.alpha
    return max(abs(vs[p] * (-a) ** p - td.det_h(p, a)) for p in range(vs.pmax + 1))


def v_row_identity_residual(p, l, alpha):
    """Residual of (v_l .. v_{l+p-1}) H_p(alpha) = (-a v_{l-1}, 0, .., 0, -a v_{l+p}),
    for p >= 2, with v_p from td.v_sequence's recursion.

    The recursion runs in exact rational arithmetic (every float gain is a
    rational), since the normalized sequence grows like |1/alpha|^p and a
    floating residual would be meaningless for small gains.
    """
    a = Fraction(alpha)
    vs = [Fraction(0), Fraction(1)]  # v_{-1}, v_0
    for _ in range(l + p + 1):
        vs.append(-vs[-1] / a - vs[-2])
    v = lambda i: vs[i + 1]
    row = [v(l + i) for i in range(p)]
    worst = Fraction(0)
    for j in range(p):
        acc = row[j]  # unit diagonal
        if j >= 1:
            acc += a * row[j - 1]
        if j + 1 < p:
            acc += a * row[j + 1]
        want = -a * v(l - 1) if j == 0 else (-a * v(l + p) if j == p - 1 else Fraction(0))
        worst = max(worst, abs(acc - want))
    return float(worst)


def m_matrix(p, a):
    """M_p(a): a on the diagonal, 1 and a on the first and second
    super-diagonals, the dense reference for td.m_inverse."""
    m = np.zeros((p, p))
    idx = np.arange(p)
    m[idx, idx] = a
    if p >= 2:
        m[idx[:-1], idx[:-1] + 1] = 1.0
    if p >= 3:
        m[idx[:-2], idx[:-2] + 2] = a
    return m


class TestDetH:
    def test_order_one_is_always_one(self):
        for a in (0.0, -3.2, 17.5):
            assert td.det_h(1, a) == 1

    def test_vanishes_at_the_order3_critical_gain(self):
        assert abs(td.det_h(3, math.sqrt(2) / 2)) < 1e-15

    def test_order2_at_one_exactly_zero(self):
        assert td.det_h(2, Fraction(1)) == 0
        # one recursion step: u_2 = 1 - a^2
        assert td.det_h(2, Fraction(1, 3)) == 1 - Fraction(1, 9)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            td.det_h(-1, 0.5)

    def test_matches_dense_determinant(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            p = int(rng.integers(0, 41))
            a = float(rng.uniform(-2, 2))
            lhs = td.det_h(p, a)
            rhs = dense_det(p, a)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    @given(st.integers(min_value=0, max_value=25),
           st.floats(min_value=-2, max_value=2, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_recursion_invariant(self, p, a):
        u0, u1, u2 = td.det_h(p, a), td.det_h(p + 1, a), td.det_h(p + 2, a)
        assert abs(u2 - (u1 - a * a * u0)) <= 1e-9 * max(1.0, abs(u2))


class TestBetaPolynomial:
    def test_small_coefficients(self):
        assert ex.u_beta_coeffs(0) == (1,)
        assert ex.u_beta_coeffs(1) == (1,)
        assert ex.u_beta_coeffs(2) == (1, -1)
        assert ex.u_beta_coeffs(3) == (1, -2)
        assert ex.u_beta_coeffs(5) == (1, -4, 3)

    def test_evaluates_like_the_recursion(self):
        for p in range(0, 12):
            for a in (0.3, 1.1, -0.8):
                val = sum(c * (a * a) ** i for i, c in enumerate(ex.u_beta_coeffs(p)))
                assert abs(val - td.det_h(p, a)) < 1e-10


class TestCriticalRoots:
    def test_order2(self):
        rs = td.critical_roots(2)
        assert rs.alphas() == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert all(m == 1 for _, m in rs.roots)

    def test_order3_matches_the_known_drop_gain(self):
        rs = td.critical_roots(3)
        assert rs.alphas() == pytest.approx(
            [-math.sqrt(2) / 2, math.sqrt(2) / 2], abs=1e-12)

    def test_order4_has_four_simple_symmetric_roots(self):
        rs = td.critical_roots(4)
        assert len(rs.roots) == 4
        assert all(m == 1 for _, m in rs.roots)
        al = rs.alphas()
        assert al == pytest.approx([-a for a in reversed(al)], abs=1e-12)

    @pytest.mark.parametrize("p", range(2, 11))
    def test_against_eigenvalue_product_oracle(self, p):
        mine = td.critical_roots(p).alphas()
        oracle = eig_product_roots(p)
        assert len(mine) == len(oracle)
        assert max(abs(a - b) for a, b in zip(mine, oracle)) <= 1e-9

    def test_zero_is_never_a_root(self):
        for p in range(2, 12):
            assert all(abs(a) > 1e-6 for a in td.critical_roots(p).alphas())

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            td.critical_roots(1)

    def test_no_two_consecutive_orders_share_a_root(self):
        # exact integer-polynomial gcd in beta
        for p in range(2, 21):
            g = ex._pgcd(ex._beta_poly(p), ex._beta_poly(p + 1))
            assert len(g) == 1

    def test_zero_test_matches_the_sturm_gcd_oracle(self):
        for p in range(2, 17):
            for k in range(1, p // 2 + 1):
                ra = td.RootAlpha(p, k)
                for q in range(2, 31):
                    assert ra.is_root_of(q) == ex._shares_root(p, k, q), (p, k, q)

    def test_value_is_sqrt_of_the_rounded_oracle_beta(self):
        for p in range(2, 25):
            oracle = ex._beta_roots(p)
            assert len(oracle) == p // 2
            for k, (lo, hi, mult) in enumerate(oracle, start=1):
                ra = td.RootAlpha(p, k)
                assert mult == ra.multiplicity == 1
                want = math.sqrt(float((lo + hi) / 2))
                assert ra.value == want and td.RootAlpha(p, k, -1).value == -want, (p, k)

    @pytest.mark.parametrize("p", [40, 64, 100])
    def test_high_order_value_is_sqrt_of_the_rounded_beta_root(self, p):
        """Past the Sturm oracle's reach: among the floats b near value^2
        with sqrt(b) == value, exactly one has u_p of opposite exact signs at
        its two rounding midpoints, i.e. rounds a beta-root of u_p."""
        def u(beta):
            prev, cur = Fraction(1), Fraction(1)
            for _ in range(p - 1):
                prev, cur = cur, cur - beta * prev
            return cur

        for k in (1, p // 4, p // 2):
            value = td.RootAlpha(p, k).value
            b = value * value
            for _ in range(4):
                b = math.nextafter(b, 0)
            bracketing = 0
            for _ in range(9):
                if math.sqrt(b) == value:
                    lo = (Fraction(math.nextafter(b, 0)) + Fraction(b)) / 2
                    hi = (Fraction(b) + Fraction(math.nextafter(b, math.inf))) / 2
                    bracketing += (u(lo) > 0) != (u(hi) > 0)
                b = math.nextafter(b, math.inf)
            assert bracketing == 1, (p, k)

    @pytest.mark.parametrize("p, k", [(2, 0), (5, 0), (2, 2), (5, 3), (30, 16), (1, 1)])
    def test_root_index_out_of_range_is_rejected(self, p, k):
        with pytest.raises(ValueError):
            td.RootAlpha(p, k)

    def test_root_object_exact_membership(self):
        ra = td.RootAlpha(3, 1)
        assert ra.is_root_of(3)
        assert not ra.is_root_of(2)
        assert not ra.is_root_of(4)
        # the order-2 root alpha = 1 is also a root of order 5: u_5 = (1-b)(1-3b)
        r2 = td.RootAlpha(2, 1)
        assert r2.is_root_of(5)
        assert not r2.is_root_of(3)

    def test_root_token_round_trip(self):
        ra = td.RootAlpha(3, 1, -1)
        assert ra.token() == "-root:3:1"
        assert ra.value == pytest.approx(-math.sqrt(2) / 2, abs=1e-14)


def _steps(x, n):
    """The float n steps above x (below for n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else 0)
    return x


class TestFloatZeroTest:
    """A float gain is critical iff it snaps to within 4 float steps of a
    correctly rounded root, whatever the order p."""

    def test_order_independent_at_float_roots(self):
        for p in range(2, 61):
            for k in range(1, p // 2 + 1):
                a = float(td.RootAlpha(p, k))
                for q in range(2, 61):
                    want = (q + 1) * k % (p + 1) == 0
                    assert td.u_is_zero(q, a) == td.u_is_zero(q, -a) == want, (p, k, q)
        # far past the float recursion's reach: 100,004 = 4 * 25,001
        a = float(td.RootAlpha(3, 1))
        assert td.u_is_zero(100_003, a) and not td.u_is_zero(100_002, a)

    def test_no_decimal_is_a_zero_of_u60(self):
        # Niven: 1/(2cos(k pi/61)) is irrational, and 1.0 is not a root of u_60
        assert [i for i in range(501, 1000) if td.u_is_zero(60, i / 1000)] == []

    def test_four_step_window(self):
        for p in range(2, 61):
            for k in range(1, p // 2 + 1):
                r = td.RootAlpha(p, k).value
                if math.frexp(r)[0] == 0.5:
                    continue  # a power of two: the float spacing changes there
                for n in range(-8, 9):
                    assert td.u_is_zero(p, _steps(r, n)) == (abs(n) <= 4), (p, k, n)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.4999])
    def test_edge_inputs_are_never_critical(self, a):
        assert not any(td.u_is_zero(p, a) for p in range(0, 61))

    def test_agrees_with_the_sturm_gcd_oracle(self):
        for p in range(2, 41):
            for k, (lo, hi, _) in enumerate(ex._beta_roots(p), start=1):
                a = math.sqrt(float((lo + hi) / 2))
                for q in range(2, 41):
                    assert td.u_is_zero(q, a) == ex._shares_root(p, k, q), (p, k, q)

    def test_float_path_never_runs_the_recursion(self, monkeypatch):
        def fail(p, beta):
            raise AssertionError("float zero test ran the recursion")

        monkeypatch.setattr(td, "_u_recursion", fail)
        for a in (0.3, 0.7071067811865476, 1.0, -1.0, np.float64(0.618), 2.5, True):
            for p in (2, 3, 5, 40, 200):
                td.u_is_zero(p, a)
        assert td.u_is_zero(5, np.float64(1.0)) and td.u_is_zero(2, True)

    def test_root_rounding_matches_the_ulp_loop(self):
        new = td._root_magnitude.__wrapped__  # uncached
        for p in range(2, 201):
            for k in range(1, p // 2 + 1):
                assert new(p, k) == root_rounding_loop._root_magnitude(p, k), (p, k)
        assert new(5, 2) == 1.0


class TestRankDichotomy:
    def test_examples(self):
        assert td.rank_h(3, 0.3) == 3
        assert td.rank_h(3, math.sqrt(2) / 2) == 2
        assert td.rank_h(1, 123.0) == 1

    def test_cross_validated_against_numeric_rank(self):
        rng = np.random.default_rng(1)
        alphas = [float(a) for a in rng.uniform(-2, 2, 20)]
        alphas += [ra for p in range(2, 6) for ra in td.critical_roots(p).root_alphas]
        for a in alphas:
            for p in range(1, 9):
                dense = td.h_matrix(p, td.alpha_float(a))
                s = np.linalg.svd(dense, compute_uv=False)
                numeric = int(np.sum(s > 1e-8 * s[0]))
                assert td.rank_h(p, a) == numeric

    def test_rank_in_dichotomy(self):
        rng = np.random.default_rng(2)
        for a in rng.uniform(-2, 2, 50):
            for p in range(1, 12):
                assert td.rank_h(p, float(a)) in (p, p - 1)


class TestNeighborNonzero:
    def test_order2_at_one(self):
        vals = td.neighbor_nonzero_check(2, Fraction(1))
        assert vals == {1: 1, 3: -1, 4: -1}

    def test_order3_at_the_root(self):
        vals = td.neighbor_nonzero_check(3, td.RootAlpha(3, 1))
        assert set(vals) == {1, 2, 4, 5}
        assert vals[2] == pytest.approx(0.5, abs=1e-12)
        assert all(abs(v) > 1e-9 for v in vals.values())

    def test_every_root_has_nonzero_neighbors(self):
        for p in range(2, 8):
            for ra in td.critical_roots(p).root_alphas:
                vals = td.neighbor_nonzero_check(p, ra)
                assert all(abs(v) > 1e-9 for v in vals.values())

    def test_misuse_is_rejected(self):
        with pytest.raises(ValueError):
            td.neighbor_nonzero_check(3, 0.3)


class TestVSequence:
    def test_initial_conditions(self):
        vs = td.v_sequence(0, 0.5)
        assert vs[-1] == 0.0 and vs[0] == 1.0

    def test_alpha_one_values(self):
        vs = td.v_sequence(2, 1.0)
        assert vs[1] == -1.0 and vs[2] == 0.0

    def test_definitional_identity(self):
        for a in (0.3, -1.7, 0.9):
            assert definitional_residual(td.v_sequence(25, a)) <= 1e-9

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            td.v_sequence(4, 0.0)

    def test_row_identity_small(self):
        assert v_row_identity_residual(5, 3, 0.9) <= 1e-9
        assert v_row_identity_residual(2, 0, 1.0) <= 1e-12

    def test_row_identity_contract_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            p = int(rng.integers(2, 31))
            l = int(rng.integers(0, 31))
            a = float(rng.uniform(0.1, 2.0)) * (1 if rng.random() < 0.5 else -1)
            assert v_row_identity_residual(p, l, a) <= 1e-9


class TestBandedM:
    def test_two_by_two_closed_form(self):
        assert m_matrix(2, 2.0).tolist() == [[2.0, 1.0], [0.0, 2.0]]
        assert td.m_inverse(2, 2.0).tolist() == [[0.5, -0.25], [0.0, 0.5]]

    def test_band_pattern_transcription(self):
        assert m_matrix(3, 1.0).tolist() == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]

    def test_determinant_is_alpha_power(self):
        for p, a in ((4, 0.5), (3, -1.2), (6, 0.3)):
            d = float(np.linalg.det(m_matrix(p, a)))
            assert d == pytest.approx(a ** p, rel=1e-9)

    def test_product_is_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            p = int(rng.integers(1, 12))
            a = float(rng.uniform(0.1, 2.0)) * (1 if rng.random() < 0.5 else -1)
            assert np.max(np.abs(m_matrix(p, a) @ td.m_inverse(p, a) - np.eye(p))) < 1e-10

    def test_back_substitution_agrees_with_dense_inverse(self):
        for p, a in ((5, 0.7), (8, -0.4), (3, 1.9)):
            assert np.max(np.abs(td.m_inverse(p, a) - np.linalg.inv(m_matrix(p, a)))) < 1e-10

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            td.m_inverse(3, 0.0)

    def test_toeplitz_inverse_equals_column_back_substitution(self):
        # the column-by-column back substitution the closed recurrence replaced;
        # the values agree exactly (only zeros below the diagonal may differ in sign)
        def back_substitution(p, a):
            inv = np.zeros((p, p))
            for col in range(p):
                z = np.zeros(p)
                for r in range(p - 1, -1, -1):
                    acc = 1.0 if r == col else 0.0
                    if r + 1 < p:
                        acc -= 1.0 * z[r + 1]
                    if r + 2 < p:
                        acc -= a * z[r + 2]
                    z[r] = acc / a
                inv[:, col] = z
            return inv

        gains = [s * n / 20 for n in range(1, 41) for s in (1, -1)]
        gains += [r.value for q in range(2, 9) for r in td.critical_roots(q).root_alphas]
        for p in range(1, 20):
            for a in gains:
                assert np.array_equal(td.m_inverse(p, a), back_substitution(p, a)), (p, a)
