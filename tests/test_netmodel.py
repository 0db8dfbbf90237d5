import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wynerdof import netmodel as nm
from wynerdof.tridiag import RootAlpha, alpha_float, h_matrix


def equal(a):
    return nm.CrossGainAssignment.equal(a)


class TestBuildChannel:
    def test_asym_two_pairs(self):
        m = nm.build_channel(nm.NetworkParams(K=2), nm.ASYMMETRIC, equal(0.5))
        assert m.matrix.tolist() == [[1.0, 0.0], [0.5, 1.0]]

    def test_sym_three_pairs(self):
        a = 0.37
        m = nm.build_channel(nm.NetworkParams(K=3), nm.SYMMETRIC, equal(a))
        assert m.matrix.tolist() == [[1, a, 0], [a, 1, a], [0, a, 1]]

    def test_single_pair(self):
        for topo in (nm.ASYMMETRIC, nm.SYMMETRIC):
            m = nm.build_channel(nm.NetworkParams(K=1), topo, equal(2.0))
            assert m.matrix.tolist() == [[1.0]]

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError, match="nonzero cross-gain"):
            nm.build_channel(nm.NetworkParams(K=3), nm.SYMMETRIC, equal(0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gain_rejected(self, bad):
        for make in (lambda: equal(bad), lambda: nm.parse_alpha_token(bad),
                     lambda: nm.parse_alpha_token(repr(bad)),
                     lambda: nm.CrossGainAssignment.explicit([0.5, bad]),
                     lambda: nm.CrossGainAssignment.explicit([0.5, 0.5], [bad, 0.5])):
            with pytest.raises(ValueError, match="cross-gain must be finite"):
                make()

    def test_dimension_mismatch_rejected(self):
        g = nm.CrossGainAssignment.explicit([0.5, 0.5], [0.4, 0.4])
        with pytest.raises(ValueError):
            nm.build_channel(nm.NetworkParams(K=4), nm.SYMMETRIC, g)

    def test_asym_is_unit_lower_triangular(self):
        rng = np.random.default_rng(0)
        for K in (1, 3, 9, 20):
            g = nm.sample_generic_gains(K, nm.ASYMMETRIC, int(rng.integers(1000)))
            m = nm.build_channel(nm.NetworkParams(K=K), nm.ASYMMETRIC, g)
            assert np.allclose(np.triu(m.matrix, 1), 0)
            assert float(np.linalg.det(m.matrix)) == pytest.approx(1.0, rel=1e-9)
            assert np.linalg.matrix_rank(m.matrix) == K

    def test_equal_gain_symmetric_matches_h(self):
        for K, a in ((4, 0.8), (7, -1.3)):
            m = nm.build_channel(nm.NetworkParams(K=K), nm.SYMMETRIC, equal(a))
            assert np.allclose(m.matrix, h_matrix(K, a))

    def test_root_alpha_accepted(self):
        ra = RootAlpha(3, 1)
        m = nm.build_channel(nm.NetworkParams(K=3), nm.SYMMETRIC, equal(ra))
        assert m.matrix[0, 1] == pytest.approx(math.sqrt(2) / 2, abs=1e-14)


class TestChannelBand:
    """The band's three K-tuples are the dense channel's three diagonals,
    zero-padded."""

    @pytest.mark.parametrize("topo", nm.TOPOLOGIES)
    def test_band_is_the_dense_diagonals(self, topo):
        for K, g in ((1, equal(2.0)), (2, equal(0.5)), (7, equal(RootAlpha(3, 1))),
                     (9, nm.sample_generic_gains(9, topo, 4)), (6, nm.CrossGainAssignment.random(1))):
            band = nm.channel_band(K, topo, g)
            H = nm.build_channel(nm.NetworkParams(K=K), topo, g).matrix
            want = np.zeros((3, K))
            for row, k in enumerate((0, -1, 1)):
                want[row, :K - abs(k)] = np.diagonal(H, k)
            assert np.array(band).tobytes() == want.tobytes()

    def test_the_band_is_the_only_stored_form(self):
        for K, topo in ((1, nm.ASYMMETRIC), (5, nm.SYMMETRIC), (20000, nm.SYMMETRIC)):
            m = nm.build_channel(nm.NetworkParams(K=K), topo, equal(0.3))
            assert type(m.band) is tuple and [len(d) for d in m.band] == [K] * 3
            assert all(type(d) is tuple for d in m.band)
            with pytest.raises(TypeError):
                m.band[0][0] = 2.0
            assert "matrix" not in vars(m)

    def test_the_dense_view_is_built_once(self):
        m = nm.build_channel(nm.NetworkParams(K=6), nm.SYMMETRIC, equal(0.3))
        assert m.matrix is m.matrix and not m.matrix.flags.writeable

    @pytest.mark.parametrize("K, topo, g, message", [
        (3, "ring", equal(0.5), "unknown topology 'ring'"),
        (3, nm.SYMMETRIC, nm.CrossGainAssignment(kind="equal", alpha=0.0),
         "nonzero cross-gain required"),
        (4, nm.SYMMETRIC, nm.CrossGainAssignment.explicit([0.5, 0.5], [0.4, 0.4]),
         "expected 3 sub-diagonal gains, got 2"),
        (3, nm.SYMMETRIC, nm.CrossGainAssignment.explicit([0.5, 0.5]),
         "symmetric topology needs super-diagonal gains"),
    ])
    def test_band_rejects_what_the_channel_rejects(self, K, topo, g, message):
        for build in (lambda: nm.channel_band(K, topo, g),
                      lambda: nm.build_channel(nm.NetworkParams(K=K), topo, g)):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message


def old_dense(K, topo, g):
    """The dense channel as the 3 x K float array band built it before the
    band became tuples: np.full / _generic_draws / the explicit tuples
    written into rows 1 and 2, then those rows written off the diagonal of
    np.eye(K)."""
    if g.kind == "equal":
        sub = sup = np.full(K - 1, alpha_float(g.alpha))
    elif g.kind == "random":
        sub, sup = nm._generic_draws(K, topo, g.seed)
    else:
        sub, sup = g.sub, g.sup
    band = np.zeros((3, K))
    band[0] = 1.0
    band[1, :K - 1] = sub
    if topo == nm.SYMMETRIC:
        band[2, :K - 1] = sup
    h = np.eye(K)
    idx = np.arange(K - 1)
    h[idx + 1, idx] = band[1, :K - 1]
    h[idx, idx + 1] = band[2, :K - 1]
    return h


class TestNothingNumericMoves:
    """The tuple band gives the dense matrix, the blocks and the entries the
    float array band gave, bit for bit."""

    GAINS = {
        "decimal": lambda K: equal(0.37),
        "root": lambda K: equal(RootAlpha(3, 1)),
        "explicit": lambda K: nm.CrossGainAssignment.explicit(
            [0.5 + k / 97 for k in range(K - 1)], [-0.7 - k / 89 for k in range(K - 1)]),
        "random": lambda K: nm.CrossGainAssignment.random(K),
    }

    @pytest.mark.parametrize("kind", GAINS)
    @pytest.mark.parametrize("topo", nm.TOPOLOGIES)
    @pytest.mark.parametrize("K", [1, 2, 7, 60])
    def test_matrix_blocks_and_entries(self, K, topo, kind):
        g = self.GAINS[kind](K)
        m = nm.build_channel(nm.NetworkParams(K=K), topo, g)
        want = old_dense(K, topo, g)
        assert m.matrix.dtype == want.dtype and m.matrix.tobytes() == want.tobytes()
        rng = np.random.default_rng(K)
        blocks = [(range(o, o + n), range(o, o + n)) for n in (1, 2, 5) for o in range(1, K - n + 2)]
        blocks += [(rng.integers(1, K + 1, size=rng.integers(0, 7)).tolist(),
                    rng.integers(1, K + 1, size=rng.integers(0, 7)).tolist()) for _ in range(50)]
        for rx, tx in blocks:
            got = nm.submatrix(m, rx, tx)
            block = want[np.ix_(np.array(rx, dtype=int) - 1, np.array(tx, dtype=int) - 1)]
            assert got.shape == block.shape and got.tobytes() == block.tobytes(), (rx, tx)
        for a, t in product(range(1, K + 1), repeat=2):
            h = m.entry(a, t)
            assert type(h) is float and np.float64(h).tobytes() == want[a - 1, t - 1].tobytes()

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("K", [2, 7, 60])
    def test_a_zero_gain_is_still_rejected(self, K, zero):
        rest = (0.5,) * (K - 2)
        cases = [(topo, nm.CrossGainAssignment(kind="equal", alpha=zero)) for topo in nm.TOPOLOGIES]
        cases += [(topo, nm.CrossGainAssignment(kind="explicit", sub=rest + (zero,), sup=rest + (0.5,)))
                  for topo in nm.TOPOLOGIES]
        cases.append((nm.SYMMETRIC, nm.CrossGainAssignment(kind="explicit", sub=rest + (0.5,),
                                                           sup=(zero,) + rest)))
        for topo, g in cases:
            with pytest.raises(ValueError, match="^nonzero cross-gain required$"):
                nm.build_channel(nm.NetworkParams(K=K), topo, g)
        # the asymmetric channel has no super-diagonal, so its gains are unread
        g = nm.CrossGainAssignment(kind="explicit", sub=(0.5,) * (K - 1), sup=(zero,) * (K - 1))
        m = nm.build_channel(nm.NetworkParams(K=K), nm.ASYMMETRIC, g)
        assert m.matrix.tobytes() == old_dense(K, nm.ASYMMETRIC, g).tobytes()


class TestEntry:
    MODELS = [(K, topo, g) for topo in nm.TOPOLOGIES
              for K, g in ((1, equal(2.0)), (4, equal(RootAlpha(3, 1))),
                           (9, nm.CrossGainAssignment.random(5)))]

    @pytest.mark.parametrize("K, topo, g", MODELS)
    def test_entry_is_the_dense_entry(self, K, topo, g):
        m = nm.build_channel(nm.NetworkParams(K=K), topo, g)
        H = m.matrix
        for a in range(1, K + 1):
            for t in range(1, K + 1):
                assert np.float64(m.entry(a, t)).tobytes() == H[a - 1, t - 1].tobytes()

    @pytest.mark.parametrize("a, t, bad", [(0, 1, 0), (1, 0, 0), (4, 2, 4), (2, 4, 4),
                                           (-1, 3, -1), (0, 4, 0)])
    def test_an_index_outside_the_channel_raises_like_submatrix(self, a, t, bad):
        m = nm.build_channel(nm.NetworkParams(K=3), nm.SYMMETRIC, equal(0.5))
        for read in (lambda: m.entry(a, t), lambda: nm.submatrix(m, [a], [t])):
            with pytest.raises(ValueError) as exc:
                read()
            assert str(exc.value) == f"index {bad} outside 1..3"


class TestSubmatrix:
    def setup_method(self):
        self.sym = nm.build_channel(nm.NetworkParams(K=3), nm.SYMMETRIC, equal(0.9))
        self.asym = nm.build_channel(nm.NetworkParams(K=3), nm.ASYMMETRIC, equal(0.9))

    def test_leading_principal(self):
        assert nm.submatrix(self.sym, [1, 2], [1, 2]).tolist() == [[1, 0.9], [0.9, 1]]

    def test_shifted_block(self):
        assert nm.submatrix(self.asym, [2, 3], [1, 2]).tolist() == [[0.9, 1], [0, 0.9]]

    def test_empty_selection(self):
        assert nm.submatrix(self.sym, [], [1, 2]).shape == (0, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            nm.submatrix(self.sym, [4], [1])

    @pytest.mark.parametrize("topo", nm.TOPOLOGIES)
    def test_equals_the_dense_slice(self, topo):
        rng = np.random.default_rng(3)
        m = nm.build_channel(nm.NetworkParams(K=12), topo, nm.CrossGainAssignment.random(2))
        for _ in range(200):
            rx = rng.integers(1, 13, size=rng.integers(1, 7)).tolist()
            tx = rng.integers(1, 13, size=rng.integers(1, 7)).tolist()
            want = m.matrix[np.ix_(np.array(rx) - 1, np.array(tx) - 1)]
            assert nm.submatrix(m, rx, tx).tobytes() == want.tobytes()

    def test_contiguous_principal_equals_h(self):
        m = nm.build_channel(nm.NetworkParams(K=8), nm.SYMMETRIC, equal(0.6))
        for start, size in ((1, 3), (4, 4), (2, 5)):
            idx = list(range(start, start + size))
            assert np.allclose(nm.submatrix(m, idx, idx), h_matrix(size, 0.6))


class TestSampler:
    def test_deterministic(self):
        assert nm.sample_generic_gains(5, nm.SYMMETRIC, 7) == \
            nm.sample_generic_gains(5, nm.SYMMETRIC, 7)

    def test_support(self):
        g = nm.sample_generic_gains(100, nm.ASYMMETRIC, 1)
        assert all(0.1 <= abs(x) <= 2.0 for x in g.sub)

    def test_single_pair_has_no_gains(self):
        g = nm.sample_generic_gains(1, nm.SYMMETRIC, 0)
        assert g.sub == () and g.sup == ()

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=999))
    @settings(max_examples=25, deadline=None)
    def test_all_draws_nonzero(self, K, seed):
        g = nm.sample_generic_gains(K, nm.SYMMETRIC, seed)
        assert all(abs(x) >= 0.1 for x in g.sub + g.sup)

    def test_draws_are_the_sampled_gains(self):
        # the arrays the rank trials write into their bands: bit for bit the
        # uniform magnitudes and rng.choice signs, sub before sup, that
        # sample_generic_gains wraps
        for seed, K, topo in product(range(200), (1, 2, 13, 60), nm.TOPOLOGIES):
            rng = np.random.default_rng(seed)
            want = [rng.uniform(0.1, 2.0, size=K - 1) * rng.choice((-1.0, 1.0), size=K - 1)
                    for _ in range(1 if topo == nm.ASYMMETRIC else 2)]
            sub, sup = nm._generic_draws(K, topo, seed)
            got = [sub] if sup is None else [sub, sup]
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], (seed, K, topo)
            g = nm.sample_generic_gains(K, topo, seed)
            assert (g.sub, g.sup) == (tuple(sub), None if sup is None else tuple(sup))

    def test_signs_are_the_draw_rng_choice_makes(self):
        # indexing (-1, 1) by integers(0, 2) is what rng.choice does inside:
        # the same signs, bit for bit, and the generator left in the same state
        for seed, n in product(range(200), (0, 1, 5, 59)):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = nm._draw_nonzero(got_rng, n)
            want = want_rng.uniform(0.1, 2.0, size=n) * want_rng.choice((-1.0, 1.0), size=n)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (seed, n)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, (seed, n)


class TestJson:
    def test_round_trip(self):
        p = nm.NetworkParams(K=4, t_left=1, t_right=2, r_left=0, r_right=1)
        m = nm.build_channel(p, nm.SYMMETRIC, equal(0.7))
        again = nm.build_channel(*nm.instance_from_json(json.dumps(nm.instance_to_json(m))))
        assert again.params == p
        assert np.allclose(again.matrix, m.matrix)

    def test_root_token(self):
        m = nm.build_channel(nm.NetworkParams(K=3), nm.SYMMETRIC, equal(RootAlpha(3, 1)))
        blob = nm.instance_to_json(m)
        assert blob["gains"]["alpha"] == "root:3:1"
        params, topology, gains = nm.instance_from_json(blob)
        assert (params, topology) == (m.params, m.topology)
        assert isinstance(gains.alpha, RootAlpha)

    def test_a_bool_is_not_a_gain(self):
        for flag in (True, False):
            with pytest.raises(ValueError, match=f"^cross-gain must be a number or root "
                                                 f"token, got {flag}$"):
                nm.parse_alpha_token(flag)
        blob = {"K": 3, "topology": "symmetric", "gains": {"kind": "equal", "alpha": True}}
        with pytest.raises(ValueError, match="got True"):
            nm.instance_from_json(json.dumps(blob))

    def test_random_kind_round_trip(self):
        m = nm.build_channel(nm.NetworkParams(K=5), nm.SYMMETRIC,
                             nm.CrossGainAssignment.random(11))
        again = nm.build_channel(*nm.instance_from_json(nm.instance_to_json(m)))
        assert np.allclose(again.matrix, m.matrix)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            nm.NetworkParams(K=0)
        with pytest.raises(ValueError):
            nm.NetworkParams(K=2, t_left=-1)

    def test_windows_clip(self):
        p = nm.NetworkParams(K=5, t_left=2, t_right=1, r_left=1, r_right=2)
        assert list(p.tx_window(1)) == [1, 2]
        assert list(p.rx_window(5)) == [4, 5]

    def test_mirror(self):
        p = nm.NetworkParams(K=5, t_left=2, t_right=1, r_left=0, r_right=3)
        q = p.mirrored()
        assert (q.t_left, q.t_right, q.r_left, q.r_right) == (1, 2, 3, 0)
