import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wynerdof import netmodel as nm
from wynerdof.tridiag import RootAlpha, h_matrix


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
    """The 3 x K band is the dense channel's three diagonals, zero-padded."""

    @pytest.mark.parametrize("topo", nm.TOPOLOGIES)
    def test_band_is_the_dense_diagonals(self, topo):
        for K, g in ((1, equal(2.0)), (2, equal(0.5)), (7, equal(RootAlpha(3, 1))),
                     (9, nm.sample_generic_gains(9, topo, 4)), (6, nm.CrossGainAssignment.random(1))):
            band = nm.channel_band(K, topo, g)
            H = nm.build_channel(nm.NetworkParams(K=K), topo, g).matrix
            want = np.zeros((3, K))
            for row, k in enumerate((0, -1, 1)):
                want[row, :K - abs(k)] = np.diagonal(H, k)
            assert band.tobytes() == want.tobytes()

    def test_the_band_is_the_only_stored_form(self):
        for K, topo in ((1, nm.ASYMMETRIC), (5, nm.SYMMETRIC), (20000, nm.SYMMETRIC)):
            m = nm.build_channel(nm.NetworkParams(K=K), topo, equal(0.3))
            assert m.band.shape == (3, K) and not m.band.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                m.band[0, 0] = 2.0
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
