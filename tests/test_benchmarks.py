import numpy as np
import pytest

from conftest import make_scenario
from xlma.benchmarks import BENCHMARK_KINDS, fpa_layout, hotspot_type, round_half_away
from xlma.errors import ConfigurationError
from xlma.scenario import CoverageSpec, candidate_multi_index
from oracles import element_positions, min_element_spacing


def paper_1d_scenario(m_h=8, n=8):
    return make_scenario(n_y=101, n_z=1, y_half=50.5, k_x=2, k_y=2,
                         m_h=m_h, m_v=1, n_subarrays=n, rho=[0.5] * 4)


def paper_2d_scenario():
    sc = make_scenario(n_y=101, n_z=1, y_half=50.5, k_x=2, k_y=2,
                       m_h=4, m_v=4, n_subarrays=8, rho=[0.5] * 4)
    # Rebuild with a 30-row 2D region, same spacing as the paper geometry.
    from xlma.scenario import MaRegionSpec, ScenarioConfig

    ma = MaRegionSpec(y_min=-50.5, y_max=50.5, z_min=20.0, z_max=50.0,
                      n_y=101, n_z=30)
    return ScenarioConfig(
        carrier_freq=sc.carrier_freq, m_h=4, m_v=4, d_h=sc.d_h, d_v=sc.d_v,
        n_subarrays=8, tx_power_mw=sc.tx_power_mw, noise_power_mw=sc.noise_power_mw,
        rician_kappa=sc.rician_kappa, rng_seed=sc.rng_seed, ma_region=ma,
        coverage=sc.coverage, rho=sc.rho,
    )


class TestRounding:
    def test_half_away_from_zero(self):
        np.testing.assert_array_equal(round_half_away([0.5, 1.5, 2.5, -0.5, -1.5]),
                                      [1, 2, 3, -1, -2])
        np.testing.assert_array_equal(round_half_away([1.4, 1.6]), [1, 2])


class TestSparseLayouts:
    def test_horizontal_sparse_frozen_indices(self):
        # N_y = 101, N = 8: 1-based (1, 15, 30, 44, 58, 72, 87, 101).
        sc = paper_1d_scenario()
        layout = fpa_layout("horizontal_sparse", sc)
        cands = sc.candidates()
        expected = [0, 14, 29, 43, 57, 71, 86, 100]
        got = [int(np.argmin(np.linalg.norm(cands - c, axis=1))) for c in layout.centers]
        assert got == expected

    def test_horizontal_sparse_symmetric(self):
        sc = paper_1d_scenario()
        layout = fpa_layout("horizontal_sparse", sc)
        ys = layout.centers[:, 1]
        np.testing.assert_allclose(ys + ys[::-1], 0.0, atol=sc.ma_region.dy)

    def test_horizontal_sparse_needs_two(self):
        with pytest.raises(ConfigurationError):
            fpa_layout("horizontal_sparse", paper_1d_scenario(n=1))

    def test_vertical_sparse_rows(self):
        sc = paper_2d_scenario()
        layout = fpa_layout("vertical_sparse", sc)
        cands = sc.candidates()
        idx = [int(np.argmin(np.linalg.norm(cands - c, axis=1))) for c in layout.centers]
        cols_rows = [candidate_multi_index(i, 101) for i in idx]
        assert all(col == 50 for col, _row in cols_rows)  # center column
        rows = [r for _c, r in cols_rows]
        assert rows == sorted(rows) and len(set(rows)) == 8
        assert rows[0] == 0 and rows[-1] == 29

    def test_vertical_sparse_needs_enough_rows(self):
        sc = paper_1d_scenario()  # n_z = 1
        with pytest.raises(ConfigurationError):
            fpa_layout("vertical_sparse", sc)

    def test_sparse_2x4_paper_grid(self):
        sc = paper_2d_scenario()
        layout = fpa_layout("sparse_2x4", sc)
        cands = sc.candidates()
        idx = [int(np.argmin(np.linalg.norm(cands - c, axis=1))) for c in layout.centers]
        cols_rows = [candidate_multi_index(i, 101) for i in idx]
        assert [c for c, _r in cols_rows] == [0, 33, 67, 100, 0, 33, 67, 100]
        assert [r for _c, r in cols_rows] == [0, 0, 0, 0, 29, 29, 29, 29]

    def test_sparse_2x4_needs_n8_and_2d(self):
        with pytest.raises(ConfigurationError):
            fpa_layout("sparse_2x4", paper_1d_scenario(n=4))
        with pytest.raises(ConfigurationError):
            fpa_layout("sparse_2x4", paper_1d_scenario(n=8))  # n_z = 1


class TestDenseLayouts:
    def test_dense_ula_span_and_center(self):
        sc = paper_1d_scenario(m_h=8, n=8)
        layout = fpa_layout("dense_ula", sc)
        assert len(layout.centers) == 1
        assert layout.m_h == 64 and layout.m_v == 1
        pos = element_positions(layout)
        span = pos[:, 1].max() - pos[:, 1].min()
        assert span == pytest.approx(63 * sc.wavelength / 2, rel=1e-12)
        assert span == pytest.approx(0.3148, abs=5e-4)  # 63 * lambda/2 at 30 GHz
        center_idx = (sc.ma_region.n_candidates + 1) // 2 - 1
        np.testing.assert_allclose(layout.centers[0], sc.candidates()[center_idx])

    def test_dense_upa_element_grid(self):
        sc = paper_2d_scenario()
        layout = fpa_layout("dense_upa", sc)
        assert len(layout.centers) == 1
        assert layout.m_h == 16 and layout.m_v == 8  # 4*M_H x 2*M_V
        assert layout.n_antennas == 8 * sc.antennas_per_subarray

    def test_dense_counts_equal_nm(self):
        sc = paper_2d_scenario()
        for kind in ("dense_ula", "dense_upa"):
            layout = fpa_layout(kind, sc)
            total = len(layout.centers) * layout.n_antennas
            assert total == sc.n_subarrays * sc.antennas_per_subarray


class TestLayoutInvariants:
    def test_no_overlapping_elements(self):
        sc = paper_2d_scenario()
        spacing_floor = min(sc.d_h, sc.d_v) - 1e-9
        for kind in BENCHMARK_KINDS:
            layout = fpa_layout(kind, sc)
            assert min_element_spacing(layout) >= spacing_floor

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            fpa_layout("mystery", paper_1d_scenario())


PAPER_COV = CoverageSpec(x_min=7.5, x_max=52.5, y_min=-52.5, y_max=52.5,
                         z_min=0.0, z_max=50.0, k_x=9, k_y=21, k_z=10)


class TestHotspotTypes:
    def test_type1_frozen_y_slots(self):
        idx = hotspot_type(1, PAPER_COV)
        assert len(idx) == 12
        ky = sorted({(i // 9) % 21 + 1 for i in idx})  # 1-based y slots
        assert ky == [1, 3, 5, 6, 8, 10, 12, 14, 16, 17, 19, 21]
        assert all(i % 9 == 0 for i in idx)  # k_x = 1
        assert all(i < 9 * 21 for i in idx)  # k_z = 1

    def test_type2_two_columns(self):
        idx = hotspot_type(2, PAPER_COV)
        assert len(idx) == 12
        ky = sorted({(i // 9) % 21 + 1 for i in idx})
        assert ky == [7, 15]  # ceil(21/2) -+ 4
        kz = sorted({i // (9 * 21) + 1 for i in idx})
        assert kz == [1, 3, 5, 6, 8, 10]

    def test_type3_frozen_cells(self):
        idx = hotspot_type(3, PAPER_COV)
        assert len(idx) == 12
        kx = {i % 9 + 1 for i in idx}
        assert kx == {2}
        kz = sorted({i // (9 * 21) + 1 for i in idx})
        assert kz == [8, 10]  # K_z - 2 and K_z
        ky = sorted({(i // 9) % 21 + 1 for i in idx})
        assert ky == [2, 3, 4, 18, 19, 20]

    def test_out_of_range_rejected(self):
        small = CoverageSpec(x_min=1, x_max=2, y_min=-1, y_max=1,
                             z_min=0, z_max=1, k_x=1, k_y=21, k_z=10)
        with pytest.raises(ConfigurationError):
            hotspot_type(3, small)  # needs k_x >= 2

    def test_bad_type_id(self):
        with pytest.raises(ConfigurationError):
            hotspot_type(4, PAPER_COV)
