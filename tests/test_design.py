import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdsim.design import (FOV_CLAMP_DEG, LIMIT_APERTURE, LIMIT_DEVICE,
                           LIMIT_WINDOW, LayoutParams, design_report, fov_ame,
                           fov_convex_mirror, fov_half_mirror,
                           resolution_estimate, subtended_angle_deg)
from tmdsim.errors import InvalidGeometry
from tmdsim.scene import HMD_PRESETS, HmdSpec

lengths = st.floats(1.0, 500.0, allow_nan=False)


class TestSubtended:
    def test_square_oracle(self):
        # width equal to twice the distance subtends 2*atan(1) = 90 degrees
        assert subtended_angle_deg(200.0, 100.0) == pytest.approx(90.0, abs=1e-12)

    def test_frozen_values(self):
        assert subtended_angle_deg(60.0, 60.0) == pytest.approx(53.13010235415598)
        assert subtended_angle_deg(120.0, 40.0) == pytest.approx(112.61986494804043)

    def test_independent_vector_oracle(self):
        # angle between the two edge sightlines, computed via atan2 of the
        # half-width triangle, must agree
        size, dist = 37.0, 91.0
        half = math.atan2(0.5 * size, dist)
        assert subtended_angle_deg(size, dist) == pytest.approx(
            math.degrees(2 * half), abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidGeometry):
            subtended_angle_deg(10.0, 0.0)
        with pytest.raises(InvalidGeometry):
            subtended_angle_deg(-1.0, 10.0)

    @given(lengths, lengths)
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_monotonicity(self, size, dist):
        angle = subtended_angle_deg(size, dist)
        assert 0 < angle < 180
        assert subtended_angle_deg(size * 2, dist) > angle
        assert subtended_angle_deg(size, dist * 2) < angle


class TestHalfMirrorFov:
    def test_unfolded_distance(self):
        # combiner folds the path: screen appears at distance a + d
        assert fov_half_mirror(60.0, 30.0, 30.0) == pytest.approx(53.13010235415598)
        assert fov_half_mirror(40.0, 20.0, 20.0) == pytest.approx(53.13010235415598)

    def test_wide_case(self):
        assert fov_half_mirror(240.0, 30.0, 30.0) == pytest.approx(
            2 * math.degrees(math.atan(2.0)))


class TestConvexFov:
    def test_scales_base_angle(self):
        base = 53.13010235415598
        out, clamped = fov_convex_mirror(base, 1.5)
        assert not clamped
        assert out == pytest.approx(79.69515353123397)

    def test_unit_magnification_identity(self):
        out, clamped = fov_convex_mirror(48.0, 1.0)
        assert out == 48.0 and not clamped

    def test_clamped(self):
        out, clamped = fov_convex_mirror(120.0, 1.6)
        assert clamped and out == FOV_CLAMP_DEG


class TestAmeFov:
    def params(self, **kw):
        base = dict(l1=60.0, l2=math.inf, l3=120.0, a=30.0, d=30.0,
                    d2=40.0, d4=40.0, a_mag=1.5, theta_device=179.0)
        base.update(kw)
        return LayoutParams(**base)

    def test_window_limited(self):
        deg, limit = fov_ame(self.params())
        assert deg == pytest.approx(112.61986494804043)
        assert limit == LIMIT_WINDOW

    def test_device_limited(self):
        deg, limit = fov_ame(self.params(theta_device=110.0))
        assert deg == 110.0
        assert limit == LIMIT_DEVICE

    def test_aperture_limited(self):
        deg, limit = fov_ame(self.params(l2=40.0))
        assert deg == pytest.approx(53.13010235415598)
        assert limit == LIMIT_APERTURE

    def test_unbounded_aperture_never_binds(self):
        deg, limit = fov_ame(self.params(l2=math.inf, l3=1e9))
        assert limit == LIMIT_DEVICE

    def test_tie_prefers_device_then_window(self):
        # all three equal: device wins the tie
        deg, limit = fov_ame(self.params(l2=120.0, d2=40.0,
                                         theta_device=112.61986494804043))
        assert limit == LIMIT_DEVICE
        # window vs aperture tie: window wins
        deg, limit = fov_ame(self.params(l2=120.0, d2=40.0))
        assert deg == pytest.approx(112.61986494804043)
        assert limit == LIMIT_WINDOW

    @given(lengths, lengths, lengths, lengths,
           st.floats(1.05, 20.0, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_scale_invariance(self, l3, d4, l2, d2, k):
        p = self.params(l3=l3, d4=d4, l2=l2, d2=d2)
        deg, limit = fov_ame(p)
        deg_k, limit_k = fov_ame(LayoutParams(
            p.l1 * k, p.l2 * k, p.l3 * k, p.a * k, p.d * k, p.d2 * k,
            p.d4 * k, p.a_mag, p.theta_device))
        assert deg_k == pytest.approx(deg, abs=1e-9)
        assert limit_k == limit

    def test_monotone_in_window(self):
        degs = [fov_ame(self.params(l3=l3))[0] for l3 in (40, 80, 120, 200)]
        assert degs == sorted(degs)
        assert len(set(degs)) == len(degs)


class TestResolution:
    DK2 = HMD_PRESETS["dk2"]

    def test_device_pixel_floor(self):
        px, arcmin = resolution_estimate(self.DK2, 110.0, 0.0, 40.0)
        assert px == 960.0
        assert arcmin == pytest.approx(6.875)

    def test_pitch_limited(self):
        px, arcmin = resolution_estimate(self.DK2, 110.0, 0.5, 40.0)
        assert px == pytest.approx(228.5036810787383)
        assert arcmin == pytest.approx(28.88356095115053)

    def test_fine_pitch_defers_to_device(self):
        px, _ = resolution_estimate(self.DK2, 110.0, 0.01, 40.0)
        assert px == 960.0

    def test_independent_cell_count_oracle(self):
        # cells across the window: window width over pitch, window width
        # from the subtense triangle
        fov, pitch, d4 = 100.0, 0.3, 55.0
        window = 2.0 * d4 * math.tan(math.radians(fov / 2.0))
        px, arcmin = resolution_estimate(self.DK2, fov, pitch, d4)
        assert px == pytest.approx(window / pitch)
        assert arcmin == pytest.approx(fov * 60.0 / (window / pitch))

    def test_coarser_pitch_fewer_pixels(self):
        prev = math.inf
        for pitch in (0.1, 0.3, 0.5, 1.0):
            px, _ = resolution_estimate(self.DK2, 110.0, pitch, 40.0)
            assert px < prev
            prev = px

    def test_validation(self):
        with pytest.raises(InvalidGeometry):
            resolution_estimate(self.DK2, 0.0, 0.5, 40.0)
        with pytest.raises(InvalidGeometry):
            resolution_estimate(self.DK2, 110.0, -0.1, 40.0)


class TestReport:
    def test_dk2_defaults(self):
        report = design_report(HMD_PRESETS["dk2"], LayoutParams())
        lines = dict(report.lines())
        assert lines["hmd"] == "dk2"
        assert lines["half_mirror_fov_deg"] == "53.130102"
        assert lines["convex_mirror_fov_deg"] == "79.695154"
        assert lines["ame_fov_deg"] == "110.000000"
        assert lines["ame_limiting_factor"] == "device_fov"
        assert lines["effective_px"] == "960"
        assert lines["arcmin_per_px"] == "6.875"

    def test_cardboard(self):
        report = design_report(HMD_PRESETS["cardboard"], LayoutParams())
        lines = dict(report.lines())
        assert lines["ame_fov_deg"] == "90.000000"
        assert lines["effective_px"] == "640"
        # 90 degrees over 640 px
        assert float(lines["arcmin_per_px"]) == pytest.approx(90 * 60 / 640)

    def test_device_fov_overrides_theta(self):
        params = LayoutParams(theta_device=5.0)
        report = design_report(HMD_PRESETS["dk2"], params)
        assert report.ame_fov_deg == 110.0

    def test_csv_shape(self):
        report = design_report(HMD_PRESETS["dk2"], LayoutParams(), pitch=0.5)
        rows = report.to_csv().strip().splitlines()
        assert rows[0].startswith("architecture,")
        assert len(rows) == 4
        assert rows[3].startswith("ame,")

    def test_custom_hmd(self):
        hmd = HmdSpec("lab", 60.0, (800, 600), (400, 600))
        report = design_report(hmd, LayoutParams())
        assert report.ame_fov_deg == pytest.approx(60.0)
        assert report.effective_px == 400.0
