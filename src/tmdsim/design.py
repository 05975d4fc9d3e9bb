"""Closed-form field-of-view and resolution calculators.

All the viewing angles reduce to the same construction: a limiting width
seen from an effective distance, theta = 2*atan(size / (2*distance)).
Inputs are millimeters; results are degrees at this boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InvalidGeometry
from .scene import HmdSpec

FOV_CLAMP_DEG = 179.9

LIMIT_WINDOW = "tmd_window"
LIMIT_DEVICE = "device_fov"
LIMIT_APERTURE = "lens_aperture"


@dataclass(frozen=True)
class LayoutParams:
    """Geometry knobs shared by the three architectures.

    l1: screen size; l2: lens aperture (math.inf = unconstrained);
    l3: plate window size; a/d: eye-to-combiner and combiner-to-screen
    distances; d2/d4: plate-to-lens and plate-to-eye distances; a_mag:
    curved-combiner magnification; theta_device: native device FOV, degrees.
    """

    l1: float = 60.0
    l2: float = math.inf
    l3: float = 120.0
    a: float = 30.0
    d: float = 30.0
    d2: float = 40.0
    d4: float = 40.0
    a_mag: float = 1.5
    theta_device: float = 110.0


def subtended_angle_deg(size: float, distance: float) -> float:
    """Full angle of a width seen from a distance: 2*atan(size/(2*distance))."""
    if distance <= 0:
        raise InvalidGeometry("viewing distance must be positive")
    if size < 0:
        raise InvalidGeometry("size cannot be negative")
    return math.degrees(2.0 * math.atan(size / (2.0 * distance)))


def fov_half_mirror(l1: float, a: float, d: float) -> float:
    """View angle of an l1 screen folded by a flat combiner: the unfolded
    eye-to-screen distance is a + d."""
    if a + d <= 0:
        raise InvalidGeometry("half-mirror path length a + d must be positive")
    return subtended_angle_deg(l1, a + d)


def fov_convex_mirror(theta1_deg: float, a_mag: float):
    """Curved combiner stretches the flat-combiner view by its magnification.

    Returns (degrees, clamped); the result saturates at 179.9 degrees.
    """
    if a_mag <= 0:
        raise InvalidGeometry("combiner magnification must be positive")
    if theta1_deg < 0:
        raise InvalidGeometry("base view angle cannot be negative")
    theta = theta1_deg * a_mag
    if theta > FOV_CLAMP_DEG:
        return FOV_CLAMP_DEG, True
    return theta, False


def fov_ame(params: LayoutParams):
    """View angle of the air-mounted eyepiece and which aperture sets it.

    The plate window caps the view at 2*atan(l3/(2*d2)), the lens aperture
    at 2*atan(l2/(2*d4)), and the device itself at theta_device.  Returns
    (degrees, limiting_factor); ties go to the device, then the window.
    """
    if params.l2 <= 0 or params.l3 <= 0 or params.d2 <= 0 or params.d4 <= 0:
        raise InvalidGeometry("air-mounted eyepiece needs l2, l3, d2, d4 > 0")
    if not 0 < params.theta_device < 180:
        raise InvalidGeometry("device FOV must lie in (0, 180) degrees")
    window = subtended_angle_deg(params.l3, params.d2)
    if math.isinf(params.l2):
        eyepiece = 180.0
    else:
        eyepiece = subtended_angle_deg(params.l2, params.d4)
    candidates = ((params.theta_device, LIMIT_DEVICE),
                  (window, LIMIT_WINDOW),
                  (eyepiece, LIMIT_APERTURE))
    return min(candidates, key=lambda c: c[0])


def resolution_estimate(hmd: HmdSpec, fov_deg: float, pitch: float, d4: float):
    """Effective pixels across the view and the angular pixel size.

    The device contributes its per-eye horizontal pixel count; a nonzero
    plate pitch contributes the number of p-cells across the window that
    subtends `fov_deg` at the eye (2*d4*tan(fov/2)/p).  Returns
    (effective_px, arcmin_per_px).
    """
    if not 0 < fov_deg < 180:
        raise InvalidGeometry("view angle must lie in (0, 180) degrees")
    if pitch < 0 or d4 <= 0:
        raise InvalidGeometry("need pitch >= 0 and d4 > 0")
    device_px = float(hmd.per_eye_resolution[0])
    if pitch > 0:
        window = 2.0 * d4 * math.tan(0.5 * math.radians(fov_deg))
        effective = min(device_px, window / pitch)
    else:
        effective = device_px
    return effective, fov_deg * 60.0 / effective


@dataclass(frozen=True)
class DesignReport:
    """Side-by-side view angles for the three architectures plus the
    resolution estimate for the air-mounted eyepiece."""

    hmd: HmdSpec
    params: LayoutParams
    pitch: float
    half_mirror_fov_deg: float
    convex_mirror_fov_deg: float
    convex_clamped: bool
    ame_fov_deg: float
    ame_limiting_factor: str
    effective_px: float
    arcmin_per_px: float

    def lines(self):
        """Stable key,value rows (also the CLI stdout format)."""
        return [
            ("hmd", self.hmd.name),
            ("device_fov_deg", f"{self.hmd.fov_deg:.6f}"),
            ("half_mirror_fov_deg", f"{self.half_mirror_fov_deg:.6f}"),
            ("convex_mirror_fov_deg", f"{self.convex_mirror_fov_deg:.6f}"),
            ("convex_clamped", "true" if self.convex_clamped else "false"),
            ("ame_fov_deg", f"{self.ame_fov_deg:.6f}"),
            ("ame_limiting_factor", self.ame_limiting_factor),
            ("effective_px", f"{self.effective_px:.9g}"),
            ("arcmin_per_px", f"{self.arcmin_per_px:.9g}"),
        ]

    def to_csv(self) -> str:
        """One row per architecture."""
        rows = ["architecture,fov_deg,limiting_factor,effective_px,arcmin_per_px"]
        rows.append(f"half_mirror,{self.half_mirror_fov_deg:.9g},,,")
        rows.append(f"convex_mirror,{self.convex_mirror_fov_deg:.9g},"
                    f"{'clamped' if self.convex_clamped else ''},,")
        rows.append(f"ame,{self.ame_fov_deg:.9g},{self.ame_limiting_factor},"
                    f"{self.effective_px:.9g},{self.arcmin_per_px:.9g}")
        return "\n".join(rows) + "\n"


def design_report(hmd: HmdSpec, params: LayoutParams,
                  pitch: float = 0.0) -> DesignReport:
    """Evaluate all three architectures for one device.

    The device's own FOV replaces params.theta_device so the comparison is
    internally consistent.
    """
    theta1 = fov_half_mirror(params.l1, params.a, params.d)
    theta2, clamped = fov_convex_mirror(theta1, params.a_mag)
    ame_params = replace(params, theta_device=hmd.fov_deg)
    ame_deg, limiting = fov_ame(ame_params)
    effective, arcmin = resolution_estimate(hmd, ame_deg, pitch, params.d4)
    return DesignReport(hmd, ame_params, pitch, theta1, theta2, clamped,
                        ame_deg, limiting, effective, arcmin)
