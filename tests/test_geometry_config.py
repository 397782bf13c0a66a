import json
import math

import numpy as np
import pytest

import prolate as P
from prolate.errors import ParameterError
from prolate.forward import ContrastField
from prolate.geometry_config import (ProblemSetup, default_c_full, effective_kernel_scale,
                                     read_setup, setup_from_dict, synthesize_setup,
                                     validate_setup)


def disk_contrast(radius, value=1.0):
    return ContrastField.from_shapes([{"type": "disk", "center": (0.0, 0.0),
                                       "radius": radius, "value": value}], resolution=32)


class TestValidateSetup:
    def test_contained_with_margin(self):
        setup = ProblemSetup(contrast=disk_contrast(0.4), regime="full", k=1.0, c_param=1.0)
        report = validate_setup(setup)
        assert report.ok
        assert report.margin == pytest.approx(0.1, abs=1e-9)
        assert report.violations == []

    def test_violation_detected(self):
        setup = ProblemSetup(contrast=disk_contrast(0.6), regime="full", k=1.0, c_param=1.0)
        report = validate_setup(setup)
        assert not report.ok
        assert report.margin == pytest.approx(-0.1, abs=1e-9)
        assert len(report.violations) >= 1000

    def test_aperture_hole_causes_violation(self):
        # for a quarter aperture the data domain has no neighborhood of the
        # origin, so a centered contrast always pokes out along the axis
        setup = ProblemSetup(contrast=disk_contrast(0.3), regime="limited", k=1.0,
                             c_param=10.0, theta=math.pi / 4)
        report = validate_setup(setup)
        assert not report.ok
        assert report.margin < 0.0
        worst = min(report.violations, key=lambda p: abs(p[1]))
        assert abs(worst[1]) < 0.1  # offending points cluster near the x axis


class TestSynthesizeSetup:
    @pytest.mark.parametrize("regime,extra", [("full", {}), ("limited", {"theta": 2.0}),
                                              ("multifreq", {"x_star": (0.6, 0.8)})])
    def test_born_data_of_the_setup(self, regime, extra):
        shapes = [{"type": "disk", "center": (0.3, 0.4), "radius": 0.2, "value": 1.0}]
        setup = ProblemSetup(contrast=ContrastField.from_shapes(shapes, resolution=24),
                             regime=regime, k=1.5, c_param=6.0, **extra)
        rule = P.build_quadrature(setup.domain, 24, method="polar")
        data = synthesize_setup(setup, rule)
        want = P.synthesize_born(setup.contrast, effective_kernel_scale(setup), rule)
        assert np.array_equal(data.values, want.values) and data.meta == want.meta
        assert data.geometry == setup.domain

    def test_refuses_uncontained_support(self):
        setup = ProblemSetup(contrast=disk_contrast(0.6), regime="full", k=1.0, c_param=1.0)
        with pytest.raises(ParameterError, match="not contained in the data domain"):
            synthesize_setup(setup, P.disk_polar_rule(setup.h, 8, 8))


class TestKernelScale:
    def test_full(self):
        s = ProblemSetup(contrast=disk_contrast(0.2), regime="full", k=1.0, c_param=2.0)
        assert effective_kernel_scale(s) == pytest.approx(2.0)

    def test_limited(self):
        s = ProblemSetup(contrast=disk_contrast(0.2), regime="limited", k=2.0,
                         c_param=1.0, theta=2.0)
        assert effective_kernel_scale(s) == pytest.approx(4.0)

    def test_multifreq(self):
        s = ProblemSetup(contrast=disk_contrast(0.2), regime="multifreq", k=3.0,
                         c_param=9.0, x_star=(1.0, 0.0))
        assert effective_kernel_scale(s) == pytest.approx(1.0)

    def test_scale_times_h_squared_is_bandwidth(self):
        for s in (
            ProblemSetup(contrast=disk_contrast(0.2), regime="full", k=1.7, c_param=5.0),
            ProblemSetup(contrast=disk_contrast(0.2), regime="limited", k=2.0,
                         c_param=3.0, theta=1.0),
            ProblemSetup(contrast=disk_contrast(0.2), regime="multifreq", k=3.0,
                         c_param=4.0, x_star=(0.0, 1.0)),
        ):
            assert effective_kernel_scale(s) * s.h**2 == pytest.approx(s.c_param, rel=1e-14)


class TestSetupIO:
    def test_full_round_trip_with_default_c(self, tmp_path):
        cfg = {"regime": "full", "k": 2.0,
               "contrast": {"shapes": [{"type": "disk", "center": [0.0, 0.0],
                                        "radius": 0.5, "value": 1.0}]}}
        path = tmp_path / "setup.json"
        path.write_text(json.dumps(cfg))
        setup = read_setup(path)
        assert setup.c_param == pytest.approx(default_c_full(setup.contrast, 2.0))
        assert setup.c_param == pytest.approx(2.0 * 2.0 * 1.1 * 0.5)

    def test_limited_requires_explicit_c(self):
        cfg = {"regime": "limited", "k": 1.0, "theta": 1.0,
               "contrast": {"shapes": [{"type": "disk", "radius": 0.2, "value": 1.0}]}}
        with pytest.raises(ParameterError):
            setup_from_dict(cfg)

    def test_multifreq_setup(self):
        cfg = {"regime": "multifreq", "K": 3.0, "c_param": 9.0, "x_star": [0.0, 1.0],
               "contrast": {"shapes": [{"type": "disk", "radius": 0.2, "value": 1.0}]}}
        setup = setup_from_dict(cfg)
        geo = setup.domain
        assert geo.kind == "multi_freq"
        assert geo.h == pytest.approx(3.0)

    def test_domain_built_once_per_regime(self):
        q = disk_contrast(0.2)
        full = ProblemSetup(contrast=q, regime="full", k=2.0, c_param=6.0)
        assert full.domain == P.Geometry.disk(h=1.5) and full.h == 1.5
        lim = ProblemSetup(contrast=q, regime="limited", k=2.0, c_param=6.0, theta=2.0)
        assert lim.domain == P.Geometry.limited_aperture(2.0, h=3.0)
        mf = ProblemSetup(contrast=q, regime="multifreq", k=2.0, c_param=6.0, x_star=(0.0, 1.0))
        assert mf.domain == P.Geometry.multi_freq((0.0, 1.0), h=3.0)

    @pytest.mark.parametrize("theta", [math.pi, 0.0, None, math.nan])
    def test_limited_theta_below_pi(self, theta):
        with pytest.raises(ParameterError, match="theta"):
            ProblemSetup(contrast=disk_contrast(0.2), regime="limited", k=1.0, c_param=1.0,
                         theta=theta)

    @pytest.mark.parametrize("x_star", [None, (0.6, 0.7), (1.0,)])
    def test_multifreq_x_star_unit_pair(self, x_star):
        with pytest.raises(ParameterError, match="x_star"):
            ProblemSetup(contrast=disk_contrast(0.2), regime="multifreq", k=1.0, c_param=1.0,
                         x_star=x_star)

    def test_invalid_regime_rejected(self):
        with pytest.raises(ParameterError):
            setup_from_dict({"regime": "nearfield", "k": 1.0,
                             "contrast": {"shapes": [{"type": "disk", "radius": 0.1,
                                                      "value": 1.0}]}})

    def test_theta_range_enforced(self):
        with pytest.raises(ParameterError):
            ProblemSetup(contrast=disk_contrast(0.1), regime="limited", k=1.0,
                         c_param=1.0, theta=math.pi)

    def test_grid_contrast_boundary_sampling(self):
        vals = np.zeros((6, 6))
        vals[2:4, 2:4] = 1.0
        contrast = ContrastField.from_grid((-0.3, -0.3), 0.1, 0.1, vals)
        setup = ProblemSetup(contrast=contrast, regime="full", k=1.0, c_param=1.0)
        report = validate_setup(setup)
        assert report.ok  # occupied cells live within radius ~0.15 of the origin
