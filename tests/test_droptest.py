import numpy as np
import pytest

import leafout as lf
from leafout.droptest import default_effective_width, kappa_pet_si

UNIT = "N*mm/rad/mm"
REST = np.radians(71.8)


def prototype_scenario(h_m=0.360, **kw):
    args = dict(m_ball=22.3e-3, R_ball=35e-3, h=h_m)
    args.update(kw)
    return lf.DropScenario(**args)


def prototype_barrier(geom, springs):
    """Snap-through barrier dE_g (J) of a landscape over the whole motion
    range, sampled: the reference the closed-form trigger map is checked
    against.  Raises if the landscape is not bistable."""
    curve = lf.landscape_over_psi(geom, springs, (-np.pi, np.pi))
    report = lf.characterize_bistability(curve)
    if report.stability_class != "bistable":
        raise ValueError(f"prototype landscape is {report.stability_class}; "
                         "no snap-through barrier")
    return report.delta_E_g, report


def ball_energy(geom, h_m):
    """E_ball of the prototype ball dropped from ``h_m``, from a one-cell
    trigger map."""
    return lf.trigger_map(geom, prototype_scenario(), (h_m, h_m), (REST, REST),
                          1, 1).E_ball[0]


def test_ball_energy_zero_height(geom5):
    assert ball_energy(geom5, 0.0) == 0.0


def test_ball_energy_hand_calculation(geom5):
    # 22.3 g from 360 mm: E = 0.0223 * 9.81 * 0.360 J
    e = ball_energy(geom5, 0.360)
    assert np.isclose(e, 0.0223 * 9.81 * 0.360, rtol=1e-12)
    assert np.isclose(e, 78.8e-3, atol=0.1e-3)


def test_ball_energy_linear_in_height(geom5):
    e1 = ball_energy(geom5, 0.2)
    e2 = ball_energy(geom5, 0.4)
    assert np.isclose(e2, 2 * e1, rtol=1e-12)


def test_negative_height_rejected():
    with pytest.raises(ValueError):
        prototype_scenario(h_m=-0.1)


def test_prototype_landscape_bistable(geom5):
    springs = lf.prototype_spring_model(geom5, prototype_scenario())
    # only boundary creases carry springs
    assert np.all(springs.kappa.reshape(5, 4)[:, :3] == 0.0)
    assert np.all(springs.kappa.reshape(5, 4)[:, 3] > 0.0)
    assert np.allclose(springs.rest_angle.reshape(5, 4)[:, 3],
                       -np.radians(71.8))
    d_g, report = prototype_barrier(geom5, springs)
    assert report.stability_class == "bistable"
    assert abs(np.degrees(report.psi_barrier)) < 0.25
    assert d_g > 0
    # both minima sit where the boundary crease reaches its rest angle
    assert report.E_open < 1e-9 * report.E_barrier
    assert report.E_closed < 1e-9 * report.E_barrier


def test_barrier_scales_with_effective_width(geom5):
    d1, _ = prototype_barrier(
        geom5, lf.prototype_spring_model(geom5, prototype_scenario(
            effective_width_mm=10.0)))
    d2, _ = prototype_barrier(
        geom5, lf.prototype_spring_model(geom5, prototype_scenario(
            effective_width_mm=20.0)))
    assert np.isclose(d2, 2 * d1, rtol=1e-9)


def test_barrier_value_closed_form(geom5):
    # with boundary-only springs and reachable rest angle, the barrier is
    # the flat-state energy: n/2 * kappa_b * rest^2
    scen = prototype_scenario()
    springs = lf.prototype_spring_model(geom5, scen)
    d_g, _ = prototype_barrier(geom5, springs)
    kb = kappa_pet_si(scen.kappa_pet, UNIT) * default_effective_width(geom5.L2)
    want = 2.5 * kb * np.radians(71.8) ** 2
    assert np.isclose(d_g, want, rtol=1e-9)


def test_default_effective_width_models():
    # comb of 11.5 mm teeth and 1 mm cuts along the 30 mm crease: two
    # complete teeth; a crease just short of a period has none
    assert default_effective_width(30.0) == 23.0
    assert default_effective_width(12.5) == 11.5
    assert default_effective_width(12.4) == 0.0


def test_overflowing_map_rejected(geom5):
    # a finite ball, hinge and height whose energies overflow
    for scen in (prototype_scenario(m_ball=1e305, g=1e10),
                 prototype_scenario(kappa_pet=1e-320)):
        with pytest.raises(ValueError, match="overflow"):
            lf.trigger_map(geom5, scen, (0.1, 0.5), (REST, REST), 2, 1)


def test_kappa_unit_readings():
    assert kappa_pet_si(0.76, "N*mm/rad/mm") == 0.76e-3
    assert kappa_pet_si(0.76, "N*m/rad/mm") == 0.76
    with pytest.raises(ValueError):
        kappa_pet_si(0.76, "furlongs")


def test_trigger_map_monotone_and_threshold(geom5):
    scen = prototype_scenario()
    tmap = lf.trigger_map(geom5, scen, (0.05, 0.8),
                          (np.radians(50), np.radians(95)), n_h=16, n_rest=7)
    for gaps, outcomes in zip(tmap.E_gap, tmap.outcomes):
        assert np.all(np.diff(gaps) > 0)          # monotone in h
        flips = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a != b)
        assert flips <= 1                          # one crossing along h
    # threshold curve is monotone in the rest angle (stiffer set point,
    # higher barrier)
    assert np.all(np.diff(tmap.threshold_heights) > 0)


def test_prototype_height_on_trigger_side(geom5):
    scen = prototype_scenario()
    springs = lf.prototype_spring_model(geom5, scen)
    d_g, _ = prototype_barrier(geom5, springs)
    assert ball_energy(geom5, scen.h) > d_g
    tmap = lf.trigger_map(geom5, scen, (0.36, 0.36),
                          (np.radians(71.8), np.radians(71.8)), n_h=1, n_rest=1)
    assert tmap.outcomes[0, 0] == "grasp"


def test_below_threshold_no_trigger(geom5):
    scen = prototype_scenario(h_m=0.10)
    tmap = lf.trigger_map(geom5, scen, (0.10, 0.10),
                          (np.radians(71.8), np.radians(71.8)), n_h=1, n_rest=1)
    assert tmap.outcomes[0, 0] == "no-trigger"


def test_large_height_still_reported_grasp(geom5):
    # retention failure at large impact energy has no energetic criterion;
    # the prediction stays "grasp" and retention is simply not asserted
    scen = prototype_scenario(h_m=5.0)
    tmap = lf.trigger_map(geom5, scen, (5.0, 5.0),
                          (np.radians(71.8), np.radians(71.8)), n_h=1, n_rest=1)
    assert tmap.outcomes[0, 0] == "grasp"


def test_scenario_validation():
    with pytest.raises(ValueError):
        prototype_scenario(m_ball=0.0)
    with pytest.raises(ValueError):
        prototype_scenario(kappa_pet_unit="bogus")
    # the rest fold magnitude is an angle in (0, pi]; NaN fails too
    assert prototype_scenario(rest_angle=np.pi).rest_angle == np.pi
    for rest in (0.0, np.radians(200.0), np.nan):
        with pytest.raises(ValueError, match="rest_angle"):
            prototype_scenario(rest_angle=rest)


def test_monostable_prototype_rejected(geom5):
    springs = lf.SpringModel.per_kind(geom5, 0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        prototype_barrier(geom5, springs)


def test_scenario_rejects_non_finite_values():
    for kw in ({"m_ball": np.nan}, {"g": np.inf}, {"kappa_pet": np.nan},
               {"h_m": np.nan}, {"effective_width_mm": np.nan},
               {"effective_width_mm": 0.0}):
        with pytest.raises(ValueError):
            prototype_scenario(**kw)


def test_trigger_map_needs_a_cell(geom5):
    scen = prototype_scenario()
    for n_h, n_rest, name in ((0, 3, "n_h"), (3, 0, "n_rest")):
        with pytest.raises(ValueError, match=rf"{name} must be an integer in \[1, inf\), got 0"):
            lf.trigger_map(geom5, scen, (0.1, 0.5), (np.radians(60), np.radians(80)),
                           n_h=n_h, n_rest=n_rest)


def test_batched_thresholds_equal_solo_barriers(geom5):
    scen = lf.DropScenario()
    assert (scen.m_ball, scen.R_ball, scen.h) == (22.3e-3, 35e-3, 0.360)
    tmap = lf.trigger_map(geom5, scen, (0.05, 0.8),
                          (np.radians(40), np.radians(100)), n_h=3, n_rest=7)
    kb = kappa_pet_si(scen.kappa_pet, UNIT) * default_effective_width(geom5.L2)
    for rest, d_g, h_star in zip(tmap.rest_angles, tmap.delta_E_g,
                                 tmap.threshold_heights):
        # the exact barrier (n/2) kappa_b rest^2 ...
        assert d_g == 0.5 * 5 * kb * rest ** 2
        assert h_star == d_g / (scen.m_ball * scen.g)
        # ... agrees with the sampled landscape of that rest angle alone
        springs = lf.prototype_spring_model(geom5, lf.DropScenario(rest_angle=rest))
        solo, _ = prototype_barrier(geom5, springs)
        assert abs(solo - d_g) <= 1e-12 * d_g


def test_trigger_map_names_first_non_bistable_rest(geom5):
    # the closed minimum psi = rest / 2 leaves the motion range past 108 deg
    with pytest.raises(ValueError, match="rest angle 110 deg is"):
        lf.trigger_map(geom5, prototype_scenario(), (0.1, 0.5),
                       (np.radians(40), np.radians(120)), n_h=2, n_rest=25)
    for rests in ((np.nan, np.radians(80)), (0.0, np.radians(80)),
                  (np.radians(40), np.inf), (np.radians(40), 4.0)):
        with pytest.raises(ValueError,
                           match=r"rest_angle_range\[[01]\] must be a number in \(0, 3.14159\]"):
            lf.trigger_map(geom5, prototype_scenario(), (0.1, 0.5), rests, 2, 25)


def test_bistable_band_is_exact(geom5):
    # 0 < rest < pi - 2 alpha = 108 deg at n_cell 5; the 0.5 deg grid
    # classifier used to reject (107.72, 108) deg
    scen = prototype_scenario()
    for deg in (107.8, 107.99):
        tmap = lf.trigger_map(geom5, scen, (0.1, 0.5),
                              (np.radians(40), np.radians(deg)), n_h=25, n_rest=5)
        assert tmap.rest_angles[-1] == np.radians(deg)
    for deg in (108.0, 110.0):
        # the last of five rests is the first outside the band
        with pytest.raises(ValueError, match=f"rest angle {deg:g} deg is"):
            lf.trigger_map(geom5, scen, (0.1, 0.5),
                           (np.radians(100), np.radians(deg)), n_h=25, n_rest=5)


def test_trigger_map_arrays_match_predictions(geom5):
    # every cell against the energy balance written out per cell
    scen = prototype_scenario()
    tmap = lf.trigger_map(geom5, scen, (0.05, 0.8),
                          (np.radians(50), np.radians(95)), n_h=4, n_rest=3)
    assert tmap.E_gap.shape == tmap.outcomes.shape == (3, 4)
    assert np.array_equal(tmap.E_ball, scen.m_ball * scen.g * tmap.heights)
    kap = kappa_pet_si(scen.kappa_pet, UNIT)
    for i, (rest, d_g) in enumerate(zip(tmap.rest_angles, tmap.delta_E_g)):
        for j, (h, e_ball) in enumerate(zip(tmap.heights, tmap.E_ball)):
            assert tmap.E_gap[i, j] == (e_ball - d_g) / kap
            assert tmap.outcomes[i, j] == ("grasp" if e_ball >= d_g else "no-trigger")
