"""Drop-impact trigger prediction for the physical prototype.

The prototype folds only at its boundary creases (the PET comb layer);
main and sub creases are left to a pliable nylon film and carry no
spring.  A falling ball triggers the snap-through when its potential
energy exceeds the barrier of the bistable landscape; the decision map
compares E_ball = m g h with the barrier over drop height and rest angle.
Since rho_B = -2|psi| on the uniform path, the landscape is exactly
E = (n/2) kappa_b (rest - 2|psi|)^2: bistable iff its closed minimum
psi = rest/2 lies inside the motion range, 0 < rest < pi - 2 alpha, with
the barrier at the flat state, dE_g = (n/2) kappa_b rest^2.  The map is
held as arrays, E_ball per height, dE_g per rest angle and E_gap per
cell.

Internally everything is SI (J, m, kg, rad).  The torsion constant per
unit crease width is accepted in either of two unit readings; a value
quoted around 1 N*m/rad/mm would be wildly stiff for a 0.25 mm film, so
that spelling is treated as a misprint of N*mm/rad/mm:

  "N*mm/rad/mm": 1e-3 J/rad^2 per mm of width   (default, physical)
  "N*m/rad/mm":  1.0  J/rad^2 per mm of width

The conversion of the per-width constant to a per-crease stiffness uses
an effective PET width.  The comb has 1 mm cuts between 11.5 mm teeth;
by default only complete teeth along the crease count as spring
material, and the width can be overridden directly.

``kinematics._read`` reads the arguments: masses, lengths, g and kappa
finite and positive, heights finite and at least 0, rest angles in
(0, pi] and map counts integers of at least 1.
"""
from dataclasses import dataclass, field

import numpy as np

from .energy import SpringModel
from .kinematics import _HUGE, _TINY, _count, _read

G_DEFAULT = 9.81                 # m/s^2
KAPPA_PET_DEFAULT = 0.76         # PET hinge constant per mm of crease width
KAPPA_PET_UNIT_DEFAULT = "N*mm/rad/mm"
COMB_CUT_MM = 1.0
COMB_GAP_MM = 11.5

_UNIT_TO_SI = {
    "N*mm/rad/mm": 1e-3,         # -> J/rad^2 per mm width
    "N*m/rad/mm": 1.0,
}


def kappa_pet_si(kappa_pet, unit):
    """Per-width constant in J/rad^2 per mm of crease width."""
    if unit not in _UNIT_TO_SI:
        raise ValueError(f"unknown kappa unit {unit!r}; expected one of "
                         f"{sorted(_UNIT_TO_SI)}")
    return float(kappa_pet) * _UNIT_TO_SI[unit]


def default_effective_width(crease_length_mm):
    """Effective PET width of one boundary crease, in mm: its complete comb
    teeth only, each COMB_GAP_MM wide between COMB_CUT_MM cuts."""
    teeth = np.floor(crease_length_mm / (COMB_GAP_MM + COMB_CUT_MM))
    return float(teeth) * COMB_GAP_MM


@dataclass
class DropScenario:
    """Ball drop onto the prototype; heights measured plate-to-ball-bottom.
    The defaults are the prototype experiment."""
    m_ball: float = 22.3e-3            # kg
    R_ball: float = 35e-3              # m (geometry bookkeeping only)
    h: float = 0.360                   # m
    g: float = G_DEFAULT
    kappa_pet: float = KAPPA_PET_DEFAULT
    kappa_pet_unit: str = KAPPA_PET_UNIT_DEFAULT
    effective_width_mm: float | None = None   # per boundary crease
    rest_angle: float = np.radians(71.8)      # magnitude of the PET rest fold

    def __post_init__(self):
        for name, lo, hi in (("m_ball", _TINY, _HUGE), ("R_ball", _TINY, _HUGE),
                             ("h", 0.0, _HUGE), ("g", _TINY, _HUGE),
                             ("kappa_pet", _TINY, _HUGE), ("rest_angle", _TINY, np.pi)):
            _read(name, getattr(self, name), lo, hi)
        if self.effective_width_mm is not None:
            _read("effective_width_mm", self.effective_width_mm, _TINY, _HUGE)
        kappa_pet_si(self.kappa_pet, self.kappa_pet_unit)   # validate unit


def _pet_width(geom, scenario):
    """The scenario's effective PET width, or that of the comb along L2."""
    width = scenario.effective_width_mm
    return default_effective_width(geom.L2) if width is None else width


def prototype_spring_model(geom, scenario):
    """Boundary-only spring model of the prototype.

    kappa_M = kappa_S = 0; each boundary crease gets the per-width PET
    constant times its effective width; the boundary rest angle is the
    mountain fold -rest_angle.
    """
    kappa_b = (kappa_pet_si(scenario.kappa_pet, scenario.kappa_pet_unit)
               * _pet_width(geom, scenario))
    return SpringModel.per_kind(geom, 0.0, 0.0, kappa_b,
                                rest_main=0.0, rest_sub=0.0,
                                rest_boundary=-abs(scenario.rest_angle))


@dataclass
class TriggerMap:
    """Arrays over drop height (n_h,) and rest angle (n_rest,): ``E_ball``
    (n_h,), ``delta_E_g`` and the E_gap = 0 contour ``threshold_heights``
    (n_rest,), and ``E_gap`` (n_rest, n_h)."""
    heights: np.ndarray            # m
    rest_angles: np.ndarray        # rad
    E_ball: np.ndarray             # J
    delta_E_g: np.ndarray          # J
    E_gap: np.ndarray              # J / (J/rad^2 per mm)
    threshold_heights: np.ndarray  # m
    observations: list = field(default_factory=list)

    @property
    def outcomes(self):
        """(n_rest, n_h) strings, "no-trigger" where E_gap < 0."""
        return _outcome_strings(self.E_gap)


def _outcome_strings(e_gap):
    """Outcome strings of E_gap values: "no-trigger" where E_gap < 0, else
    "grasp"."""
    return np.where(e_gap < 0, "no-trigger", "grasp")


def trigger_map(geom, scenario, h_range, rest_angle_range, n_h, n_rest,
                observations=None):
    """Decision map of E_gap = (E_ball - dE_g) / kappa_pet over (h, rest).

    E_gap is normalized by the per-width kappa, which leaves the sign
    decision unchanged and keeps map values comparable across widths.
    Retention failure at large impact energy is an empirical effect with
    no criterion in the energy model, so predictions above threshold are
    reported as "grasp" with retention not asserted.  Optional
    experimental observations (h, outcome in {cross, circle, triangle})
    are carried through for overlay plotting.  Raises ValueError naming
    the argument for heights that are not two finite numbers >= 0, rest
    angles that are not two in (0, pi] or a count that is not an integer
    of at least 1, and ValueError when a rest angle lies outside the
    bistable band, when the boundary creases get no PET width (and so no
    barrier) or when a map value overflows.
    """
    hs = _read("h_range", h_range, 0.0, _HUGE, shape=(2,))
    rs = _read("rest_angle_range", rest_angle_range, _TINY, np.pi, shape=(2,))
    heights = np.linspace(hs[0], hs[1], _count("n_h", n_h, 1))
    rests = np.linspace(rs[0], rs[1], _count("n_rest", n_rest, 1))
    limit = np.pi - 2 * geom.alpha
    bad = np.flatnonzero(~(rests < limit))
    if bad.size:
        raise ValueError(f"prototype landscape at rest angle "
                         f"{np.degrees(rests[bad[0]]):.6g} deg is not bistable "
                         f"(needs rest < {np.degrees(limit):.6g} deg); no "
                         "snap-through barrier")
    kappa_b = prototype_spring_model(geom, scenario).kappa[3]
    if not kappa_b > 0.0:
        raise ValueError(f"prototype boundary creases carry no PET: effective width "
                         f"{_pet_width(geom, scenario):.6g} mm, set by effective_width_mm "
                         f"or, without it, by the complete {COMB_GAP_MM + COMB_CUT_MM:g} mm "
                         f"comb teeth along L2 = {geom.L2:.6g} mm; no snap-through barrier")
    kap_si = kappa_pet_si(scenario.kappa_pet, scenario.kappa_pet_unit)
    with np.errstate(all="ignore"):         # checked below
        d_g = 0.5 * geom.n_cell * kappa_b * rests ** 2
        e_ball = scenario.m_ball * scenario.g * heights
        e_gap = (e_ball[None, :] - d_g[:, None]) / kap_si
        h_star = d_g / (scenario.m_ball * scenario.g)
    if not all(np.isfinite(a).all() for a in (d_g, e_ball, e_gap, h_star)):
        raise ValueError("drop-test energies overflow: the ball, hinge and "
                         "height values are too far apart")
    return TriggerMap(heights=heights, rest_angles=rests, E_ball=e_ball,
                      delta_E_g=d_g, E_gap=e_gap, threshold_heights=h_star,
                      observations=list(observations or []))
