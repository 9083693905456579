"""Fusing variation maps with the floorplan: per-core model parameters.

A :class:`Core` is the central physical object of the library: it holds,
for each of the 15 subsystems, the manufacturer-measurable constants of
Section 4.1 (``Rth``, ``Kdyn``, ``Ksta``, ``Vt0``) plus the
variation-afflicted timing parameters the VATS error model needs.  All
values are stored as numpy arrays in canonical subsystem order so the
optimisation algorithms can operate fully vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from ..backend import get_backend
from ..calibration import DEFAULT_CALIBRATION, Calibration
from ..circuits.delay import DEFAULT_DELAY_PARAMS, DelayParams, gate_delay
from ..circuits.knobs import DEFAULT_VT_SENSITIVITIES, VtSensitivities, threshold_voltage
from ..circuits.leakage import IDEALITY_FACTOR, static_power
from ..units import Q_OVER_K
from ..variation.maps import ChipSample
from .floorplan import Floorplan, default_floorplan

#: Quadrant origins of the 4 cores on the unit die (4-core CMP).
CORE_QUADRANTS = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5))


def lane_field(per_subsystem: bool = True, **kwargs):
    """A dataclass field that rides the lane axis of a :class:`LaneArrays`.

    A per-subsystem field is ``(n,)`` in a single view and ``(B, n)`` in a
    stack of ``B`` lanes; any other lane field is one scalar per lane
    (``()`` or ``(B,)``).  Fields declared without it are the context
    every lane of a stack shares.
    """
    kind = "subsystem" if per_subsystem else "scalar"
    return field(metadata={"lane": kind}, repr=False, **kwargs)


def lane_dataclass(cls):
    """``dataclass(cls)``, with its lane and context field names read
    once from the field declarations (see :func:`lane_field`)."""
    cls = dataclass(cls)

    def names(keep) -> Tuple[str, ...]:
        return tuple(f.name for f in fields(cls) if keep(f.metadata.get("lane")))

    cls.lane_fields = names(lambda kind: kind is not None)
    cls.subsystem_fields = names(lambda kind: kind == "subsystem")
    cls.scalar_fields = names(lambda kind: kind == "scalar")
    cls.context_fields = names(lambda kind: kind is None)
    return cls


def cores_stackable(cores: Sequence["LaneArrays"]) -> bool:
    """Whether ``cores`` (or any carriers of one :class:`LaneArrays`
    class) may share one lane stack.

    Lanes must share every context field — for a :class:`Core` the
    floorplan, calibration, delay and Vt-sensitivity parameters and
    ``vt_mean`` — as one object or an equal value; only the lane fields
    differ.  The NoVar core, whose calibration disables the random tail,
    therefore never stacks with variation cores.
    """
    first = cores[0]
    distinct = {id(core): core for core in cores}.values()
    return all(
        getattr(core, name) is getattr(first, name)
        or getattr(core, name) == getattr(first, name)
        for core in distinct
        for name in first.context_fields
    )


class LaneArrays:
    """Struct-of-arrays physics over subsystems, with an optional lane axis.

    The one lane machinery of :class:`Core` and the optimiser's
    ``SubsystemArrays``: a view holds one core's (or phase's) fields, and
    :meth:`stack` stacks views of many along a leading lane axis, so one
    array program evaluates a whole population.  Every physical relation
    is elementwise per subsystem, so lane ``i`` of any result is
    bit-identical to evaluating view ``i`` alone.  Subclasses are
    declared with :func:`lane_dataclass`.
    """

    lane_fields: ClassVar[Tuple[str, ...]] = ()
    subsystem_fields: ClassVar[Tuple[str, ...]] = ()
    scalar_fields: ClassVar[Tuple[str, ...]] = ()
    context_fields: ClassVar[Tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        shape = np.shape(self.vt0_timing)
        if len(shape) not in (1, 2):
            raise ValueError(
                f"lane arrays must be (n,) or (batch, n), got shape {shape}"
            )
        for names, want in (
            (self.subsystem_fields, shape), (self.scalar_fields, shape[:-1])
        ):
            for name in names:
                if np.shape(getattr(self, name)) != want:
                    raise ValueError(f"{name} must have shape {want}")

    @property
    def n_subsystems(self) -> int:
        """Subsystems (or samples) along the trailing axis."""
        return self.vt0_timing.shape[-1]

    @property
    def is_batched(self) -> bool:
        """True when a leading lane axis is present."""
        return self.vt0_timing.ndim == 2

    @property
    def batch_size(self) -> int:
        """Number of lanes (1 for an unbatched view)."""
        return self.vt0_timing.shape[0] if self.is_batched else 1

    @classmethod
    def stack(cls, members: Sequence["LaneArrays"]):
        """Stack unbatched views into one ``(B, n)`` lane batch.

        All members must share their context (:func:`cores_stackable`).
        """
        if not members:
            raise ValueError("need at least one member to stack")
        if any(member.is_batched for member in members):
            raise ValueError("can only stack unbatched (n,) views")
        if not cores_stackable(members):
            raise ValueError(
                "stacked lanes must share " + ", ".join(cls.context_fields)
            )
        return members[0]._with_lanes({
            name: np.stack([getattr(member, name) for member in members])
            for name in cls.lane_fields
        })

    def lanes(self):
        """A ``(B, n)`` view of self (B=1 when unbatched)."""
        if self.is_batched:
            return self
        return self._with_lanes({
            name: np.expand_dims(getattr(self, name), 0)
            for name in self.lane_fields
        })

    def lane_subset(self, index):
        """The batched view restricted to the lanes ``index`` selects (an
        index array, a boolean mask, or a slice for a contiguous block);
        the subset keeps its lane axis."""
        if not self.is_batched:
            raise ValueError("lane_subset requires a batched view")
        return self._with_lanes(
            {name: getattr(self, name)[index] for name in self.lane_fields}
        )

    def _with_lanes(self, arrays: dict):
        """A carrier of self's context with the given lane fields."""
        view = type(self)(
            **{name: getattr(self, name) for name in self.context_fields},
            **arrays,
        )
        # Same context, same nominal delay: masked loops subset as lanes
        # retire, so pass it on rather than recompute it (~15 us).
        if "nominal_gate_delay" in self.__dict__:
            view.nominal_gate_delay = self.nominal_gate_delay
        return view

    @cached_property
    def nominal_gate_delay(self) -> float:
        """Gate delay of the no-variation design at nominal supply and the
        design temperature: the 1.0 of :meth:`delay_factor`."""
        calib = self.calib
        vt_design = threshold_voltage(
            self.vt_mean, calib.t_design, calib.vdd_nominal, 0.0, self.vt_sens
        )
        return float(gate_delay(
            calib.vdd_nominal, vt_design, 1.0, calib.t_design, self.delay_params
        ))

    def delay_factor(self, vdd, vbb, temp):
        """Per-subsystem gate-delay factor relative to the nominal design.

        1.0 means "as fast as the no-variation design at its design
        temperature"; larger is slower.  ``vdd``/``vbb``/``temp``
        broadcast against the lane fields.
        """
        vt = threshold_voltage(self.vt0_timing, temp, vdd, vbb, self.vt_sens)
        delay = gate_delay(vdd, vt, self.leff_timing, temp, self.delay_params)
        return delay / self.nominal_gate_delay


@lane_dataclass
class Core(LaneArrays):
    """One core of the CMP with all per-subsystem model parameters.

    Build instances with :func:`build_core` (or :func:`build_chip_cores`);
    the constructor only stores pre-computed arrays.  A core's lane fields
    are ``(n,)`` arrays in canonical subsystem order (scalars for the
    chip/core ids and the L2 constants); :meth:`Core.stack
    <LaneArrays.stack>` turns a population into one ``(B, n)`` core, on
    which every method below evaluates all lanes at once.
    """

    floorplan: Floorplan
    calib: Calibration
    delay_params: DelayParams
    vt_sens: VtSensitivities
    chip_id: int = lane_field(per_subsystem=False)
    core_index: int = lane_field(per_subsystem=False)
    vt0_timing: np.ndarray = lane_field()
    leff_timing: np.ndarray = lane_field()
    vt0_leak: np.ndarray = lane_field()
    rth: np.ndarray = lane_field()
    kdyn: np.ndarray = lane_field()
    ksta: np.ndarray = lane_field()
    stage_mean_rel: np.ndarray = lane_field()
    stage_sigma_rel: np.ndarray = lane_field()
    tail_rel: np.ndarray = lane_field()
    alpha_ref: np.ndarray = lane_field()
    rho_ref: np.ndarray = lane_field()
    l2_kdyn: float = lane_field(per_subsystem=False, default=0.0)
    l2_ksta: float = lane_field(per_subsystem=False, default=0.0)
    #: Process-nominal Vt mean the design is referenced to.
    vt_mean: float = 0.150

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.vt0_timing.shape[-1] != len(self.floorplan):
            raise ValueError(
                f"lane arrays must have {len(self.floorplan)} subsystems, "
                f"got shape {self.vt0_timing.shape}"
            )

    # ------------------------------------------------------------------
    # Convenience views.
    # ------------------------------------------------------------------
    @property
    def names(self) -> List[str]:
        """Subsystem names in canonical order."""
        return self.floorplan.names

    @property
    def kinds(self) -> List[str]:
        """Subsystem kinds (memory/mixed/logic) in canonical order."""
        return [spec.kind for spec in self.floorplan.subsystems]

    # ------------------------------------------------------------------
    # Physical models, vectorised over subsystems (and lanes).
    # ------------------------------------------------------------------
    def effective_vt(self, vdd, vbb, temp, *, for_timing: bool = True):
        """Per-subsystem effective ``Vt`` at an operating point (Eq 9).

        ``vdd``/``vbb``/``temp`` broadcast against the subsystem axis
        (last axis of length ``n_subsystems``).
        """
        vt0 = self.vt0_timing if for_timing else self.vt0_leak
        return threshold_voltage(vt0, temp, vdd, vbb, self.vt_sens)

    def subsystem_static_power(self, vdd, vbb, temp):
        """Per-subsystem leakage power in watts at an operating point.

        Routed through the fused ``vt_and_static_power`` kernel (Eq 9 +
        Eq 8 in one pass, bit-identical to the leaf composition).
        """
        _, p_sta = get_backend().kernel("vt_and_static_power")(
            self.vt0_leak, vdd, vbb, temp, self.ksta, self.vt_sens
        )
        return p_sta

    def subsystem_dynamic_power(self, vdd, freq, activity):
        """Per-subsystem dynamic power in watts (Eq 7)."""
        return self.kdyn * np.asarray(activity, dtype=float) * (
            np.asarray(vdd, dtype=float) ** 2
        ) * freq

    def l2_power(self, freq, activity: float = 1.0):
        """L2 power (dynamic + static) at nominal supply; power-only block.

        A float for one core; per lane for a stack, where lane ``i``
        equals ``cores[i].l2_power``.
        """
        pdyn = self.l2_kdyn * activity * self.calib.vdd_nominal**2 * freq
        psta = static_power(
            self.l2_ksta,
            self.calib.vdd_nominal,
            self.calib.t_design,
            self.vt_mean
            + self.vt_sens.k1 * (self.calib.t_design - self.vt_sens.t_ref),
        )
        return pdyn + psta


def distinct_lanes(items: Sequence, key=id) -> Tuple[list, np.ndarray]:
    """The distinct ``items`` (by ``key``) and each lane's row among them.

    A population block repeats each core across its phases and each
    measurement across its units, so tables stacked from the distinct
    items and gathered by the returned index hold exactly the values of
    one row per lane, without per-lane work.
    """
    slots: dict = {}
    rows: list = []
    index = np.empty(len(items), dtype=np.intp)
    for lane, item in enumerate(items):
        slot = slots.get(key(item))
        if slot is None:
            slot = slots[key(item)] = len(rows)
            rows.append(item)
        index[lane] = slot
    return rows, index


def lane_physics(cores: Sequence[Core]) -> Core:
    """The physics node for one core per lane: the core itself when every
    lane shares it, else the cores stacked into one ``(B, n)`` core."""
    rows, index = distinct_lanes(cores)
    if len(rows) == 1:
        return rows[0]
    return Core.stack(rows).lane_subset(index)


def _effective_leak_vt0(vt0_cells: np.ndarray, temp: float) -> float:
    """Effective ``Vt0`` of a region for leakage purposes.

    Leakage is exponential in ``-Vt``, so low-``Vt`` cells dominate a
    region's total.  The effective value is the log-mean-exp of the cell
    values at the given temperature.
    """
    scale = Q_OVER_K / (IDEALITY_FACTOR * temp)
    return float(-np.log(np.mean(np.exp(-scale * vt0_cells))) / scale)


def build_core(
    chip: ChipSample,
    core_index: int = 0,
    floorplan: Optional[Floorplan] = None,
    calib: Calibration = DEFAULT_CALIBRATION,
    delay_params: DelayParams = DEFAULT_DELAY_PARAMS,
    vt_sens: VtSensitivities = DEFAULT_VT_SENSITIVITIES,
) -> Core:
    """Construct the :class:`Core` model for one quadrant of a chip.

    This performs the "manufacturer" work of Section 4.1: measuring each
    subsystem's ``Vt0`` (timing-worst cell and leakage-effective value),
    deriving ``Rth`` from area, and ``Kdyn``/``Ksta`` from the CAD-style
    power budgets, then folding in the analytic random-variation tail for
    the worst dynamic path of each subsystem.
    """
    if not 0 <= core_index < len(CORE_QUADRANTS):
        raise ValueError(f"core_index must be in [0, 4), got {core_index}")
    floorplan = floorplan or default_floorplan()
    calib.validate()
    params = chip.params
    quad_x, quad_y = CORE_QUADRANTS[core_index]

    n = len(floorplan)
    vt0_timing = np.empty(n)
    leff_timing = np.empty(n)
    vt0_leak = np.empty(n)
    rth = np.empty(n)
    kdyn = np.empty(n)
    ksta = np.empty(n)
    stage_mean = np.empty(n)
    stage_sigma = np.empty(n)
    tail = np.empty(n)
    alpha_ref = np.empty(n)
    rho_ref = np.empty(n)

    sys_gain = calib.systematic_delay_gain
    vt_mean = params.vt_mean
    vt_design = threshold_voltage(
        vt_mean, calib.t_design, calib.vdd_nominal, 0.0, vt_sens
    )
    # Random-component delay sigma per gate (relative), from Vt and Leff.
    vt_delay_sens = delay_params.alpha / (calib.vdd_nominal - vt_design)
    sigma_gate = np.hypot(
        vt_delay_sens * params.vt_sigma_ran, params.leff_sigma_ran
    )

    # Normalise dynamic budgets so the core totals match the calibration.
    total_dyn_budget = sum(s.pdyn_budget for s in floorplan.subsystems)
    dyn_scale = (
        calib.core_dynamic_power_nominal - floorplan.l2.pdyn_budget
    ) / total_dyn_budget
    # Static budget distributed in proportion to area.
    total_area = sum(s.area_frac for s in floorplan.subsystems)
    core_static = calib.core_static_power_nominal - floorplan.l2.psta_budget
    if core_static <= 0.0 or dyn_scale <= 0.0:
        raise ValueError("L2 budgets exceed the core power budgets")

    # Per-(chip, core, subsystem) reproducible randomness for the
    # extreme-value tail of the random variation component.
    rng = np.random.default_rng(
        np.random.SeedSequence([abs(chip.chip_id), core_index, 0xE7A1])
    )

    for i, spec in enumerate(floorplan.subsystems):
        rect = spec.rect
        cells = chip.grid.cells_in_rect(
            quad_x + rect.x0 * 0.5,
            quad_y + rect.y0 * 0.5,
            quad_x + rect.x1 * 0.5,
            quad_y + rect.y1 * 0.5,
        )
        # Systematic offsets, amplified by the calibrated gain.
        vt0_cells = vt_mean + sys_gain * chip.vt_sys[cells]
        leff_cells = 1.0 + sys_gain * chip.leff_sys[cells]
        # Timing: the slowest *unrepaired* cell governs the stage.  SRAM
        # redundancy repairs the worst spots of large arrays, so memory
        # (and partly mixed) subsystems are governed by a high percentile
        # of their footprint's cell delays rather than the maximum.
        vt_cells_design = threshold_voltage(
            vt0_cells, calib.t_design, calib.vdd_nominal, 0.0, vt_sens
        )
        delays = gate_delay(
            calib.vdd_nominal, vt_cells_design, leff_cells, calib.t_design, delay_params
        )
        quantile = calib.repair_quantile[spec.kind]
        order = np.argsort(delays)
        worst = int(order[min(len(order) - 1, int(np.ceil(quantile * (len(order) - 1))))])
        vt0_timing[i] = vt0_cells[worst]
        leff_timing[i] = leff_cells[worst]
        vt0_leak[i] = _effective_leak_vt0(vt0_cells, calib.t_design)

        # Thermal resistance from area (lateral spreading via exponent<1),
        # adjusted by the structure's cooling quality.
        rth[i] = (
            calib.rth_coefficient
            / spec.area_frac**calib.rth_area_exponent
            * spec.rth_factor
        )

        # CAD-extracted constants (variation-independent).
        kdyn[i] = (
            spec.pdyn_budget
            * dyn_scale
            / (spec.alpha_ref * calib.vdd_nominal**2 * calib.f_nominal)
        )
        budget_sta = core_static * spec.area_frac / total_area
        ksta[i] = budget_sta / float(
            static_power(1.0, calib.vdd_nominal, calib.t_design, vt_design)
        )

        # VATS dynamic path-delay distribution parameters (cycle units).
        # Criticality scales the whole distribution: stages with design
        # slack sit proportionally below the cycle-time wall.
        stage_sigma[i] = calib.stage_sigma[spec.kind] * spec.criticality
        stage_mean[i] = calib.stage_mean(spec.kind) * spec.criticality
        # Extreme-value (Gumbel) tail of the worst random path.
        depth = calib.path_gate_depth[spec.kind]
        count = calib.path_count[spec.kind]
        sigma_path = calib.random_delay_gain * sigma_gate / np.sqrt(depth)
        spread = np.sqrt(2.0 * np.log(count))
        if sigma_path > 0.0:
            tail[i] = max(
                0.0, rng.gumbel(sigma_path * spread, sigma_path / spread)
            ) * spec.criticality
        else:
            tail[i] = 0.0  # no random component (e.g. the NoVar core)

        alpha_ref[i] = spec.alpha_ref
        rho_ref[i] = spec.rho_ref

    l2_kdyn = floorplan.l2.pdyn_budget / (calib.vdd_nominal**2 * calib.f_nominal)
    l2_ksta = floorplan.l2.psta_budget / float(
        static_power(1.0, calib.vdd_nominal, calib.t_design, vt_design)
    )

    return Core(
        floorplan=floorplan,
        calib=calib,
        delay_params=delay_params,
        vt_sens=vt_sens,
        chip_id=chip.chip_id,
        core_index=core_index,
        vt0_timing=vt0_timing,
        leff_timing=leff_timing,
        vt0_leak=vt0_leak,
        rth=rth,
        kdyn=kdyn,
        ksta=ksta,
        stage_mean_rel=stage_mean,
        stage_sigma_rel=stage_sigma,
        tail_rel=tail,
        alpha_ref=alpha_ref,
        rho_ref=rho_ref,
        l2_kdyn=l2_kdyn,
        l2_ksta=l2_ksta,
        vt_mean=vt_mean,
    )


def build_novar_core(
    floorplan: Optional[Floorplan] = None,
    calib: Calibration = DEFAULT_CALIBRATION,
    delay_params: DelayParams = DEFAULT_DELAY_PARAMS,
    vt_sens: VtSensitivities = DEFAULT_VT_SENSITIVITIES,
) -> Core:
    """Build the idealised no-variation core (the NoVar environment).

    All variation surfaces are zero and the random-variation tail is
    disabled, so every stage meets exactly the nominal cycle time at the
    design temperature: the core runs at 4 GHz error-free.
    """
    from dataclasses import replace as dc_replace

    from ..variation.grid import DieGrid
    from ..variation.maps import ChipSample, VariationParams

    grid = DieGrid(nx=8, ny=8)
    chip = ChipSample(
        grid=grid,
        params=VariationParams(),
        vt_sys=np.zeros(grid.cell_count),
        leff_sys=np.zeros(grid.cell_count),
        chip_id=-1,
    )
    calib_novar = dc_replace(calib, random_delay_gain=0.0)
    return build_core(chip, 0, floorplan, calib_novar, delay_params, vt_sens)


def build_chip_cores(
    chip: ChipSample,
    floorplan: Optional[Floorplan] = None,
    calib: Calibration = DEFAULT_CALIBRATION,
    delay_params: DelayParams = DEFAULT_DELAY_PARAMS,
    vt_sens: VtSensitivities = DEFAULT_VT_SENSITIVITIES,
) -> List[Core]:
    """Build all four cores of a chip (the paper runs every app on each)."""
    return [
        build_core(chip, core_index, floorplan, calib, delay_params, vt_sens)
        for core_index in range(len(CORE_QUADRANTS))
    ]
