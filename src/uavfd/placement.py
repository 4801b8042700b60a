"""Interferer position control: feasible regions and best placements.

The measurement grid doubles as the search space; with under a thousand
candidate points an exhaustive scan is the obvious optimizer and gives a
deterministic answer (ties break toward the lowest row-major index).  Two
objectives capture the two readings of "well controlled": park the
interferer where it hurts least, or where the victim link performs best.
"""

from dataclasses import dataclass
from enum import Enum

from .campaign import GridSpec, ScenarioConfig, SweepRecord, run_capacity_sweep, run_power_sweep
from .geometry import Position


class ObjectiveKind(Enum):
    MIN_INTERFERENCE = "min-interference"
    MAX_VICTIM_CAPACITY = "max-capacity"


@dataclass(frozen=True)
class PlacementObjective:
    kind: ObjectiveKind


@dataclass(frozen=True)
class PlacementResult:
    position: Position
    value: float
    index: int


def feasible_region(records: list[SweepRecord], threshold_dbm: float) -> list[Position]:
    """Grid positions whose reported interference is strictly below threshold."""
    if not records:
        raise ValueError("feasible_region of an empty sweep is undefined")
    return [r.position for r in records if r.interference_dbm < threshold_dbm]


def best_record(records: list[SweepRecord], objective: PlacementObjective) -> PlacementResult:
    """Scan sweep records for the objective optimum; first index wins ties."""
    if not records:
        raise ValueError("best_record of an empty sweep is undefined")
    ordered = sorted(records, key=lambda r: r.index)
    if objective.kind is ObjectiveKind.MIN_INTERFERENCE:
        best = ordered[0]
        for r in ordered[1:]:
            if r.interference_dbm < best.interference_dbm:
                best = r
        return PlacementResult(best.position, best.interference_dbm, best.index)

    best = None
    for r in ordered:
        cap = r.capacity_bps
        if cap is None:
            raise ValueError(f"record {r.index} has no capacity; run a capacity sweep first")
        if best is None or cap > best.capacity_bps:
            best = r
    return PlacementResult(best.position, best.capacity_bps, best.index)


def best_position(
    scenario: ScenarioConfig, grid: GridSpec, objective: PlacementObjective, seed: int = 0
) -> PlacementResult:
    """Exhaustively evaluate the grid for a scenario and pick the optimum."""
    if objective.kind is ObjectiveKind.MIN_INTERFERENCE:
        records = run_power_sweep(scenario, grid, seed)
    else:
        records = run_capacity_sweep(scenario, grid, seed)
    return best_record(records, objective)
