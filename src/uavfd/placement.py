"""Interferer position control: feasible regions and best placements.

The measurement grid doubles as the search space; an exhaustive scan of
the sweep table's columns is the obvious optimizer and gives a
deterministic answer (ties break toward the lowest row-major index).  Two
objectives capture the two readings of "well controlled": park the
interferer where it hurts least, or where the victim link performs best.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .campaign import SweepTable
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


def feasible_region(table: SweepTable, threshold_dbm: float) -> SweepTable:
    """The rows whose reported interference is strictly below threshold, in grid order."""
    if not len(table):
        raise ValueError("feasible_region of an empty sweep is undefined")
    return table.take(table.interference_dbm < threshold_dbm)


def best_record(table: SweepTable, objective: PlacementObjective) -> PlacementResult:
    """The row at the objective optimum; the first row wins ties."""
    if not len(table):
        raise ValueError("best_record of an empty sweep is undefined")
    if objective.kind is ObjectiveKind.MIN_INTERFERENCE:
        values = table.interference_dbm
        i = int(np.argmin(values))
    else:
        values = table.capacity_bps
        missing = np.flatnonzero(np.isnan(values))
        if missing.size:
            raise ValueError(f"record {missing[0]} has no capacity; run a capacity sweep first")
        i = int(np.argmax(values))
    return PlacementResult(table[i].position, values[i].item(), i)
