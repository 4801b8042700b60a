"""Channel-reuse duplexing plan for a multi-UAV full-duplex system.

Every UAV transmits and receives on two different channels, and system-wide
full duplex comes from cross-reuse: within a UAV pair, one UAV's uplink
channel is the other's downlink channel and vice versa.  With equal
transmit powers the resulting co-channel interference is symmetric, one
directed uplink-into-downlink edge per shared channel.

UAVs are paired by consecutive index ((1,2), (3,4), ...); an odd trailing
UAV gets two exclusive channels and creates no interference.  Channel
indices are 1-based to match the usual Channel#1/Channel#2 naming.  The
per-UAV separation between its own uplink and downlink channel indices is
enforced by the channel layout: pair slot j uses channels (j, j+m) where
the stride m covers both the pair count and the requested separation.
"""

from dataclasses import dataclass

DEFAULT_MIN_SEPARATION = 2
DEFAULT_BASE_FREQ_HZ = 5.7e9
DEFAULT_CHANNEL_SPACING_HZ = 10e6


@dataclass(frozen=True)
class Channel:
    index: int
    center_hz: float


@dataclass(frozen=True)
class Assignment:
    """Per-UAV channel assignment (1-based UAV and channel indices)."""

    uav: int
    uplink: int
    downlink: int


@dataclass(frozen=True)
class InterferenceEdge:
    """One uplink transmitter interfering with one downlink receiver."""

    source_uav: int
    victim_uav: int
    channel: int

    def __post_init__(self):
        if self.source_uav == self.victim_uav:
            raise ValueError("interference edge cannot be a self-loop")


@dataclass(frozen=True)
class ChannelPlan:
    n_uavs: int
    channels: tuple[Channel, ...]
    assignments: tuple[Assignment, ...]
    pairs: tuple[tuple[int, int], ...]
    min_separation: int = DEFAULT_MIN_SEPARATION

    def assignment_for(self, uav: int) -> Assignment:
        return self.assignments[uav - 1]


def build_channel_plan(n_uavs: int, min_separation: int = DEFAULT_MIN_SEPARATION) -> ChannelPlan:
    """Construct a reuse plan for n_uavs UAVs.

    Pair slot j (1-based) owns channels (j, j+m); within pair (a, b) the
    roles are swapped, a=(up j, down j+m), b=(up j+m, down j).  The stride
    m = max(#slots, min_separation) guarantees the per-UAV index separation
    while keeping every channel reused by at most one uplink and one
    downlink.  Channel i is centred DEFAULT_CHANNEL_SPACING_HZ * (i - 1)
    above DEFAULT_BASE_FREQ_HZ.
    """
    if n_uavs < 1:
        raise ValueError(f"n_uavs must be >= 1, got {n_uavs}")
    if min_separation < 1:
        raise ValueError(f"min_separation must be >= 1, got {min_separation}")

    n_slots = (n_uavs + 1) // 2
    stride = max(n_slots, min_separation)
    channels = tuple(
        Channel(index=i, center_hz=DEFAULT_BASE_FREQ_HZ + (i - 1) * DEFAULT_CHANNEL_SPACING_HZ)
        for i in range(1, n_slots + stride + 1)
    )

    assignments, pairs = [], []
    for slot in range(1, n_slots + 1):
        lo, hi = slot, slot + stride
        a, b = 2 * slot - 1, 2 * slot
        assignments.append(Assignment(uav=a, uplink=lo, downlink=hi))
        if b <= n_uavs:
            assignments.append(Assignment(uav=b, uplink=hi, downlink=lo))
            pairs.append((a, b))

    return ChannelPlan(n_uavs, channels, tuple(assignments), tuple(pairs), min_separation)


def interference_edges(plan: ChannelPlan) -> list[InterferenceEdge]:
    """Directed uplink-to-downlink interference edges induced by channel reuse.

    For every reusing pair (a, b) there are exactly two edges: a's uplink
    into b's downlink on their shared channel, and the reverse on the other
    shared channel.
    """
    return [
        InterferenceEdge(source_uav=src, victim_uav=dst, channel=plan.assignment_for(src).uplink)
        for a, b in plan.pairs
        for src, dst in ((a, b), (b, a))
    ]


def validate_plan(plan: ChannelPlan) -> list[str]:
    """Check every plan invariant; returns an empty list iff the plan is valid.

    Each violation string names the UAV and/or channel involved.
    """
    violations = []
    known = {c.index for c in plan.channels}

    uplink_users: dict[int, list[int]] = {}
    downlink_users: dict[int, list[int]] = {}
    for asn in plan.assignments:
        if asn.uplink == asn.downlink:
            violations.append(f"UAV#{asn.uav}: same channel for Tx and Rx (Ch{asn.uplink})")
        elif abs(asn.uplink - asn.downlink) < plan.min_separation:
            violations.append(
                f"UAV#{asn.uav}: uplink Ch{asn.uplink} and downlink Ch{asn.downlink} "
                f"separated by {abs(asn.uplink - asn.downlink)} < {plan.min_separation}"
            )
        for label, ch in (("uplink", asn.uplink), ("downlink", asn.downlink)):
            if ch not in known:
                violations.append(f"UAV#{asn.uav}: {label} Ch{ch} not in the channel table")
        uplink_users.setdefault(asn.uplink, []).append(asn.uav)
        downlink_users.setdefault(asn.downlink, []).append(asn.uav)

    for label, owners in (("uplink", uplink_users), ("downlink", downlink_users)):
        for ch, users in sorted(owners.items()):
            if len(users) > 1:
                violations.append(f"Ch{ch}: used by more than one {label} (UAVs {users})")

    for a, b in plan.pairs:
        asn_a, asn_b = plan.assignment_for(a), plan.assignment_for(b)
        if asn_a.uplink != asn_b.downlink or asn_a.downlink != asn_b.uplink:
            violations.append(f"pair (UAV#{a}, UAV#{b}): channels are not cross-reused")

    return violations


def format_plan_table(plan: ChannelPlan) -> str:
    """Render the plan as a channel / uplink-owner / downlink-owner table."""
    up_owner = {asn.uplink: asn.uav for asn in plan.assignments}
    down_owner = {asn.downlink: asn.uav for asn in plan.assignments}
    lines = [f"{'channel':>8}  {'center_mhz':>11}  {'uplink_of':>9}  {'downlink_of':>11}"]
    for ch in plan.channels:
        up = f"UAV#{up_owner[ch.index]}" if ch.index in up_owner else "-"
        down = f"UAV#{down_owner[ch.index]}" if ch.index in down_owner else "-"
        lines.append(f"{ch.index:>8}  {ch.center_hz / 1e6:>11.1f}  {up:>9}  {down:>11}")
    return "\n".join(lines)
