import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavfd.duplexing import (
    Assignment,
    Channel,
    ChannelPlan,
    InterferenceEdge,
    build_channel_plan,
    format_plan_table,
    interference_edges,
    validate_plan,
)


def test_two_uav_reference_assignment():
    # the canonical two-UAV figure: Ch1 = up of UAV1 = down of UAV2,
    # Ch2 = down of UAV1 = up of UAV2 (adjacent channel labels)
    plan = build_channel_plan(2, min_separation=1)
    assert plan.assignment_for(1) == Assignment(uav=1, uplink=1, downlink=2)
    assert plan.assignment_for(2) == Assignment(uav=2, uplink=2, downlink=1)
    assert validate_plan(plan) == []
    edges = interference_edges(plan)
    assert set(edges) == {
        InterferenceEdge(source_uav=1, victim_uav=2, channel=1),
        InterferenceEdge(source_uav=2, victim_uav=1, channel=2),
    }


def test_single_uav_gets_exclusive_channels():
    plan = build_channel_plan(1)
    asn = plan.assignment_for(1)
    assert asn.uplink != asn.downlink
    assert plan.pairs == ()
    assert interference_edges(plan) == []
    assert validate_plan(plan) == []


def test_four_uavs():
    plan = build_channel_plan(4)
    assert len(plan.channels) == 4
    assert plan.pairs == ((1, 2), (3, 4))
    assert len(interference_edges(plan)) == 4
    assert validate_plan(plan) == []


def test_six_uavs_edge_count():
    assert len(interference_edges(build_channel_plan(6))) == 6


@pytest.mark.parametrize("n", range(1, 65))
def test_default_plans_validate_and_count_edges(n):
    plan = build_channel_plan(n)
    assert validate_plan(plan) == []
    assert len(interference_edges(plan)) == 2 * (n // 2)


@pytest.mark.parametrize("sep", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
def test_plans_validate_across_separations(n, sep):
    plan = build_channel_plan(n, min_separation=sep)
    assert validate_plan(plan) == []
    for asn in plan.assignments:
        assert abs(asn.uplink - asn.downlink) >= sep


def test_reverse_edges_exist():
    plan = build_channel_plan(10)
    edges = set(interference_edges(plan))
    by_pair = {}
    for e in edges:
        by_pair.setdefault(frozenset((e.source_uav, e.victim_uav)), []).append(e)
    for pair_edges in by_pair.values():
        assert len(pair_edges) == 2
        a, b = pair_edges
        assert a.source_uav == b.victim_uav and a.victim_uav == b.source_uav
        assert a.channel != b.channel


def test_no_uav_is_source_and_victim_on_same_channel():
    for n in (2, 6, 12, 31):
        seen = {}
        for e in interference_edges(build_channel_plan(n)):
            seen.setdefault(e.channel, []).append(e)
        for ch, edges in seen.items():
            sources = {e.source_uav for e in edges}
            victims = {e.victim_uav for e in edges}
            assert not (sources & victims)


def test_same_channel_violation():
    plan = ChannelPlan(
        n_uavs=1,
        channels=(Channel(1, 5.7e9), Channel(2, 5.71e9)),
        assignments=(Assignment(uav=1, uplink=1, downlink=1),),
        pairs=(),
        min_separation=1,
    )
    violations = validate_plan(plan)
    assert any("same channel" in v and "UAV#1" in v for v in violations)


def test_separation_violation():
    plan = ChannelPlan(
        n_uavs=2,
        channels=(Channel(1, 5.7e9), Channel(2, 5.71e9)),
        assignments=(
            Assignment(uav=1, uplink=1, downlink=2),
            Assignment(uav=2, uplink=2, downlink=1),
        ),
        pairs=((1, 2),),
        min_separation=3,
    )
    violations = validate_plan(plan)
    assert any("separated by 1 < 3" in v for v in violations)


def test_duplicate_channel_use_violation():
    plan = ChannelPlan(
        n_uavs=2,
        channels=(Channel(1, 5.7e9), Channel(2, 5.71e9), Channel(3, 5.72e9)),
        assignments=(
            Assignment(uav=1, uplink=1, downlink=2),
            Assignment(uav=2, uplink=1, downlink=3),
        ),
        pairs=(),
        min_separation=1,
    )
    violations = validate_plan(plan)
    assert any("more than one uplink" in v for v in violations)


def test_channel_outside_the_table_violation():
    # build_channel_plan never assigns an unknown channel, so only a hand-built plan reaches this check
    plan = ChannelPlan(
        n_uavs=1,
        channels=(Channel(1, 5.7e9), Channel(2, 5.71e9)),
        assignments=(Assignment(uav=1, uplink=1, downlink=4),),
        pairs=(),
        min_separation=1,
    )
    assert validate_plan(plan) == ["UAV#1: downlink Ch4 not in the channel table"]


def test_impossible_channel_budget():
    with pytest.raises(ValueError):
        build_channel_plan(0)
    with pytest.raises(ValueError):
        build_channel_plan(2, min_separation=0)


def test_plan_table_lists_channels():
    out = format_plan_table(build_channel_plan(2, min_separation=1))
    lines = out.splitlines()
    assert len(lines) == 3
    assert "UAV#1" in lines[1] and "UAV#2" in lines[1]


def test_channel_frequencies_follow_spacing():
    plan = build_channel_plan(4)
    freqs = [c.center_hz for c in plan.channels]
    assert freqs == [5.7e9, 5.71e9, 5.72e9, 5.73e9]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 200), sep=st.integers(1, 400))
def test_built_plans_are_valid_at_any_separation(n, sep):
    plan = build_channel_plan(n, min_separation=sep)
    assert validate_plan(plan) == []
    assert len(plan.assignments) == n
    assert all(abs(a.uplink - a.downlink) >= sep for a in plan.assignments)
