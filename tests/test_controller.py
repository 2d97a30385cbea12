"""Transmission-controller tests: the fold/oracle equivalence and ACK
dispatch accounting."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom.accel import Posture
from semcom.controller import (INITIAL_STATE, AckPolicy, ControlEvent,
                               TransmissionController, dispatch, fold_events,
                               format_event, oracle_events, step)

SIT = Posture.SITTING
STAND = Posture.STANDING
LIE = Posture.LYING
WALK = Posture.WALKING

postures_seq = st.lists(st.sampled_from(list(Posture)), min_size=0, max_size=60)


def events_key(events):
    return [(e.t, e.from_posture, e.to_posture) for e in events]


class TestStep:
    def test_validated_transition_fires_on_fifth_window(self):
        events = fold_events([SIT, SIT, STAND, STAND, STAND], AckPolicy())
        assert events_key(events) == [(4, SIT, STAND)]

    def test_constant_posture_never_fires(self):
        assert fold_events([SIT] * 50, AckPolicy()) == []

    def test_alternating_never_fires(self):
        seq = [SIT, STAND] * 25
        assert fold_events(seq, AckPolicy()) == []

    def test_blip_reverts_without_event(self):
        events = fold_events([SIT, STAND, SIT, SIT, SIT], AckPolicy())
        assert events == []

    def test_pending_switch_to_third_posture(self):
        seq = [SIT, STAND, WALK, WALK, WALK]
        events = fold_events(seq, AckPolicy())
        assert events_key(events) == [(4, SIT, WALK)]

    def test_validation_window_one_fires_immediately(self):
        events = fold_events([SIT, STAND], AckPolicy(validation_windows=1))
        assert events_key(events) == [(1, SIT, STAND)]

    def test_non_consecutive_index_rejected(self):
        state, _ = step(INITIAL_STATE, SIT, 0, AckPolicy())
        with pytest.raises(ValueError, match="does not follow"):
            step(state, SIT, 2, AckPolicy())

    def test_initial_observation_emits_nothing(self):
        state, event = step(INITIAL_STATE, STAND, 0, AckPolicy())
        assert event is None
        assert state.stable == STAND


class TestOracleAgreement:
    @given(postures_seq)
    @settings(max_examples=300, deadline=None)
    def test_fold_matches_oracle(self, seq):
        policy = AckPolicy()
        assert events_key(fold_events(seq, policy)) == events_key(
            oracle_events(seq, policy))

    @given(postures_seq, st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_fold_matches_oracle_any_validation(self, seq, vw):
        policy = AckPolicy(validation_windows=vw)
        assert events_key(fold_events(seq, policy)) == events_key(
            oracle_events(seq, policy))

    def test_exhaustive_length_six(self):
        policy = AckPolicy()
        for seq in itertools.product(list(Posture), repeat=6):
            assert events_key(fold_events(seq, policy)) == events_key(
                oracle_events(seq, policy))

    def test_empty_sequence(self):
        assert oracle_events([], AckPolicy()) == []

    def test_single_change_then_hold(self):
        seq = [LIE, LIE, WALK, WALK, WALK, WALK, WALK]
        events = oracle_events(seq, AckPolicy())
        assert events_key(events) == [(4, LIE, WALK)]

    @given(postures_seq)
    @settings(max_examples=200, deadline=None)
    def test_event_count_bounded_by_changes(self, seq):
        changes = sum(1 for a, b in zip(seq, seq[1:]) if a != b)
        assert len(fold_events(seq, AckPolicy())) <= changes

    @given(postures_seq)
    @settings(max_examples=200, deadline=None)
    def test_liveness_every_long_run_fires(self, seq):
        policy = AckPolicy()
        events = fold_events(seq, policy)
        # reconstruct runs and check each validated new-posture run fired
        oracle = oracle_events(seq, policy)
        assert len(events) == len(oracle)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        seq = [Posture(int(v)) for v in rng.integers(0, 4, 200)]
        a = fold_events(seq, AckPolicy())
        b = fold_events(seq, AckPolicy())
        assert events_key(a) == events_key(b)


class TestDispatch:
    def test_broadcast_fans_out(self):
        event = ControlEvent(5, SIT, STAND)
        commands = dispatch(event, AckPolicy(), ("bedroom", "living_room", "kitchen"))
        assert len(commands) == 3
        assert [c.camera for c in commands] == ["bedroom", "living_room", "kitchen"]
        assert event.targets == ("bedroom", "living_room", "kitchen")
        assert all(c.segments == 1 and c.t == 5 for c in commands)

    def test_subset_single_camera(self):
        event = ControlEvent(2, SIT, STAND)
        commands = dispatch(event, AckPolicy(targets=("kitchen",)),
                            ("bedroom", "living_room", "kitchen"))
        assert [c.camera for c in commands] == ["kitchen"]

    def test_unknown_camera_rejected(self):
        event = ControlEvent(2, SIT, STAND)
        with pytest.raises(ValueError, match="unknown camera"):
            dispatch(event, AckPolicy(targets=("garage",)),
                     ("bedroom", "kitchen"))

    def test_twelve_transitions_broadcast_gives_36(self):
        commands = [c for i in range(12)
                    for c in dispatch(ControlEvent(i, SIT, STAND), AckPolicy(),
                                      ("bedroom", "living_room", "kitchen"))]
        assert len(commands) == 36
        assert sum(c.segments for c in commands) == 36

    def test_segments_per_ack(self):
        commands = dispatch(ControlEvent(0, SIT, STAND),
                            AckPolicy(segments_per_ack=2), ("a", "b"))
        assert len(commands) == 2
        assert sum(c.segments for c in commands) == 4
        assert all(c.segments == 2 for c in commands)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AckPolicy(validation_windows=0)
        with pytest.raises(ValueError):
            AckPolicy(segments_per_ack=0)


class TestEventLog:
    def test_format(self):
        event = ControlEvent(7, SIT, STAND, targets=("bedroom", "kitchen"))
        assert format_event(event) == (
            "ACK t=7 from=sitting to=standing targets=bedroom,kitchen")

    def test_controller_wrapper_collects_events(self):
        controller = TransmissionController(AckPolicy())
        seq = [SIT, SIT, STAND, STAND, STAND, STAND]
        for i, p in enumerate(seq):
            controller.observe(p, i)
        assert events_key(controller.events) == [(4, SIT, STAND)]
