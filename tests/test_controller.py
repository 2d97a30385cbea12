"""Transmission-controller tests: the run scan against the per-second
state machine it replaced, and ACK dispatch accounting."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from per_second_controller import INITIAL_STATE, fold_events, step
from semcom.accel import Posture
from semcom.controller import (AckPolicy, ControlEvent,
                               TransmissionController, dispatch, format_event)
from semcom.synthdata import ROOMS

SIT = Posture.SITTING
STAND = Posture.STANDING
LIE = Posture.LYING
WALK = Posture.WALKING

postures_seq = st.lists(st.sampled_from(list(Posture)), min_size=0, max_size=60)


def events_key(events):
    return [(e.t, e.from_posture, e.to_posture) for e in events]


def scan(postures, policy):
    return TransmissionController(policy).observe(postures)


def agreed_events(postures, policy):
    """The scan's events, checked against the per-second state machine."""
    events = events_key(scan(postures, policy))
    assert events == events_key(fold_events(postures, policy))
    return events


class TestStep:
    def test_validated_transition_fires_on_fifth_window(self):
        events = agreed_events([SIT, SIT, STAND, STAND, STAND], AckPolicy())
        assert events == [(4, SIT, STAND)]

    def test_constant_posture_never_fires(self):
        assert agreed_events([SIT] * 50, AckPolicy()) == []

    def test_alternating_never_fires(self):
        seq = [SIT, STAND] * 25
        assert agreed_events(seq, AckPolicy()) == []

    def test_blip_reverts_without_event(self):
        events = agreed_events([SIT, STAND, SIT, SIT, SIT], AckPolicy())
        assert events == []

    def test_pending_switch_to_third_posture(self):
        seq = [SIT, STAND, WALK, WALK, WALK]
        events = agreed_events(seq, AckPolicy())
        assert events == [(4, SIT, WALK)]

    def test_validation_window_one_fires_immediately(self):
        events = agreed_events([SIT, STAND], AckPolicy(validation_windows=1))
        assert events == [(1, SIT, STAND)]

    def test_non_consecutive_index_rejected(self):
        state, _ = step(INITIAL_STATE, SIT, 0, AckPolicy())
        with pytest.raises(ValueError, match="does not follow"):
            step(state, SIT, 2, AckPolicy())

    def test_initial_observation_emits_nothing(self):
        state, event = step(INITIAL_STATE, STAND, 0, AckPolicy())
        assert event is None
        assert state.stable == STAND
        assert scan([STAND], AckPolicy()) == []


class TestOracleAgreement:
    @given(postures_seq)
    @settings(max_examples=300, deadline=None)
    def test_fold_matches_oracle(self, seq):
        agreed_events(seq, AckPolicy())

    @given(postures_seq, st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_fold_matches_oracle_any_validation(self, seq, vw):
        agreed_events(seq, AckPolicy(validation_windows=vw))

    def test_exhaustive_length_six(self):
        policy = AckPolicy()
        for seq in itertools.product(list(Posture), repeat=6):
            agreed_events(seq, policy)

    def test_empty_sequence(self):
        assert agreed_events([], AckPolicy()) == []
        assert scan(np.empty(0, dtype=np.int64), AckPolicy()) == []

    def test_single_change_then_hold(self):
        seq = [LIE, LIE, WALK, WALK, WALK, WALK, WALK]
        assert agreed_events(seq, AckPolicy()) == [(4, LIE, WALK)]

    @given(postures_seq)
    @settings(max_examples=200, deadline=None)
    def test_event_count_bounded_by_changes(self, seq):
        changes = sum(1 for a, b in zip(seq, seq[1:]) if a != b)
        assert len(scan(seq, AckPolicy())) <= changes

    @given(postures_seq, st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_liveness_every_long_run_fires(self, seq, vw):
        # a sequence that ends in a run of at least vw windows ends with
        # that run's posture validated
        events = scan(seq, AckPolicy(validation_windows=vw))
        if len(seq) >= vw and len(set(seq[-vw:])) == 1:
            stable = events[-1].to_posture if events else seq[0]
            assert stable == seq[-1]

    def test_determinism(self):
        rng = np.random.default_rng(3)
        seq = rng.integers(0, 4, 200)
        assert events_key(scan(seq, AckPolicy())) == events_key(
            scan(seq, AckPolicy()))
        assert events_key(scan(seq, AckPolicy())) == events_key(
            scan([Posture(int(v)) for v in seq], AckPolicy()))


class TestDispatch:
    def test_broadcast_fans_out(self):
        plan = dispatch(ControlEvent(5, SIT, STAND), AckPolicy())
        assert AckPolicy().targets == ROOMS
        # second 5's first frame is frame 250, in grid segment 15
        assert plan == [(room, 15) for room in ROOMS]

    def test_subset_single_camera(self):
        plan = dispatch(ControlEvent(2, SIT, STAND),
                        AckPolicy(targets=("kitchen",)))
        assert plan == [("kitchen", 6)]

    def test_unknown_camera_rejected(self):
        # the policy refuses it when built, before any ACK
        with pytest.raises(ValueError, match="unknown room 'garage'"):
            AckPolicy(targets=("kitchen", "garage"))

    @pytest.mark.parametrize("targets", [("bedroom", "bedroom"),
                                         ("kitchen", "bedroom", "kitchen")])
    def test_room_named_twice_rejected(self, targets):
        with pytest.raises(ValueError, match="is named twice") as exc:
            AckPolicy(targets=targets)
        assert "\n" not in str(exc.value)
        assert repr(targets[-1]) in str(exc.value)

    def test_no_room_rejected(self):
        with pytest.raises(ValueError, match="names no room"):
            AckPolicy(targets=())

    def test_twelve_transitions_broadcast_gives_36(self):
        policy = AckPolicy()
        commanded = sum(len(dispatch(ControlEvent(i, SIT, STAND), policy))
                        for i in range(12))
        assert commanded == 36

    def test_segments_per_ack(self):
        # room by room, each target's run of segments_per_ack grid segments
        # from the ACK second's one
        policy = AckPolicy(targets=("kitchen", "bedroom"), segments_per_ack=2)
        assert dispatch(ControlEvent(0, SIT, STAND), policy) == [
            ("kitchen", 0), ("kitchen", 1), ("bedroom", 0), ("bedroom", 1)]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AckPolicy(validation_windows=0)
        with pytest.raises(ValueError):
            AckPolicy(segments_per_ack=0)


class TestEventLog:
    def test_format(self):
        event = ControlEvent(7, SIT, STAND)
        assert format_event(event, ("bedroom", "kitchen")) == (
            "ACK t=7 from=sitting to=standing targets=bedroom,kitchen")

    def test_event_is_frozen(self):
        with pytest.raises(AttributeError):
            ControlEvent(7, SIT, STAND).t = 8

    def test_controller_wrapper_collects_events(self):
        controller = TransmissionController(AckPolicy())
        seq = np.array([SIT, SIT, STAND, STAND, STAND, STAND, LIE, LIE, LIE],
                       dtype=np.int64)
        events = controller.observe(seq)
        assert events_key(events) == [(4, SIT, STAND), (8, STAND, LIE)]
        assert not hasattr(controller, "events")
        # each call returns a fresh list
        assert controller.observe(seq) == events
        assert controller.observe(seq) is not events
        # plain ints, as the event log and the report expect
        assert all(type(v) is int for e in events
                   for v in (e.t, e.from_posture, e.to_posture))
