"""Generator tests: posture statistics, closed-loop forest sanity,
frame determinism, and timeline bookkeeping."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom.accel import WINDOW_SAMPLES, GravityFilter, Posture, gravity_feature
from semcom.codec import SEGMENT_FRAMES, Activity
from semcom.forest import train_forest
from semcom.synthdata import (ACTIVITY_POSTURE, ACTIVITY_ROOM, BACKGROUND_LEVEL,
                              FPS, POSTURE_MEAN_COSINE, ROOMS, WALK_SECONDS,
                              _ACCEL_STREAM, _DATASET_STREAM, RoomCamera,
                              Scenario, ScenarioStep, _rng, demo_scenario,
                              gen_accel_trace, gravity_direction,
                              make_codec_dataset, make_posture_dataset,
                              render_frame, step_timeline, _VIDEO_NOISE_STREAM)


def steady_scenario(activity, seconds, **kwargs):
    return Scenario((ScenarioStep(activity, seconds),), **kwargs).validate()


# activity_timeline and posture_timeline are the list timelines that
# step_timeline replaced, kept verbatim as oracles (TestStepTimelineOracle)
def activity_timeline(scenario):
    """Per-second (activity, room) truth; None while walking between steps."""
    timeline = []
    for i, step in enumerate(scenario.steps):
        if i > 0:
            timeline.extend([None] * WALK_SECONDS)
        timeline.extend([(step.activity, ACTIVITY_ROOM[step.activity])]
                        * step.duration_s)
    return timeline


def posture_timeline(scenario):
    """Per-second ground-truth posture, walking during interludes."""
    timeline = []
    for i, step in enumerate(scenario.steps):
        if i > 0:
            timeline.extend([Posture.WALKING] * WALK_SECONDS)
        timeline.extend([ACTIVITY_POSTURE[step.activity]] * step.duration_s)
    return timeline


def scenarios(min_steps=0, max_steps=6):
    return st.builds(
        lambda steps, seed: Scenario(tuple(steps), seed=seed),
        st.lists(st.builds(ScenarioStep, st.sampled_from(list(Activity)),
                           st.integers(0, 30)),
                 min_size=min_steps, max_size=max_steps),
        st.integers(0, 2**32 - 1))


class TestTimeline:
    def test_walking_inserted_between_steps(self):
        scenario = Scenario((ScenarioStep(Activity.SLEEPING, 5),
                             ScenarioStep(Activity.EATING, 6)))
        steps = step_timeline(scenario)
        assert steps.dtype == np.int64
        assert steps.tolist() == [0] * 5 + [-1] * WALK_SECONDS + [1] * 6
        _, postures = gen_accel_trace(scenario)
        assert postures.dtype == np.int64
        assert postures.tolist() == ([Posture.LYING] * 5
                                     + [Posture.WALKING] * WALK_SECONDS
                                     + [Posture.SITTING] * 6)
        assert RoomCamera(scenario, "kitchen").total_frames == 15 * FPS

    def test_room_and_posture_maps(self):
        assert ACTIVITY_ROOM[Activity.SLEEPING] == "bedroom"
        assert ACTIVITY_ROOM[Activity.CALLING] == "living_room"
        assert ACTIVITY_POSTURE[Activity.DRESS_UP] == Posture.STANDING
        assert set(ACTIVITY_ROOM.values()) == set(ROOMS)

    def test_validation(self):
        with pytest.raises(ValueError, match="below the validation"):
            Scenario((ScenarioStep(Activity.SLEEPING, 1),)).validate()
        with pytest.raises(ValueError, match="repeat"):
            Scenario((ScenarioStep(Activity.SLEEPING, 5),
                      ScenarioStep(Activity.SLEEPING, 5))).validate()
        with pytest.raises(ValueError, match="at least one"):
            Scenario(()).validate()

    def test_demo_scenario_covers_all_activities(self):
        scenario = demo_scenario(dwell_s=5)
        assert [s.activity for s in scenario.steps] == list(Activity)


def timeline_frame(camera, frame_index):
    """RoomCamera.frame as it was when it read activity_timeline and a
    per-second list of step indices, kept as the oracle."""
    steps_by_second = []
    for i, step in enumerate(camera.scenario.steps):
        if i > 0:
            steps_by_second.extend([None] * WALK_SECONDS)
        steps_by_second.extend([i] * step.duration_s)
    second = frame_index // FPS
    entry = activity_timeline(camera.scenario)[second]
    active = entry is not None and entry[1] == camera.room
    noise_rng = _rng(camera.scenario.seed, _VIDEO_NOISE_STREAM,
                     ROOMS.index(camera.room), frame_index)
    if active:
        step_idx = steps_by_second[second]
        jitter_rc, amplitude = camera._jitter_for_step(step_idx)
        return render_frame(entry[0], frame_index % SEGMENT_FRAMES,
                            jitter_rc, amplitude, noise_rng,
                            camera.scenario.pixel_noise)
    return render_frame(None, 0, (0, 0), 0.0, noise_rng,
                        camera.scenario.pixel_noise)


class TestStepTimelineOracle:
    """Posture truth, segment labels and frames read from step_timeline
    equal those of the per-second list timelines it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_lengths_and_postures(self, scenario):
        steps = step_timeline(scenario)
        want = posture_timeline(scenario)
        assert steps.dtype == np.int64 and steps.shape == (len(want),)
        assert len(steps) == len(activity_timeline(scenario))
        _, postures = gen_accel_trace(scenario)
        assert postures.dtype == np.int64
        assert postures.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_segment_labels(self, scenario):
        """The grid is the stream's whole 16-frame segments, each labelled
        at its first frame's second; lookups outside it raise."""
        want = activity_timeline(scenario)
        for room in ROOMS:
            cam = RoomCamera(scenario, room)
            n = cam.n_segments
            assert cam.total_frames == len(want) * FPS
            assert n * SEGMENT_FRAMES <= cam.total_frames < (n + 1) * SEGMENT_FRAMES
            for grid in range(n):
                label = want[grid * SEGMENT_FRAMES // FPS]
                assert cam.activity_at_grid(grid) == (
                    label[0] if label is not None and label[1] == room
                    else None)
            for grid in (-1, n):
                with pytest.raises(IndexError):
                    cam.activity_at_grid(grid)

    @settings(max_examples=20, deadline=None)
    @given(scenarios(min_steps=1), st.lists(st.floats(0, 1, exclude_max=True),
                                            min_size=1, max_size=4))
    def test_frames(self, scenario, positions):
        for room in ROOMS:
            cam = RoomCamera(scenario, room)
            for position in positions:
                index = int(position * cam.total_frames)
                if index >= cam.total_frames:
                    continue
                assert (cam.frame(index).tobytes()
                        == timeline_frame(cam, index).tobytes())


class TestSeeds:
    """Every seed >= 0 keys its own streams; a negative one is refused."""

    def test_seed_past_32_bits_is_its_own_stream(self):
        # seeds were once masked to 32 bits, so 2**32 drew seed 0's trace
        trace = {seed: gen_accel_trace(demo_scenario(seed=seed, dwell_s=4))[0]
                 for seed in (0, 2**32)}
        assert trace[0].tobytes() != trace[2**32].tobytes()

    @pytest.mark.parametrize("key", [(-1,), (3, -2**32)])
    def test_negative_key_rejected(self, key):
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {min(key)}"):
            _rng(*key)

    def test_negative_scenario_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            demo_scenario(seed=-1)


class TestAccelGenerator:
    def test_zero_noise_u_equals_configured_mean(self):
        for posture in Posture:
            activity = next(a for a, p in ACTIVITY_POSTURE.items()
                            if p == posture) if posture != Posture.WALKING else None
            if activity is None:
                continue
            scenario = steady_scenario(activity, 5, accel_noise_g=0.0)
            xyz, truth = gen_accel_trace(scenario)
            u = gravity_feature(GravityFilter().process(xyz))
            assert u.shape == truth.shape
            np.testing.assert_allclose(u, POSTURE_MEAN_COSINE[posture],
                                       rtol=0, atol=1e-9)

    def test_standing_mean_within_tolerance_at_default_noise(self):
        u, y = make_posture_dataset(200, seed=5)
        standing = u[y == int(Posture.STANDING)]
        assert np.mean(standing) == pytest.approx(0.95, abs=0.02)

    def test_all_posture_means(self):
        u, y = make_posture_dataset(100, seed=9)
        for posture, mean in POSTURE_MEAN_COSINE.items():
            values = u[y == int(posture)]
            assert np.mean(values) == pytest.approx(mean, abs=0.02)

    @pytest.mark.parametrize("n_per_class", [0, -1])
    def test_fewer_than_one_per_class_rejected(self, n_per_class):
        with pytest.raises(ValueError, match="n_per_class must be >= 1"):
            make_posture_dataset(n_per_class)

    def test_constant_sleeping_classifies_lying_closed_loop(self):
        u, y = make_posture_dataset(80, seed=1)
        forest = train_forest(u, y, seed=2)
        scenario = steady_scenario(Activity.SLEEPING, 60)
        xyz, truth = gen_accel_trace(scenario)
        predictions = forest.predict(
            gravity_feature(GravityFilter().process(xyz)))
        assert predictions.tolist() == [int(Posture.LYING)] * 60
        assert truth.tolist() == [Posture.LYING] * 60

    def test_gravity_direction_is_unit_with_exact_cosine(self):
        for posture, cosine in POSTURE_MEAN_COSINE.items():
            g = gravity_direction(posture)
            assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)
            assert g[2] == cosine

    def test_trace_matches_truth_length(self):
        scenario = Scenario((ScenarioStep(Activity.RESTING, 7),
                             ScenarioStep(Activity.EATING, 8)))
        xyz, truth = gen_accel_trace(scenario)
        assert len(truth) == 7 + WALK_SECONDS + 8
        assert xyz.shape == (len(truth) * 50, 3)
        assert xyz.dtype == np.float64 and xyz.flags.c_contiguous


class TestVideoGenerator:
    def test_identical_seed_identical_frames(self):
        s1 = demo_scenario(seed=3, dwell_s=5)
        s2 = demo_scenario(seed=3, dwell_s=5)
        cam1 = RoomCamera(s1, "bedroom")
        cam2 = RoomCamera(s2, "bedroom")
        np.testing.assert_array_equal(cam1.frames(0, 32), cam2.frames(0, 32))

    def test_different_seed_differs(self):
        cam1 = RoomCamera(demo_scenario(seed=3, dwell_s=5), "bedroom")
        cam2 = RoomCamera(demo_scenario(seed=4, dwell_s=5), "bedroom")
        assert np.any(cam1.frames(0, 16) != cam2.frames(0, 16))

    def test_zero_noise_frames_are_pure_patterns(self):
        scenario = steady_scenario(Activity.SLEEPING, 5, pixel_noise=0.0,
                                   position_jitter=0)
        cam = RoomCamera(scenario, "bedroom")
        frame = cam.frame(0)
        values = np.unique(frame)
        background = round(BACKGROUND_LEVEL * 255)
        assert set(values.tolist()) <= {0, background, round(0.95 * 255)}

    def test_inactive_room_is_background(self):
        scenario = steady_scenario(Activity.SLEEPING, 5, pixel_noise=0.0,
                                   position_jitter=0)
        cam = RoomCamera(scenario, "kitchen")
        frame = cam.frame(0)
        assert np.all(frame == round(BACKGROUND_LEVEL * 255))

    def test_segment_labels_follow_timeline(self):
        scenario = Scenario((ScenarioStep(Activity.SLEEPING, 5),
                             ScenarioStep(Activity.EATING, 5)))
        cam = RoomCamera(scenario, "kitchen")
        # eating starts at second 9 (5 sleep + 4 walk) = frame 450
        grid_eating = (9 * 50) // SEGMENT_FRAMES + 1
        walk_grid = (6 * 50) // SEGMENT_FRAMES
        for room in ROOMS:
            assert RoomCamera(scenario, room).activity_at_grid(walk_grid) is None
        # the kitchen camera films only its own room's activity
        assert cam.activity_at_grid(0) is None
        assert cam.activity_at_grid(grid_eating) == Activity.EATING
        with pytest.raises(IndexError):
            cam.activity_at_grid(cam.total_frames // SEGMENT_FRAMES + 1)
        assert RoomCamera(scenario, "bedroom").activity_at_grid(0) == Activity.SLEEPING
        assert RoomCamera(scenario, "bedroom").activity_at_grid(grid_eating) is None

    def test_codec_dataset_shapes_and_labels(self):
        segments, labels = make_codec_dataset(2, seed=0)
        assert len(segments) == 10
        assert labels == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]
        assert segments[0].frames.shape == (3, 16, 112, 112)

    def test_codec_dataset_deterministic(self):
        a, _ = make_codec_dataset(1, seed=7)
        b, _ = make_codec_dataset(1, seed=7)
        for s1, s2 in zip(a, b):
            np.testing.assert_array_equal(s1.frames, s2.frames)

    def test_unknown_room_rejected(self):
        with pytest.raises(ValueError, match="unknown room"):
            RoomCamera(demo_scenario(dwell_s=5), "garage")

    def test_frame_beyond_end_rejected(self):
        cam = RoomCamera(steady_scenario(Activity.RESTING, 5), "bedroom")
        with pytest.raises(IndexError):
            cam.frame(cam.total_frames)

    def test_negative_frame_rejected(self):
        # -1 used to wrap to the scenario's last second and render it
        cam = RoomCamera(demo_scenario(seed=1, dwell_s=5), "living_room")
        with pytest.raises(IndexError):
            cam.frame(-1)

    def test_negative_grid_segment_rejected(self):
        cam = RoomCamera(demo_scenario(seed=1, dwell_s=5), "living_room")
        with pytest.raises(IndexError):
            cam.segment_at_grid(-1)

    def test_negative_grid_label_rejected(self):
        # -1 used to return the last second's CALLING
        cam = RoomCamera(demo_scenario(seed=1, dwell_s=5), "living_room")
        with pytest.raises(IndexError):
            cam.activity_at_grid(-1)


def per_second_accel_trace(scenario):
    """gen_accel_trace as it was before it drew the whole trace's noise at
    once, kept as the oracle."""
    postures = posture_timeline(scenario)
    rng = _rng(scenario.seed, _ACCEL_STREAM)
    n = len(postures) * WINDOW_SAMPLES
    xyz = np.empty((n, 3))
    for sec, posture in enumerate(postures):
        block = np.tile(gravity_direction(posture), (WINDOW_SAMPLES, 1))
        if scenario.accel_noise_g > 0:
            block = block + rng.normal(0.0, scenario.accel_noise_g,
                                       block.shape)
        xyz[sec * WINDOW_SAMPLES:(sec + 1) * WINDOW_SAMPLES] = block
    return xyz, postures


class TestAccelTraceOracle:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(list(Activity)), min_size=1, max_size=4),
           st.integers(1, 40), st.sampled_from([0.0, 0.05, 0.3]))
    def test_trace_bytes_equal_per_second_draws(self, seed, activities,
                                                dwell_s, noise_g):
        steps = tuple(ScenarioStep(a, dwell_s + i)
                      for i, a in enumerate(activities))
        scenario = Scenario(steps, seed=seed, accel_noise_g=noise_g)
        got, got_postures = gen_accel_trace(scenario)
        want, want_postures = per_second_accel_trace(scenario)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_postures.dtype == np.int64
        assert got_postures.tolist() == want_postures


def per_window_posture_dataset(n_per_class, seed=0, accel_noise_g=0.05):
    """make_posture_dataset as it was before it ran the feature over many
    windows at once, one call per second, kept as the oracle."""
    us, labels = [], []
    rng = _rng(seed, _ACCEL_STREAM, _DATASET_STREAM)
    for posture in Posture:
        direction = gravity_direction(posture)
        xyz = np.tile(direction, (n_per_class * WINDOW_SAMPLES, 1))
        if accel_noise_g > 0:
            xyz = xyz + rng.normal(0.0, accel_noise_g, xyz.shape)
        filtered = GravityFilter().process(xyz)
        for i in range(n_per_class):
            window = filtered[i * WINDOW_SAMPLES:(i + 1) * WINDOW_SAMPLES]
            us.append(float(gravity_feature(window, i)[0]))
            labels.append(int(posture))
    return np.array(us), np.array(labels, dtype=np.int64)


class TestPostureDatasetOracle:
    @pytest.mark.parametrize("n_per_class, seed", [(80, 1), (60, 0), (5, 3)])
    def test_bytes_equal_per_window_features(self, n_per_class, seed):
        got_u, got_y = make_posture_dataset(n_per_class, seed=seed)
        want_u, want_y = per_window_posture_dataset(n_per_class, seed=seed)
        assert got_u.dtype == want_u.dtype and got_y.dtype == want_y.dtype
        assert got_u.tobytes() == want_u.tobytes()
        assert got_y.tobytes() == want_y.tobytes()
