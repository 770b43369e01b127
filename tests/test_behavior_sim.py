import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robophoto.behavior_sim import (
    COLLISION,
    CollisionState,
    ControllerParams,
    IMAGE_H,
    IMAGE_W,
    PICTURE_TAKING,
    PictureTakingParams,
    Scenario,
    Simulator,
    SLICE_HEIGHT,
    SLICE_START_ROW,
    camera_vote,
    collision_update,
    frame_winner,
    line_centroid,
    steer,
    write_event_log,
)


def _mask(cols):
    image = np.zeros((IMAGE_H, IMAGE_W), dtype=np.uint8)
    image[SLICE_START_ROW : SLICE_START_ROW + SLICE_HEIGHT, cols] = 1
    return image


def test_line_centroid_single_column():
    assert line_centroid(_mask([100])) == 100.0


def test_line_centroid_symmetric_band():
    assert line_centroid(_mask(slice(310, 331))) == 320.0


def test_line_centroid_ignores_rows_outside_slice():
    image = np.zeros((IMAGE_H, IMAGE_W), dtype=np.uint8)
    image[0:100, 500] = 1
    assert line_centroid(image) is None


def test_line_centroid_weighted():
    # two columns, one with double weight via two unit rows vs one
    image = np.zeros((IMAGE_H, IMAGE_W), dtype=np.uint8)
    image[SLICE_START_ROW, 100] = 1
    image[SLICE_START_ROW, 200] = 1
    image[SLICE_START_ROW + 1, 200] = 1
    assert line_centroid(image) == pytest.approx((100 + 200 + 200) / 3)


def test_steer_centered_goes_straight():
    v, omega = steer(IMAGE_W / 2.0, ControllerParams())
    assert v == 0.3 and omega == 0.0


def test_steer_sign_and_gain():
    params = ControllerParams(k_p=2.0, v_lin=0.5)
    _, omega = steer(IMAGE_W * 0.75, params)  # line right of center
    assert omega == pytest.approx(-1.0)  # turn clockwise toward it
    _, omega = steer(IMAGE_W * 0.25, params)
    assert omega == pytest.approx(1.0)


def _zone_points(n):
    return [(0.4, 1.0)] * n


def test_collision_requires_enough_zone_points():
    p = COLLISION
    s = CollisionState()
    for _ in range(p.n_window):
        s = collision_update(_zone_points(p.n_stop - 1), s, 0.1)
    assert not s.stopped


def test_collision_footprint_points_ignored():
    p = COLLISION
    pts = [(0.0, 0.1)] * 50  # all within the footprint radius
    s = CollisionState()
    for _ in range(p.n_window):
        s = collision_update(pts, s, 0.1)
    assert not s.stopped


def test_collision_stops_after_n_of_window():
    p = COLLISION
    s = CollisionState()
    frames = 0
    while not s.stopped:
        s = collision_update(_zone_points(p.n_stop), s, 0.1)
        frames += 1
    assert frames == p.n_detected


def test_collision_resume_exactly_t_stop_after_clear():
    p = COLLISION
    s = CollisionState()
    dt = 0.1
    for _ in range(p.n_detected):
        s = collision_update(_zone_points(p.n_stop), s, dt)
    assert s.stopped
    # first clear frame starts the timer at zero; resume after t_stop more seconds
    elapsed = 0.0
    while s.stopped:
        s = collision_update([], s, dt)
        elapsed += dt
    assert elapsed == pytest.approx(p.t_stop + dt)


def test_collision_clear_timer_resets_on_reblock():
    p = COLLISION
    s = CollisionState()
    dt = 0.1
    for _ in range(p.n_detected):
        s = collision_update(_zone_points(p.n_stop), s, dt)
    for _ in range(10):  # 1 s clear, under t_stop
        s = collision_update([], s, dt)
    s = collision_update(_zone_points(p.n_stop), s, dt)
    assert s.stopped
    elapsed = 0.0
    while s.stopped:
        s = collision_update([], s, dt)
        elapsed += dt
    assert elapsed == pytest.approx(p.t_stop + dt)


def test_frame_winner_strict_max():
    assert frame_winner((3, 1, 0)) == "left"
    assert frame_winner((1, 2, 2)) is None
    assert frame_winner((0, 0, 0)) is None
    assert frame_winner((0, 0, 4)) == "right"


def test_camera_vote_needs_n_max_of_window():
    p = PICTURE_TAKING
    history = ["left"] * (p.n_max - 1) + [None] * 3
    assert camera_vote(history) is None
    history = [None, None, None] + ["front"] * p.n_max
    assert camera_vote(history) == "front"


def test_camera_vote_window_limits_lookback():
    p = PICTURE_TAKING
    # n_max old wins pushed out of the window by newer frames
    history = ["left"] * p.n_max + [None] * p.n_window
    assert camera_vote(history) is None


def _straight_scenario(steps=200, camera_faces=None, obstacles=None, start=(0.0, 0.3, 0.0)):
    return Scenario(
        dt=0.1,
        steps=steps,
        line=[(0.0, 0.0), (100.0, 0.0)],
        start_pose=start,
        obstacles=obstacles or [],
        camera_faces=camera_faces or [],
    )


def test_simulator_converges_to_line():
    sim = Simulator(_straight_scenario(steps=120))
    log = sim.run()
    assert abs(sim.y) < 0.02
    assert all(e["state"] == "follow_line" for e in log)


def test_simulator_burst_count_and_return():
    faces = [{"t_start": 2.0, "t_end": 4.0, "counts": [3, 0, 0]}]
    sim = Simulator(_straight_scenario(steps=700, camera_faces=faces))
    log = sim.run()
    shutters = [e for e in log if e["event"] == "shutter"]
    assert len(shutters) == PictureTakingParams().n_burst
    assert all(e["state"] == "burst_and_rotate_back" for e in shutters)
    assert abs(sim.heading) < math.radians(2.0)
    states = [e["state"] for e in log]
    assert "rotate_to_subject" in states and "transfer_pause" in states


def test_simulator_rotation_direction_left_vs_right():
    left = [{"t_start": 2.0, "t_end": 4.0, "counts": [3, 0, 0]}]
    right = [{"t_start": 2.0, "t_end": 4.0, "counts": [0, 0, 3]}]
    for faces, sign in ((left, 1.0), (right, -1.0)):
        sim = Simulator(_straight_scenario(steps=200, camera_faces=faces))
        for _ in range(200):
            entry = sim.step()
            if entry["state"] == "rotate_to_subject" and entry["command"]["omega"] != 0:
                assert math.copysign(1.0, entry["command"]["omega"]) == sign
                break
        else:
            pytest.fail("never entered rotate_to_subject")


def test_simulator_obstacle_stops_motion():
    obstacles = [{"t_start": 1.0, "t_end": 3.0, "points": [[0.4, 1.0]] * 12}]
    sim = Simulator(_straight_scenario(steps=100, obstacles=obstacles, start=(0.0, 0.0, 0.0)))
    log = sim.run()
    stopped = [e for e in log if 1.5 <= e["t"] <= 2.9]
    assert stopped and all(e["command"]["v"] == 0.0 for e in stopped)
    moving_after = [e for e in log if e["t"] >= 5.5]
    assert any(e["command"]["v"] > 0 for e in moving_after)


def test_simulator_deterministic():
    faces = [{"t_start": 2.0, "t_end": 4.0, "counts": [0, 3, 0]}]
    a = Simulator(_straight_scenario(steps=300, camera_faces=faces)).run()
    b = Simulator(_straight_scenario(steps=300, camera_faces=faces)).run()
    assert a == b


def test_vote_history_stays_within_the_vote_window():
    # no faces in view, so no camera ever wins and nothing clears the history
    sim = Simulator(_straight_scenario(steps=5000))
    log = sim.run()
    assert all(e["state"] == "follow_line" for e in log)
    assert len(sim.vote_history) <= PICTURE_TAKING.n_window


def test_line_whose_distances_overflow_runs_out_of_view():
    # segment arithmetic overflows to inf and NaN; the line is then out of view
    line = [(-1.7e308, -1.7e308), (1.7e308, 1.7e308)]
    sim = Simulator(Scenario(dt=0.1, steps=20, line=line, start_pose=(0.0, 0.1, 0.5)))
    assert all(e["command"] == {"v": 0.0, "omega": 0.0} for e in sim.run())


@settings(max_examples=200, deadline=None)
@given(dt=st.one_of(st.sampled_from([1e-6, 1.4e-6, 1 / 30, 0.02, 0.05, 0.1]), st.floats(1e-6, 10.0)),
       steps=st.integers(0, 300))
def test_the_clock_after_k_steps_is_k_times_dt(dt, steps):
    sim = Simulator(Scenario(dt=dt, steps=steps, line=[(0.0, 0.0), (100.0, 0.0)], start_pose=(0.0, 0.3, 0.0)))
    for k in range(steps):
        assert sim.step()["t"] == round(round(k * dt, 9), 6)
        assert sim.t == round((k + 1) * dt, 9)


def test_scenario_json_roundtrip():
    sc = _straight_scenario(steps=10)
    text = json.dumps(
        {
            "dt": sc.dt,
            "steps": sc.steps,
            "line": sc.line,
            "start_pose": sc.start_pose,
        }
    )
    back = Scenario.from_json(text)
    assert back.dt == sc.dt and back.steps == sc.steps
    assert back.line == sc.line and back.start_pose == sc.start_pose


def test_event_log_jsonl(tmp_path):
    log = Simulator(_straight_scenario(steps=5)).run()
    path = tmp_path / "log.jsonl"
    write_event_log(log, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    first = json.loads(lines[0])
    assert set(first) == {"t", "state", "command", "event", "pose"}
    assert first["t"] == 0.0


def test_param_validation():
    with pytest.raises(ValueError):
        ControllerParams(k_p=0.0)
