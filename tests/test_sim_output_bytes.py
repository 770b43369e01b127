"""The simulator writes exactly the event-log bytes it wrote when each step still
rendered the 640x480 mask image: the sha256 of every log is pinned, for the three
scenarios of scripts/run_simulation.py and for two long zigzag courses with face
windows and obstacles. The closed-form stripe is also checked against the
rendered reference, step by step and on random poses and courses.

Each part of a step that no longer scans is checked against the scan it replaced
(tests/oracles.py): the course cursor's point bit for bit, and how few segments it
evaluates; the face and obstacle window cursors; and the log template's bytes."""

import hashlib
import importlib.util
import json
import math
import random
import struct
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from robophoto import behavior_sim
from robophoto.behavior_sim import ControllerParams, Scenario, Simulator, line_centroid, write_event_log

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_simulation.py"

# captured from the code that rendered a mask image on every follow-line step
DIGESTS = {
    "straight_line": "c9f2156317fd0f0bc4364d25b479581c985aa71205fedc7226b3c9ab5d0f88b0",
    "left_cluster": "b0ebf1dfc9f1bbd006409845cd95928f5276d93db0d111b78df7712443df197e",
    "obstacle": "4b349ccbc71d20b4d3892f04f502b73fae733b028d4d9443134f41abc06353f9",
    "zigzag_20000": "7463ac911d49561a139baa03179433c77cceaf480e1cfb33cf068dcdc0aea854",
    # captured from the code that scanned every segment and window at each step
    "zigzag_40000": "962eeba40f5f337635869529b88b3805911b6cfb01b3af53bca76515dcf425d1",
}


def _script_scenarios() -> dict[str, Scenario]:
    spec = importlib.util.spec_from_file_location("script_run_simulation", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.scenarios()


def zigzag(steps: int, seed: int, dt: float = 0.1) -> Scenario:
    """A course of 20 m segments turning 10-20 degrees left and right in turn,
    a 2 s face window on a random camera every 25 s, and an obstacle after
    about half of them."""
    rng = random.Random(seed)
    line, heading = [(0.0, 0.0)], 0.0
    for i in range(int(steps * dt * 0.3 / 20.0) + 2):
        heading += math.radians(rng.uniform(10.0, 20.0)) * (1 if i % 2 == 0 else -1)
        x, y = line[-1]
        line.append((round(x + 20.0 * math.cos(heading), 6), round(y + 20.0 * math.sin(heading), 6)))
    windows, obstacles, t = [], [], 5.0
    while t + 25.0 <= steps * dt:
        start = round(t + rng.uniform(0.0, 2.0), 1)
        counts = [0, 0, 0]
        counts[rng.randrange(3)] = rng.randrange(2, 5)
        windows.append({"t_start": start, "t_end": round(start + 2.0, 1), "counts": counts})
        if rng.random() < 0.5:
            obstacles.append({"t_start": t + 18.0, "t_end": t + 20.0, "points": [[0.4, 1.0]] * 12})
        t += 25.0
    return Scenario(dt=dt, steps=steps, line=line, start_pose=(0.0, 0.0, 0.0), obstacles=obstacles,
                    camera_faces=windows)


def _log_digest(scenario: Scenario, path: Path) -> str:
    write_event_log(Simulator(scenario).run(), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_event_logs_keep_their_pinned_bytes(tmp_path):
    scenarios = {
        **_script_scenarios(), "zigzag_20000": zigzag(20000, seed=5), "zigzag_40000": zigzag(40000, seed=5),
    }
    assert {name: _log_digest(s, tmp_path / f"{name}.jsonl") for name, s in scenarios.items()} == DIGESTS


# --- the closed-form stripe against the rendered reference ---------------------


def _agrees(sim: Simulator) -> bool:
    """Whether the line is in view, after checking that the stripe's closed-form
    centroid is the float line_centroid takes from the rendered image."""
    stripe, centroid = sim._stripe(), line_centroid(sim.render_line_image())
    assert (stripe is None) == (centroid is None)
    if stripe is not None:
        assert (stripe[0] + stripe[1] - 1) / 2 == centroid
    return stripe is not None


def test_stripe_matches_the_reference_at_every_step_of_the_script_scenarios():
    outcomes = set()
    for scenario in _script_scenarios().values():
        sim = Simulator(scenario)
        for _ in range(scenario.steps):
            outcomes.add(_agrees(sim))
            sim.step()
    assert outcomes == {True, False}  # the line was in view and out of it


def _sim_at(pose, course) -> Simulator:
    """A simulator at pose on a course given in the robot's frame (x ahead, y left)."""
    x, y, h = pose
    line = [(x + a * math.cos(h) - b * math.sin(h), y + a * math.sin(h) + b * math.cos(h)) for a, b in course]
    return Simulator(Scenario(dt=0.1, steps=0, line=line, start_pose=pose))


ORIGIN = (0.0, 0.0, 0.0)
NEAR = st.floats(-3.0, 3.0)


# a course parallel to the heading, lateral metres to the left of the robot: its
# stripe's centre column is 320 - 640 * lateral (-32 at 0.55, 672 at -0.55);
# beyond 0.55, 1.1x the view's half-width, the course is out of view
@pytest.mark.parametrize(
    "lateral, stripe",
    [(0.56, None), (0.55, None), (0.51, None), (0.505, (0, 2)), (0.0, (315, 325)), (-0.505, (638, 640)),
     (-0.51, None), (-0.55, None), (-0.56, None)],
)
def test_stripe_is_clipped_at_the_image_edges(lateral, stripe):
    sim = _sim_at(ORIGIN, [(-1.0, lateral), (2.0, lateral)])
    assert sim._stripe() == stripe
    _agrees(sim)


@settings(max_examples=300, deadline=None)
@given(pose=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-math.pi, math.pi)),
       course=st.lists(st.tuples(NEAR, NEAR), min_size=2, max_size=6))
@example(pose=ORIGIN, course=[(-2.0, 0.0), (-0.5, 0.0)])  # behind the robot
@example(pose=(3.0, -2.0, 2.5), course=[(-1.0, 0.503), (2.0, 0.503)])  # clipped at the left edge
def test_stripe_matches_the_reference_on_random_courses(pose, course):
    _agrees(_sim_at(pose, course))


# --- the course cursor against the scan of every segment -------------------------


def _bits(point) -> bytes:
    return struct.pack("<2d", *point)


def _assert_cursor_matches_the_scan(line, queries):
    course = behavior_sim._Course(line)
    for px, py in queries:
        assert _bits(course.closest(px, py)) == _bits(oracles._closest_on_polyline(line, px, py)), (px, py)


@st.composite
def courses_and_walks(draw):
    """A course of up to 12 points drawn from a pool, so points repeat and segments
    have zero length, on a half-unit grid (exact ties between segments) or anywhere,
    at a scale up to 1e6; and a walk of look-ahead points along and off it."""
    scale = draw(st.sampled_from([1e-3, 1.0, 37.0, 1e6]))
    grid = st.integers(-8, 8).map(lambda k: k * scale / 2)
    coordinate = st.one_of(grid, st.floats(-4 * scale, 4 * scale, allow_subnormal=False))
    pool = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6))
    line = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))
    x, y = draw(st.tuples(coordinate, coordinate))
    queries = []
    for kind in draw(st.lists(st.sampled_from(["step", "jump", "on", "grid"]), max_size=60)):
        if kind == "step":  # a look-ahead point moves a little each step
            dx, dy = draw(st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)))
            x, y = x + dx * scale, y + dy * scale
        elif kind == "jump":
            x, y = draw(st.tuples(coordinate, coordinate))
        elif kind == "on":  # on a segment, or just off it
            i = draw(st.integers(0, len(line) - 2))
            f, off = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])), draw(st.sampled_from([0.0, 1e-9, 0.5]))
            (x1, y1), (x2, y2) = line[i], line[i + 1]
            x, y = x1 + f * (x2 - x1) + off * scale, y1 + f * (y2 - y1)
        else:  # a half-grid point: often equidistant from two segments
            x, y = draw(st.tuples(grid, grid))
            x += scale / 4
        queries.append((x, y))
    return line, queries


@settings(max_examples=400, deadline=None)
@given(courses_and_walks())
@example(([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)], [(1.0, 1.0), (1.0, 1.0), (1.01, 1.0), (1.0, 0.99), (1.0, 1.0)]))
@example(([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 0.0)], [(0.5, 0.3), (0.5, -0.3), (1.5, 0.0)]))
@example(([(-1e6, 0.0), (1e6, 0.0), (1e6, 1e6), (-1e6, 1e6)], [(0.0, 5e5), (0.1, 5e5), (0.0, 5e5 + 1e-3)]))
def test_the_course_cursor_finds_the_scans_point_bit_for_bit(course_and_walk):
    _assert_cursor_matches_the_scan(*course_and_walk)


# two parallel sides of a rectangle, the nearer at the first query; the second query
# is equidistant from both, so the scan's first segment in order must win
@pytest.mark.parametrize("line, queries", [
    ([(0.0, 0.0), (10.0, 0.0), (10.0, 2.0), (0.0, 2.0)], [(5.0, 1.3), (5.0, 1.0)]),
    # the same, turned and scaled: without the rounding slack the cursor loses the tie
    ([(0.0, 0.0), (6422.95326206737, -7664.57248600978), (7955.867759269326, -6379.9818335963055),
      (1532.914497201956, 1284.5906524134741)],
     [(6210.290785936587, -4622.121096460558), (5603.903832820912, -5130.276647953955)]),
    ([(0.0, -0.0), (-9.768745730460166, -2.1381316268219486), (-9.341119405095776, -4.0918807729139814),
      (0.4276263253643897, -1.9537491460920333)],
     [(-2.8311860979211656, -2.112818558848478), (-2.9292437807411953, -1.6648103266281)]),
    # at a scale of 1e6 an absolute slack of 1e-12 is too small
    ([(0.0, 0.0), (969916.187056995, 243439.0890650473), (921228.3692439856, 437422.32647644635),
      (-48687.81781300946, 193983.23741139902)],
     [(832463.7442590541, 351490.96757541294), (841778.3478563648, 314379.4879040573)]),
], ids=["tie", "turned_tie", "small_turned_tie", "large_turned_tie"])
def test_the_course_cursor_breaks_ties_as_the_scan_does(line, queries):
    _assert_cursor_matches_the_scan(line, queries)


@pytest.mark.parametrize("line", [
    [(-1.7e308, -1.7e308), (1.7e308, 1.7e308)],  # every distance overflows: the scan keeps the start
    [(-1e200, 0.0), (1e200, 0.0), (1e200, 1e200)],  # products of coordinates overflow
    [(0.0, 0.0), (1e-300, 0.0), (1.0, 1e-300)],  # lengths underflow
], ids=["distances_overflow", "products_overflow", "lengths_underflow"])
def test_the_course_cursor_finds_the_scans_point_at_extreme_coordinates(line):
    queries = [(0.0, 0.1), (0.0, 0.2), (1e-301, 1e-300), (1e199, 1.0), (math.inf, 0.0), (math.nan, 0.0), (0.0, 0.1)]
    _assert_cursor_matches_the_scan(line, queries)


def test_a_sensing_step_evaluates_a_few_segments():
    """Counted, not timed: on a 40000-step zigzag of 62 segments, which the scan
    evaluates in full at every sensing step, the cursor evaluates at most 4 a step."""
    calls = Counter()
    segment_point, closest = behavior_sim._segment_point, behavior_sim._Course.closest

    def counted_segment_point(*args):
        calls["segments"] += 1
        return segment_point(*args)

    def counted_closest(self, px, py):
        calls["queries"] += 1
        return closest(self, px, py)

    scenario = zigzag(40000, seed=5)
    assert len(scenario.line) - 1 == 62
    with mock.patch.object(behavior_sim, "_segment_point", counted_segment_point), \
            mock.patch.object(behavior_sim._Course, "closest", counted_closest):
        Simulator(scenario).run()
    assert calls["queries"] > 20000
    assert calls["segments"] <= 4 * calls["queries"], calls


# --- the window cursors against the list scans ---------------------------------

DT = 0.1
# starts and ends on the step grid, so windows touch and a step falls on an end
GRID_TIME = st.integers(0, 60).map(lambda k: round(k * DT, 1))


@st.composite
def windows(draw, key, value):
    out = []
    for start, length in draw(st.lists(st.tuples(GRID_TIME, st.integers(1, 30)), max_size=8)):
        out.append({"t_start": start, "t_end": round(start + length * DT, 1), key: draw(value)})
    return out  # in draw order: overlapping and out of time order


FACE_WINDOWS = windows("counts", st.lists(st.integers(0, 4), min_size=3, max_size=3))
OBSTACLE_WINDOWS = windows("points", st.lists(st.sampled_from([[0.4, 1.0], [0.1, 0.1], [3.0, 0.2]]), max_size=14))


@settings(max_examples=150, deadline=None)
@given(faces=FACE_WINDOWS, obstacles=OBSTACLE_WINDOWS,
       times=st.lists(st.one_of(GRID_TIME, st.floats(0.0, 7.0)), max_size=40))
def test_the_window_cursors_give_what_the_list_scans_give(faces, obstacles, times):
    scenario = Scenario(dt=DT, steps=80, line=[(0.0, 0.0), (100.0, 0.0)], start_pose=(0.0, 0.0, 0.0),
                        obstacles=obstacles, camera_faces=faces)
    # at the times of a run, as the simulator asks them (it skips those of a rotation)
    asked = []
    at = behavior_sim._Windows.at

    def recorded(self, t):
        asked.append((self, t, at(self, t)))
        return asked[-1][2]

    with mock.patch.object(behavior_sim._Windows, "at", recorded):
        sim = Simulator(scenario)
        sim.run()
    assert asked
    for cursor, t, value in asked:
        assert value == (oracles.face_counts if cursor is sim._faces else oracles.scan_points)(scenario, t)
    # at any times that never decrease, repeats included
    sim = Simulator(scenario)
    for t in sorted(times):
        assert sim._faces.at(t) == oracles.face_counts(scenario, t)
        assert sim._obstacles.at(t) == oracles.scan_points(scenario, t)


# --- the log template against the JSON encoder ---------------------------------

FLOATS = st.one_of(
    st.floats(),  # NaN and +-inf included
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 1e22, 0.1, -1.5e-5, 1.7976931348623157e308]),
    st.integers(-(2**70), 2**70),  # an int v_lin gives an int v
)
ENTRIES = st.fixed_dictionaries({
    "t": FLOATS,
    "state": st.sampled_from(["follow_line", "rotate_to_subject", "burst_and_rotate_back", "transfer_pause"]),
    "command": st.fixed_dictionaries({"v": FLOATS, "omega": FLOATS}),
    "event": st.sampled_from([None, "shutter"]),
    "pose": st.lists(FLOATS, min_size=3, max_size=3),
})


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log=st.lists(ENTRIES, max_size=12))
def test_the_log_template_writes_what_the_encoder_writes(tmp_path, log):
    write_event_log(log, tmp_path / "log.jsonl")
    oracles.write_jsonl(log, tmp_path / "reference.jsonl")
    written = (tmp_path / "log.jsonl").read_bytes()
    assert written == "".join(json.dumps(e, sort_keys=True) + "\n" for e in log).encode()
    assert written == (tmp_path / "reference.jsonl").read_bytes()


@pytest.mark.parametrize("controller, dt", [
    (ControllerParams(v_lin=1), 0.1),  # v is an int in every entry
    (ControllerParams(k_p=1e308), 10.0),  # omega * dt overflows: the heading, then the pose, turns NaN
], ids=["int_v", "nan_pose"])
def test_logs_that_leave_the_template_keep_the_encoders_bytes(tmp_path, controller, dt):
    scenario = Scenario(dt=dt, steps=40, line=[(0.0, 0.0), (100.0, 0.0)], start_pose=(0.0, 0.3, 0.0))
    log = Simulator(scenario, controller).run()
    numbers = [v for e in log for v in (e["t"], e["command"]["v"], e["command"]["omega"], *e["pose"])]
    assert any(isinstance(v, int) or not math.isfinite(v) for v in numbers)  # the template cannot take them
    write_event_log(log, tmp_path / "log.jsonl")
    oracles.write_jsonl(log, tmp_path / "reference.jsonl")
    assert (tmp_path / "log.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
