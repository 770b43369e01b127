"""The simulator writes exactly the event-log bytes it wrote when each step still
rendered the 640x480 mask image: the sha256 of every log is pinned, for the three
scenarios of scripts/run_simulation.py and for a long zigzag course with face
windows and obstacles. The closed-form stripe is also checked against the
rendered reference, step by step and on random poses and courses."""

import hashlib
import importlib.util
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robophoto.behavior_sim import Scenario, Simulator, line_centroid, write_event_log

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_simulation.py"

# captured from the code that rendered a mask image on every follow-line step
DIGESTS = {
    "straight_line": "c9f2156317fd0f0bc4364d25b479581c985aa71205fedc7226b3c9ab5d0f88b0",
    "left_cluster": "b0ebf1dfc9f1bbd006409845cd95928f5276d93db0d111b78df7712443df197e",
    "obstacle": "4b349ccbc71d20b4d3892f04f502b73fae733b028d4d9443134f41abc06353f9",
    "zigzag_20000": "7463ac911d49561a139baa03179433c77cceaf480e1cfb33cf068dcdc0aea854",
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
    scenarios = {**_script_scenarios(), "zigzag_20000": zigzag(20000, seed=5)}
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
