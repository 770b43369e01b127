"""Deterministic discrete-time simulator of the robot's picture-taking runs.

Models line following (binary mask centroid + P-controller), obstacle
stopping, the three-camera face vote, and the rotate/burst/rotate-back
cycle. Physics is purely kinematic. A step reads the line stripe's columns,
projected from the robot pose and the course polyline; the post-color-mask
image is rendered from them only for tests and inspection. A step's cost does not
grow with the course or the number of windows.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .errors import DatasetError, checked_number, parsed_json

IMAGE_W = 640
IMAGE_H = 480
SLICE_START_ROW = int(0.75 * IMAGE_H)
SLICE_HEIGHT = 20
LINE_STRIPE_PX = 10

LOOKAHEAD_M = 0.6
VIEW_HALF_WIDTH_M = 0.5

ROTATE_SPEED = 0.5  # rad/s
HEADING_TOL = math.radians(1.0)
TRANSFER_PAUSE_S = 5.0


@dataclass(frozen=True)
class ControllerParams:
    k_p: float = 1.0  # rad/s per normalized pixel error
    v_lin: float = 0.3  # m/s

    def __post_init__(self):
        if self.k_p <= 0 or self.v_lin <= 0:
            raise ValueError(f"gains must be positive: {self}")


@dataclass(frozen=True)
class CollisionParams:
    n_stop: int = 10
    x_stop: float = 0.5
    z_stop: float = 2.0
    n_detected: int = 4
    n_window: int = 5
    t_stop: float = 2.0
    footprint_radius: float = 0.35


@dataclass(frozen=True)
class PictureTakingParams:
    n_max: int = 7
    n_window: int = 10
    theta_side: float = 130.0  # degrees
    theta_front: float = 40.0
    n_burst: int = 20


COLLISION = CollisionParams()
PICTURE_TAKING = PictureTakingParams()


@dataclass(frozen=True)
class CollisionState:
    blocked_history: tuple[bool, ...] = ()
    stopped: bool = False
    clear_time: float = 0.0
    counting_clear: bool = False


def line_centroid(image: np.ndarray) -> Optional[float]:
    """Horizontal centroid of the 20-row mask slice, or None when the slice is empty:
    the reference for the (lo + hi - 1) / 2 that a step takes from the stripe."""
    sl = image[SLICE_START_ROW : SLICE_START_ROW + SLICE_HEIGHT]
    ind = sl != 0
    m00 = int(ind.sum())
    if m00 == 0:
        return None
    xs = np.arange(sl.shape[1])
    m10 = float((ind * xs[None, :]).sum())
    return m10 / m00


def steer(centroid_x: float, params: ControllerParams) -> tuple[float, float]:
    """Constant linear velocity, angular velocity proportional to the
    normalized centroid error."""
    err = (centroid_x - IMAGE_W / 2.0) / (IMAGE_W / 2.0)
    return params.v_lin, -params.k_p * err


def collision_update(points: Sequence[tuple[float, float]], state: CollisionState, dt: float) -> CollisionState:
    """One scan frame: footprint points are ignored, a frame is blocked when
    enough points sit inside the stop zone; stopping/resuming follows the
    n-of-window and clear-timer rules."""
    in_zone = 0
    for x, z in points:
        if math.hypot(x, z) <= COLLISION.footprint_radius:
            continue
        if x < COLLISION.x_stop and z < COLLISION.z_stop:
            in_zone += 1
    blocked = in_zone >= COLLISION.n_stop
    history = (state.blocked_history + (blocked,))[-COLLISION.n_window :]
    if not state.stopped:
        if sum(history) >= COLLISION.n_detected:
            return CollisionState(blocked_history=history, stopped=True, clear_time=0.0)
        return CollisionState(blocked_history=history, stopped=False, clear_time=0.0)
    # stopped: resume only t_stop seconds after the first consecutive clear frame
    if blocked:
        return CollisionState(blocked_history=history, stopped=True)
    clear_time = state.clear_time + dt if state.counting_clear else 0.0
    if clear_time >= COLLISION.t_stop:
        return CollisionState(blocked_history=history, stopped=False)
    return CollisionState(
        blocked_history=history, stopped=True, clear_time=clear_time, counting_clear=True
    )


def camera_vote(history: Sequence[Optional[str]]) -> Optional[str]:
    """A camera wins when it held the per-frame face-count maximum in at
    least n_max of the last n_window frames."""
    recent = list(history)[-PICTURE_TAKING.n_window :]
    for cam in ("left", "front", "right"):
        if recent.count(cam) >= PICTURE_TAKING.n_max:
            return cam
    return None


def frame_winner(counts: tuple[int, int, int]) -> Optional[str]:
    """Camera with the strictly largest face count this frame (left, front, right)."""
    best = max(counts)
    if best == 0 or list(counts).count(best) > 1:
        return None
    return ("left", "front", "right")[counts.index(best)]


def _wrap(angle: float) -> float:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


class ScenarioError(DatasetError):
    pass


def _real(value) -> float:
    return checked_number(value, ScenarioError, "a scenario value")


def _window(w, key: str) -> dict:
    if key == "points":
        values = [(_real(x), _real(z)) for x, z in w[key]]
    else:
        left, front, right = w[key]
        values = tuple(checked_number(c, ScenarioError, "a face count", integer=True) for c in (left, front, right))
        if min(values) < 0:
            raise ScenarioError(f"face counts must be >= 0, got {list(values)}")
    t_start, t_end = _real(w["t_start"]), _real(w["t_end"])
    if not t_end > t_start:  # such a window could never be active
        raise ScenarioError(f"a window must end after it starts, got [{t_start}, {t_end})")
    return {"t_start": t_start, "t_end": t_end, key: values}


@dataclass
class Scenario:
    dt: float
    steps: int
    line: list[tuple[float, float]]
    start_pose: tuple[float, float, float]  # x, y, heading
    obstacles: list[dict] = field(default_factory=list)  # {t_start, t_end, points}
    camera_faces: list[dict] = field(default_factory=list)  # {t_start, t_end, counts}

    def __post_init__(self):
        # checked once so no run meets a bad value; a wrong structure raises TypeError or ValueError
        self.dt = _real(self.dt)
        self.steps = checked_number(self.steps, ScenarioError, "steps", integer=True)
        if not (self.dt >= 1e-6 and self.steps >= 0 and len(self.line) > 1):  # the log's "t" keeps 6 decimals
            raise ScenarioError("a scenario needs dt >= 1e-6, integer steps >= 0 and 2+ line points")
        if not math.isfinite(self.dt * self.steps):  # every "t" in the log must be a JSON number
            raise ScenarioError(f"dt * steps must be finite, got {self.dt} * {self.steps}")
        self.line = [(_real(x), _real(y)) for x, y in self.line]
        x, y, heading = self.start_pose
        self.start_pose = (_real(x), _real(y), _real(heading))
        self.obstacles = [_window(w, "points") for w in self.obstacles]
        self.camera_faces = [_window(w, "counts") for w in self.camera_faces]

    @classmethod
    def from_json(cls, text: str | bytes) -> "Scenario":
        """A scenario from one JSON object (errors.parsed_json); anything malformed raises ScenarioError."""
        fields = parsed_json(text, ScenarioError, "a scenario")
        try:
            return cls(**fields)
        except (ValueError, TypeError, KeyError) as e:  # a wrong structure, e.g. a point of 3 values
            raise ScenarioError(f"malformed scenario: {e}") from None


def _segment_point(x1, y1, vx, vy, L2, px, py) -> tuple[float, float, float]:
    """The distance from (px, py) to the segment from (x1, y1) along (vx, vy), and its nearest point."""
    if L2 == 0:
        qx, qy = x1, y1
    else:
        t = max(0.0, min(1.0, ((px - x1) * vx + (py - y1) * vy) / L2))
        qx, qy = x1 + t * vx, y1 + t * vy
    return math.hypot(px - qx, py - qy), qx, qy


class _Course:
    """The point a scan of every segment finds (the first in order at the least distance), from those
    that can hold it: a scan at an anchor sorts the segments by distance; delta from it, none farther
    than ub + delta (plus a slack for rounding) can beat the anchor's nearest, ub away. A query that
    leaves more than two is scanned and becomes the anchor."""

    def __init__(self, line: Sequence[tuple[float, float]]):
        self.start, self.anchor = (math.inf, *line[0]), None
        self.segments = [(x1, y1, x2 - x1, y2 - y1, (x2 - x1) * (x2 - x1) + (y2 - y1) * (y2 - y1))
                         for (x1, y1), (x2, y2) in zip(line, line[1:])]
        self.extent = max(abs(c) for point in line for c in point)

    def closest(self, px: float, py: float) -> tuple[float, float]:
        scale = self.extent + abs(px) + abs(py)  # under 1e150 no product overflows; never inf or NaN
        if self.anchor is not None and scale < 1e150:
            ax, ay, dists, order = self.anchor
            delta = math.hypot(px - ax, py - ay)
            hit = _segment_point(*self.segments[order[0]], px, py)
            n = bisect_right(dists, hit[0] + delta + 1e-12 + 1e-9 * (scale + delta))
            if 1 <= n <= 2:  # min keeps the first of equal distances, as the scan does
                hits = [hit if i == order[0] else _segment_point(*self.segments[i], px, py) for i in sorted(order[:n])]
                return min(hits, key=itemgetter(0))[1:]
        hits = [_segment_point(*segment, px, py) for segment in self.segments]
        if scale < 1e150:
            order = sorted(range(len(hits)), key=lambda i: hits[i][0])
            self.anchor = (px, py, [hits[i][0] for i in order], order)
        return min(self.start, *hits, key=itemgetter(0))[1:]  # the start when every distance overflows


class _Windows:
    """What the windows covering a never-decreasing time give, scanned again only when it passes an end."""

    def __init__(self, windows: list[dict], combine):
        self.windows, self.combine, self.next = windows, combine, -math.inf
        self.ends = sorted({w[end] for w in windows for end in ("t_start", "t_end")}) + [math.inf]

    def at(self, t: float):
        if t >= self.next:
            self.next = self.ends[bisect_right(self.ends, t)]
            self.value = self.combine([w for w in self.windows if w["t_start"] <= t < w["t_end"]])
        return self.value


class Simulator:
    """Step-wise behavior simulation over a scenario; emits one log entry per step."""

    def __init__(self, scenario: Scenario, controller: ControllerParams = ControllerParams()):
        self.scenario = scenario
        self.controller = controller
        self.x, self.y, self.heading = scenario.start_pose
        self.t, self._steps_taken = 0.0, 0
        self.state = "follow_line"
        self.collision_state = CollisionState()
        self.vote_history: deque[Optional[str]] = deque(maxlen=PICTURE_TAKING.n_window)
        self.rotate_target = 0.0
        self.return_heading = 0.0
        self.shots_left = 0
        self.pause_left = 0.0
        self._course = _Course(scenario.line)
        # the obstacle points of every window, the face counts of the first, in list order
        self._obstacles = _Windows(scenario.obstacles, lambda ws: [p for w in ws for p in w["points"]])
        self._faces = _Windows(scenario.camera_faces, lambda ws: ws[0]["counts"] if ws else (0, 0, 0))

    # --- world sensing -------------------------------------------------

    def _stripe(self) -> Optional[tuple[int, int]]:
        """Columns [lo, hi) of the line's stripe in the mask image, clipped to it, or
        None when the course is out of view or the clipped stripe is empty."""
        lx = self.x + LOOKAHEAD_M * math.cos(self.heading)
        ly = self.y + LOOKAHEAD_M * math.sin(self.heading)
        qx, qy = self._course.closest(lx, ly)
        dx, dy = qx - self.x, qy - self.y
        y_r = -math.sin(self.heading) * dx + math.cos(self.heading) * dy  # left positive
        x_r = math.cos(self.heading) * dx + math.sin(self.heading) * dy
        if not (x_r > 0.0 and abs(y_r) <= VIEW_HALF_WIDTH_M * 1.1):  # NaN is out of view
            return None
        col = IMAGE_W / 2.0 - y_r / VIEW_HALF_WIDTH_M * (IMAGE_W / 2.0)
        lo = int(round(col)) - LINE_STRIPE_PX // 2
        lo, hi = max(lo, 0), min(lo + LINE_STRIPE_PX, IMAGE_W)
        return (lo, hi) if hi > lo else None

    def render_line_image(self) -> np.ndarray:
        """The post-color-mask image: the stripe in the slice rows, zero elsewhere."""
        image = np.zeros((IMAGE_H, IMAGE_W), dtype=np.uint8)
        stripe = self._stripe()
        if stripe is not None:
            image[SLICE_START_ROW : SLICE_START_ROW + SLICE_HEIGHT, slice(*stripe)] = 1
        return image

    # --- stepping ------------------------------------------------------

    def _rotate_towards(self, target: float) -> float:
        err = _wrap(target - self.heading)
        if abs(err) <= HEADING_TOL:
            return 0.0
        # clamp the step so the target is never overshot
        speed = min(ROTATE_SPEED, abs(err) / self.scenario.dt)
        return speed if err > 0 else -speed

    def step(self) -> dict:
        dt = self.scenario.dt
        v = omega = 0.0
        event = None
        state_at_entry = self.state

        if self.state in ("follow_line", "transfer_pause"):
            self.collision_state = collision_update(self._obstacles.at(self.t), self.collision_state, dt)
            stripe = None if self.collision_state.stopped else self._stripe()
            if stripe is not None:
                v, omega = steer((stripe[0] + stripe[1] - 1) / 2, self.controller)
            if self.state == "follow_line":
                self.vote_history.append(frame_winner(self._faces.at(self.t)))
                winner = camera_vote(self.vote_history)
                if winner is not None:
                    self.vote_history.clear()
                    self.return_heading = self.heading
                    delta = {
                        "left": math.radians(PICTURE_TAKING.theta_side),
                        "right": -math.radians(PICTURE_TAKING.theta_side),
                        "front": -math.radians(PICTURE_TAKING.theta_front),
                    }[winner]
                    self.rotate_target = _wrap(self.heading + delta)
                    self.state = "rotate_to_subject"
                    v = omega = 0.0
            else:
                self.pause_left -= dt
                if self.pause_left <= 0.0:
                    self.state = "follow_line"
        elif self.state == "rotate_to_subject":
            omega = self._rotate_towards(self.rotate_target)
            if omega == 0.0:
                self.state = "burst_and_rotate_back"
                self.shots_left = PICTURE_TAKING.n_burst
        elif self.state == "burst_and_rotate_back":
            if self.shots_left > 0:
                event = "shutter"
                self.shots_left -= 1
            omega = self._rotate_towards(self.return_heading)
            if self.shots_left == 0 and (omega == 0.0 or self._stripe() is not None):
                self.state = "transfer_pause"
                self.pause_left = TRANSFER_PAUSE_S

        entry = {
            "t": round(self.t, 6),
            "state": state_at_entry,
            "command": {"v": round(v, 9), "omega": round(omega, 9)},
            "event": event,
            "pose": [round(self.x, 9), round(self.y, 9), round(self.heading, 9)],
        }
        self.heading = _wrap(self.heading + omega * dt)
        self.x += v * math.cos(self.heading) * dt
        self.y += v * math.sin(self.heading) * dt
        self._steps_taken += 1
        self.t = round(self._steps_taken * dt, 9)  # from the count: a sum would drift, or stall for a tiny dt
        return entry

    def run(self) -> list[dict]:
        return [self.step() for _ in range(self.scenario.steps)]


_TEXT = {n: json.dumps(n) for n in (None, "shutter", "follow_line", "rotate_to_subject", "burst_and_rotate_back",
                                     "transfer_pause")}


def write_event_log(log: list[dict], path) -> None:
    """json.dumps(entry, sort_keys=True) a line for entries as step makes them, from a template with
    float.__repr__, the encoder's text for a finite float; other values go through the encoder."""
    r = float.__repr__
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in log:
            c, (x, y, h) = e["command"], e["pose"]
            try:
                if math.isfinite(e["t"] + c["v"] + c["omega"] + x + y + h):
                    fh.write(f'{{"command": {{"omega": {r(c["omega"])}, "v": {r(c["v"])}}}, "event": {_TEXT[e["event"]]}, '
                             f'"pose": [{r(x)}, {r(y)}, {r(h)}], "state": {_TEXT[e["state"]]}, "t": {r(e["t"])}}}\n')
                    continue
            except (TypeError, KeyError):
                pass
            fh.write(json.dumps(e, sort_keys=True) + "\n")
