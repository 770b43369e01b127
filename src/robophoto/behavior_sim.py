"""Deterministic discrete-time simulator of the robot's picture-taking runs.

Models line following (binary mask centroid + P-controller), obstacle
stopping, the three-camera face vote, and the rotate/burst/rotate-back
cycle. Physics is purely kinematic; the post-color-mask line image is
synthesized directly from the robot pose and the course polyline.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DatasetError, checked_number

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

    def __post_init__(self):
        if self.n_detected > self.n_window:
            raise ValueError("n_detected must be <= n_window")


@dataclass(frozen=True)
class PictureTakingParams:
    n_max: int = 7
    n_window: int = 10
    theta_side: float = 130.0  # degrees
    theta_front: float = 40.0
    n_burst: int = 20

    def __post_init__(self):
        if self.n_max > self.n_window:
            raise ValueError("n_max must be <= n_window")


PICTURE_TAKING = PictureTakingParams()


@dataclass(frozen=True)
class CollisionState:
    blocked_history: tuple[bool, ...] = ()
    stopped: bool = False
    clear_time: float = 0.0
    counting_clear: bool = False


def line_centroid(image: np.ndarray) -> Optional[float]:
    """Horizontal centroid of the 20-row mask slice, or None when the slice is empty."""
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


def collision_update(
    points: Sequence[tuple[float, float]],
    state: CollisionState,
    dt: float,
    params: CollisionParams = CollisionParams(),
) -> CollisionState:
    """One scan frame: footprint points are ignored, a frame is blocked when
    enough points sit inside the stop zone; stopping/resuming follows the
    n-of-window and clear-timer rules."""
    in_zone = 0
    for x, z in points:
        if math.hypot(x, z) <= params.footprint_radius:
            continue
        if x < params.x_stop and z < params.z_stop:
            in_zone += 1
    blocked = in_zone >= params.n_stop
    history = (state.blocked_history + (blocked,))[-params.n_window :]
    if not state.stopped:
        if sum(history) >= params.n_detected:
            return CollisionState(blocked_history=history, stopped=True, clear_time=0.0)
        return CollisionState(blocked_history=history, stopped=False, clear_time=0.0)
    # stopped: resume only t_stop seconds after the first consecutive clear frame
    if blocked:
        return CollisionState(blocked_history=history, stopped=True)
    clear_time = state.clear_time + dt if state.counting_clear else 0.0
    if clear_time >= params.t_stop:
        return CollisionState(blocked_history=history, stopped=False)
    return CollisionState(
        blocked_history=history, stopped=True, clear_time=clear_time, counting_clear=True
    )


def camera_vote(
    history: Sequence[Optional[str]], params: PictureTakingParams = PICTURE_TAKING
) -> Optional[str]:
    """A camera wins when it held the per-frame face-count maximum in at
    least n_max of the last n_window frames."""
    recent = list(history)[-params.n_window :]
    for cam in ("left", "front", "right"):
        if sum(1 for h in recent if h == cam) >= params.n_max:
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
        values = (_real(left), _real(front), _real(right))
    return {"t_start": _real(w["t_start"]), "t_end": _real(w["t_end"]), key: values}


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
        if not (self.dt > 0 and self.steps >= 0 and len(self.line) > 1):
            raise ScenarioError("a scenario needs dt > 0, integer steps >= 0 and 2+ line points")
        self.line = [(_real(x), _real(y)) for x, y in self.line]
        x, y, heading = self.start_pose
        self.start_pose = (_real(x), _real(y), _real(heading))
        self.obstacles = [_window(w, "points") for w in self.obstacles]
        self.camera_faces = [_window(w, "counts") for w in self.camera_faces]

    @classmethod
    def from_json(cls, text: str | bytes) -> "Scenario":
        """A scenario from JSON text or its UTF-8 bytes; anything malformed raises ScenarioError."""
        try:
            return cls(**json.loads(text))
        except (ValueError, RecursionError, TypeError, KeyError) as e:
            raise ScenarioError(f"malformed scenario: {e}") from None


class Simulator:
    """Step-wise behavior simulation over a scenario; emits one log entry per step."""

    def __init__(self, scenario: Scenario, controller: ControllerParams = ControllerParams()):
        self.scenario = scenario
        self.controller = controller
        self.x, self.y, self.heading = scenario.start_pose
        self.t = 0.0
        self.state = "follow_line"
        self.collision_state = CollisionState()
        self.vote_history: deque[Optional[str]] = deque(maxlen=PICTURE_TAKING.n_window)
        self.rotate_target = 0.0
        self.return_heading = 0.0
        self.shots_left = 0
        self.pause_left = 0.0

    # --- world sensing -------------------------------------------------

    def _line_lateral_offset(self) -> Optional[float]:
        """Lateral offset (robot frame, left positive) of the course at the
        look-ahead point, or None when outside the camera's view."""
        lx = self.x + LOOKAHEAD_M * math.cos(self.heading)
        ly = self.y + LOOKAHEAD_M * math.sin(self.heading)
        qx, qy = _closest_on_polyline(self.scenario.line, lx, ly)
        dx, dy = qx - self.x, qy - self.y
        y_r = -math.sin(self.heading) * dx + math.cos(self.heading) * dy
        x_r = math.cos(self.heading) * dx + math.sin(self.heading) * dy
        if not (x_r > 0.0 and abs(y_r) <= VIEW_HALF_WIDTH_M * 1.1):  # NaN is out of view
            return None
        return y_r

    def render_line_image(self) -> np.ndarray:
        image = np.zeros((IMAGE_H, IMAGE_W), dtype=np.uint8)
        y_r = self._line_lateral_offset()
        if y_r is None:
            return image
        col = IMAGE_W / 2.0 - y_r / VIEW_HALF_WIDTH_M * (IMAGE_W / 2.0)
        lo = int(round(col)) - LINE_STRIPE_PX // 2
        hi = lo + LINE_STRIPE_PX
        lo, hi = max(lo, 0), min(hi, IMAGE_W)
        if hi > lo:
            image[SLICE_START_ROW : SLICE_START_ROW + SLICE_HEIGHT, lo:hi] = 1
        return image

    def _scan_points(self) -> list[tuple[float, float]]:
        pts: list[tuple[float, float]] = []
        for ob in self.scenario.obstacles:
            if ob["t_start"] <= self.t < ob["t_end"]:
                pts.extend(ob["points"])
        return pts

    def _face_counts(self) -> tuple[float, float, float]:
        for window in self.scenario.camera_faces:
            if window["t_start"] <= self.t < window["t_end"]:
                return window["counts"]
        return (0, 0, 0)

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
            self.collision_state = collision_update(self._scan_points(), self.collision_state, dt)
            centroid = line_centroid(self.render_line_image())
            if self.collision_state.stopped:
                v = omega = 0.0
            elif centroid is not None:
                v, omega = steer(centroid, self.controller)
            if self.state == "follow_line":
                self.vote_history.append(frame_winner(self._face_counts()))
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
            line_visible = line_centroid(self.render_line_image()) is not None
            if self.shots_left == 0 and (omega == 0.0 or line_visible):
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
        self.t = round(self.t + dt, 9)
        return entry

    def run(self) -> list[dict]:
        return [self.step() for _ in range(self.scenario.steps)]


def _closest_on_polyline(line: Sequence[tuple[float, float]], px: float, py: float):
    best = line[0]  # kept only when every distance overflows
    best_d = math.inf
    for (x1, y1), (x2, y2) in zip(line, line[1:]):
        vx, vy = x2 - x1, y2 - y1
        L2 = vx * vx + vy * vy
        if L2 == 0:
            qx, qy = x1, y1
        else:
            t = max(0.0, min(1.0, ((px - x1) * vx + (py - y1) * vy) / L2))
            qx, qy = x1 + t * vx, y1 + t * vy
        d = math.hypot(px - qx, py - qy)
        if d < best_d:
            best_d = d
            best = (qx, qy)
    return best


def write_event_log(log: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for entry in log:
            fh.write(json.dumps(entry, sort_keys=True))
            fh.write("\n")
