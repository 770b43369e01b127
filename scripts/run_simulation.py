#!/usr/bin/env python3
"""Run the three canonical behavior scenarios (line following, a left face
cluster, a blocking obstacle) and summarize the event logs."""

import argparse

from robophoto.behavior_sim import Scenario, Simulator, write_event_log


def scenarios() -> dict[str, Scenario]:
    line = [(0.0, 0.0), (100.0, 0.0)]
    return {
        "straight_line": Scenario(
            dt=0.1, steps=120, line=line, start_pose=(0.0, 0.3, 0.0)
        ),
        "left_cluster": Scenario(
            dt=0.1, steps=700, line=line, start_pose=(0.0, 0.0, 0.0),
            camera_faces=[{"t_start": 2.0, "t_end": 4.0, "counts": [3, 0, 0]}],
        ),
        "obstacle": Scenario(
            dt=0.1, steps=120, line=line, start_pose=(0.0, 0.0, 0.0),
            obstacles=[{"t_start": 1.0, "t_end": 3.0, "points": [[0.4, 1.0]] * 12}],
        ),
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default=None, help="write per-scenario JSONL logs here")
    args = ap.parse_args(argv)

    for name, scenario in scenarios().items():
        sim = Simulator(scenario)
        log = sim.run()
        shutters = sum(1 for e in log if e["event"] == "shutter")
        states = sorted({e["state"] for e in log})
        print(f"{name}: {len(log)} steps, {shutters} shutters, "
              f"final pose ({sim.x:.2f}, {sim.y:.3f}, {sim.heading:.4f}), states {states}")
        if args.out_dir:
            from pathlib import Path

            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            write_event_log(log, out / f"{name}.jsonl")


if __name__ == "__main__":
    main()
