"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single [PASS]/[FAIL] line so the criteria can be read off
a captured run (use pytest -s or check the -v test status lines).
"""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import face_columns
from oracles import gradient_check, make_random_pictures, selection_oracle
from robophoto import tinynet
from robophoto.abstraction import (
    build_picture_cnn,
    classify_picture,
    render_abstract,
    train_picture_cnn,
)
from robophoto.behavior_sim import (
    CollisionParams,
    ControllerParams,
    PictureTakingParams,
    Scenario,
    Simulator,
    line_centroid,
    IMAGE_W,
)
from robophoto.composition import (
    Thresholds,
    picture_scores,
)
from robophoto.core import (
    BoundingBox,
    Dataset,
    FaceCountCategory,
    FaceObservation,
    Label,
    PictureRecord,
    read_records_jsonl,
    validate_dataset,
    write_dataset_jsonl,
)
from robophoto.face_quality import evaluate_face_model, train_face_ann
from robophoto.selection import (
    ScoredPicture,
    crop_cascade,
    select_best,
)
from robophoto.stats import welch_t_test
from robophoto.synthetic import (
    make_face_feature_dataset,
    make_layout_dataset,
    make_threshold_dataset,
)
from robophoto.threshold_opt import GAConfig, ga_optimize, grid_search_oracle


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        layers = []
        if rng.random() < 0.5:
            cin = int(rng.integers(1, 3))
            cout = int(rng.integers(1, 4))
            kh, kw = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            stride = int(rng.integers(1, 3))
            padding = "same" if rng.random() < 0.5 else "valid"
            h, w = int(rng.integers(5, 9)), int(rng.integers(5, 9))
            spec = tinynet.conv2d(cin, cout, kh, kw, stride=stride, padding=padding)
            shape = tinynet.conv_output_shape((cin, h, w), spec)
            layers += [spec, tinynet.relu() if rng.random() < 0.5 else tinynet.leaky_relu()]
            layers.append(tinynet.flatten())
            in_dim = int(np.prod(shape))
            x = rng.normal(size=(cin, h, w))
        else:
            in_dim = int(rng.integers(2, 8))
            x = rng.normal(size=in_dim)
        hidden = int(rng.integers(1, 8))
        layers += [tinynet.dense(in_dim, hidden)]
        layers += [tinynet.relu() if rng.random() < 0.5 else tinynet.leaky_relu()]
        layers += [tinynet.dense(hidden, 1), tinynet.sigmoid()]
        model = tinynet.build_model(layers, seed=int(rng.integers(0, 10_000)))
        err = gradient_check(model, x, float(rng.integers(0, 2)), 1e-5)
        worst = max(worst, err)
    _report(
        "criterion 1 gradient correctness",
        worst < 1e-4,
        f"max relative error {worst:.2e} over 50 architectures (< 1e-4)",
    )


def test_criterion_02_face_ann_learnability():
    faces = make_face_feature_dataset(2000, seed=11, label_noise=0.1)
    held = make_face_feature_dataset(500, seed=12, label_noise=0.1)
    config = tinynet.TrainConfig(epochs=200, batch_size=32, learning_rate=0.005, seed=0)
    model, history = train_face_ann(*face_columns(faces), config)
    acc = evaluate_face_model(model, held)
    model2, history2 = train_face_ann(*face_columns(faces), config)
    deterministic = history == history2 and all(
        np.array_equal(wa[k], wb[k])
        for wa, wb in zip(model.weights, model2.weights)
        for k in wa
    )
    _report(
        "criterion 2 face ANN learnability",
        acc >= 0.85 and deterministic,
        f"held-out accuracy {acc:.4f} (>= 0.85, noisy-label ceiling 0.9), "
        f"deterministic retrain {deterministic}",
    )


def test_criterion_03_picture_cnn_learnability():
    pictures = make_layout_dataset(2000, seed=21)
    train_pics, held_pics = pictures[:1600], pictures[1600:]
    config = tinynet.TrainConfig(
        epochs=20, batch_size=32, learning_rate=0.01, optimizer="momentum", seed=0
    )
    model, _ = train_picture_cnn(Dataset(records=train_pics), config)
    correct = sum(
        (classify_picture(model, render_abstract(p)) >= 0.5) == (p.label is Label.GOOD)
        for p in held_pics
    )
    acc = correct / len(held_pics)
    _report(
        "criterion 3 picture CNN learnability",
        acc >= 0.90,
        f"held-out accuracy {acc:.4f} on {len(held_pics)} abstract layouts (>= 0.90)",
    )


def test_criterion_04_ga_vs_grid_oracle():
    details = []
    ok = True
    for kind, steps, seed in (("baseline", 9, 101), ("heuristic", 5, 102)):
        pictures = Dataset(records=make_threshold_dataset(500, seed=seed, kind=kind))
        ga = ga_optimize(pictures, kind, GAConfig(seed=0))
        grid = grid_search_oracle(pictures, kind, steps)
        ok = ok and ga.best_accuracy >= grid.best_accuracy - 0.02 and ga.best_accuracy >= 0.98
        details.append(
            f"{kind}: ga {ga.best_accuracy:.4f} vs grid({steps}) {grid.best_accuracy:.4f}"
        )
    _report("criterion 4 GA vs oracle", ok, "; ".join(details) + " (ga >= grid - 0.02 and >= 0.98)")


def test_criterion_05_scoring_equivalences():
    # the 1000 pictures as one dataset; each threshold set scores them in one picture_scores call
    pics = [
        replace(pic, picture_id=f"{seed}-{pic.picture_id}")
        for seed in range(10)
        for pic in make_random_pictures(100, seed=seed, with_scores=False)
    ]
    n_checked = len(pics)
    t = Thresholds(0.02, 0.98, 0.02, 0.98, 1e-6, 0.8)
    base = picture_scores(Dataset(records=pics), t)
    # (a) unit scores and p_min = 0 reduce the heuristic to the baseline
    scored = [
        PictureRecord(
            picture_id=pic.picture_id,
            burst_id=pic.burst_id,
            width=pic.width,
            height=pic.height,
            faces=tuple(
                FaceObservation(bbox=f.bbox, features=f.features, score=1.0)
                for f in pic.faces
            ),
            label=pic.label,
        )
        for pic in pics
    ]
    heur = picture_scores(Dataset(records=scored), replace(t, r_min=0.5, p_min=0.0))
    ok = all(np.array_equal(h, b) for h, b in zip(heur, base))
    # (b) scale invariance under power-of-two integer upscaling
    for k in (2, 4, 8):
        big = [
            PictureRecord(
                picture_id=pic.picture_id,
                burst_id=pic.burst_id,
                width=pic.width * k,
                height=pic.height * k,
                faces=tuple(
                    FaceObservation(
                        bbox=BoundingBox(
                            f.bbox.x_tl * k, f.bbox.y_tl * k, f.bbox.x_br * k, f.bbox.y_br * k
                        ),
                        features=f.features,
                    )
                    for f in pic.faces
                ),
                label=pic.label,
            )
            for pic in pics
        ]
        s2 = picture_scores(Dataset(records=big), t)
        ok = ok and all(np.array_equal(s, b) for s, b in zip(s2, base))
    # (c) any gate failure forces a zero score
    tight = Thresholds(0.45, 0.55, 0.45, 0.55, 1e-9, 1.0)
    passed, value = picture_scores(Dataset(records=pics), tight)
    ok = ok and bool(np.all(passed | (value == 0.0)))
    _report(
        "criterion 5 scoring equivalences",
        ok and n_checked >= 1000,
        f"exact equalities held on {n_checked} random pictures",
    )


def _random_candidates(rng, n, n_bursts=8):
    cats = list(FaceCountCategory)
    return [
        ScoredPicture(
            picture_id=f"p{i:04d}",
            burst_id=f"b{int(rng.integers(0, n_bursts))}",
            category=cats[int(rng.integers(0, 3))],
            score=float(np.round(rng.random(), 3)),
        )
        for i in range(n)
    ]


def test_criterion_06_selection_correctness():
    rng = np.random.default_rng(5)
    oracle_ok = True
    for _ in range(1000):
        cands = _random_candidates(rng, int(rng.integers(1, 21)))
        quota = int(rng.integers(1, 9))
        oracle_ok = oracle_ok and select_best(cands, quota) == selection_oracle(cands, quota)
    invariant_ok = True
    for _ in range(1000):
        cands = _random_candidates(rng, int(rng.integers(1, 501)), n_bursts=60)
        quota = int(rng.integers(1, 9))
        picked = select_best(cands, quota)
        by_id = {c.picture_id: c for c in cands}
        bursts = [by_id[p].burst_id for p in picked]
        invariant_ok = invariant_ok and len(set(bursts)) == len(bursts)
        for cat in FaceCountCategory:
            n_cat = sum(1 for p in picked if by_id[p].category is cat)
            invariant_ok = invariant_ok and n_cat <= quota
    _report(
        "criterion 6 selection correctness",
        oracle_ok and invariant_ok,
        "oracle match on 1000 small instances; quota/burst invariants on 1000 large instances",
    )


def test_criterion_07_crop_cascade():
    plan = crop_cascade(6000, 4000)
    sizes = [(x1 - x0, y1 - y0) for x0, y0, x1, y1 in plan]
    expected = [
        (5400, 3600),
        (4800, 3200),
        (4200, 2800),
        (3600, 2400),
        (3000, 2000),
        (2400, 1600),
        (2132, 1600),
    ]
    _report(
        "criterion 7 crop cascade",
        sizes == expected,
        f"6000x4000 plan sizes {sizes} (six 600x400 shrinks plus even-width 4:3 crop)",
    )


def test_criterion_08_simulator_closed_loop():
    line = [(0.0, 0.0), (100.0, 0.0)]
    # straight line convergence from a 0.1 m lateral offset
    sim = Simulator(
        Scenario(dt=0.1, steps=50, line=line, start_pose=(0.0, 0.1, 0.0)),
        controller=ControllerParams(k_p=2.0),
    )
    sim.run()
    centroid = line_centroid(sim.render_line_image())
    converged = centroid is not None and abs(centroid - IMAGE_W / 2.0) < 2.0
    # left cluster burst
    cluster = Scenario(
        dt=0.1, steps=700, line=line, start_pose=(0.0, 0.0, 0.0),
        camera_faces=[{"t_start": 2.0, "t_end": 4.0, "counts": [3, 0, 0]}],
    )
    sim2 = Simulator(cluster)
    log = sim2.run()
    shutters = sum(1 for e in log if e["event"] == "shutter")
    heading_ok = abs(math.degrees(sim2.heading)) < 5.0
    burst_ok = shutters == PictureTakingParams().n_burst and heading_ok
    # obstacle stop and timed resume
    obstacle = Scenario(
        dt=0.1, steps=120, line=line, start_pose=(0.0, 0.0, 0.0),
        obstacles=[{"t_start": 1.0, "t_end": 3.0, "points": [[0.4, 1.0]] * 12}],
    )
    log3 = Simulator(obstacle).run()
    p = CollisionParams()
    stop_t = next(e["t"] for e in log3 if e["command"]["v"] == 0.0 and e["t"] >= 1.0)
    resume_t = next(e["t"] for e in log3 if e["t"] > stop_t and e["command"]["v"] > 0.0)
    stop_ok = stop_t - 1.0 <= p.n_window * obstacle.dt + 1e-9
    # first clear frame is at t = 3.0; resume exactly t_stop later
    resume_ok = resume_t == pytest.approx(3.0 + p.t_stop, abs=1e-9)
    # bit-identical logs across reruns
    rerun_ok = Simulator(cluster).run() == log and Simulator(obstacle).run() == log3
    ok = converged and burst_ok and stop_ok and resume_ok and rerun_ok
    _report(
        "criterion 8 simulator closed loop",
        ok,
        f"centroid error {abs(centroid - IMAGE_W / 2.0):.2f} px, {shutters} shutters, "
        f"heading {math.degrees(sim2.heading):.2f} deg, stop at t={stop_t}, resume at "
        f"t={resume_t}, reruns bit-identical {rerun_ok}",
    )


def _t_pdf(x, df):
    c = math.exp(
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    )
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def test_criterion_09_statistics_utility():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        na, nb = rng.integers(3, 40, size=2)
        a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), na).tolist()
        b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), nb).tolist()
        result = welch_t_test(a, b)
        expected, _ = scipy_integrate.quad(
            _t_pdf, abs(result.t_statistic), np.inf, args=(result.df,)
        )
        worst = max(worst, abs(result.p_one_sided - expected))
    identical = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    ok = worst < 1e-6 and identical.t_statistic == 0.0
    _report(
        "criterion 9 statistics utility",
        ok,
        f"max |delta p| {worst:.2e} vs numerical integration on 20 pairs (< 1e-6), "
        f"identical samples give T = {identical.t_statistic}",
    )


RENDER_SHA256 = "4a833e9c3adc23e577335b8e1c858f5a4c01ad58763183fdf9f5edd280d915ae"


def test_criterion_10_round_trips(tmp_path):
    # model save/load bit-exact
    model = build_picture_cnn(seed=3)
    p1, p2 = tmp_path / "m1.tnet", tmp_path / "m2.tnet"
    tinynet.save_model(model, p1)
    tinynet.save_model(tinynet.load_model(p1), p2)
    model_ok = p1.read_bytes() == p2.read_bytes()
    # dataset ingest -> emit -> ingest stable
    pics = make_threshold_dataset(40, seed=31, kind="heuristic")
    d1, d2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
    write_dataset_jsonl(Dataset(records=tuple(pics)), d1)
    ds = validate_dataset(read_records_jsonl(d1)).dataset
    write_dataset_jsonl(ds, d2)
    dataset_ok = d1.read_bytes() == d2.read_bytes()
    # abstract renders byte-identical to the recorded digest
    digest = hashlib.sha256()
    for p in make_layout_dataset(5, seed=77):
        digest.update(render_abstract(p).tobytes())
    render_ok = digest.hexdigest() == RENDER_SHA256
    _report(
        "criterion 10 round-trips",
        model_ok and dataset_ok and render_ok,
        f"model bytes stable {model_ok}, JSONL stable {dataset_ok}, "
        f"render digest match {render_ok}",
    )
