"""Command-line entry point for the robot photographer toolkit."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, tinynet
from .abstraction import render_abstract, train_picture_cnn
from .behavior_sim import Scenario, Simulator, write_event_log
# re-export: the benchmark's tracer tests wrap and call cli.baseline_score
from .composition import baseline_score  # noqa: F401
from .composition import HeuristicThresholds, thresholds_from_json, thresholds_to_json
from .core import (
    Dataset,
    ValidationResult,
    read_records_jsonl,
    split_dataset,
    validate_dataset,
    write_dataset_jsonl,
)
from .errors import DatasetError, TrainingDivergedError, UsageError
from .face_quality import dataset_faces, train_face_ann, train_face_cnn
from .pgm import write_pgm
from .pipeline import METHODS, evaluate_methods, run_pipeline, score_dataset
from .stats import welch_t_test
from .threshold_opt import GAConfig, ga_optimize, write_curve_csv
from .tinynet import TrainConfig

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _write_run_config(out_path: Path, args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["tool_version"] = __version__
    path = Path(str(out_path) + ".config.json")
    path.write_text(json.dumps(cfg, sort_keys=True, default=str) + "\n", encoding="utf-8")


def _load_dataset(path: str, keep_faceless: bool = False, read_crops: bool = True) -> ValidationResult:
    raw = read_records_jsonl(path)
    return validate_dataset(
        raw, keep_faceless=keep_faceless, base_dir=Path(path).parent, read_crops=read_crops
    )


def _load_scored(path: str, face_model_path: str | None, keep_faceless: bool = False) -> Dataset:
    """The validated dataset with face scores from the model file, or stored ones."""
    dataset = _load_dataset(path, keep_faceless).dataset
    face_model = None if face_model_path is None else tinynet.load_model(face_model_path)
    return score_dataset(dataset, face_model)


def _load_thresholds(path: str, kind: str):
    thresholds = thresholds_from_json(Path(path).read_bytes())
    if isinstance(thresholds, HeuristicThresholds) != (kind == "heuristic"):
        raise DatasetError(f"{path} does not hold {kind} thresholds")
    return thresholds


def _load_methods(args):
    """Thresholds of both geometric scorers and the layout CNN, from their files."""
    return (
        _load_thresholds(args.baseline_thresholds, "baseline"),
        _load_thresholds(args.heuristic_thresholds, "heuristic"),
        tinynet.load_model(args.picture_model),
    )


def cmd_ingest(args) -> int:
    result = _load_dataset(args.dataset, keep_faceless=args.keep_faceless)
    write_dataset_jsonl(result.dataset, args.out)
    _write_run_config(Path(args.out), args)
    print(
        f"ingested {len(result.dataset)} records "
        f"(dropped {result.dropped_records} records, {result.dropped_faces} faces)"
    )
    return EXIT_OK


def cmd_split(args) -> int:
    dataset = _load_dataset(args.dataset, keep_faceless=True).dataset
    train, test, validation = split_dataset(dataset, args.ratios.split(","), args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, part in (("train", train), ("test", test), ("validation", validation)):
        write_dataset_jsonl(part, out / f"{name}.jsonl")
    _write_run_config(out / "split", args)
    print(f"split sizes: train={len(train)} test={len(test)} validation={len(validation)}")
    return EXIT_OK


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        optimizer=args.optimizer,
        seed=args.seed,
    )


def _save_trained(args, model, history) -> int:
    tinynet.save_model(model, args.out)
    _write_run_config(Path(args.out), args)
    print(f"final loss {history[-1]:.6f} after {len(history)} epochs")
    return EXIT_OK


def cmd_train_face_ann(args) -> int:
    # the MLP reads only the 9 features, so no crop file is opened
    faces = dataset_faces(_load_dataset(args.dataset, read_crops=False).dataset)
    return _save_trained(args, *train_face_ann(faces, _train_config(args)))


def cmd_train_face_cnn(args) -> int:
    faces = dataset_faces(_load_dataset(args.dataset).dataset)
    return _save_trained(args, *train_face_cnn(faces, _train_config(args)))


def cmd_train_picture_cnn(args) -> int:
    dataset = _load_scored(args.dataset, args.face_model)
    return _save_trained(args, *train_picture_cnn(dataset.records, _train_config(args)))


def cmd_optimize_thresholds(args) -> int:
    if args.kind == "heuristic":
        dataset = _load_scored(args.dataset, args.face_model, keep_faceless=True)
    else:
        dataset = _load_dataset(args.dataset, keep_faceless=True).dataset
    config = GAConfig(
        population_size=args.population,
        generations=args.generations,
        seed=args.seed,
    )
    report = ga_optimize(dataset.records, args.kind, config)
    Path(args.out).write_text(thresholds_to_json(report.best_thresholds) + "\n", encoding="utf-8")
    write_curve_csv(report, str(args.out) + ".curve.csv")
    _write_run_config(Path(args.out), args)
    print(f"best training accuracy {report.best_accuracy:.4f} over {report.evaluations} evaluations")
    return EXIT_OK


def _write_report(args, report: dict) -> None:
    report["tool_version"] = __version__
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_run_config(Path(args.out), args)


def cmd_evaluate(args) -> int:
    dataset = _load_scored(args.dataset, args.face_model, keep_faceless=True)
    report = evaluate_methods(dataset, *_load_methods(args))
    _write_report(args, report)
    for method, m in report["methods"].items():
        print(f"{method}: accuracy {m['accuracy']:.4f}")
    return EXIT_OK


def cmd_select(args) -> int:
    dataset = _load_scored(args.dataset, args.face_model)
    report = run_pipeline(dataset, *_load_methods(args), quota=args.quota)
    _write_report(args, report)
    print(f"selected {len(report['selections'])} pictures across {len(METHODS)} methods")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = Scenario.from_json(Path(args.scenario).read_bytes())
    sim = Simulator(scenario)
    log = sim.run()
    write_event_log(log, args.out)
    _write_run_config(Path(args.out), args)
    shutters = sum(1 for e in log if e["event"] == "shutter")
    print(f"simulated {len(log)} steps, {shutters} shutter events")
    return EXIT_OK


def cmd_render_abstract(args) -> int:
    dataset = _load_scored(args.dataset, args.face_model)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for rec in dataset.records:
        write_pgm(render_abstract(rec), out / f"{rec.picture_id}.pgm")
    _write_run_config(out / "render", args)
    print(f"rendered {len(dataset)} abstract images to {out}")
    return EXIT_OK


def cmd_ttest(args) -> int:
    paths = (args.sample_a, args.sample_b)
    try:
        result = welch_t_test(*(json.loads(Path(p).read_bytes()) for p in paths))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise DatasetError(f"sample files must hold JSON: {e}") from None
    out = {
        "test": "welch_one_sided",
        "t_statistic": result.t_statistic,
        "df": result.df,
        "p_one_sided": result.p_one_sided,
        "tool_version": __version__,
    }
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        _write_run_config(Path(args.out), args)
    print(text)
    return EXIT_OK


def _add_train_flags(p):
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=0.05)
    p.add_argument("--optimizer", choices=tinynet.OPTIMIZERS, default="sgd")
    p.add_argument("--seed", type=int, default=0)


def _add_method_flags(p):
    p.add_argument("--dataset", required=True)
    p.add_argument("--baseline-thresholds", required=True)
    p.add_argument("--heuristic-thresholds", required=True)
    p.add_argument("--picture-model", required=True)
    p.add_argument("--face-model", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robophoto")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a JSONL dataset and re-emit it")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--keep-faceless", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("split", help="burst-atomic train/test/validation split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train-face-ann", help="train the 9-feature face quality MLP")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train_face_ann)

    p = sub.add_parser("train-face-cnn", help="train the face-crop CNN")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train_face_cnn)

    p = sub.add_parser("train-picture-cnn", help="train the layout CNN on abstract renders")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--face-model", default=None)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train_picture_cnn)

    p = sub.add_parser("optimize-thresholds", help="fit scorer thresholds with the GA")
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", choices=("baseline", "heuristic"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--face-model", default=None)
    p.add_argument("--population", type=int, default=64)
    p.add_argument("--generations", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_optimize_thresholds)

    p = sub.add_parser("evaluate", help="evaluate all three methods on a labeled split")
    _add_method_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("select", help="score, crop-plan and select best pictures per method")
    _add_method_flags(p)
    p.add_argument("--quota", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="run a behavior scenario and log events")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("render-abstract", help="export abstract renders as PGM")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--face-model", default=None)
    p.set_defaults(func=cmd_render_abstract)

    p = sub.add_parser("ttest", help="Welch one-sided t-test on two rating samples")
    p.add_argument("--sample-a", required=True)
    p.add_argument("--sample-b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ttest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergedError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as e:  # anything else is a bug in robophoto, reported on one line
        print(f"internal error: {type(e).__name__}: {' '.join(str(e).split())}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
