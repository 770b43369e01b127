"""Fitting the 6 baseline / 8 heuristic scoring thresholds.

A genetic algorithm maximizes training-set classification accuracy; an
exhaustive grid search over the same objective serves as an independent
brute-force oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .composition import (
    BaselineThresholds,
    HeuristicThresholds,
    baseline_score,
    heuristic_score,
)
from .core import Label, PictureRecord

BASELINE_DIM = 6
HEURISTIC_DIM = 8

# fixed GA operators: uniform crossover, Gaussian mutation, tournament
# selection and elitism
CROSSOVER_RATE = 0.9
MUTATION_RATE = 0.1
MUTATION_SIGMA = 0.05
TOURNAMENT_K = 3
ELITISM_COUNT = 2


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 64
    generations: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.population_size <= ELITISM_COUNT:
            raise ValueError(f"population_size must be > {ELITISM_COUNT}, the elite count")


@dataclass(frozen=True)
class FitnessReport:
    kind: str  # baseline | heuristic
    best_genome: tuple[float, ...]
    best_accuracy: float
    curve: tuple[tuple[int, float, float], ...]  # (generation, best, mean)
    evaluations: int

    @property
    def best_thresholds(self):
        return genome_to_thresholds(self.kind, self.best_genome)


def genome_to_thresholds(kind: str, genome: Sequence[float]):
    g = repair_genome(np.asarray(genome, dtype=np.float64))
    base = BaselineThresholds(*g[:6])
    if kind == "baseline":
        return base
    return HeuristicThresholds(baseline=base, r_min=g[6], p_min=g[7])


def repair_genome(genome: np.ndarray) -> np.ndarray:
    """Clip to [0, 1] and sort the (min, max) pairs; equal pairs get nudged apart."""
    g = np.clip(np.asarray(genome, dtype=np.float64), 0.0, 1.0)
    for lo in (0, 2, 4):
        if g[lo] > g[lo + 1]:
            g[lo], g[lo + 1] = g[lo + 1], g[lo]
        if g[lo] == g[lo + 1]:
            g[lo + 1] = min(1.0, g[lo] + 1e-9)
            if g[lo] == g[lo + 1]:  # both pinned at 1.0
                g[lo] -= 1e-9
    return g


def classify_with_thresholds(picture: PictureRecord, thresholds) -> Label:
    if isinstance(thresholds, HeuristicThresholds):
        score = heuristic_score(picture, thresholds)
    else:
        score = baseline_score(picture, thresholds)
    return Label.GOOD if score.passed else Label.BAD


def accuracy(thresholds, pictures: Sequence[PictureRecord]) -> float:
    labeled = [p for p in pictures if p.label is not None]
    if not labeled:
        raise ValueError("no labeled pictures")
    correct = sum(classify_with_thresholds(p, thresholds) is p.label for p in labeled)
    return correct / len(labeled)


class _FitnessCache:
    """Per-face geometry flattened into arrays so one genome evaluates in a
    handful of vectorized ops instead of a Python loop over pictures."""

    def __init__(self, pictures: Sequence[PictureRecord], kind: str):
        labeled = [p for p in pictures if p.label is not None]
        if not labeled:
            raise ValueError("no labeled pictures")
        self.kind = kind
        self.n_pictures = len(labeled)
        self.labels_good = np.array([p.label is Label.GOOD for p in labeled])
        xtl, xbr, ytl, ybr, occ, r = [], [], [], [], [], []
        counts, starts = [], []
        for p in labeled:
            starts.append(len(xtl))
            counts.append(max(len(p.faces), 1))
            if not p.faces:
                # dummy face that fails every gate, so faceless pictures
                # always classify Bad
                xtl.append(-np.inf)
                xbr.append(np.inf)
                ytl.append(-np.inf)
                ybr.append(np.inf)
                occ.append(-np.inf)
                if kind == "heuristic":
                    r.append(-np.inf)
                continue
            for f in p.faces:
                xtl.append(f.bbox.x_tl / p.width)
                xbr.append(f.bbox.x_br / p.width)
                ytl.append(f.bbox.y_tl / p.height)
                ybr.append(f.bbox.y_br / p.height)
                occ.append(f.bbox.area / (p.width * p.height))
                if kind == "heuristic":
                    if f.score is None:
                        raise ValueError(f"face in {p.picture_id} has no quality score")
                    r.append(f.score)
        self.counts = np.array(counts)
        self.xtl, self.xbr = np.array(xtl), np.array(xbr)
        self.ytl, self.ybr = np.array(ytl), np.array(ybr)
        self.occ = np.array(occ)
        self.r = np.array(r) if kind == "heuristic" else None
        self.starts = np.array(starts)

    def evaluate(self, genome: np.ndarray) -> float:
        x_min, x_max, y_min, y_max, occ_min, occ_max = genome[:6]
        ok = (
            (self.xtl > x_min)
            & (self.xbr < x_max)
            & (self.ytl > y_min)
            & (self.ybr < y_max)
            & (self.occ > occ_min)
            & (self.occ < occ_max)
        )
        pred = np.logical_and.reduceat(ok, self.starts)
        if self.kind == "heuristic":
            r_min, p_min = genome[6], genome[7]
            good = np.add.reduceat(self.r > r_min, self.starts)
            pred &= good / self.counts > p_min
        return float(np.mean(pred == self.labels_good))


def _rank_key(acc: float, genome: np.ndarray):
    # higher accuracy first; ties by smaller L2 norm, then lexicographic genome
    return (-acc, float(np.dot(genome, genome)), tuple(genome))


def ga_optimize(
    pictures: Sequence[PictureRecord],
    kind: str,
    config: GAConfig = GAConfig(),
) -> FitnessReport:
    """Evolve a threshold genome maximizing training-set accuracy.

    Deterministic for a fixed seed; returns the best individual ever seen.
    """
    if kind not in ("baseline", "heuristic"):
        raise ValueError(f"unknown kind {kind!r}")
    dim = BASELINE_DIM if kind == "baseline" else HEURISTIC_DIM
    cache = _FitnessCache(pictures, kind)
    rng = np.random.default_rng(config.seed)

    pop = np.stack([repair_genome(rng.uniform(0, 1, dim)) for _ in range(config.population_size)])
    fitness = np.array([cache.evaluate(g) for g in pop])
    evaluations = len(pop)

    def best_of(pop, fitness):
        order = sorted(range(len(pop)), key=lambda i: _rank_key(fitness[i], pop[i]))
        return order

    order = best_of(pop, fitness)
    best_genome = pop[order[0]].copy()
    best_acc = fitness[order[0]]
    curve = []
    for gen in range(config.generations):
        curve.append((gen, float(fitness.max()), float(fitness.mean())))
        elites = [pop[i].copy() for i in order[:ELITISM_COUNT]]
        children = list(elites)
        while len(children) < config.population_size:
            parents = []
            for _ in range(2):
                contenders = rng.integers(0, config.population_size, size=TOURNAMENT_K)
                # fitness only: an L2 tie-break here would bias the whole
                # population toward the origin whenever fitness plateaus
                winner = max(contenders, key=lambda i: fitness[i])
                parents.append(pop[winner].copy())
            a, b = parents
            if rng.random() < CROSSOVER_RATE:
                mask = rng.random(dim) < 0.5
                a[mask], b[mask] = b[mask].copy(), a[mask].copy()
            for child in (a, b):
                mut = rng.random(dim) < MUTATION_RATE
                child[mut] += rng.normal(0.0, MUTATION_SIGMA, size=mut.sum())
                children.append(repair_genome(child))
        pop = np.stack(children[: config.population_size])
        fitness = np.array([cache.evaluate(g) for g in pop])
        evaluations += len(pop)
        order = best_of(pop, fitness)
        cand_acc, cand = fitness[order[0]], pop[order[0]]
        if _rank_key(cand_acc, cand) < _rank_key(best_acc, best_genome):
            best_acc, best_genome = cand_acc, cand.copy()
    return FitnessReport(
        kind=kind,
        best_genome=tuple(best_genome),
        best_accuracy=float(best_acc),
        curve=tuple(curve),
        evaluations=evaluations,
    )


MAX_GRID_POINTS = 10_000_000


def grid_search_oracle(
    pictures: Sequence[PictureRecord], kind: str, steps_per_axis: int
) -> FitnessReport:
    """Exhaustive accuracy maximization over a uniform threshold grid.

    Independent of the scorer code path: each picture is reduced to min/max
    face statistics and the grid is swept with factorized boolean tables.
    Ties resolve to the first point in lexicographic genome order.
    """
    if kind not in ("baseline", "heuristic"):
        raise ValueError(f"unknown kind {kind!r}")
    dim = BASELINE_DIM if kind == "baseline" else HEURISTIC_DIM
    total = steps_per_axis**dim
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid of {total} points exceeds limit {MAX_GRID_POINTS}")

    labeled = [p for p in pictures if p.label is not None]
    if not labeled:
        raise ValueError("no labeled pictures")
    n = len(labeled)
    labels_good = np.array([p.label is Label.GOOD for p in labeled])

    neg_inf = -np.inf
    pos_inf = np.inf
    min_xtl = np.full(n, neg_inf)
    max_xbr = np.full(n, pos_inf)
    min_ytl = np.full(n, neg_inf)
    max_ybr = np.full(n, pos_inf)
    min_occ = np.full(n, neg_inf)
    max_occ = np.full(n, pos_inf)
    face_r: list[np.ndarray] = []
    for i, p in enumerate(labeled):
        if p.faces:
            min_xtl[i] = min(f.bbox.x_tl / p.width for f in p.faces)
            max_xbr[i] = max(f.bbox.x_br / p.width for f in p.faces)
            min_ytl[i] = min(f.bbox.y_tl / p.height for f in p.faces)
            max_ybr[i] = max(f.bbox.y_br / p.height for f in p.faces)
            occs = [f.bbox.area / (p.width * p.height) for f in p.faces]
            min_occ[i], max_occ[i] = min(occs), max(occs)
        if kind == "heuristic":
            scores = [f.score for f in p.faces]
            if any(s is None for s in scores):
                raise ValueError(f"face in {p.picture_id} has no quality score")
            face_r.append(np.array(scores, dtype=np.float64))

    values = np.linspace(0.0, 1.0, steps_per_axis)
    # condition tables, one row per grid value
    c_xmin = min_xtl[None, :] > values[:, None]
    c_xmax = max_xbr[None, :] < values[:, None]
    c_ymin = min_ytl[None, :] > values[:, None]
    c_ymax = max_ybr[None, :] < values[:, None]
    c_omin = min_occ[None, :] > values[:, None]
    c_omax = max_occ[None, :] < values[:, None]

    if kind == "heuristic":
        props = np.zeros((steps_per_axis, n))
        for i, rs in enumerate(face_r):
            if len(rs):
                props[:, i] = np.mean(rs[None, :] > values[:, None], axis=1)
        # tail[a, b, i]: proportion at r_min=values[a] exceeds p_min=values[b]
        tail = props[:, None, :] > values[None, :, None]

    best_matches = -1
    best_genome: Optional[tuple[float, ...]] = None
    for i1 in range(steps_per_axis):
        p1 = c_xmin[i1]
        for i2 in range(steps_per_axis):
            p2 = p1 & c_xmax[i2]
            for i3 in range(steps_per_axis):
                p3 = p2 & c_ymin[i3]
                for i4 in range(steps_per_axis):
                    p4 = p3 & c_ymax[i4]
                    if kind == "baseline":
                        # vectorize the last two axes
                        pred = p4[None, None, :] & c_omin[:, None, :] & c_omax[None, :, :]
                        matches = np.sum(pred == labels_good[None, None, :], axis=2)
                        flat = int(np.argmax(matches))
                        m = int(matches.reshape(-1)[flat])
                        if m > best_matches:
                            i5, i6 = divmod(flat, steps_per_axis)
                            best_matches = m
                            best_genome = (
                                values[i1], values[i2], values[i3],
                                values[i4], values[i5], values[i6],
                            )
                    else:
                        for i5 in range(steps_per_axis):
                            p5 = p4 & c_omin[i5]
                            for i6 in range(steps_per_axis):
                                p6 = p5 & c_omax[i6]
                                pred = p6[None, None, :] & tail
                                matches = np.sum(pred == labels_good[None, None, :], axis=2)
                                flat = int(np.argmax(matches))
                                m = int(matches.reshape(-1)[flat])
                                if m > best_matches:
                                    i7, i8 = divmod(flat, steps_per_axis)
                                    best_matches = m
                                    best_genome = (
                                        values[i1], values[i2], values[i3], values[i4],
                                        values[i5], values[i6], values[i7], values[i8],
                                    )
    assert best_genome is not None
    return FitnessReport(
        kind=kind,
        best_genome=best_genome,
        best_accuracy=best_matches / n,
        curve=(),
        evaluations=total,
    )


def write_curve_csv(report: FitnessReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("generation,best,mean\n")
        for gen, best, mean in report.curve:
            fh.write(f"{gen},{best},{mean}\n")
