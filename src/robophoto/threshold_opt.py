"""Fitting the 6 baseline / 8 heuristic scoring thresholds.

A genetic algorithm maximizes training-set classification accuracy; an
exhaustive grid search over the same objective serves as an independent
brute-force oracle in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# re-export: the benchmark's tracer tests wrap and call threshold_opt.baseline_score
from .composition import baseline_score  # noqa: F401
from .composition import SIGNS, Gate, Thresholds
from .core import Dataset, labeled_rows
from .errors import UsageError

BASELINE_DIM = 6
HEURISTIC_DIM = 8

# fixed GA operators: uniform crossover, Gaussian mutation, tournament
# selection and elitism
CROSSOVER_RATE = 0.9
MUTATION_RATE = 0.1
MUTATION_SIGMA = 0.05
TOURNAMENT_K = 3
ELITISM_COUNT = 2
# bytes of packed bitset tables a GA fit may build; a larger fit stores fewer rows of each
TABLE_BUDGET = 32 << 20
_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)  # picture i is bit i % 64 of word i // 64


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 64
    generations: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.population_size <= ELITISM_COUNT or self.generations < 0:
            raise UsageError(f"need population_size > {ELITISM_COUNT} and generations >= 0: {self}")


@dataclass(frozen=True)
class FitnessReport:
    kind: str  # baseline | heuristic
    best_genome: tuple[float, ...]
    best_accuracy: float
    curve: tuple[tuple[int, float, float], ...]  # (generation, best, mean)
    evaluations: int

    @property
    def best_thresholds(self):
        return genome_to_thresholds(self.best_genome)


def genome_to_thresholds(genome: Sequence[float]) -> Thresholds:
    """The repaired genome as thresholds: heuristic ones for 8 genes, baseline ones for 6."""
    return Thresholds(*repair_genome(genome))


def repair_genome(genome: np.ndarray) -> np.ndarray:
    """Clip to [0, 1] and sort the (min, max) pairs; equal pairs get nudged apart.

    Works on one genome or on a (..., dim) stack of them, row by row."""
    g = np.clip(np.asarray(genome, dtype=np.float64), 0.0, 1.0)
    a, b = g[..., 0:6:2], g[..., 1:6:2]
    lo, hi = np.where(a > b, b, a), np.where(a > b, a, b)
    hi = np.where(lo == hi, np.minimum(1.0, lo + 1e-9), hi)
    lo = np.where(lo == hi, lo - 1e-9, lo)  # both pinned at 1.0
    g[..., 0:6:2], g[..., 1:6:2] = lo, hi
    return g


def _labeled(pictures: Dataset, kind: str) -> tuple[Dataset, np.ndarray]:
    """The labeled pictures and their Good mask, for a fit of this kind."""
    if kind not in ("baseline", "heuristic"):
        raise UsageError(f"unknown kind {kind!r}")
    rows, good = labeled_rows(pictures.label.tolist(), "pictures")
    return pictures.take(rows), good


def accuracy(thresholds: Thresholds, pictures: Dataset) -> float:
    """Share of labeled pictures that pass the thresholds exactly when labeled Good."""
    labeled, good = _labeled(pictures, "heuristic" if thresholds.heuristic else "baseline")
    passed = Gate(labeled, thresholds.heuristic).passed(np.array([thresholds.genome]))[0]
    return float(np.count_nonzero(passed == good) / len(good))


class _FitnessCache(Gate):
    """The GA's fitness: the scorers' gate (composition.Gate) over the labeled pictures, with their
    labels, read through packed bitsets; it never computes the center-distance sums. Row c of a
    statistic's table holds its c largest pictures, and only every B-th row is stored, B the smallest power of two
    (or the first >= n) whose tables fit TABLE_BUDGET, so row c is row c // B * B ORed with the
    next pictures in descending order. With genes signed as `Gate.stats` is, each gene is one
    searchsorted and one row, and the popcount of passed XOR Good counts the same wrong pictures.
    Scores fall and fractions j/k rise along j, so the first face with j/k above p_min decides the
    heuristic; it moves only with p_min's bucket among the distinct fractions, and each bucket,
    plus an empty last one, gets a column of those faces' scores. A NaN gene selects the empty row."""

    def __init__(self, pictures: Dataset, kind: str):
        labeled, self.labels_good = _labeled(pictures, kind)
        super().__init__(labeled, kind == "heuristic")
        self.dim = BASELINE_DIM if kind == "baseline" else HEURISTIC_DIM
        n, words = self.n_pictures, -(-self.n_pictures // 64)
        columns = list(self.stats)
        if self.heuristic:
            # return_counts: plain np.unique imports numpy.ma on its hash path, about 1.4 MB of RSS
            self._buckets = np.unique(self.fractions[self.fractions > -np.inf], return_counts=True)[0]
            # bucket b is [edges[b], edges[b + 1]): its column is each picture's first score with j/k above edges[b]
            edges = np.append(-np.inf, self._buckets)[:, None]
            firsts = np.full((len(edges), n), -np.inf)
            for ranked, fractions in zip(self.ranked[::-1], self.fractions[::-1]):
                np.copyto(firsts, ranked, where=fractions > edges)
            columns += list(firsts)
            # each bucket's ranks among the first scores (the last bucket's are all -inf), offset so all sort as one
            self._scores = np.unique(firsts, return_counts=True)[0]
            ranks = self._scores.searchsorted(np.sort(firsts, axis=1))
            self._keys = (ranks + len(self._scores) * np.arange(len(edges))[:, None]).ravel()
            del firsts, ranks
        self._sorted, self._stride = np.sort(self.stats, axis=1), 1
        while self._stride < n and len(columns) * (n // self._stride + 1) * words * 8 > TABLE_BUDGET:
            self._stride *= 2
        # each column's pictures in descending order, padded to B per stored row; the columns go before the tables
        self._desc = np.zeros((len(columns), (n // self._stride + 1) * self._stride), np.int32)
        for desc, column in zip(self._desc, columns):
            desc[:n] = np.argsort(column)[::-1]
        del columns
        # each picture sets its bit in the first stored row that holds it, then a running OR
        self._tables = np.zeros((len(self._desc), n // self._stride + 1, words), np.uint64)
        seeded = n // self._stride * self._stride
        row = (np.arange(seeded) // self._stride + 1) * words
        for table, desc in zip(self._tables, self._desc[:, :seeded]):
            np.bitwise_or.at(table.reshape(-1), row + (desc >> 6), _BIT[desc & 63])
        np.bitwise_or.accumulate(self._tables, axis=1, out=self._tables)
        self._good = np.packbits(np.append(self.labels_good, np.zeros(-n % 64, bool)), bitorder="little").view("<u8")

    def packed(self, genomes: np.ndarray) -> np.ndarray:
        """(P, ceil(n / 64)) bitsets of the pictures each genome of a (P, dim) population passes."""
        n, stride, span = self.n_pictures, self._stride, self._desc.shape[1]
        below = [s.searchsorted(t, "right") for s, t in zip(self._sorted, (genomes[:, :6] * SIGNS).T)]
        if self.heuristic:
            bucket = self._buckets.searchsorted(genomes[:, 7], "right")
            # searchsorted(keys, key) - b * n of bucket b's first scores are <= r_min; - b * span reads column 6 + b
            key = bucket * len(self._scores) + self._scores.searchsorted(genomes[:, 6], "right") - 1
            below.append(self._keys.searchsorted(key, "right") - bucket * (n + span))
        # each gene's row c in its column as column * span + c: a stored row, then the rest one by one
        row, rest = np.divmod(np.arange(len(below))[:, None] * span + n - below, stride)
        pred = self._tables.reshape(-1, self._tables.shape[2])[row]
        if stride > 1:  # at stride 1 every row is stored and there is no rest
            pair, offset = np.nonzero(np.arange(stride - 1) < rest.reshape(-1, 1))
            pictures = self._desc.reshape(-1)[row.reshape(-1)[pair] * stride + offset]
            np.bitwise_or.at(pred.reshape(-1), pair * pred.shape[2] + (pictures >> 6), _BIT[pictures & 63])
        return np.bitwise_and.reduce(pred)

    def evaluate(self, population: np.ndarray) -> np.ndarray:
        """Training accuracy of each genome in a (P, dim) population: the floats of `Gate.passed`'s dense compare."""
        wrong = np.bitwise_count(self.packed(population) ^ self._good).sum(axis=1)
        return (self.n_pictures - wrong) / self.n_pictures


def _ranking(pop: np.ndarray, fitness: np.ndarray) -> np.ndarray:
    """Row order: higher fitness first; ties by smaller L2 norm, then
    lexicographic genome, then position (the sort is stable)."""
    # per row the bits of np.dot(g, g); einsum and sum() add in another order
    norms = (pop[:, None, :] @ pop[:, :, None]).ravel()
    return np.lexsort((*pop.T[::-1], norms, -fitness))


def _next_generation(rng: np.random.Generator, pop: np.ndarray, fitness: np.ndarray) -> np.ndarray:
    """The ranked elites, then children bred in whole-array draws: tournament
    picks, crossover coins, crossover masks, mutation masks, mutation normals."""
    size, dim = pop.shape
    pairs = (size - ELITISM_COUNT + 1) // 2
    contenders = rng.integers(0, size, size=(2 * pairs, TOURNAMENT_K))
    # first maximum wins, on fitness only: an L2 tie-break would drag plateaus to the origin
    winners = contenders[np.arange(2 * pairs), fitness[contenders].argmax(axis=1)]
    parents = pop[winners].reshape(pairs, 2, dim)
    coins = rng.random(pairs) < CROSSOVER_RATE
    swap = coins[:, None] & (rng.random((pairs, dim)) < 0.5)
    children = np.where(swap[:, None, :], parents[:, ::-1], parents).reshape(-1, dim)[: size - ELITISM_COUNT]
    mutate = rng.random(children.shape) < MUTATION_RATE
    children[mutate] += rng.normal(0.0, MUTATION_SIGMA, size=np.count_nonzero(mutate))
    return repair_genome(np.concatenate([pop[_ranking(pop, fitness)[:ELITISM_COUNT]], children]))


def _initial_population(rng: np.random.Generator, size: int, dim: int) -> np.ndarray:
    """Open (min, max) gates, each a half-normal mutation step in from 0 or 1,
    and uniform face-score genes. Uniform pairs seldom span the faces, so such
    genomes reject every picture: a plateau with no slope for selection."""
    edge = np.abs(rng.normal(0.0, MUTATION_SIGMA, (size, BASELINE_DIM)))
    gates = np.where(np.arange(BASELINE_DIM) % 2, 1.0 - edge, edge)
    return repair_genome(np.hstack([gates, rng.uniform(0.0, 1.0, (size, dim - BASELINE_DIM))]))


def ga_optimize(
    pictures: Dataset,
    kind: str,
    config: GAConfig = GAConfig(),
) -> FitnessReport:
    """Evolve a threshold genome maximizing training-set accuracy.

    Deterministic for a fixed seed; returns the best individual ever seen.
    The elites lead every new population, so the best ever seen is the top
    of the last one.
    """
    cache = _FitnessCache(pictures, kind)
    size, dim = config.population_size, cache.dim
    rng = np.random.default_rng(config.seed)

    pop = _initial_population(rng, size, dim)
    fitness = cache.evaluate(pop)
    curve = []
    for gen in range(config.generations):
        curve.append((gen, float(fitness.max()), float(fitness.mean())))
        pop = _next_generation(rng, pop, fitness)
        fitness = cache.evaluate(pop)
    best = _ranking(pop, fitness)[0]
    return FitnessReport(
        kind=kind,
        best_genome=tuple(pop[best]),
        best_accuracy=float(fitness[best]),
        curve=tuple(curve),
        evaluations=size * (config.generations + 1),
    )


MAX_GRID_POINTS = 10_000_000


def grid_search_oracle(
    pictures: Dataset, kind: str, steps_per_axis: int
) -> FitnessReport:
    """Exhaustive accuracy maximization over a uniform threshold grid.

    Independent of the GA's search and of its packed bitsets: it starts from
    the gate's per-picture statistics (composition.Gate), which tests check
    against the per-face scorers, and sweeps the grid with factorized dense
    boolean tables. Ties resolve to the first point in lexicographic genome order.
    """
    labeled, labels_good = _labeled(pictures, kind)
    gate = Gate(labeled, kind == "heuristic")
    total = steps_per_axis ** (BASELINE_DIM if kind == "baseline" else HEURISTIC_DIM)
    if total > MAX_GRID_POINTS:
        raise UsageError(f"grid of {total} points exceeds limit {MAX_GRID_POINTS}")

    n = gate.n_pictures
    values = np.linspace(0.0, 1.0, steps_per_axis)
    column = values[:, None]
    # condition tables, one row per grid value: (steps, n) for each leading
    # gene, (steps, steps, n) for the last two, which are swept as one array
    conditions = np.array([stat > sign * column for stat, sign in zip(gate.stats, SIGNS)])
    if kind == "baseline":
        leading, last = conditions[:4], conditions[4][:, None, :] & conditions[5][None, :, :]
    else:
        leading = conditions
        # props[a, i]: share of picture i's faces scoring above values[a]
        faces = np.maximum(np.count_nonzero(gate.ranked > -np.inf, axis=0), 1)
        props = np.count_nonzero(gate.ranked > column[:, :, None], axis=1) / faces
        # last[a, b, i]: proportion at r_min=values[a] exceeds p_min=values[b]
        last = props[:, None, :] > column[None]

    best_matches = -1
    best_genome: Optional[tuple[float, ...]] = None
    points = itertools.product(range(steps_per_axis), repeat=len(leading))  # lexicographic, as product(*leading)
    for index, rows in zip(points, itertools.product(*leading)):
        pred = np.logical_and.reduce(rows)
        matches = np.count_nonzero((pred & last) == labels_good, axis=2)
        flat = int(np.argmax(matches))
        m = int(matches.reshape(-1)[flat])
        if m > best_matches:
            best_matches = m
            best_genome = tuple(values[[*index, *divmod(flat, steps_per_axis)]])
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
