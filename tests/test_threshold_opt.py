import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_face, make_picture
from oracles import box_area, make_random_pictures, reference_accuracy
from robophoto import composition, threshold_opt
from robophoto.composition import SIGNS, Thresholds, picture_scores
from robophoto.core import Dataset, Label, labeled_rows
from robophoto.errors import UsageError
from robophoto.threshold_opt import (
    ELITISM_COUNT,
    TABLE_BUDGET,
    GAConfig,
    _FitnessCache,
    _initial_population,
    _next_generation,
    _ranking,
    accuracy,
    ga_optimize,
    genome_to_thresholds,
    grid_search_oracle,
    repair_genome,
    write_curve_csv,
)
from robophoto.synthetic import (
    DEFAULT_HIDDEN_BASELINE,
    DEFAULT_HIDDEN_HEURISTIC,
    make_threshold_dataset,
)

FAST_GA = GAConfig(population_size=32, generations=30, seed=0)


def test_repair_clips_and_orders():
    g = repair_genome(np.array([0.9, 0.1, -0.5, 2.0, 0.3, 0.3]))
    assert (g >= 0).all() and (g <= 1).all()
    assert g[0] < g[1] and g[2] < g[3] and g[4] < g[5]
    assert g[0] == 0.1 and g[1] == 0.9
    assert g[2] == 0.0 and g[3] == 1.0


def test_repair_nudges_equal_pair_at_one():
    g = repair_genome(np.array([1.0, 1.0, 0.1, 0.9, 0.1, 0.9]))
    assert g[0] < g[1] == 1.0


def _repair_one_pair_at_a_time(genome):
    """Written-out reference: clip, then swap, then nudge each pair apart."""
    g = np.clip(np.array(genome, dtype=np.float64), 0.0, 1.0)
    for lo in (0, 2, 4):
        if g[lo] > g[lo + 1]:
            g[lo], g[lo + 1] = g[lo + 1], g[lo]
        if g[lo] == g[lo + 1]:
            g[lo + 1] = min(1.0, g[lo] + 1e-9)
            if g[lo] == g[lo + 1]:
                g[lo] -= 1e-9
    return g


def _raw_population(rng, size, dim):
    """Random genes outside [0, 1] too, with pairs pinned at 1.0 and equal pairs."""
    raw = rng.uniform(-0.2, 1.2, (size, dim))
    raw[0:3, 0:2] = 1.0
    raw[3:6, 2] = raw[3:6, 3]
    raw[6:9, 5] = raw[6:9, 4] = 0.0
    return raw


@pytest.mark.parametrize("dim", [6, 8])
def test_repair_population_matches_each_row(dim):
    rng = np.random.default_rng(dim)
    for _ in range(20):
        raw = _raw_population(rng, 16, dim)
        repaired = repair_genome(raw)
        assert repaired.shape == raw.shape
        for row, got in zip(raw, repaired):
            assert np.array_equal(got, repair_genome(row))
            assert np.array_equal(got, _repair_one_pair_at_a_time(row))


def test_repair_idempotent_property():
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = rng.uniform(-0.5, 1.5, 8)
        once = repair_genome(g)
        assert np.array_equal(repair_genome(once), once)


def test_ga_config_needs_more_than_the_elites():
    with pytest.raises(ValueError):
        GAConfig(population_size=2)
    assert GAConfig(population_size=3).population_size == 3


def test_ga_config_rejects_negative_generations_and_runs_zero():
    with pytest.raises(UsageError):
        GAConfig(generations=-1)
    pics = make_threshold_dataset(20, seed=1, kind="baseline")
    report = ga_optimize(Dataset(records=pics), "baseline", GAConfig(population_size=8, generations=0))
    assert report.evaluations == 8 and report.curve == ()


def test_genome_roundtrip_thresholds():
    t = genome_to_thresholds((0.1, 0.9, 0.1, 0.9, 0.01, 0.5, 0.4, 0.3))
    assert t.r_min == 0.4 and t.x_max == 0.9


def test_accuracy_perfect_with_hidden_thresholds():
    pics = make_threshold_dataset(150, seed=1, kind="baseline")
    assert accuracy(DEFAULT_HIDDEN_BASELINE, Dataset(records=pics)) == 1.0


def test_accuracy_perfect_heuristic():
    pics = make_threshold_dataset(150, seed=2, kind="heuristic")
    assert accuracy(DEFAULT_HIDDEN_HEURISTIC, Dataset(records=pics)) == 1.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fitness_cache_matches_scorer(seed):
    rng = np.random.default_rng(seed)
    pics = make_random_pictures(25, seed=seed, with_scores=True)
    genome = repair_genome(rng.uniform(0, 1, 8))
    cache = _FitnessCache(Dataset(records=pics), "heuristic")
    t = genome_to_thresholds(genome)
    expected = reference_accuracy(t, pics)
    assert cache.evaluate(genome[None])[0] == expected


def test_fitness_cache_baseline_matches_scorer():
    rng = np.random.default_rng(11)
    pics = make_random_pictures(40, seed=3)
    cache = _FitnessCache(Dataset(records=pics), "baseline")
    for _ in range(20):
        genome = repair_genome(rng.uniform(0, 1, 6))
        t = genome_to_thresholds(genome)
        assert cache.evaluate(genome[None])[0] == reference_accuracy(t, pics)


def _dense_fitness(data, kind, pop):
    """Each genome's training accuracy from `Gate.passed`'s dense compare: the reference for the tables."""
    rows, good = labeled_rows(data.label.tolist(), "pictures")
    passed = composition.Gate(data.take(rows), kind == "heuristic").passed(pop)
    return np.count_nonzero(passed == good, axis=1) / len(good)


@pytest.mark.parametrize("kind", ["baseline", "heuristic"])
def test_fitness_with_only_faceless_pictures(kind):
    pics = [replace(p, faces=()) for p in make_random_pictures(12, seed=2, with_scores=True)]
    pop = repair_genome(np.random.default_rng(0).uniform(0, 1, (5, 6 if kind == "baseline" else 8)))
    expected = sum(p.label is Label.BAD for p in pics) / len(pics)
    data = Dataset(records=pics)
    for fitness in (_FitnessCache(data, kind).evaluate(pop), _dense_fitness(data, kind, pop)):
        assert list(fitness) == [expected] * len(pop)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["baseline", "heuristic"]))
def test_population_fitness_matches_scorer_row_by_row(seed, kind):
    rng = np.random.default_rng(seed)
    pics = make_random_pictures(30, seed=seed, with_scores=True)
    pics = [replace(p, faces=()) if i % 7 == 3 else p for i, p in enumerate(pics)]
    raw = _raw_population(rng, 24, 6 if kind == "baseline" else 8)
    # wide-open genomes with one gate exactly on a picture's statistic, where
    # only the strict comparison decides that picture
    for row in range(9, 24):
        p = pics[int(rng.integers(len(pics)))]
        if not p.faces:
            continue
        occs = [box_area(f.bbox) / (p.width * p.height) for f in p.faces]
        stats = (
            min(f.bbox.x_tl / p.width for f in p.faces), max(f.bbox.x_br / p.width for f in p.faces),
            min(f.bbox.y_tl / p.height for f in p.faces), max(f.bbox.y_br / p.height for f in p.faces),
            min(occs), max(occs),
        )
        raw[row, :6] = 0.0, 1.0, 0.0, 1.0, 0.0, 1.0
        raw[row, 6:] = 0.0
        gene = int(rng.integers(7 if kind == "heuristic" else 6))
        if gene < 6:
            raw[row, gene] = stats[gene]
        else:  # r_min on one face score, p_min on the proportion above it
            r = p.faces[int(rng.integers(len(p.faces)))].score
            raw[row, 6:] = r, sum(f.score > r for f in p.faces) / len(p.faces)
    pop = repair_genome(raw)
    expected = [reference_accuracy(genome_to_thresholds(g), pics) for g in pop]
    data = Dataset(records=pics)
    for got in (_FitnessCache(data, kind).evaluate(pop), _dense_fitness(data, kind, pop)):
        assert got.shape == (len(pop),)
        assert list(got) == expected


SPECIAL_GENES = [-0.0, 0.0, np.inf, -np.inf, np.nan]


def _tied_pictures(rng, n):
    """n labeled pictures of up to 8 faces, some faceless, with face scores drawn
    from a few values so that ties are common."""
    pictures = []
    for i in range(n):
        width, height = int(rng.integers(2, 60)), int(rng.integers(2, 60))
        faces = []
        for _ in range(int(rng.integers(0, 9))):
            x0, y0 = int(rng.integers(0, width - 1)), int(rng.integers(0, height - 1))
            x1, y1 = int(rng.integers(x0 + 1, width + 1)), int(rng.integers(y0 + 1, height + 1))
            faces.append(make_face(x0, y0, x1, y1, score=float(rng.choice([0.0, 0.25, 0.5, 1.0, rng.random()]))))
        pictures.append(make_picture(faces, width, height, f"t{i}", label=(Label.GOOD, Label.BAD)[int(rng.integers(2))]))
    return pictures


def _boundary_population(rng, cache, size):
    """Raw genomes: random genes, some set exactly to one picture's statistic, face
    score or fraction behind otherwise open gates, and special values anywhere."""
    dim = cache.dim
    pop = rng.uniform(-0.1, 1.1, (size, dim))
    stats = SIGNS[:, None] * cache.stats  # each picture's unsigned statistic, gene by gene
    for row in range(0, size, 2):
        pop[row] = [-np.inf, np.inf] * 3 + [-np.inf, -np.inf][: dim - 6]
        i, gene = int(rng.integers(cache.n_pictures)), int(rng.integers(dim))
        if gene < 6:
            pop[row, gene] = stats[gene, i]
        elif len(cache.ranked):
            pop[row, gene] = (cache.ranked if gene == 6 else cache.fractions)[int(rng.integers(len(cache.ranked))), i]
    special = rng.random(pop.shape) < 0.1
    pop[special] = rng.choice(SPECIAL_GENES, np.count_nonzero(special))
    return pop


def _packed(dense):
    """(P, n) bools as (P, ceil(n / 64)) words, bit i % 64 of word i // 64."""
    padded = np.zeros((len(dense), -(-dense.shape[1] // 64) * 64), dtype=bool)
    padded[:, : dense.shape[1]] = dense
    return np.packbits(padded, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def _forcing_budget(data, kind, stride):
    """The TABLE_BUDGET under which a GA population over data stores every stride-th table row."""
    tables = _FitnessCache(data, kind)._tables  # every row at these sizes
    return len(tables) * (len(data) // stride + 1) * tables.shape[2] * 8


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 63, 64, 65, 130]),
    size=st.sampled_from([1, 65]),
    kind=st.sampled_from(["baseline", "heuristic"]),
    stride=st.sampled_from([1, 2, 8, 64]),
)
def test_packed_gate_and_fitness_are_bit_equal_to_the_dense_gate(seed, n, size, kind, stride):
    rng = np.random.default_rng(seed)
    data = Dataset(records=_tied_pictures(rng, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threshold_opt, "TABLE_BUDGET", _forcing_budget(data, kind, stride))
        cache = _FitnessCache(data, kind)
    dense = composition.Gate(data, kind == "heuristic")  # every picture here is labeled
    # the doubling stops at the first power of two >= n
    assert cache._stride == min(stride, 1 << (n - 1).bit_length())
    assert cache._tables is not None
    pop = _boundary_population(rng, cache, size)
    got = cache.packed(pop)
    assert (got.dtype, got.shape) == (np.uint64, (size, -(-n // 64)))
    assert got.tobytes() == _packed(dense.passed(pop)).tobytes()
    assert cache.evaluate(pop).tobytes() == _dense_fitness(data, kind, pop).tobytes()


def _group_event(n, max_faces, seed=0):
    """n labeled heuristic pictures of 1 to max_faces faces each, as at a group event."""
    rng = np.random.default_rng(seed)
    pictures = []
    for i in range(n):
        faces = []
        for _ in range(int(rng.integers(1, max_faces + 1))):
            x0, y0 = int(rng.integers(0, 2900)), int(rng.integers(0, 1900))
            faces.append(make_face(x0, y0, x0 + 100, y0 + 100, score=float(rng.random())))
        pictures.append(make_picture(faces, picture_id=f"g{i}", label=(Label.GOOD, Label.BAD)[i % 2]))
    return Dataset(records=pictures)


@pytest.fixture(scope="module")
def group_event():
    return _group_event(5000, 20)


def test_scoring_a_large_group_event_builds_no_tables(group_event):
    # one genome: the dense compare, O(faces) memory; tables of every row would take over 400 MB here
    t = Thresholds(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.5, 0.5)
    tracemalloc.start()
    picture_scores(group_event, t)
    accuracy(t, group_event)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    fractions = composition.Gate(group_event, True).fractions
    columns = 6 + len(np.unique(fractions[fractions > -np.inf])) + 1
    assert columns * (len(group_event) + 1) * -(-len(group_event) // 64) * 8 > 10 * TABLE_BUDGET
    assert peak < 32 << 20


def test_a_group_event_ga_reads_strided_tables(group_event, monkeypatch):
    pop = repair_genome(np.random.default_rng(0).uniform(0, 1, (64, 8)))
    tracemalloc.start()
    cache = _FitnessCache(group_event, "heuristic")
    fitness = cache.evaluate(pop)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert cache._stride > 1 and cache._tables.nbytes <= TABLE_BUDGET and peak < 48 << 20
    assert fitness.tobytes() == _dense_fitness(group_event, "heuristic", pop).tobytes()
    small = _FitnessCache(group_event.take(np.arange(600)), "heuristic")
    assert small._stride == 1 and small._tables.nbytes <= TABLE_BUDGET

    def dense(*args):
        raise AssertionError("a GA population counted on the dense gate")

    monkeypatch.setattr(composition.Gate, "passed", dense)
    ga_optimize(group_event, "heuristic", GAConfig(population_size=16, generations=3))


@pytest.mark.parametrize("kind", ["baseline", "heuristic"])
@pytest.mark.parametrize("stride", [2, 8, 64, pytest.param(None, id="no_budget")])
def test_ga_reports_the_same_at_every_stride(kind, stride, monkeypatch):
    data = Dataset(records=make_threshold_dataset(120, seed=5, kind=kind))
    packed = ga_optimize(data, kind, FAST_GA)
    # no budget: no table fits, so the stride stops at 128, the first power of two >= 120
    monkeypatch.setattr(threshold_opt, "TABLE_BUDGET", -1 if stride is None else _forcing_budget(data, kind, stride))
    assert ga_optimize(data, kind, FAST_GA) == packed


def test_ga_deterministic():
    pics = make_threshold_dataset(80, seed=4, kind="baseline")
    a = ga_optimize(Dataset(records=pics), "baseline", FAST_GA)
    b = ga_optimize(Dataset(records=pics), "baseline", FAST_GA)
    assert a.best_genome == b.best_genome
    assert a.curve == b.curve


# sha256 of the reports' repr, taken when each generation's draws became
# whole-array calls and the gates started wide open; any change to the RNG
# stream, the starting population, the tie rules or the fitness moves them
GA_REPORT_DIGESTS = {
    "baseline": "ffe3abbbfc6759b435512c11a896fe24531d2cdaf65a83af8fecba5e66f89dec",
    "heuristic": "147dfb480c89563917527f30b2c46b2a8c46818bf954be756ccb71c3f3844c49",
}


@pytest.mark.parametrize("kind", sorted(GA_REPORT_DIGESTS))
def test_ga_report_matches_golden_digest(kind):
    # random labels: fitness plateaus, so the tie rules decide a lot
    pics = make_random_pictures(60, seed=5, with_scores=True)
    pics = [replace(p, faces=()) if i % 10 == 0 else p for i, p in enumerate(pics)]
    r = ga_optimize(Dataset(records=pics), kind, GAConfig(population_size=24, generations=20, seed=7))
    key = (r.kind, tuple(map(float, r.best_genome)), r.best_accuracy, r.curve, r.evaluations)
    assert hashlib.sha256(repr(key).encode()).hexdigest() == GA_REPORT_DIGESTS[kind]


def test_ga_recovers_baseline_rule():
    pics = make_threshold_dataset(200, seed=5, kind="baseline")
    report = ga_optimize(Dataset(records=pics), "baseline", GAConfig(seed=1))
    assert report.best_accuracy >= 0.98
    assert accuracy(report.best_thresholds, Dataset(records=pics)) == pytest.approx(report.best_accuracy)


def test_ga_recovers_heuristic_rule():
    pics = make_threshold_dataset(200, seed=6, kind="heuristic")
    report = ga_optimize(Dataset(records=pics), "heuristic", GAConfig(seed=1))
    assert report.best_accuracy >= 0.98


def test_small_ga_leaves_the_reject_everything_plateau():
    # uniform (min, max) pairs seldom span the faces, so such a start rejects
    # nearly every picture and selection has no slope to climb
    pics = make_threshold_dataset(60, seed=3, kind="heuristic")
    for seed in range(10):
        config = GAConfig(population_size=16, generations=20, seed=seed)
        assert ga_optimize(Dataset(records=pics), "baseline", config).best_accuracy >= 0.7
        assert ga_optimize(Dataset(records=pics), "heuristic", config).best_accuracy >= 0.95


def test_ga_curve_best_never_decreases_under_elitism():
    pics = make_threshold_dataset(100, seed=7, kind="baseline")
    report = ga_optimize(Dataset(records=pics), "baseline", FAST_GA)
    best = [b for _, b, _ in report.curve]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
    assert report.evaluations == FAST_GA.population_size * (FAST_GA.generations + 1)


GENERATION_PICTURES = make_random_pictures(40, seed=3, with_scores=True)


@settings(max_examples=40, deadline=None)
@given(
    size=st.sampled_from([3, 4, 5, 24, 65]),
    generations=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["baseline", "heuristic"]),
)
def test_generation_step_keeps_size_and_elites(size, generations, seed, kind):
    # random labels: fitness plateaus, so ties decide the elites
    pics = GENERATION_PICTURES
    config = GAConfig(population_size=size, generations=generations, seed=seed)
    report = ga_optimize(Dataset(records=pics), kind, config)
    # replay ga_optimize's stream one generation at a time
    cache = _FitnessCache(Dataset(records=pics), kind)
    rng = np.random.default_rng(seed)
    pop = _initial_population(rng, size, cache.dim)
    fitness = cache.evaluate(pop)
    for gen in range(generations):
        assert report.curve[gen] == (gen, fitness.max(), fitness.mean())
        nxt = _next_generation(rng, pop, fitness)
        assert nxt.shape == (size, cache.dim)
        elites = pop[_ranking(pop, fitness)[:ELITISM_COUNT]]
        assert nxt[:ELITISM_COUNT].tobytes() == elites.tobytes()
        pop, fitness = nxt, cache.evaluate(nxt)
    assert report.best_accuracy == fitness.max()
    assert report.best_genome == tuple(pop[_ranking(pop, fitness)[0]])


def test_ga_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ga_optimize(Dataset(records=make_random_pictures(5, seed=0)), "other")


@pytest.mark.parametrize("kind, steps", [("baseline", 4), ("heuristic", 3)])
def test_grid_oracle_agrees_with_direct_sweep(kind, steps):
    # brute force over the same grid, in lexicographic order, through the GA fitness
    pics = make_threshold_dataset(40, seed=8, kind=kind)
    report = grid_search_oracle(Dataset(records=pics), kind, steps)
    values = np.linspace(0, 1, steps)
    cache = _FitnessCache(Dataset(records=pics), kind)
    grid = np.stack(np.meshgrid(*[values] * cache.dim, indexing="ij"), axis=-1).reshape(-1, cache.dim)
    fitness = cache.evaluate(grid)
    assert report.best_accuracy == fitness.max()
    assert report.best_genome == tuple(grid[np.argmax(fitness)])


def test_grid_oracle_heuristic_small():
    pics = make_threshold_dataset(30, seed=9, kind="heuristic")
    report = grid_search_oracle(Dataset(records=pics), "heuristic", 3)
    assert report.evaluations == 3**8
    assert 0.0 <= report.best_accuracy <= 1.0
    cache = _FitnessCache(Dataset(records=pics), "heuristic")
    assert cache.evaluate(np.array(report.best_genome)[None])[0] == report.best_accuracy


def test_grid_oracle_point_budget():
    with pytest.raises(ValueError):
        grid_search_oracle(Dataset(records=make_random_pictures(5, seed=0)), "heuristic", 10)


def test_curve_csv(tmp_path):
    pics = make_threshold_dataset(40, seed=10, kind="baseline")
    report = ga_optimize(Dataset(records=pics), "baseline", GAConfig(population_size=8, generations=3, seed=0))
    path = tmp_path / "curve.csv"
    write_curve_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,best,mean"
    assert len(lines) == 4


def test_fits_and_evaluation_never_import_numpy_ma():
    # plain np.unique imports numpy.ma on its hash path, which adds about 1.4 MB to the RSS of every fit
    script = """if True:
        import sys
        from robophoto import tinynet
        from robophoto.abstraction import CANVAS_H, CANVAS_W
        from robophoto.core import Dataset
        from robophoto.pipeline import evaluate_methods
        from robophoto.synthetic import make_threshold_dataset
        from robophoto.threshold_opt import GAConfig, ga_optimize
        data = Dataset(records=make_threshold_dataset(60, seed=1, kind="heuristic"))
        fits = [ga_optimize(data, kind, GAConfig(8, 2)).best_thresholds for kind in ("baseline", "heuristic")]
        model = tinynet.build_model([tinynet.flatten(), tinynet.dense(CANVAS_H * CANVAS_W, 1), tinynet.sigmoid()])
        evaluate_methods(data, *fits, model)
        print("numpy.ma" in sys.modules)
    """
    env = {**os.environ, "PYTHONPATH": str(Path(threshold_opt.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True)
    assert child.stdout == "False\n"
