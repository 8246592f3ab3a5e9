"""Workloads, correctness checks and metrics of the benchmark.

Each workload runs in one process as a closed loop with one client: the
next operation starts when the previous one has returned.  Inputs come from
the workload seed alone.  The benchmark calls only the library's public
entry points (``read_dataset``, ``mips_topk``, ``naive_topk``,
``lsh_build``/``lsh_query``, ``run_validate``) and checks every answer
against values it computes itself.

Set-up (``setup_s``) is what a user pays before the first query: on the
vector workloads ``read_dataset`` of the pre-written binary file plus
``lsh_build`` where the workload queries LSH, on ``pac-adversarial`` a fresh
import of the library.  It is repeated and the median is reported.

Time metrics are scaled by a reference kernel timed between operations
(see ``SpeedProbe``).  A traced run (``trace=True``) repeats every timed
bandit operation, right after the untraced one and with the same inputs,
with the library names in ``TRACED`` wrapped, and reports per-layer
metrics plus the tracing overhead between the two.  README.md says what
each metric means and which end-to-end metric it should move.
"""

from __future__ import annotations

import importlib
import math
import os
import platform
import resource
import statistics
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import ModuleType

import numpy as np

from tracing import Tracer

PACKAGE = "bandit_mips"

# Metric name -> unit.  BENCHMARK.json lists the same names and units.
END_TO_END = {
    "setup_s": "s",
    "bandit_query_ms.p50": "ms",
    "bandit_query_ms.tail": "ms",
    "bandit_qps": "1/s",
    "naive_query_ms.p50": "ms",
    "wall_speedup": "x",
    "ops_speedup": "x",
    "precision": "fraction",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "fileio.read_dataset_s": "s",
    "baselines.lsh_build_s": "s",
    "mips.reward_range_ms": "ms",
    "mips.build_arms_ms": "ms",
    "mips.search_ms": "ms",
    "arms.sample_ms": "ms",
    "arms.reward_eval_ms": "ms",
    "arms.pull_batch_calls": "count",
    "arms.densified_arms": "count",
    "arms.ns_per_pull": "ns",
    "arms.computed_bytes": "bytes_computed",
    "elimination.self_ms": "ms",
    "elimination.eliminate_ms": "ms",
    "elimination.rounds": "count",
    "elimination.round1_target": "count",
    "elimination.useful_pull_ratio": "ratio",
    "bounds.pac_ratio": "ratio",
    "baselines.lsh_candidates": "count",
    "baselines.lsh_query_ms": "ms",
    "datasets.gen_adversarial_ms": "ms",
    "datasets.sources_ms": "ms",
    "metrics.quality_ms": "ms",
    "bench.self_ms": "ms",
    "trace.overhead_pct": "%",
}

IMPORT_REPS = 5
SETUP_REPS = 9
# Bytes one lazily evaluated pull touches: a row entry, a query entry and
# the int64 position that selects them.  arms.computed_bytes is this times
# the pulls, a computed figure, not a measured one.
BYTES_PER_LAZY_PULL = 24


@dataclass(frozen=True)
class VectorWorkload:
    """Top-K queries over a dense vector set read from a binary file."""

    name: str
    dist: str  # "gaussian" (standard normal) or "uniform" ([0, 1))
    objective: str  # an ObjectiveKind value
    n: int
    dim: int
    k: int
    delta: float
    eps_frac: float  # epsilon as a share of each query's reward-range width
    # Tail percentile of bandit latency: the highest whole percentile that
    # leaves ten samples beyond it at the lowest query count seen on the
    # tuning machine (README.md gives the counts).
    tail: float
    lsh: tuple[int, int] | None = None  # (a, b) when the workload queries LSH


@dataclass(frozen=True)
class PacWorkload:
    """Repeated ``run_validate`` grids on adversarial instances."""

    name: str
    epsilons: tuple[float, ...]
    deltas: tuple[float, ...]
    n: int
    list_len: int
    runs: int  # runs per cell
    exhaustive_runs: int  # epsilon = 0 runs after each cell call, the exhaustive reference
    tail: float


WORKLOADS = {
    w.name: w
    for w in (
        VectorWorkload(
            "mips-gaussian-k5", "gaussian", "inner_product", n=1000, dim=10_000,
            k=5, delta=0.1, eps_frac=0.4, tail=0.85, lsh=(8, 15),
        ),
        VectorWorkload(
            "nn-uniform-k10", "uniform", "neg_sq_distance", n=1000, dim=10_000,
            k=10, delta=0.1, eps_frac=1.6, tail=0.92,
        ),
        PacWorkload(
            "pac-adversarial", epsilons=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
            deltas=(0.05, 0.1, 0.2, 0.3), n=500, list_len=5000, runs=20,
            exhaustive_runs=2, tail=0.99,
        ),
    )
}


# --- library loading ----------------------------------------------------------


def load_library(src: Path, probe: "SpeedProbe", reps: int = IMPORT_REPS):
    """Import the package from ``src`` ``reps`` times from scratch; time each import.

    numpy stays loaded, so the times are the library's own import cost.  The
    modules of the last import are the ones every later call uses.  Returns
    the package and the import ``Timings``.
    """
    src = src.resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    timings = Timings()
    for _ in range(max(reps, 1)):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        start = perf_counter()
        lib = importlib.import_module(PACKAGE)
        timings.add((perf_counter() - start) * 1e3, probe.factor().interp)
    origin = Path(lib.__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"{PACKAGE} was imported from {origin}, not from {src}")
    return lib, timings


# --- correctness checks -------------------------------------------------------


@dataclass
class Checker:
    """Counts checked operations and the ones with at least one problem."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems)}")


def topk_problems(ids, k: int, n: int) -> list[str]:
    """A top-K answer must hold k distinct ids in [0, n)."""
    ids = [int(i) for i in ids]
    problems = []
    if len(ids) != k:
        problems.append(f"{len(ids)} ids returned, expected {k}")
    if len(set(ids)) != len(ids):
        problems.append("duplicate ids")
    if any(not 0 <= i < n for i in ids):
        problems.append("id out of range")
    return problems


def pull_problems(total_pulls: int, max_arm_pulls: int, n: int, dim: int) -> list[str]:
    """The search may never read more than n*N rewards, nor N from one arm."""
    problems = []
    if not 0 <= total_pulls <= n * dim:
        problems.append(f"total pulls {total_pulls} outside [0, n*N = {n * dim}]")
    if not 0 <= max_arm_pulls <= dim:
        problems.append(f"max arm pulls {max_arm_pulls} outside [0, N = {dim}]")
    return problems


def top_ids(scores: np.ndarray, k: int) -> np.ndarray:
    """Independent argsort: the k best scores, ties to the smaller id."""
    return np.lexsort((np.arange(scores.size), -scores))[:k]


def exact_problems(ids, scores: np.ndarray, k: int) -> list[str]:
    """An exact answer must match the argsort of ``scores`` up to ties."""
    problems = topk_problems(ids, k, scores.size)
    if problems:
        return problems
    ids = np.asarray(ids, dtype=np.int64)
    truth = top_ids(scores, k)
    tol = 1e-9 * max(1.0, float(np.abs(scores).max()))
    kth = scores[truth[-1]]
    differing = set(ids.tolist()) ^ set(truth.tolist())
    if any(abs(scores[i] - kth) > tol for i in differing):
        problems.append("ids differ from the exact top-k")
    if np.any(np.diff(scores[ids]) > tol):
        problems.append("ids not in descending score order")
    return problems


# --- inputs -------------------------------------------------------------------

_DATA, _QUERY, _WARMUP, _RUN, _LSH, _GRID = range(6)
_BLOCK_ROWS = 100


def _rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def _draw(rng: np.random.Generator, dist: str, shape) -> np.ndarray:
    return rng.standard_normal(shape) if dist == "gaussian" else rng.random(shape)


def data_blocks(spec: VectorWorkload, seed: int):
    """The data set as float32 row blocks, a function of the seed alone."""
    rng = _rng(seed, _DATA)
    for start in range(0, spec.n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, spec.n - start)
        yield start, _draw(rng, spec.dist, (rows, spec.dim)).astype("<f4")


def write_data(path: Path, spec: VectorWorkload, seed: int) -> None:
    """Write the documented binary format: MEB1, u32 n, u32 dim, float32 rows."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", b"MEB1", spec.n, spec.dim))
        for _, block in data_blocks(spec, seed):
            fh.write(block.tobytes())


def data_problems(data: np.ndarray, spec: VectorWorkload, seed: int) -> list[str]:
    if data.shape != (spec.n, spec.dim):
        return [f"read {data.shape}, wrote {(spec.n, spec.dim)}"]
    for start, block in data_blocks(spec, seed):
        if not np.array_equal(data[start : start + len(block)], block.astype(np.float64)):
            return [f"rows from {start} differ from the written file"]
    return []


def make_query(spec: VectorWorkload, seed: int, stream: int, index: int) -> np.ndarray:
    return _draw(_rng(seed, stream, index), spec.dist, spec.dim)


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint32)[0])


class Scorer:
    """Exact scores computed by the benchmark itself, never by the library."""

    def __init__(self, data: np.ndarray, objective: str):
        self.data = data
        self.neg_sq = objective == "neg_sq_distance"
        self.sq_norms = np.einsum("ij,ij->i", data, data) if self.neg_sq else None
        self.data_bound = float(np.abs(data).max())

    def scores(self, q: np.ndarray) -> np.ndarray:
        dots = self.data @ q
        if self.neg_sq:
            return -(self.sq_norms - 2.0 * dots + q @ q)
        return dots

    def range_width(self, q: np.ndarray) -> float:
        """Width of the interval holding every per-coordinate reward."""
        q_bound = float(np.abs(q).max())
        if self.neg_sq:
            return (self.data_bound + q_bound) ** 2
        return 2.0 * self.data_bound * q_bound


# --- statistics ---------------------------------------------------------------


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    rank = min(max(math.ceil(p * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# The machine this benchmark was tuned on (a 2-core VM) runs the same code
# up to 1.6x slower for tens of seconds at a time when other tenants are
# busy.  Raw wall times then spread between runs by more than any useful
# bound, so every time metric is scaled to a machine of fixed speed: the raw
# time times a nominal kernel time over the time a fixed reference kernel
# took just before and after the operation.  Two kernels, because the
# slowdowns differ: interpreter loops with small numpy calls scale the
# bandit, the import, set-up and run_validate; a matrix-vector product over
# a 16 MB matrix scales exhaustive search and LSH, which stream the data
# set through BLAS.  Units stay ms and s, of a machine on which the kernels
# take their nominal times, about what they take on that VM when it is
# quiet.  The report line carries the raw times.
NOMINAL_MS = {"interp": 2.0, "memory": 0.75}


@dataclass(frozen=True)
class Factors:
    """Scaled ms per raw ms, one per reference kernel."""

    interp: float
    memory: float


class SpeedProbe:
    """Times the reference kernels between operations."""

    def __init__(self) -> None:
        self._matrix = np.random.default_rng(0).standard_normal((1000, 2000))  # 16 MB
        self._vector = np.ones(2000)
        self.samples: list[tuple[float, float]] = []  # (interp, memory) kernel seconds
        self._last = self._measure()

    def _interp_kernel(self) -> None:
        total = 0
        for i in range(50_000):
            total += i
        x = np.arange(1000.0)
        for _ in range(150):
            x = x[::-1] * 1.0

    def _measure(self) -> tuple[float, float]:
        start = perf_counter()
        self._interp_kernel()
        self._interp_kernel()
        middle = perf_counter()
        self._matrix @ self._vector
        self._matrix @ self._vector
        sample = ((middle - start) / 2.0, (perf_counter() - middle) / 2.0)
        self.samples.append(sample)
        return sample

    def factor(self) -> Factors:
        """Scaled ms per raw ms for the operations timed since the last call."""
        now = self._measure()
        last, self._last = self._last, now
        return Factors(*(NOMINAL_MS[kind] / (0.5e3 * (a + b))
                         for kind, a, b in zip(("interp", "memory"), last, now)))

    def kernel_ms(self) -> dict:
        return {kind: statistics.median(s[i] for s in self.samples) * 1e3
                for i, kind in enumerate(("interp", "memory"))}


@dataclass
class Timings:
    """Raw and reference-scaled durations of one kind of operation, in ms."""

    raw: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)

    def add(self, raw_ms, factor: float) -> None:
        for ms in raw_ms if isinstance(raw_ms, list) else [raw_ms]:
            self.raw.append(ms)
            self.scaled.append(ms * factor)


def machine_context() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads = None
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": threads,
    }


# --- tracing ------------------------------------------------------------------


def _count_pulls(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("pulls", args[2] if len(args) > 2 else kwargs.get("count", 0))


def _count_lazy_pulls(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("lazy_pulls", len(result))


def _count_densified(tracer: Tracer, args, kwargs, result) -> None:
    # The sampler densifies in the draw whose cumulative count crosses its switch.
    switch = getattr(args[0], "_switch", None)
    drawn = getattr(args[0], "drawn", None)
    if switch is None or drawn is None:
        tracer.missing.add("arms.PositionSampler._switch")
    elif drawn - len(result) <= switch < drawn:
        tracer.count("densified")


def _count_rounds(tracer: Tracer, args, kwargs, result) -> None:
    trace = result[1]
    rounds = getattr(trace, "rounds", None)
    total = getattr(trace, "total_pulls", None)
    if rounds is None or total is None:
        tracer.missing.add("EliminationTrace.rounds")
        return
    tracer.count("rounds", len(rounds))
    if rounds and total:
        tracer.count("round1_target", rounds[0].pull_target)
        tracer.count("useful_pulls", len(trace.returned) * rounds[-1].pull_target)
        tracer.count("search_pulls", total)


# (submodule, attribute path, span name, observer): the names each calling
# module looks up, wrapped where it looks them up.
TRACED = (
    ("mips", "reward_range", "mips.reward_range", None),
    ("mips", "build_arms", "mips.build_arms", None),
    ("mips", "median_elimination_topk", "mips.median_elimination_topk", _count_rounds),
    ("elimination", "pull_batch", "elimination.pull_batch", _count_pulls),
    ("elimination", "eliminate", "elimination.eliminate", None),
    ("elimination", "round_pull_target", "elimination.round_pull_target", None),
    ("arms", "PositionSampler.draw", "arms.PositionSampler.draw", _count_densified),
    ("arms", "LazySource.draw", "arms.LazySource.draw", _count_lazy_pulls),
    ("bench", "gen_adversarial", "bench.gen_adversarial", None),
    ("bench", "median_elimination_topk", "bench.median_elimination_topk", _count_rounds),
    ("bench", "suboptimality", "bench.suboptimality", None),
    ("bench", "precision", "bench.precision", None),
    ("datasets", "AdversarialInstance.sources", "datasets.AdversarialInstance.sources", None),
)


def install(tracer: Tracer, lib: ModuleType) -> None:
    for module_name, path, span, observe in TRACED:
        owner = getattr(lib, module_name, None)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        tracer.wrap(owner, attr, span, observe)


def traced_call(tracer: Tracer, lib: ModuleType, fn, *args):
    """Call ``fn`` with the ``TRACED`` names of ``lib`` wrapped; returns (result, seconds)."""
    install(tracer, lib)
    try:
        start = perf_counter()
        result = fn(*args)
        return result, perf_counter() - start
    finally:
        tracer.unwrap_all()


def layer_metrics(tracer: Tracer, searches: int, fixed: dict, scale: float) -> dict:
    """Per-search layer figures from the spans, plus ``fixed`` values.

    Span times are multiplied by ``scale`` (scaled ms per raw ms over the run).
    A metric built on a name that could not be wrapped is left out; a name
    that was wrapped but never called counts as zero work.
    """
    out = dict(fixed)
    ms_per = 1e3 * scale / max(searches, 1)
    count_per = 1.0 / max(searches, 1)
    blocked = tracer.missing

    def put(name: str, needs, value) -> None:
        if not any(n in blocked for n in needs):
            out[name] = value()

    def total_ms(span: str) -> float:
        return tracer.total.get(span, 0.0) * ms_per

    def self_ms(*spans: str) -> float:
        return sum(tracer.self_time.get(s, 0.0) for s in spans) * ms_per

    counters = tracer.counters
    searches_spans = ("mips.median_elimination_topk", "bench.median_elimination_topk")
    put("mips.reward_range_ms", ["mips.reward_range"], lambda: total_ms("mips.reward_range"))
    put("mips.build_arms_ms", ["mips.build_arms"], lambda: total_ms("mips.build_arms"))
    put("mips.search_ms", ["mips.median_elimination_topk"],
        lambda: total_ms("mips.median_elimination_topk"))
    put("arms.sample_ms", ["arms.PositionSampler.draw"],
        lambda: total_ms("arms.PositionSampler.draw"))
    put("arms.reward_eval_ms", ["arms.LazySource.draw"], lambda: self_ms("arms.LazySource.draw"))
    put("arms.pull_batch_calls", ["elimination.pull_batch"],
        lambda: tracer.calls.get("elimination.pull_batch", 0) * count_per)
    put("arms.densified_arms", ["arms.PositionSampler.draw", "arms.PositionSampler._switch"],
        lambda: counters.get("densified", 0) * count_per)
    put("arms.ns_per_pull", ["elimination.pull_batch"],
        lambda: tracer.total.get("elimination.pull_batch", 0.0) * 1e9 * scale
        / max(counters.get("pulls", 0), 1))
    put("arms.computed_bytes", ["arms.LazySource.draw"],
        lambda: counters.get("lazy_pulls", 0) * BYTES_PER_LAZY_PULL * count_per)
    if not all(s in blocked for s in searches_spans):
        rounds_needs = ["EliminationTrace.rounds"]
        out["elimination.self_ms"] = self_ms(*searches_spans)
        put("elimination.rounds", rounds_needs, lambda: counters.get("rounds", 0) * count_per)
        put("elimination.round1_target", rounds_needs,
            lambda: counters.get("round1_target", 0) * count_per)
        put("elimination.useful_pull_ratio", rounds_needs,
            lambda: counters.get("useful_pulls", 0) / max(counters.get("search_pulls", 0), 1))
    put("elimination.eliminate_ms", ["elimination.eliminate"],
        lambda: total_ms("elimination.eliminate"))
    put("datasets.gen_adversarial_ms", ["bench.gen_adversarial"],
        lambda: total_ms("bench.gen_adversarial"))
    put("datasets.sources_ms", ["datasets.AdversarialInstance.sources"],
        lambda: total_ms("datasets.AdversarialInstance.sources"))
    put("metrics.quality_ms", ["bench.suboptimality", "bench.precision"],
        lambda: total_ms("bench.suboptimality") + total_ms("bench.precision"))
    out["bench.self_ms"] = self_ms("bench.run_validate")
    return out


def overhead_pct(plain_ms, traced_ms) -> float:
    base = statistics.median(plain_ms)
    return (statistics.median(traced_ms) - base) / base * 100.0


# --- runs ---------------------------------------------------------------------


@dataclass
class Outcome:
    checker: Checker
    metrics: dict  # name -> value; end-to-end untraced, per-layer traced
    report: dict  # raw times, sample counts and figures that carry no bound


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _time_metrics(setup: Timings, bandit: Timings, naive: Timings, tail: float,
                  searches: int, search_time: Timings) -> tuple[dict, dict]:
    """End-to-end time metrics, scaled and raw (the raw ones go to the report).

    ``bandit_qps`` is ``searches`` over the summed ``search_time``.
    ``wall_speedup`` is the naive p50 over the bandit p50 in each: the
    gated one divides scaled times, so on the vector workloads it depends on
    the ratio of the two nominal kernel times (README.md gives both forms).
    """
    metrics, raw = {}, {}
    for out, kind in ((metrics, "scaled"), (raw, "raw")):
        setup_ms, bandit_ms, naive_ms, search_ms = (
            getattr(t, kind) for t in (setup, bandit, naive, search_time)
        )
        out["setup_s"] = statistics.median(setup_ms) / 1e3
        out["bandit_query_ms.p50"] = statistics.median(bandit_ms)
        out["bandit_query_ms.tail"] = nearest_rank(bandit_ms, tail)
        out["bandit_qps"] = searches / (sum(search_ms) / 1e3)
        out["naive_query_ms.p50"] = statistics.median(naive_ms)
        out["wall_speedup"] = out["naive_query_ms.p50"] / out["bandit_query_ms.p50"]
    return metrics, raw


def probe_scale(timings: Timings) -> float:
    """Overall scaled ms per raw ms of ``timings``, for the spans of the same run."""
    return sum(timings.scaled) / sum(timings.raw) if timings.raw else 1.0


def run_vector(spec: VectorWorkload, lib: ModuleType, probe: SpeedProbe, seed: int,
               seconds: float, tracer: Tracer | None, workdir: Path) -> Outcome:
    checker = Checker()
    kind = lib.ObjectiveKind(spec.objective)
    path = workdir / f"{spec.name}-{seed}.bin"
    reads, builds, setup = Timings(), Timings(), Timings()
    vectors = index = None
    try:
        write_data(path, spec, seed)
        probe.factor()
        for _ in range(SETUP_REPS):
            vectors = index = None
            start = perf_counter()
            vectors = lib.read_dataset(path)
            read_ms = (perf_counter() - start) * 1e3
            build_ms = 0.0
            if spec.lsh:
                start = perf_counter()
                index = lib.lsh_build(vectors, *spec.lsh, seed=derived_seed(seed, _LSH))
                build_ms = (perf_counter() - start) * 1e3
            factor = probe.factor().interp
            reads.add(read_ms, factor)
            builds.add(build_ms, factor)
            setup.add(read_ms + build_ms, factor)
    finally:
        path.unlink(missing_ok=True)
    checker.record("read_dataset", data_problems(vectors.data, spec, seed))
    scorer = Scorer(vectors.data, spec.objective)
    n, dim, k = spec.n, spec.dim, spec.k

    def bandit(qvec, query, run_seed):
        eps = spec.eps_frac * scorer.range_width(qvec)
        return lib.mips_topk(vectors, query, k, eps, spec.delta, seed=run_seed, kind=kind)

    # Warm-up: the first exhaustive queries run about twice as slow.
    warm = make_query(spec, seed, _WARMUP, 0)
    for _ in range(5):
        lib.naive_topk(vectors, lib.Query(warm), k, kind)
        if index is not None:
            lib.lsh_query(index, vectors, lib.Query(warm), k)
    bandit(warm, lib.Query(warm), derived_seed(seed, _WARMUP))

    bandit_t, naive_t, lsh_t = Timings(), Timings(), Timings()
    plain_ms, traced_ms = [], []
    pulls, precisions, ratios, lsh_precisions, candidates = [], [], [], [], []
    probe.factor()
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        qvec = make_query(spec, seed, _QUERY, i)
        query = lib.Query(qvec)
        scores = scorer.scores(qvec)
        truth = set(top_ids(scores, k).tolist())
        kth = np.partition(scores, n - k)[n - k]
        run_seed = derived_seed(seed, _RUN, i)

        start = perf_counter()
        ids, trace = bandit(qvec, query, run_seed)
        bandit_ms = (perf_counter() - start) * 1e3
        problems = topk_problems(ids, k, n)
        problems += pull_problems(trace.total_pulls, trace.max_arm_pulls, n, dim)
        checker.record(f"mips_topk query {i}", problems)
        if not problems:
            pulls.append(trace.total_pulls)
            precisions.append(len(truth & set(ids)) / k)
            eps = spec.eps_frac * scorer.range_width(qvec)
            ratios.append((kth - scores[list(ids)].min()) / dim / eps)

        if tracer is not None:
            tracer.query = i
            (ids_t, trace_t), seconds_t = traced_call(tracer, lib, bandit, qvec, query, run_seed)
            plain_ms.append(bandit_ms)
            traced_ms.append(seconds_t * 1e3)
            same = list(ids_t) == list(ids) and trace_t.total_pulls == trace.total_pulls
            checker.record(f"traced mips_topk query {i}",
                           [] if same else ["traced answer differs from the untraced one"])

        start = perf_counter()
        exact = lib.naive_topk(vectors, query, k, kind)
        naive_ms = (perf_counter() - start) * 1e3
        checker.record(f"naive_topk query {i}", exact_problems(exact.topk_ids, scores, k))

        lsh_ms = []
        if index is not None:
            start = perf_counter()
            res = lib.lsh_query(index, vectors, query, k)
            lsh_ms.append((perf_counter() - start) * 1e3)
            problems = topk_problems(res.ids, k, n)
            checker.record(f"lsh_query query {i}", problems)
            if not problems:
                lsh_precisions.append(len(truth & set(res.ids)) / k)
                candidates.append(res.candidates)

        factors = probe.factor()
        bandit_t.add(bandit_ms, factors.interp)
        naive_t.add(naive_ms, factors.memory)
        lsh_t.add(lsh_ms, factors.memory)
        i += 1

    metrics, raw = _time_metrics(setup, bandit_t, naive_t, spec.tail,
                                 len(bandit_t.raw), bandit_t)
    metrics.update(
        ops_speedup=n * dim * len(pulls) / max(sum(pulls), 1),
        precision=statistics.fmean(precisions) if precisions else 0.0,
        peak_rss_mb=peak_rss_mb(),
    )
    report = {
        "raw": raw,
        "samples": {"bandit_queries": len(bandit_t.raw), "naive_queries": len(naive_t.raw),
                    "lsh_queries": len(lsh_t.raw), "setup_reps": SETUP_REPS,
                    "speed_probes": len(probe.samples)},
        "tail_percentile": spec.tail,
        "tail_samples_beyond": sum(t > metrics["bandit_query_ms.tail"] for t in bandit_t.scaled),
    }
    if index is not None:
        report["lsh_query_ms.p50"] = _p50(lsh_t.scaled)
        report["lsh_precision"] = statistics.fmean(lsh_precisions) if lsh_precisions else 0.0
    if tracer is not None:
        fixed = {
            "fileio.read_dataset_s": _p50(reads.scaled) / 1e3,
            "baselines.lsh_build_s": _p50(builds.scaled) / 1e3,
            "baselines.lsh_candidates": statistics.fmean(candidates) if candidates else 0.0,
            "baselines.lsh_query_ms": _p50(lsh_t.scaled),
            "bounds.pac_ratio": nearest_rank(ratios, 1.0 - spec.delta) if ratios else 0.0,
            "trace.overhead_pct": overhead_pct(plain_ms, traced_ms),
        }
        metrics = layer_metrics(tracer, len(traced_ms), fixed, probe_scale(bandit_t))
    return Outcome(checker, metrics, report)


def validate_problems(result, spec: PacWorkload, exhaustive: bool) -> list[tuple[str, list[str]]]:
    """One (operation, problems) pair per run and, unless exhaustive, per cell."""
    ops_naive = spec.n * spec.list_len
    checked = []
    for r, rec in enumerate(result.records):
        problems = topk_problems(rec.returned, 1, spec.n)
        problems += pull_problems(rec.pulls_total, rec.params["max_arm_pulls"],
                                  spec.n, spec.list_len)
        if exhaustive and (rec.suboptimality != 0.0 or rec.pulls_total != ops_naive):
            problems.append("epsilon 0 run is not exhaustive and exact")
        checked.append((f"{'exhaustive ' if exhaustive else ''}run {r}", problems))
    if not exhaustive:
        for cell in result.cells:
            ok = cell.passed and cell.percentile_suboptimality <= cell.epsilon
            checked.append((f"cell eps={cell.epsilon} delta={cell.delta}",
                            [] if ok else ["PAC cell failed"]))
    return checked


def run_pac(spec: PacWorkload, lib: ModuleType, imports: Timings, probe: SpeedProbe,
            seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    """The criterion-1 grid, one ``run_validate`` call per cell, in whole grids until time is up.

    One call per cell keeps each timed stretch short, so the reference
    kernel runs every fraction of a second; whole grids keep the mix of
    cells, and with it precision and pulls, the same in every run.  Each
    cell call is followed by a short epsilon = 0 call, whose runs read every
    reward: the exhaustive reference for wall_speedup.
    """
    checker = Checker()
    cells = [(e, d) for e in spec.epsilons for d in spec.deltas]
    grid = dict(n=spec.n, list_len=spec.list_len, k=1, record_wall=True)
    lib.run_validate(spec.epsilons[-1:], spec.deltas[-1:], runs=2,
                     seed=derived_seed(seed, _WARMUP), **grid)

    bandit_t, naive_t, validate_t = Timings(), Timings(), Timings()
    plain_ms, traced_ms, precisions, ratios = [], [], [], []
    runs = pulls = ops = cells_failed = 0
    probe.factor()
    deadline = perf_counter() + seconds
    c = 0
    while c % len(cells) or c == 0 or perf_counter() < deadline:  # whole grids only
        eps, delta = cells[c % len(cells)]
        cell_seed = derived_seed(seed, _GRID, c)
        start = perf_counter()
        result = lib.run_validate([eps], [delta], runs=spec.runs, seed=cell_seed, **grid)
        validate_ms = (perf_counter() - start) * 1e3
        for what, problems in validate_problems(result, spec, exhaustive=False):
            checker.record(f"cell call {c} {what}", problems)
        runs += len(result.records)
        precisions += [rec.precision for rec in result.records]
        pulls += sum(rec.pulls_total for rec in result.records)
        ops += sum(rec.ops_naive for rec in result.records)
        ratios += [cell.percentile_suboptimality / cell.epsilon for cell in result.cells]
        cells_failed += sum(not cell.passed for cell in result.cells)

        exhaustive = lib.run_validate([0.0], [delta], runs=spec.exhaustive_runs,
                                      seed=cell_seed, **grid)
        for what, problems in validate_problems(exhaustive, spec, exhaustive=True):
            checker.record(f"cell call {c} {what}", problems)

        if tracer is not None:
            tracer.query = c

            def traced_cell():
                with tracer.span("bench.run_validate"):
                    return lib.run_validate([eps], [delta], runs=spec.runs, seed=cell_seed,
                                            **grid)

            again, _ = traced_call(tracer, lib, traced_cell)
            plain_ms += [rec.wall_ms for rec in result.records]
            traced_ms += [rec.wall_ms for rec in again.records]
            same = [r.returned for r in again.records] == [r.returned for r in result.records]
            checker.record(f"traced cell call {c}",
                           [] if same else ["traced answers differ from the untraced ones"])

        factors = probe.factor()
        bandit_t.add([rec.wall_ms for rec in result.records], factors.interp)
        naive_t.add([rec.wall_ms for rec in exhaustive.records], factors.interp)
        validate_t.add(validate_ms, factors.interp)
        c += 1

    metrics, raw = _time_metrics(imports, bandit_t, naive_t, spec.tail, runs, validate_t)
    metrics.update(
        ops_speedup=ops / max(pulls, 1),
        precision=statistics.fmean(precisions),
        peak_rss_mb=peak_rss_mb(),
    )
    report = {
        "raw": raw,
        "samples": {"grids": c // len(cells), "validate_runs": runs,
                    "exhaustive_runs": len(naive_t.raw), "import_reps": len(imports.raw),
                    "speed_probes": len(probe.samples)},
        "tail_percentile": spec.tail,
        "tail_samples_beyond": sum(t > metrics["bandit_query_ms.tail"] for t in bandit_t.scaled),
        "validate_runs_per_s": metrics["bandit_qps"],
        "pac_cells_failed": cells_failed,
    }
    if tracer is not None:
        fixed = {
            "fileio.read_dataset_s": 0.0,
            "baselines.lsh_build_s": 0.0,
            "baselines.lsh_candidates": 0.0,
            "baselines.lsh_query_ms": 0.0,
            "bounds.pac_ratio": max(ratios),
            "trace.overhead_pct": overhead_pct(plain_ms, traced_ms),
        }
        metrics = layer_metrics(tracer, len(traced_ms), fixed, probe_scale(validate_t))
    return Outcome(checker, metrics, report)


def run(name: str, lib: ModuleType, imports: Timings, probe: SpeedProbe, seed: int,
        seconds: float, trace: bool, workdir: Path, spec=None) -> Outcome:
    """Run one workload; ``spec`` overrides the named workload's sizes (self-tests)."""
    spec = spec or WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    if isinstance(spec, PacWorkload):
        outcome = run_pac(spec, lib, imports, probe, seed, seconds, tracer)
    else:
        outcome = run_vector(spec, lib, probe, seed, seconds, tracer, workdir)
    checks = outcome.checker
    outcome.report.update(
        workload=spec.name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        machine=machine_context(),
        nominal_kernel_ms=NOMINAL_MS,
        kernel_ms_p50=probe.kernel_ms(),
        failed_fraction=checks.failed / max(checks.attempted, 1),
        failures=checks.messages,
    )
    if tracer is not None:
        path = workdir / f"trace-{spec.name}.jsonl"
        tracer.write(path)
        outcome.report.update(
            trace_file=str(path), spans_stored=len(tracer.spans),
            spans_not_stored=tracer.dropped, traced_names_missing=sorted(tracer.missing),
        )
    return outcome
