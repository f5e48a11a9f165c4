"""The three benchmark workloads, each driven through the job server.

Every workload runs the production path ``JobServer.submit`` -> ``tick`` ->
``result`` on the ``vector-vm`` backend with an in-memory store.  One thread
plays every user: the server never starts its background loop, the client
ticks it, and each user keeps exactly one job in flight with zero think time
(a closed loop).  A workload has three phases:

* ``setup()`` -- everything before the measured window (agent training,
  warm compiles, warm batch sizes), repeated ``setup_repeats`` times so
  ``setup_s`` is a median;
* ``window(seconds)`` -- the measured closed loop, returning a
  :class:`Window` with every job's client-side latency and result;
* the checks in :mod:`checks`, run on the window afterwards.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.tapeopt import reset_tape_cache
from repro.compiler.registry import CompilerSpec
from repro.experiments.harness import make_default_agent
from repro.ir.analysis import variables
from repro.ir.parser import parse
from repro.ir.printer import to_sexpr
from repro.kernels.registry import Benchmark, benchmark_by_name, benchmark_suite
from repro.server import Job, JobServer
from repro.service.cache import cache_key

from speed import Pacer, Slice

BACKEND = "vector-vm"
#: Distinct input sets drawn per kernel; jobs pick one of them.  A finite
#: pool keeps the independent plaintext check (one evaluation per distinct
#: input set) cheap next to the window.
INPUT_POOL = 64

#: The chehab-rl configuration: the registry's default agent (512 PPO
#: timesteps over 64 expressions).  Job options must be JSON, so the
#: server rebuilds the compiler from these and finds the trained agent in
#: the harness's per-configuration agent cache.
RL_OPTIONS = {"train_timesteps": 512, "dataset_size": 64, "seed": 0}
COMPILERS = ("greedy", "coyote", "chehab-rl")


def compiler_options(compiler: str) -> Dict[str, object]:
    return dict(RL_OPTIONS) if compiler == "chehab-rl" else {}


@dataclass
class Kernel:
    """One kernel as the client sees it: source text plus an input pool."""

    name: str
    source: str
    expr: object
    inputs: List[Dict[str, int]]

    @classmethod
    def build(cls, benchmark: Benchmark, rng: random.Random) -> "Kernel":
        source = to_sexpr(benchmark.expression())
        expr = parse(source)
        high = 1 if benchmark.binary_inputs else benchmark.input_range
        pool = [
            {name: rng.randint(0, high) for name in variables(expr)}
            for _ in range(INPUT_POOL)
        ]
        return cls(benchmark.name, source, expr, pool)


@dataclass
class Sample:
    """One job as the client saw it."""

    kernel: str
    compiler: str
    input_index: int
    latency_s: float
    result: Optional[dict] = None
    error: Optional[str] = None


@dataclass
class Window:
    """Everything one measured window produced."""

    samples: List[Sample] = field(default_factory=list)
    #: The window's work, cut by host-speed probes (see :mod:`speed`).
    slices: List[Slice] = field(default_factory=list)
    #: Telemetry counter deltas over the window.
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def work_s(self) -> float:
        """Wall seconds of work, probes left out."""
        return sum(s.wall_s for s in self.slices)

    def slice_rates(self) -> List[float]:
        """Jobs per reference second in each slice that holds jobs."""
        return [s.jobs / s.ref_s for s in self.slices if s.jobs]

    def ref_latencies_ms(self) -> List[float]:
        """Each job's latency in reference milliseconds, scaled by its slice."""
        latencies = []
        for piece in self.slices:
            for sample in self.samples[piece.first : piece.first + piece.jobs]:
                latencies.append(sample.latency_s * piece.scale * 1000.0)
        return latencies


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counters(server: JobServer) -> Dict[str, float]:
    return {
        name: float(value)
        for name, value in server.telemetry.snapshot()["counters"].items()
    }


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


class Client:
    """Submits jobs and reads their results, timing each from the client."""

    def __init__(self, server: JobServer, kernels: Dict[str, Kernel]) -> None:
        self.server = server
        self.kernels = kernels
        self.in_flight: List[Tuple[str, str, str, int, float]] = []

    def submit(self, kernel: str, compiler: str, input_index: int) -> None:
        entry = self.kernels[kernel]
        job = Job(
            source=entry.source,
            compiler=compiler,
            compiler_options=compiler_options(compiler),
            backend=BACKEND,
            inputs=entry.inputs[input_index],
            name=f"{kernel}/{compiler}",
        )
        start = time.perf_counter()
        job_id = self.server.submit(job)
        self.in_flight.append((job_id, kernel, compiler, input_index, start))

    def collect(self, into: List[Sample]) -> None:
        """Tick until every in-flight job is terminal, then read each result."""
        self.server.drain()
        for job_id, kernel, compiler, input_index, start in self.in_flight:
            sample = Sample(kernel, compiler, input_index, 0.0)
            try:
                sample.result = self.server.result(job_id)
            except RuntimeError as error:
                sample.error = str(error)
            sample.latency_s = time.perf_counter() - start
            into.append(sample)
        self.in_flight.clear()


def _new_server() -> JobServer:
    return JobServer(backend=BACKEND, compiler="greedy")


class Workload:
    """Base: ``name``, ``users``, ``setup()`` and ``window()``."""

    name = ""
    users = 1
    #: Setups per run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Whether ``peak_rss_mb`` is read after the window (fixed work) or
    #: when it opens.  The server keeps every finished job in memory, so
    #: over a timed window the growth follows throughput.
    rss_after_window = False
    #: Whether ``jobs_per_s`` is the median slice (slices alike) or all jobs
    #: over the whole window's reference time.
    slice_median = False

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.kernels: Dict[str, Kernel] = {}

    def setup_once(self, pacer: Pacer) -> None:
        """One setup; calls ``pacer.mark(0)`` between its steps."""
        raise NotImplementedError

    def setup(self) -> List[float]:
        """Run the setup ``setup_repeats`` times; return each in reference seconds."""
        durations = []
        for _ in range(self.setup_repeats):
            pacer = Pacer()
            self.setup_once(pacer)
            pacer.mark(0, force=True)
            durations.append(sum(piece.ref_s for piece in pacer.slices))
        return durations

    def window(self, seconds: float) -> Window:
        raise NotImplementedError


class ColdCompile(Workload):
    """Every (kernel, compiler) pair compiled once, through execute jobs."""

    name = "cold-compile"
    users = 1
    rss_after_window = True
    #: Execute jobs (input sets) submitted together for each pair.
    group = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        suite = benchmark_suite(include_deep_trees=False)
        self.kernels = {b.name: Kernel.build(b, self.rng) for b in suite}
        self.pairs = [(b.name, c) for b in suite for c in COMPILERS]
        self.rng.shuffle(self.pairs)
        self._agent_seeds = iter(range(self.setup_repeats))
        #: ``(kernel, compiler) -> CompilationReport`` of the last pass.
        self.reports: Dict[Tuple[str, str], object] = {}

    def setup_once(self, pacer: Pacer) -> None:
        # Training is the expensive part; each repeat trains a fresh agent
        # (its own agent seed) so the repeats are equal work.  The window
        # uses the seed-0 agent of RL_OPTIONS.
        make_default_agent(
            train_timesteps=RL_OPTIONS["train_timesteps"],
            dataset_size=RL_OPTIONS["dataset_size"],
            seed=next(self._agent_seeds),
        )
        pacer.mark(0)
        # Warm the code paths (imports, lazy registries) on a throwaway
        # server with an expression outside the suite.
        probe = JobServer(backend=BACKEND)
        for compiler in COMPILERS:
            probe.submit(
                Job(
                    source="(+ (* a b) (* c d))",
                    compiler=compiler,
                    compiler_options=compiler_options(compiler),
                    backend=BACKEND,
                    inputs={"a": 1, "b": 2, "c": 3, "d": 4},
                )
            )
        probe.drain()
        probe.close()

    def window(self, seconds: float) -> Window:
        """Whole passes over every pair until ``seconds`` have elapsed.

        Each pass starts from a fresh server (empty compile cache and
        circuit memo) and an empty tape memo, so every pair compiles cold.
        """
        samples: List[Sample] = []
        counters: Dict[str, float] = {}
        start = time.perf_counter()
        pacer = Pacer()
        while True:
            reset_tape_cache()
            server = _new_server()
            client = Client(server, self.kernels)
            for kernel, compiler in self.pairs:
                for index in self.rng.sample(range(INPUT_POOL), self.group):
                    client.submit(kernel, compiler, index)
                client.collect(samples)
                pacer.mark(len(samples))
            for name, value in _counters(server).items():
                counters[name] = counters.get(name, 0.0) + value
            self._keep_reports(server)
            server.close()
            if time.perf_counter() - start >= seconds:
                break
        pacer.mark(len(samples), force=True)
        return Window(samples, pacer.slices, counters)

    def _keep_reports(self, server: JobServer) -> None:
        """Read each pair's compilation report back from the server's cache."""
        for kernel, compiler in self.pairs:
            spec = CompilerSpec.create(compiler, **compiler_options(compiler))
            key = cache_key(self.kernels[kernel].expr, spec.describe())
            self.reports[(kernel, compiler)] = server.cache.get(key)


class Serve(Workload):
    """Warm serving: kernels compiled in setup, every batch size warmed."""

    compiler = "greedy"
    kernel_names: Tuple[str, ...] = ()
    slice_median = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.kernels = {
            name: Kernel.build(benchmark_by_name(name), self.rng)
            for name in self.kernel_names
        }
        self.server: Optional[JobServer] = None

    def batch_sizes(self) -> Sequence[int]:
        raise NotImplementedError

    def draw_round(self) -> List[str]:
        """The kernels of the next round, one per user."""
        raise NotImplementedError

    def setup_once(self, pacer: Pacer) -> None:
        # A fresh server and tape memo each repeat, so every repeat compiles
        # and allocates the same things.  Dropping the previous server first
        # frees its arenas before this repeat allocates its own.
        self.server = None
        reset_tape_cache()
        server = _new_server()
        client = Client(server, self.kernels)
        warm: List[Sample] = []
        for kernel in self.kernel_names:
            for size in self.batch_sizes():
                for index in range(size):
                    client.submit(kernel, self.compiler, index % INPUT_POOL)
                client.collect(warm)
                pacer.mark(0)
        failed = [sample for sample in warm if sample.error]
        if failed:
            raise RuntimeError(f"warm-up job failed: {failed[0].error}")
        self.server = server

    def window(self, seconds: float) -> Window:
        server = self.server
        client = Client(server, self.kernels)
        samples: List[Sample] = []
        before = _counters(server)
        deadline = time.perf_counter() + seconds
        pacer = Pacer()
        while time.perf_counter() < deadline:
            for kernel in self.draw_round():
                client.submit(kernel, self.compiler, self.rng.randrange(INPUT_POOL))
            client.collect(samples)
            pacer.mark(len(samples))
        pacer.mark(len(samples), force=True)
        return Window(samples, pacer.slices, _delta(before, _counters(server)))


class ServeSmall(Serve):
    """Many small kernels, users spread uniformly: per-job server work."""

    name = "serve-small"
    users = 16
    setup_repeats = 5
    kernel_names = (
        "dot_product_4",
        "dot_product_8",
        "max_3",
        "max_4",
        "sort_3",
        "hamming_distance_4",
        "l2_distance_4",
        "box_blur_3x3",
        "linear_regression_4",
        "gx_3x3",
        "roberts_cross_3x3",
        "matrix_multiply_3x3",
    )

    #: Most users one kernel may have in a round.  Every batch size up to
    #: this is warmed; the tape VM keeps arenas per batch size, so the cap
    #: bounds memory and keeps the set of batch sizes the same every run.
    max_batch = 6

    def batch_sizes(self) -> Sequence[int]:
        return range(1, self.max_batch + 1)

    def draw_round(self) -> List[str]:
        # Each user draws uniformly; a user whose kernel is already full
        # this round draws again.
        chosen: List[str] = []
        while len(chosen) < self.users:
            kernel = self.rng.choice(self.kernel_names)
            if chosen.count(kernel) < self.max_batch:
                chosen.append(kernel)
        return chosen


class ServeWide(Serve):
    """Heavy kernels, all users on one hot kernel per round: wide batches."""

    name = "serve-wide"
    users = 16
    kernel_names = (
        "matrix_multiply_4x4",
        "matrix_multiply_5x5",
        "box_blur_5x5",
        "gx_5x5",
        "polynomial_regression_16",
        "tree_100_100_5",
    )
    #: About 47 ms a round, against 15-28 ms for the others.
    slowest = "polynomial_regression_16"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._order: List[str] = []

    def batch_sizes(self) -> Sequence[int]:
        return (self.users,)

    def draw_round(self) -> List[str]:
        # The hot kernel walks seeded permutations of all kernels, so every
        # batch has exactly `users` rows.  The slowest kernel is in each
        # permutation twice: with seven rounds per permutation the latency
        # median (3.5/7) falls inside one kernel's rounds, not on the
        # boundary between two kernels' latencies, and p90 (6.3/7) falls
        # well inside the slowest kernel's rounds.
        if not self._order:
            self._order = [self.slowest, *self.kernel_names]
            self.rng.shuffle(self._order)
        return [self._order.pop()] * self.users


WORKLOADS = {cls.name: cls for cls in (ColdCompile, ServeSmall, ServeWide)}
