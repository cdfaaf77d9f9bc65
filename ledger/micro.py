"""``micro_layers``: isolated loops over each layer's public API.

Every loop has a fixed operation count, runs on the unobserved fast
path (no profiler, no obs, no sanitizer unless the metric is about
them) and reports host ns per operation; run.py keeps the best value
over the repeats. Loops that need a fleet build the smallest one that
exercises the layer. Each result is sanity-checked, and a failed check
counts into ``failure_rate``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict

from repro.chaos import Schedule, check_cluster
from repro.cluster.builder import Cluster
from repro.load import PoissonArrivals, UserPopulation
from repro.memory.node import LogRecord, MemoryNode
from repro.obs import Obs
from repro.obs.profile import KernelProfiler
from repro.rdma.network import Network, NetworkConfig
from repro.rdma.qp import QueuePair
from repro.sim import Simulator
from repro.util.stats import Histogram
from repro.util.zipf import ZipfSampler
from repro.workloads.microbench import MicroBenchmark
from repro.workloads.smallbank import SmallBank
from repro.workloads.tatp import Tatp

from ledger.metrics import ALL_PROTOCOLS
from ledger.trace import MODULE_LAYERS, OTHER


def _fabric(rep):
    """A simulator, a network and one one-slot memory node behind a QP."""
    sim = Simulator(profiler=rep.profiler)
    network = Network(NetworkConfig(), random.Random(rep.seed))
    network.profiler = sim.profiler
    node = MemoryNode(0)
    node.create_table(0, 1, 8)
    node.load_slot(0, 0, 0)
    return sim, node, QueuePair(sim, network, 0, node)


class _Micro:
    def __init__(self, rep) -> None:
        self.rep = rep

    def n(self, count: int) -> int:
        """Operation counts shrink with --quick like every duration does."""
        return max(count // self.rep.scale, 16)

    def timed(self, name: str, ops: int, body: Callable[[], Any], per: float = 1e9) -> Any:
        """Run *body* in the measured phase; record wall per op."""
        rep = self.rep
        before = rep.wall_s
        layer = MODULE_LAYERS.get(name.split(".")[0], OTHER)
        with rep.measure(span=(layer, f"micro:{name}")):
            out = body()
        rep.host[name] = (rep.wall_s - before) * per / ops
        rep.attempted += 1
        return out

    def check(self, ok: bool, what: str) -> None:
        self.rep.fail(int(not ok), f"micro check: {what}")

    # -- sim ----------------------------------------------------------------

    def sim_layer(self) -> None:
        rep = self.rep
        hits = [0]

        def bump() -> None:
            hits[0] += 1

        n = self.n(200_000)
        sim = Simulator(profiler=rep.profiler)

        def call_soon() -> None:
            for _ in range(n):
                sim.call_soon(bump)
            sim.run()

        self.timed("sim.call_soon_ns", n, call_soon)
        self.check(hits[0] == n, "call_soon ran every callback")

        n = self.n(100_000)
        sim = Simulator(profiler=rep.profiler)
        hits[0] = 0

        def timers() -> None:
            for index in range(n):
                sim.call_at((index % 977 + 1) * 1e-6, bump)
            sim.run()

        self.timed("sim.timer_ns", n, timers)
        self.check(hits[0] == n, "timer heap ran every callback")

        n = self.n(100_000)
        sim = Simulator(profiler=rep.profiler)

        def sleeper():
            for _ in range(n):
                yield sim.timeout(1e-6)

        process = sim.process(sleeper(), name="micro-sleeper")
        self.timed("sim.timeout_resume_ns", n, sim.run)
        self.check(process.ok, "timeout loop finished")

        n = self.n(20_000)
        sim = Simulator(profiler=rep.profiler)

        def joiner():
            for _ in range(n):
                yield sim.all_of([sim.timeout(1e-6) for _ in range(4)])

        process = sim.process(joiner(), name="micro-joiner")
        self.timed("sim.allof4_ns", n, sim.run)
        self.check(process.ok, "all_of loop finished")

    # -- rdma ---------------------------------------------------------------

    def rdma_layer(self) -> None:
        rep = self.rep
        n = self.n(200_000)
        network = Network(NetworkConfig(), random.Random(rep.seed))

        def delays() -> float:
            delay = network.delay
            total = 0.0
            for _ in range(n):
                total += delay(64)
            return total

        total = self.timed("rdma.network_delay_ns", n, delays)
        self.check(total > n * 1.5e-6, "network delay at least the one-way latency")

        n = self.n(20_000)
        sim, node, qp = _fabric(rep)

        def ping():
            for _ in range(n):
                yield qp.post("read_header", (0, 0), 16)

        process = sim.process(ping(), name="micro-ping")
        self.timed("rdma.post_rtt_ns", n, sim.run)
        self.check(process.ok and node.verb_counts["read_header"] == n, "every RTT verb applied")

        rounds = self.n(2_000)
        sim, node, qp = _fabric(rep)

        def burst():
            for _ in range(rounds):
                yield sim.all_of([qp.post("read_header", (0, 0), 16) for _ in range(16)])

        process = sim.process(burst(), name="micro-burst")
        self.timed("rdma.post_pipelined_ns", rounds * 16, sim.run)
        self.check(process.ok and node.verb_counts["read_header"] == rounds * 16,
                   "every pipelined verb applied")

        n = self.n(20_000)
        sim, node, qp = _fabric(rep)

        def unsignaled() -> None:
            for value in range(n):
                qp.post("write_value", (0, 0, value), 24, signaled=False)
            sim.run()

        self.timed("rdma.post_unsignaled_ns", n, unsignaled)
        self.check(node.slot(0, 0).value == n - 1, "unsignaled writes landed in order")

    # -- memory -------------------------------------------------------------

    def memory_layer(self) -> None:
        n = self.n(100_000)
        node = MemoryNode(0)
        node.create_table(0, 64, 16)
        for slot in range(64):
            node.load_slot(0, slot, slot)
        apply = node.apply
        eight = (tuple((0, slot) for slot in range(8)),)
        record = LogRecord(coord_id=1, txn_id=1, entries=((0, 3, 3, 1, 2, 3, 4, True, True),))
        verbs: Dict[str, Callable[[int], tuple]] = {
            "read_object": lambda i: ("read_object", (0, i & 63)),
            "read_header": lambda i: ("read_header", (0, i & 63)),
            "read_headers8": lambda i: ("read_headers", eight),
            "cas_lock": lambda i: ("cas_lock", (0, 5, i & 1, 1 - (i & 1))),
            "write_object": lambda i: ("write_object", (0, i & 63, i, i, True)),
            "write_log": lambda i: ("write_log", (record,)),
        }
        for name, make in verbs.items():
            calls = [make(i) for i in range(n)]

            def loop(calls=calls) -> None:
                for kind, args in calls:
                    apply(1, kind, args)

            self.timed(f"memory.apply_ns.{name}", n, loop)
        self.check(node.slot(0, 5).lock == 0, "cas_lock toggled back to free")
        self.check(sum(node.verb_counts.values()) == 6 * n, "every verb applied")

    # -- fleets (built in set-up, run below) ----------------------------------

    def build_fleets(self) -> None:
        rep = self.rep
        self.protocol_fleets = {}
        for protocol in ALL_PROTOCOLS:
            config = rep.config(protocol=protocol, compute_nodes=1, coordinators_per_node=1)
            workload = MicroBenchmark(num_keys=1_000, ops_per_txn=2, rmw=True)
            cluster = rep.cluster(config, workload)
            cluster.start()
            self.protocol_fleets[protocol] = cluster

        self.recovery_fleet = rep.cluster(
            rep.config(coordinators_per_node=32), SmallBank(accounts=5_000)
        )
        self.recovery_fleet.start()
        # Both compute nodes die, so nothing but detection and recovery
        # shares the window that follows.
        self.recovery_fleet.crash_compute(0, at=rep.ms(0.5))
        self.recovery_fleet.crash_compute(1, at=rep.ms(0.5))

        self.oracle_runner = rep.chaos_runner(
            Schedule(seed=rep.seed, family="none", duration=rep.ms(3.0))
        )

        observers = {
            "base": {},
            "obs.ratio.trace": {"obs": Obs(trace=True)},
            "obs.ratio.flight": {"obs": Obs(trace=True, flight=True)},
            "obs.ratio.profile": {"profiler": KernelProfiler()},
            "analysis.ratio.sanitize": {},
        }
        self.observer_fleets = {}
        for name, kwargs in observers.items():
            config = rep.config(sanitize=(name == "analysis.ratio.sanitize"))
            cluster = Cluster(config, SmallBank(accounts=5_000), **kwargs)
            cluster.start()
            self.observer_fleets[name] = cluster

    def protocol_layer(self) -> None:
        rep = self.rep
        end = rep.ms(2.0)
        for protocol, cluster in self.protocol_fleets.items():
            name = f"protocol.txn_wall_us.{protocol}"
            self.timed(name, 1, lambda: cluster.run(until=end), per=1e6)
            stats = rep.tally(cluster, window=(0.0, end))
            commits = max(stats.commits, 1)
            rep.host[name] /= commits
            verbs = cluster.compute_nodes[0].verbs.posted_verb_count()
            events = cluster.sim.processed_events
            rep.exact[f"protocol.events_per_commit.{protocol}"] = events / commits
            rep.exact[f"protocol.verbs_per_commit.{protocol}"] = verbs / commits
            self.check(stats.commits > 0 and stats.aborts == 0, f"{protocol} commits uncontended")

    def recovery_layer(self) -> None:
        rep = self.rep
        cluster = self.recovery_fleet
        crash_at = rep.ms(0.5)
        with rep.measure(span=("recovery", "micro:recovery.before_crash")):
            cluster.run(until=crash_at)
        before = cluster.sim.processed_events
        self.timed("recovery.window_wall_ms", 1,
                   lambda: cluster.run(until=crash_at + rep.ms(7.0) + 1e-3), per=1e3)
        rep.exact["recovery.window_events"] = cluster.sim.processed_events - before
        rep.tally(cluster)
        finished = [record for record in cluster.recovery.records
                    if record.kind == "compute" and record.finished_at > 0]
        self.check(len(finished) == 2, "both compute recoveries finished")

    # -- cluster, workloads, load, util ---------------------------------------

    def build_layer(self) -> None:
        rep = self.rep

        def build(config, workload) -> None:
            Cluster(config, workload).start()

        self.timed("cluster.build_ms.smallbank5k", 1,
                   lambda: build(rep.config(), SmallBank(accounts=5_000)), per=1e3)
        self.timed("cluster.build_ms.micro100k_256c", 1,
                   lambda: build(rep.config(compute_nodes=4, coordinators_per_node=64),
                                 MicroBenchmark(num_keys=100_000)), per=1e3)

    def generator_layer(self) -> None:
        rep = self.rep
        n = self.n(100_000)
        for name, workload in (("smallbank", SmallBank(accounts=5_000)),
                               ("tatp", Tatp(subscribers=2_000))):
            rng = random.Random(rep.seed)

            def draw(workload=workload, rng=rng) -> None:
                next_transaction = workload.next_transaction
                for _ in range(n):
                    next_transaction(rng)

            self.timed(f"workloads.next_txn_ns.{name}", n, draw)

        population = UserPopulation(SmallBank(accounts=5_000), users=256, zipf_theta=0.99,
                                    seed=rep.seed)

        def requests() -> None:
            next_request = population.next_request
            for index in range(n):
                next_request(index * 1e-6)

        self.timed("load.next_request_ns", n, requests)
        self.check(population.sessions_started > 0, "population opened sessions")

        def arrivals() -> int:
            times = PoissonArrivals().times(1e6, 0.0, n * 1e-6, random.Random(rep.seed))
            return sum(1 for _ in times)

        count = self.timed("load.poisson_times_ns", n, arrivals)
        self.check(abs(count - n) < 0.05 * n + 16, "poisson count near rate x duration")

        n = self.n(200_000)
        histogram = Histogram(min_value=1e-7, max_value=10.0)
        values = [(index % 500 + 1) * 1e-6 for index in range(n)]

        def adds() -> None:
            add = histogram.add
            for value in values:
                add(value)

        self.timed("util.histogram_add_ns", n, adds)
        self.check(histogram.count == n, "histogram kept every sample")

        zipf = ZipfSampler(5_000, 0.99, random.Random(rep.seed))

        def samples() -> int:
            sample = zipf.sample
            low = 0
            for _ in range(n):
                low += sample() < 50
            return low

        low = self.timed("util.zipf_sample_ns", n, samples)
        self.check(low > n // 10, "zipf sampler is skewed")

    # -- chaos and the observers ---------------------------------------------

    def oracle_layer(self) -> None:
        rep = self.rep
        runner = self.oracle_runner
        with rep.measure(span=("chaos", "micro:chaos.fault_free_schedule")):
            result = runner.run()
        rep.tally(runner.cluster)
        violations = self.timed("chaos.oracle_check_ms", 1,
                                lambda: check_cluster(runner.cluster, runner.history), per=1e3)
        self.check(not result.violations and not violations,
                   "fault-free schedule passes the oracle")

    def observer_layer(self) -> None:
        """Observer cost as wall ratios over one short steady_smallbank."""
        rep = self.rep
        end = rep.ms(0.5)
        walls: Dict[str, float] = {}
        outcomes = set()
        for name, cluster in self.observer_fleets.items():
            before = rep.wall_s
            with rep.measure(span=("analysis", f"micro:{name}")):
                cluster.run(until=end)
            walls[name] = rep.wall_s - before
            stats = rep.tally(cluster)
            outcomes.add((stats.commits, stats.aborts, cluster.sim.processed_events))
            rep.attempted += 1
            if name != "base":
                rep.host[name] = walls[name] / walls["base"]
        self.check(len(outcomes) == 1, "observers leave virtual results identical")


def run(rep) -> None:
    micro = _Micro(rep)
    with rep.setup():
        micro.build_fleets()
    rep.ready()
    rep.host["cluster.import_ms"] = rep.import_s * 1e3
    micro.sim_layer()
    micro.rdma_layer()
    micro.memory_layer()
    micro.protocol_layer()
    micro.recovery_layer()
    micro.build_layer()
    micro.generator_layer()
    micro.oracle_layer()
    micro.observer_layer()
