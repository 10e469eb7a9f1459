"""AIBench: recommendation-inference serving (extension).

The paper's future work (Section 8): "broadening DCPerf's coverage,
especially AI-related workloads, whose fleet sizes have been expanding
rapidly."  This workload implements that extension in the same style as
the six published benchmarks:

* **Correctness layer** — a real DLRM-style recommendation model in
  NumPy (embedding tables for sparse features, a bottom MLP for dense
  features, feature interaction, a top MLP producing a click
  probability), executed on deterministic synthetic requests.
* **Performance layer** — the serving architecture the fleet uses:
  requests queue at a batcher (batch up to N or a timeout), each batch
  runs an embedding-gather phase (memory-bandwidth bound) followed by
  an MLP phase (vector-compute bound) on the simulated server, under a
  p99 tail-latency SLO.

The characteristics vector is NOT calibrated against the paper (it
publishes no AI profile); it is a representative profile documented
here: modest code footprint (kernels, not business logic), very high
memory bandwidth (embedding gathers), high vector intensity (GEMMs),
little kernel time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

import numpy as np

from repro.loadgen.generators import Request
from repro.loadgen.slo import SLO, ProbeResult, find_max_load
from repro.uarch.characteristics import TaxProfile, WorkloadCharacteristics
from repro.workloads.base import RunConfig, Workload, WorkloadResult
from repro.workloads.runner import BenchmarkHarness

#: Inference SLO: p99 under 100 ms (interactive ranking budgets).
AIBENCH_SLO = SLO(percentile=99.0, latency_seconds=0.100)
#: Batching: collect up to MAX_BATCH requests or wait BATCH_TIMEOUT.
MAX_BATCH = 8
BATCH_TIMEOUT_S = 0.004
#: Instruction split between the two phases.
EMBEDDING_INSTR_FRACTION = 0.45
MLP_INSTR_FRACTION = 0.55

#: Representative characteristics (documented extension, not a paper
#: calibration): embedding gathers stream DRAM; GEMMs retire wide
#: vectors at high IPC.
AIBENCH_CHARACTERISTICS = WorkloadCharacteristics(
    name="aibench",
    category="ai-inference",
    code_footprint_kb=120.0,
    switches_per_kinstr=0.02,
    mem_refs_per_kinstr=420.0,
    data_reuse_kb=18_000.0,     # embedding tables dwarf every cache
    locality_beta=0.35,
    memory_level_parallelism=24.0,
    branch_per_kinstr=90.0,
    branch_mispredict_rate=0.008,
    dependency_cpk=35.0,
    vector_intensity=0.65,
    kernel_frac=0.05,
    instructions_per_request=1.2e6,
    thread_core_ratio=4,
    rpc_fanout=4,
    network_bytes_per_request=20_000.0,
    serial_fraction=0.0,
    platform_activity=0.10,
    tax_profile=TaxProfile(
        {
            "app:embedding_gather": 0.30,
            "app:mlp": 0.40,
            "rpc": 0.10,
            "serialization": 0.08,
            "memory": 0.06,
            "threadmanager": 0.03,
            "others": 0.03,
        }
    ),
)


# --- correctness layer: a real mini-DLRM -------------------------------------

@dataclass(frozen=True)
class DlrmConfig:
    """Shape of the toy recommendation model."""

    num_tables: int = 8
    rows_per_table: int = 2_000
    embedding_dim: int = 16
    dense_features: int = 13
    bottom_mlp: int = 32
    top_mlp: int = 64


class MiniDlrm:
    """Deterministic DLRM-style model: embeddings + MLPs + interaction."""

    def __init__(self, config: Optional[DlrmConfig] = None, seed: int = 11) -> None:
        self.config = config or DlrmConfig()
        rng = np.random.default_rng(seed)
        c = self.config
        scale = 1.0 / np.sqrt(c.embedding_dim)
        self.tables = [
            rng.normal(0, scale, size=(c.rows_per_table, c.embedding_dim))
            for _ in range(c.num_tables)
        ]
        self.w_bottom1 = rng.normal(0, 0.3, size=(c.dense_features, c.bottom_mlp))
        self.w_bottom2 = rng.normal(0, 0.3, size=(c.bottom_mlp, c.embedding_dim))
        interaction_dim = (c.num_tables + 1) * c.embedding_dim
        self.w_top1 = rng.normal(0, 0.2, size=(interaction_dim, c.top_mlp))
        self.w_top2 = rng.normal(0, 0.2, size=(c.top_mlp, 1))

    def infer(self, dense: np.ndarray, sparse_ids: np.ndarray) -> np.ndarray:
        """Batched inference; returns click probabilities in (0, 1).

        Args:
            dense: float array (batch, dense_features).
            sparse_ids: int array (batch, num_tables).
        """
        c = self.config
        if dense.shape[1] != c.dense_features:
            raise ValueError("dense feature width mismatch")
        if sparse_ids.shape[1] != c.num_tables:
            raise ValueError("sparse table count mismatch")
        if (sparse_ids < 0).any() or (sparse_ids >= c.rows_per_table).any():
            raise ValueError("sparse id out of table range")

        # Bottom MLP over dense features.
        hidden = np.maximum(0.0, dense @ self.w_bottom1)
        dense_vec = np.maximum(0.0, hidden @ self.w_bottom2)
        # Embedding gathers (the memory-bound phase).
        gathered = [
            self.tables[t][sparse_ids[:, t]] for t in range(c.num_tables)
        ]
        # Interaction: concatenate dense projection + embeddings.
        features = np.concatenate([dense_vec] + gathered, axis=1)
        # Top MLP -> logit -> probability.
        top = np.maximum(0.0, features @ self.w_top1)
        logits = (top @ self.w_top2).reshape(-1)
        return 1.0 / (1.0 + np.exp(-logits))


def make_inference_batch(
    batch_size: int, config: Optional[DlrmConfig] = None, seed: int = 5
):
    """Deterministic synthetic request batch (dense + sparse features)."""
    config = config or DlrmConfig()
    rng = np.random.default_rng(seed)
    dense = rng.normal(0, 1, size=(batch_size, config.dense_features))
    sparse = rng.integers(
        0, config.rows_per_table, size=(batch_size, config.num_tables)
    )
    return dense, sparse


# --- performance layer ----------------------------------------------------------

class AiBench(Workload):
    """Batched recommendation-inference serving under a p99 SLO."""

    name = "aibench"
    category = "ai-inference"
    metric_name = "inferences/s under p99<100ms SLO"

    def __init__(self, chars: Optional[WorkloadCharacteristics] = None) -> None:
        self._chars = chars or AIBENCH_CHARACTERISTICS

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def validate_model(self, batch_size: int = 64):
        """Run the real model; returns (probabilities, model)."""
        model = MiniDlrm()
        dense, sparse = make_inference_batch(batch_size, model.config)
        probabilities = model.infer(dense, sparse)
        return probabilities, model

    def _build_handler(self, harness: BenchmarkHarness):
        env = harness.env
        cores = harness.sku.cpu.logical_cores
        # Model replicas: inference serving shards the model one copy
        # per few cores, each with its own batcher — this is what lets
        # the workload scale with core count (a batch runs on one
        # replica regardless of how many cores the box has).
        num_replicas = max(1, cores // 8)
        pool = harness.make_pool("inference-workers", max(2, cores))
        instr = self._chars.instructions_per_request

        class Replica:
            def __init__(self) -> None:
                self.pending: List = []
                self.batch_open = False

            def run_batch(self, batch: List) -> Generator:
                size = len(batch)
                # Embedding gathers scale with batch size; the MLP GEMM
                # amortizes (that is the point of batching).
                yield from harness.burst(
                    instr * EMBEDDING_INSTR_FRACTION * size
                )
                yield from harness.burst(
                    instr * MLP_INSTR_FRACTION * (1.0 + 0.55 * (size - 1))
                )
                for done in batch:
                    done.succeed()

            def flush(self) -> None:
                batch = [done for _, done in self.pending]
                self.pending.clear()
                self.batch_open = False
                pool.submit(lambda b=batch: self.run_batch(b))

            def batch_timer(self) -> Generator:
                yield env.sleep(BATCH_TIMEOUT_S)
                if self.batch_open and self.pending:
                    self.flush()

        replicas = [Replica() for _ in range(num_replicas)]
        next_replica = [0]

        def handler(request: Request) -> Generator:
            replica = replicas[next_replica[0] % num_replicas]
            next_replica[0] += 1
            done = env.event()
            replica.pending.append((request, done))
            if not replica.batch_open:
                replica.batch_open = True
                env.process(replica.batch_timer())
            if len(replica.pending) >= MAX_BATCH:
                replica.flush()
            yield done

        return handler

    def _probe(self, config: RunConfig, offered_rps: float) -> ProbeResult:
        """One trial at a fixed offered load, on a fresh harness."""
        harness = BenchmarkHarness(config, self._chars)
        handler = self._build_handler(harness)
        result = harness.run_open_loop(handler, offered_rps=offered_rps)
        p99 = result.latency.get("p99", float("inf"))
        return ProbeResult(
            offered_rps=offered_rps,
            achieved_rps=result.throughput_rps,
            latency_at_percentile=p99,
            error_rate=0.0,
            cpu_util=result.cpu_util,
            run=result,
        )

    def run(self, config: RunConfig) -> WorkloadResult:
        harness = BenchmarkHarness(config, self._chars)
        capacity = harness.server.capacity_rps()
        search = find_max_load(
            probe=lambda rate: self._probe(config, rate),
            slo=AIBENCH_SLO,
            low_rps=capacity * 0.15,
            high_rps=capacity * 1.6 * config.load_scale,
            tolerance=0.05,
        )
        # The search probed the operating rate on a fresh harness with
        # this config: report that run rather than simulate it again.
        # Nothing else holds it, so it is reported as is, not copied.
        result = search.probe.run
        probabilities, _ = self.validate_model()
        result.extra["slo_max_rps"] = search.max_rps
        result.extra["slo_p99_seconds"] = search.probe.latency_at_percentile
        result.extra["validation_mean_ctr"] = float(probabilities.mean())
        result.extra["validation_batch"] = float(len(probabilities))
        return result
