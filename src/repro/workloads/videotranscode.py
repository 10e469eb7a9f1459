"""VideoTranscodeBench: the media-processing benchmark.

Architecture (Section 3.2): one ffmpeg instance per CPU core, each
resizing a source clip (the Netflix "El Fuente" reference sequence)
into multiple resolutions and encoding with the configured encoder.
Embarrassingly parallel; pushes CPU utilization above 95%.

The model: one encoder task per logical core, each processing a fixed
number of frames through resize + encode instruction budgets.  Three
quality levels reproduce the VideoBench1-3 power points of Figure 10
(higher quality = more instructions per frame and more vector work).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Generator, Optional

from repro.uarch.characteristics import WorkloadCharacteristics
from repro.workloads.base import RunConfig, Workload, WorkloadResult
from repro.workloads.profiles import BENCHMARK_PROFILES
from repro.workloads.runner import BenchmarkHarness


@dataclass(frozen=True)
class QualityPreset:
    """One encoder configuration (VideoBench1-3 in Figure 10)."""

    name: str
    instr_multiplier: float
    vector_intensity: float
    frames_per_clip: int = 240


QUALITY_PRESETS: Dict[int, QualityPreset] = {
    1: QualityPreset("fast-1080p", instr_multiplier=0.7, vector_intensity=0.25),
    2: QualityPreset("medium-1080p", instr_multiplier=1.0, vector_intensity=0.40),
    3: QualityPreset("slow-4k", instr_multiplier=1.6, vector_intensity=0.55),
}

#: Resolutions in the resize ladder (output renditions per clip).
RESIZE_LADDER = (1080, 720, 480, 360)
#: Resize cost relative to encode, per rendition.
RESIZE_INSTR_FRACTION = 0.06


class VideoTranscodeBench(Workload):
    """Embarrassingly parallel per-core transcode."""

    name = "videotranscode"
    category = "media"
    metric_name = "frames/s"

    def __init__(
        self,
        chars: Optional[WorkloadCharacteristics] = None,
        quality: int = 2,
    ) -> None:
        if quality not in QUALITY_PRESETS:
            raise ValueError(f"quality must be one of {sorted(QUALITY_PRESETS)}")
        self.quality = quality
        base = chars or BENCHMARK_PROFILES["videotranscode"]
        preset = QUALITY_PRESETS[quality]
        # Quality shifts the vector intensity (and hence power/freq).
        # The default preset keeps the base name so production twins
        # and registries resolve cleanly.
        name = base.name if quality == 2 else f"{base.name}-q{quality}"
        self._chars = base.evolve(
            name=name,
            vector_intensity=min(1.0, preset.vector_intensity),
        )
        self.preset = preset

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def validate_pipeline(self, seed: int = 7):
        """Run the real resize+encode pipeline (correctness layer).

        Executes the toy block codec over a synthetic clip at this
        benchmark's quality preset; returns measured bytes and PSNR.
        """
        return _transcode(self.quality, seed)

    def run(self, config: RunConfig) -> WorkloadResult:
        harness = BenchmarkHarness(config, self._chars)
        env = harness.env
        cores = config.sku.cpu.logical_cores
        preset = self.preset
        clip_instr = (
            self._chars.instructions_per_request * preset.instr_multiplier
        )
        frame_instr = clip_instr / preset.frames_per_clip
        resize_instr = clip_instr * RESIZE_INSTR_FRACTION

        frames_done = [0]

        def encoder_instance() -> Generator:
            # Each instance loops clips until the measurement ends.
            while True:
                for _ in RESIZE_LADDER:
                    yield from harness.burst(resize_instr / len(RESIZE_LADDER))
                # Encode in frame batches so utilization is smooth.
                batch = 24
                for _ in range(preset.frames_per_clip // batch):
                    yield from harness.burst(frame_instr * batch)
                    frames_done[0] += batch

        for _ in range(cores):
            env.process(encoder_instance())

        env.run(until=config.warmup_seconds)
        harness.scheduler.stats.reset(env.now)
        frames_before = frames_done[0]
        env.run(until=config.warmup_seconds + config.measure_seconds)
        frames = frames_done[0] - frames_before

        stats = harness.scheduler.stats
        cpu_util = stats.cpu_util(env.now, cores)
        kernel_util = stats.kernel_util(env.now, cores)
        busy = max(stats.busy_seconds, 1e-12)
        efficiency = max(0.05, 1.0 - stats.overhead_seconds / busy)
        fps = frames / config.measure_seconds
        steady = harness.server.steady_state(cpu_util, efficiency)
        validation = self.validate_pipeline(config.seed)
        return WorkloadResult(
            workload=self._chars.name,
            sku=config.sku_name,
            kernel=config.kernel_version,
            throughput_rps=fps,
            latency={"count": float(frames)},
            cpu_util=cpu_util,
            kernel_util=kernel_util,
            scaling_efficiency=efficiency,
            steady=steady,
            extra={
                "quality": float(self.quality),
                "frames_encoded": float(frames),
                "renditions": float(len(RESIZE_LADDER)),
                "validation_psnr_db": validation.mean_psnr_db,
                "validation_bytes": float(validation.total_compressed_bytes),
            },
        )


@lru_cache(maxsize=64)
def _transcode(quality: int, seed: int):
    """The correctness layer, memoized per process.

    The toy transcode is a pure function of ``(quality, seed)``, and
    persistent warm-pool workers replay the same seeds sweep after
    sweep.  Results are treated as read-only by every consumer.
    """
    from repro.media.frames import synthetic_sequence
    from repro.media.pipeline import transcode_ladder

    sequence = synthetic_sequence(num_frames=4, seed=seed)
    return transcode_ladder(sequence, quality=quality)
