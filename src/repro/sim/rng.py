"""Deterministic, named random-number streams.

Every stochastic element of a workload model (arrivals, key popularity,
object sizes, backend latencies) draws from its own named stream so that
changing one element never perturbs another — a prerequisite for
apples-to-apples comparisons between configurations, which is exactly
how DCPerf compares SKUs.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from bisect import bisect, bisect_left
from functools import lru_cache
from itertools import accumulate, repeat
from operator import truediv
from typing import Dict, List, Sequence

#: Ranks per chunk when a Zipf CDF is built: the build holds one chunk
#: of weights or sums as a list of floats, never the whole table.
_CDF_CHUNK = 65_536


class RngStreams:
    """A factory of independent :class:`random.Random` streams.

    Streams are derived from a master seed and the stream name, so
    ``RngStreams(7).stream("arrivals")`` is identical across runs and
    across machines.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stream for ``name``."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    def spawn(self, name: str) -> "RngStreams":
        """Derive a child factory with an independent seed space."""
        digest = hashlib.sha256(f"{self.seed}:spawn:{name}".encode()).digest()
        return RngStreams(int.from_bytes(digest[:8], "big"))


def exponential_batch(rng: random.Random, rate: float, n: int) -> List[float]:
    """Pre-sample ``n`` exponential inter-arrival gaps at ``rate``.

    Draws are made in exactly the order a one-at-a-time loop would make
    them, so batching changes *when* the stream is consumed but never
    *what* it yields — a prerequisite for byte-identical replays.  The
    load generators drain one batch per refill instead of paying the
    attribute-lookup and call overhead on every arrival.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    expovariate = rng.expovariate
    return [expovariate(rate) for _ in range(n)]


class LognormalSampler:
    """Lognormal sampling parameterised by mean and coefficient of variation.

    Object-size and service-time distributions in production caches are
    heavy-tailed; lognormal by ``(mean, cv)`` matches the calibration
    style used in TaoBench.  The underlying ``(mu, sigma)`` — two
    ``log`` calls and a ``sqrt`` — are derived once, not per draw (the
    object-size path of a TaoBench run makes 56k draws per 2 seconds).
    Each :meth:`sample` consumes exactly one
    ``rng.lognormvariate(mu, sigma)``.  Get samplers through
    :func:`lognormal_sampler`, which shares one per parameterisation.
    """

    __slots__ = ("mean", "cv", "mu", "sigma")

    def __init__(self, mean: float, cv: float) -> None:
        if mean <= 0 or cv <= 0:
            raise ValueError("mean and cv must be positive")
        self.mean = mean
        self.cv = cv
        sigma2 = math.log(1.0 + cv * cv)
        self.mu = math.log(mean) - sigma2 / 2.0
        self.sigma = math.sqrt(sigma2)

    def sample(self, rng: random.Random) -> float:
        """One draw from the lognormal."""
        return rng.lognormvariate(self.mu, self.sigma)


@lru_cache(maxsize=1024)
def lognormal_sampler(mean: float, cv: float) -> LognormalSampler:
    """The shared sampler for ``(mean, cv)``.

    Workload models use a small fixed set of parameterisations; the
    bound protects against callers with unbounded parameter sets.
    """
    return LognormalSampler(mean, cv)


@lru_cache(maxsize=64)
def _zipf_cdf(n: int, s: float) -> array:
    """The Zipf(s) CDF over ranks ``1..n``, built once per process.

    Building the 200k-rank TaoBench table costs ~40ms, and every run of
    the same benchmark needs the identical table.  It is pure in
    ``(n, s)`` and never mutated, so samplers share it safely.  The
    weights and the table are packed ``array('d')`` (8 bytes a rank,
    against a pointer plus a 24-byte float object in a list): the memo
    lives as long as the process, and every forked pool worker inherits
    it.
    """
    weights = array("d")
    for lo in range(1, n + 1, _CDF_CHUNK):
        weights.fromlist([
            1.0 / (rank ** s) for rank in range(lo, min(lo + _CDF_CHUNK, n + 1))
        ])
    total = sum(weights)
    # The running sum ``acc += w / total``, one chunk at a time:
    # ``accumulate`` seeded with the previous chunk's last sum makes the
    # same sequential float additions, bit for bit.
    cdf = array("d")
    acc = 0.0
    for lo in range(0, n, _CDF_CHUNK):
        chunk = list(accumulate(
            map(truediv, weights[lo:lo + _CDF_CHUNK], repeat(total)),
            initial=acc,
        ))
        acc = chunk[-1]
        del chunk[0]  # the seed is no rank's value
        cdf.fromlist(chunk)
    cdf[-1] = 1.0
    return cdf


class ZipfSampler:
    """Zipf(s) sampler over ranks ``1..n`` using inverse-CDF lookup.

    Key popularity in TAO-like caches follows a Zipf law; this sampler
    looks up the CDF (:func:`_zipf_cdf`, O(n) once per process) and
    samples in O(log n).
    """

    def __init__(self, n: int, s: float = 0.99) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if s < 0:
            raise ValueError("s must be >= 0")
        self.n = n
        self.s = s
        self._cdf = _zipf_cdf(n, s)

    def sample(self, rng: random.Random) -> int:
        """Return a rank in ``1..n`` (1 is most popular).

        ``bisect_left`` returns the leftmost index whose CDF value is
        >= u — exactly what the hand-rolled binary search found, at C
        speed.
        """
        return bisect_left(self._cdf, rng.random()) + 1

    def hit_fraction(self, top_k: int) -> float:
        """Probability mass of the ``top_k`` most popular ranks."""
        if top_k <= 0:
            return 0.0
        if top_k >= self.n:
            return 1.0
        return self._cdf[top_k - 1]


class WeightedChoice:
    """Precompiled replacement for ``rng.choices(values, weights=w)[0]``.

    ``random.choices`` rebuilds the cumulative-weight table and re-enters
    its general k-draw machinery on every call; the endpoint-mix draws in
    mediawiki/djangobench pay that once per simulated request.  This
    class freezes the table and replays the *exact* arithmetic of
    ``Random.choices`` for ``k=1`` — one ``rng.random()`` scaled by the
    float total, located with the same clamped ``bisect`` — so swapping
    it in is draw-order- and value-identical.
    """

    __slots__ = ("values", "_cum", "_total", "_hi")

    def __init__(self, values: Sequence, weights: Sequence[float]) -> None:
        if len(values) != len(weights) or not values:
            raise ValueError("values and weights must be equal-length, non-empty")
        self.values = list(values)
        self._cum = list(accumulate(weights))
        self._total = self._cum[-1] + 0.0
        if self._total <= 0:
            raise ValueError("weights must sum to a positive value")
        self._hi = len(self.values) - 1

    def sample(self, rng: random.Random):
        return self.values[
            bisect(self._cum, rng.random() * self._total, 0, self._hi)
        ]
