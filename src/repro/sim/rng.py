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
from itertools import accumulate, repeat
from operator import truediv
from typing import Dict, List, Sequence, Tuple

#: Ranks per running-sum chunk when a Zipf CDF is built: the build
#: holds one chunk as a list of floats, never the whole table.
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


def exponential(rng: random.Random, mean: float) -> float:
    """Sample an exponential inter-arrival time with the given mean."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    return rng.expovariate(1.0 / mean)


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
    """Lognormal sampling with ``(mu, sigma)`` precomputed once.

    ``lognormal_from_mean_cv`` re-derives the underlying parameters —
    two ``log`` calls and a ``sqrt`` — on every draw, which the profile
    of a TaoBench run shows dominating the object-size path (56k draws
    per 2-second run).  A sampler freezes the ``(mean, cv)``
    parameterisation and draws are *draw-order-identical* to the
    function form: each ``sample`` consumes exactly one
    ``rng.lognormvariate(mu, sigma)`` with bit-identical arguments.
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
        """One draw; identical to ``lognormal_from_mean_cv(rng, mean, cv)``."""
        return rng.lognormvariate(self.mu, self.sigma)

    def sample_batch(self, rng: random.Random, n: int) -> List[float]:
        """Pre-sample ``n`` draws in exactly the one-at-a-time order."""
        if n < 1:
            raise ValueError("n must be >= 1")
        lognormvariate = rng.lognormvariate
        mu = self.mu
        sigma = self.sigma
        return [lognormvariate(mu, sigma) for _ in range(n)]


#: Memoized samplers keyed by (mean, cv).  Workload models use a small
#: fixed set of parameterisations, so the memo stays tiny; the bound
#: protects against pathological callers with unbounded parameter sets.
_LOGNORMAL_SAMPLERS: Dict[Tuple[float, float], LognormalSampler] = {}
_LOGNORMAL_MEMO_MAX = 1024


def lognormal_sampler(mean: float, cv: float) -> LognormalSampler:
    """Return (creating and memoizing if needed) a sampler for (mean, cv)."""
    key = (mean, cv)
    sampler = _LOGNORMAL_SAMPLERS.get(key)
    if sampler is None:
        sampler = LognormalSampler(mean, cv)
        if len(_LOGNORMAL_SAMPLERS) >= _LOGNORMAL_MEMO_MAX:
            _LOGNORMAL_SAMPLERS.clear()
        _LOGNORMAL_SAMPLERS[key] = sampler
    return sampler


def lognormal_from_mean_cv(rng: random.Random, mean: float, cv: float) -> float:
    """Sample a lognormal with the given mean and coefficient of variation.

    Object-size and service-time distributions in production caches are
    heavy-tailed; lognormal parameterised by (mean, cv) matches the
    calibration style used in TaoBench.  Hot loops should hold a
    :class:`LognormalSampler` (or :func:`lognormal_sampler`) instead of
    paying the parameter derivation per draw; the draws are identical.
    """
    return lognormal_sampler(mean, cv).sample(rng)


class ZipfSampler:
    """Zipf(s) sampler over ranks ``1..n`` using inverse-CDF lookup.

    Key popularity in TAO-like caches follows a Zipf law; this sampler
    precomputes the CDF once (O(n)) and samples in O(log n).
    """

    #: Memoized CDFs keyed by (n, s): building the 200k-rank TaoBench
    #: CDF costs ~40ms per run, and every run of the same benchmark
    #: rebuilds the identical table.  The CDF is pure in (n, s) and
    #: never mutated, so instances share it safely.  Each table is a
    #: packed ``array('d')`` (8 bytes a rank, against a pointer plus a
    #: 24-byte float object in a list): the memo lives as long as the
    #: process, and every forked pool worker inherits it.
    _CDF_MEMO: Dict[Tuple[int, float], array] = {}
    _CDF_MEMO_MAX = 64

    def __init__(self, n: int, s: float = 0.99) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if s < 0:
            raise ValueError("s must be >= 0")
        self.n = n
        self.s = s
        cdf = self._CDF_MEMO.get((n, s))
        if cdf is None:
            weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
            total = sum(weights)
            # The running sum ``acc += w / total``, one chunk at a time:
            # ``accumulate`` seeded with the previous chunk's last sum
            # makes the same sequential float additions, bit for bit.
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
            if len(self._CDF_MEMO) >= self._CDF_MEMO_MAX:
                self._CDF_MEMO.clear()
            self._CDF_MEMO[(n, s)] = cdf
        self._cdf = cdf

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


class EmpiricalDistribution:
    """Sample from explicit (value, weight) pairs.

    DCPerf replicates production request/response size distributions;
    this class holds such replicated histograms.
    """

    def __init__(self, values: Sequence[float], weights: Sequence[float]) -> None:
        if len(values) != len(weights) or not values:
            raise ValueError("values and weights must be equal-length, non-empty")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self.values = list(values)
        cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0
        self._cdf = cdf

    def sample(self, rng: random.Random) -> float:
        return self.values[bisect_left(self._cdf, rng.random())]

    def mean(self) -> float:
        prev = 0.0
        out = 0.0
        for value, cum in zip(self.values, self._cdf):
            out += value * (cum - prev)
            prev = cum
        return out


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
