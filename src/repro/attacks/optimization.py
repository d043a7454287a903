"""Multi-objective optimisation attacks (paper Sec. IV-B.3).

"The multi-objective optimization attack consists in applying an
iterative algorithm that searches for a configuration setting that
simultaneously optimizes the performances..."  The paper argues the
attack is hard because only small bit subsets relate smoothly to any
performance, and only once the rest of the key is already right.

Two standard black-box optimisers are provided — simulated annealing
over the 64-bit string and a genetic algorithm with uniform crossover —
both driven by a blended SNR/SFDR fitness from the oracle.  Their
stagnation against the guided calibration's ~150 measurements *is* the
experimental result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.oracle import MeasurementOracle
from repro.receiver.config import KEY_BITS, ConfigWord


@dataclass
class OptimizationOutcome:
    """Result of an optimisation-attack campaign.

    Attributes:
        success: Whether the spec was reached within budget.
        best_key: Best key found.
        best_score: Its fitness (SNR-dominated).
        n_queries: Oracle measurements spent.
        history: Best-so-far fitness after each evaluation.
    """

    success: bool
    best_key: ConfigWord
    best_score: float
    n_queries: int
    history: list[float] = field(default_factory=list)


def blend_fitness(
    snrs, sfdrs, sfdr_weight: float, sfdr_min_db: float
) -> list[float]:
    """The blended SNR/SFDR fitness from raw measurement values —
    shared between the live batched path and the partition plan's
    replay of speculatively measured slices."""
    if sfdr_weight > 0.0:
        return [
            score + sfdr_weight * min(0.0, sfdr - sfdr_min_db)
            for score, sfdr in zip(snrs, sfdrs)
        ]
    return list(snrs)


def _fitness_batch(
    oracle: MeasurementOracle, keys: list[ConfigWord], sfdr_weight: float
) -> list[float]:
    """Population fitness through the oracle's batched measurements."""
    scores = oracle.snr_batch(keys)
    sfdrs = oracle.sfdr_batch(keys) if sfdr_weight > 0.0 else None
    sfdr_min = oracle.spec().sfdr_min_db if sfdr_weight > 0.0 else 0.0
    return blend_fitness(scores, sfdrs, sfdr_weight, sfdr_min)


@dataclass
class SimulatedAnnealingAttack:
    """Bit-flip annealing over the 64-bit key string.

    Inherently sequential: each candidate depends on the accept/reject
    of the previous one, so the chain cannot batch its oracle queries —
    one more practical edge the population-based GA has over it on a
    batched (parallel-bench) oracle.
    """

    oracle: MeasurementOracle
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(17))
    initial_temperature: float = 8.0
    cooling: float = 0.97
    flips_per_move: int = 2
    sfdr_weight: float = 0.0

    def run(self, n_evaluations: int, start: ConfigWord | None = None) -> OptimizationOutcome:
        """Anneal for ``n_evaluations`` oracle queries."""
        spec = self.oracle.spec()
        current = start or ConfigWord.random(self.rng)
        current_score = _fitness_batch(self.oracle, [current], self.sfdr_weight)[0]
        best, best_score = current, current_score
        history = [best_score]
        temperature = self.initial_temperature
        for _ in range(n_evaluations - 1):
            n_flips = int(self.rng.integers(1, self.flips_per_move + 1))
            positions = self.rng.choice(KEY_BITS, size=n_flips, replace=False)
            candidate = current.flip_bits(list(positions))
            score = _fitness_batch(self.oracle, [candidate], self.sfdr_weight)[0]
            accept = score >= current_score or self.rng.random() < np.exp(
                (score - current_score) / max(temperature, 1e-9)
            )
            if accept:
                current, current_score = candidate, score
            if score > best_score:
                best, best_score = candidate, score
            history.append(best_score)
            temperature *= self.cooling
            if best_score >= spec.snr_min_db and self.oracle.unlocks(best):
                # Confirmed functional key (not a deceptive passthrough).
                return OptimizationOutcome(
                    success=True,
                    best_key=best,
                    best_score=best_score,
                    n_queries=self.oracle.n_queries,
                    history=history,
                )
        return OptimizationOutcome(
            success=False,
            best_key=best,
            best_score=best_score,
            n_queries=self.oracle.n_queries,
            history=history,
        )


@dataclass
class GeneticAttack:
    """Genetic algorithm with uniform crossover and bit mutation.

    Each generation's population is scored through the oracle's batched
    SNR probe — the attack the paper benchmarks (*Attack of the Genes*)
    needs thousands of oracle queries, and population scoring is
    embarrassingly parallel, so it maps straight onto the batched
    engine.
    """

    oracle: MeasurementOracle
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(19))
    population_size: int = 16
    mutation_rate: float = 0.02
    elite: int = 2
    sfdr_weight: float = 0.0

    def _crossover(self, a: ConfigWord, b: ConfigWord) -> ConfigWord:
        wa, wb = a.encode(), b.encode()
        mask = 0
        for _ in range(2):
            mask = (mask << 32) | int(self.rng.integers(0, 1 << 32))
        child = (wa & mask) | (wb & ~mask & ((1 << KEY_BITS) - 1))
        return ConfigWord.decode(child)

    def _mutate(self, key: ConfigWord) -> ConfigWord:
        flips = [
            i for i in range(KEY_BITS) if self.rng.random() < self.mutation_rate
        ]
        return key.flip_bits(flips) if flips else key

    def initial_population(self) -> list[ConfigWord]:
        """Generation 0, drawn from the attack's RNG.  A pure function
        of the RNG state: the partition plan draws the identical
        population the scalar attack's replay will re-draw."""
        return [ConfigWord.random(self.rng) for _ in range(self.population_size)]

    def breed(self, ranked) -> list[ConfigWord]:
        """The next generation from a ``(score, key)`` ranking —
        elitism, tournament-free parent pool, uniform crossover and bit
        mutation, consuming the attack's RNG in a fixed per-child order
        so breeding is replayable from identical rankings."""
        parents = [k for _, k in ranked[: max(self.population_size // 2, 2)]]
        next_pop = [k for _, k in ranked[: self.elite]]
        while len(next_pop) < self.population_size:
            a, b = self.rng.choice(len(parents), size=2, replace=False)
            next_pop.append(self._mutate(self._crossover(parents[a], parents[b])))
        return next_pop

    def run(self, n_generations: int) -> OptimizationOutcome:
        """Evolve for ``n_generations`` generations."""
        spec = self.oracle.spec()
        population = self.initial_population()
        scores = _fitness_batch(self.oracle, population, self.sfdr_weight)
        history = [max(scores)]
        for _ in range(n_generations):
            ranked = sorted(zip(scores, population), key=lambda t: -t[0])
            if ranked[0][0] >= spec.snr_min_db and self.oracle.unlocks(ranked[0][1]):
                break
            population = self.breed(ranked)
            scores = _fitness_batch(self.oracle, population, self.sfdr_weight)
            history.append(max(max(scores), history[-1]))
        best_idx = int(np.argmax(scores))
        best_score = float(scores[best_idx])
        best_key = population[best_idx]
        success = best_score >= spec.snr_min_db and self.oracle.unlocks(best_key)
        return OptimizationOutcome(
            success=success,
            best_key=best_key,
            best_score=best_score,
            n_queries=self.oracle.n_queries,
            history=history,
        )
