"""Deterministic random-stream derivation.

All randomness in the package flows from a single master seed.  Each
consumer (Markov chain, the Bernoulli embedding of an event set, event
generation, synthetic data) pulls from a named substream so that seeding
is reproducible and independent of the order in which consumers run.
Within one substream the draws follow in order: an embedded set's events
draw one after another from the set's generator.
"""

from __future__ import annotations

import numpy as np


def _tag_entropy(tag: str | int) -> int:
    if isinstance(tag, int):
        return tag
    # Stable across runs and platforms: the raw bytes of the name.
    return int.from_bytes(tag.encode("utf-8"), "little")


def substream(seed: int, *tags: str | int) -> np.random.Generator:
    """Generator for the substream named by ``tags`` under ``seed``.

    Same (seed, tags) always yields the same stream; distinct tags yield
    statistically independent streams.  Each call seeds a fresh
    ``SeedSequence`` and PCG64, so a loop over items takes one stream for
    the whole loop, not one per item.
    """
    entropy = [int(seed)] + [_tag_entropy(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def generator_state(rng: np.random.Generator) -> dict:
    """JSON-serialisable snapshot of a generator's position."""
    return rng.bit_generator.state


def restore_generator(state: dict) -> np.random.Generator:
    """Rebuild a generator from a ``generator_state`` snapshot.

    Only PCG64, the kind ``substream`` makes and every checkpoint stores, is rebuilt.
    """
    if state["bit_generator"] != "PCG64":
        raise ValueError(f"bit generator must be 'PCG64', got {state['bit_generator']!r}")
    bitgen = np.random.PCG64()
    bitgen.state = state
    return np.random.Generator(bitgen)
