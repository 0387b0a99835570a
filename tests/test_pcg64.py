"""The run path's random stream is numpy's, bit for bit, without numpy.

``repro.sim.pcg64.PCG64Stream`` claims to draw exactly what
``numpy.random.default_rng(SeedSequence(entropy))`` draws for the calls the
simulator makes, and ``repro.analysis.stats.series_stats`` claims
``np.mean`` / ``np.percentile`` to the bit.  Each claim is checked here
against the installed numpy:

* table probes: a numpy ``PCG64`` is put in the state whose next 64-bit
  output is chosen, so its ``exponential()`` reads back each ziggurat
  ``we`` entry exactly and, by bisection on when a second output is
  consumed, each ``ke`` entry; the base layer's tail and every layer's
  rejection edge are compared draw for draw;
* draw parity over a seed x stream-name grid, every method interleaved
  with the others so the 32-bit half-word buffer is crossed in every way;
* seeding (``SeedSequence.generate_state``) and ``derive_seeds``;
* statistics over the sizes where numpy's pairwise sum changes shape.

The pinned digest is the contract itself: if a numpy release moves its
stream, the parity tests fail and the digest still holds.
"""

import hashlib
import itertools
import random

import numpy as np
import pytest

from repro.analysis.stats import series_stats
from repro.net.hashing import stable_string_seed
from repro.runner import derive_seeds
from repro.sim import Simulator
from repro.sim.pcg64 import _KE, _WE, PCG64Stream, generate_state

_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_INV = pow(_MULT, -1, 1 << 128)
#: Any odd increment; the probes only need one.
_INC = PCG64Stream(1).state["state"]["inc"]

SEEDS = [0, 1, 42, 2**31 - 1, 2**32 + 5]
STREAMS = ["ecmp", "traffic", "weighted-0", "link-loss:leaf0->spine1#1"]


def _numpy(entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _state_emitting(raw: int) -> dict:
    """A PCG64 state whose next 64-bit output is ``raw``.

    The LCG state after the step is ``raw`` itself: high word 0 and
    rotation 0, so XSL-RR returns ``0 ^ raw``.  One step back is the state.
    """
    return {
        "bit_generator": "PCG64",
        "state": {"state": ((raw - _INC) * _MULT_INV) & _M128, "inc": _INC},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _numpy_at(state: dict) -> np.random.Generator:
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = state
    return gen


def _ziggurat_raw(layer: int, bits: int) -> int:
    """The 64-bit output the ziggurat reads as ``layer`` and 53-bit ``bits``."""
    return (bits << 11) | (layer << 3)


# -- the ziggurat tables ----------------------------------------------------------


def test_every_we_entry_reads_back_exactly():
    for layer in range(256):
        drawn = _numpy_at(_state_emitting(_ziggurat_raw(layer, 1))).exponential()
        assert drawn == _WE[layer], layer


def test_every_ke_entry_is_where_numpy_starts_taking_a_second_output():
    def second_output(layer, bits):
        raw = _ziggurat_raw(layer, bits)
        gen = _numpy_at(_state_emitting(raw))
        gen.exponential()
        return gen.bit_generator.state["state"]["state"] != raw

    for layer in range(256):
        lo, hi = 0, 1 << 53
        while lo < hi:
            mid = (lo + hi) // 2
            if second_output(layer, mid):
                hi = mid
            else:
                lo = mid + 1
        assert lo == _KE[layer], layer


def test_rejection_edges_and_the_base_tail_match_draw_for_draw():
    for layer in range(256):
        edge = _KE[layer]
        for bits in {0, 1, max(edge - 1, 0), edge, edge + 1, (1 << 53) - 1}:
            if bits >= 1 << 53:
                continue
            state = _state_emitting(_ziggurat_raw(layer, bits))
            ours, theirs = PCG64Stream(0), _numpy_at(state)
            ours.state = state
            for scale in (1.0, 2.5e-5):
                assert ours.exponential(scale) == theirs.exponential(scale), (layer, bits)
                assert ours.state == theirs.bit_generator.state


def test_choice_at_its_edges():
    # ``random()`` made to return each running sum of ``p`` exactly, before
    # and after normalising: numpy searches the normalised sums, right side.
    for p in ([0.25, 0.25, 0.5], [0.1] * 10, [0.0, 0.3, 0.0, 0.7], [1 / 3] * 3):
        sums = list(itertools.accumulate(p))
        for edge in {*sums, *(c / sums[-1] for c in sums)}:
            bits = edge * (1 << 53)
            if not bits.is_integer() or bits >= 1 << 53:
                continue
            state = _state_emitting(int(bits) << 11)
            ours = PCG64Stream(0)
            ours.state = state
            assert ours.choice(len(p), p=p) == _numpy_at(state).choice(len(p), p=p), (p, edge)


# -- draws --------------------------------------------------------------------------


def _program(dice: random.Random, runs: int) -> list[tuple]:
    """``runs`` runs of ``(method, args, count)``, each method about equally often.

    A run is ``count`` consecutive calls: the stream makes them one by one
    and numpy in one vectorised call, which consumes its stream exactly as
    that many scalar calls do (``count`` 1 checks the scalar path itself).
    """
    ops = []
    for _ in range(runs):
        kind = dice.randrange(6)
        count = dice.choice([1, 1, 2, 5, 20, 60])
        if kind == 0:
            ops.append(("random", (), count))
        elif kind == 1:
            bounds = (dice.choice([0.0, -3.5, 0.5]), dice.choice([1.0, 1.5, 1e6]))
            ops.append(("uniform", bounds, count))
        elif kind == 2:
            high = dice.choice([
                1, 2, 3, 7, 10, 1000, 3 << 30, (1 << 31) + 1, (1 << 32) - 1, 1 << 32,
                dice.randrange(1, 1 << 32),
            ])
            ops.append(("integers", (high,), count))
        elif kind == 3:
            ops.append(("exponential", (dice.choice([1.0, 1e-4, 37.0]),), count))
        elif kind == 4:
            weights = [dice.choice([0.0, 1.0, dice.random()]) for _ in range(dice.randrange(1, 9))]
            weights[dice.randrange(len(weights))] += 0.5
            total = sum(weights)
            ops.append(("choice", (len(weights), [w / total for w in weights]), count))
        else:
            ops.append(("permutation", (dice.choice([0, 1, 2, 5, 16, 17, 40]),), count // 8 + 1))
    return ops


def _ours(rng: PCG64Stream, op: tuple) -> list:
    name, args, count = op
    if name == "choice":
        return [rng.choice(args[0], p=args[1]) for _ in range(count)]
    return [getattr(rng, name)(*args) for _ in range(count)]


def _theirs(rng: np.random.Generator, op: tuple) -> list:
    name, args, count = op
    if name == "permutation":
        return [rng.permutation(*args).tolist() for _ in range(count)]
    if name == "choice":
        return rng.choice(args[0], p=args[1], size=count).tolist()
    return getattr(rng, name)(*args, size=count).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_match_numpy(seed):
    # 5 seeds x 4 streams x 2 100 runs: over 10^5 draws of each method.
    for stream in STREAMS:
        entropy = (seed, stable_string_seed(stream))
        ours, theirs = PCG64Stream(*entropy), _numpy(entropy)
        program = _program(random.Random(f"{seed}/{stream}"), 2_100)
        assert [_ours(ours, op) for op in program] == [_theirs(theirs, op) for op in program]
        assert ours.state == theirs.bit_generator.state


def test_the_simulator_s_stream_is_default_rng_of_seed_and_name():
    stream = Simulator(seed=9).rng("traffic-3")
    theirs = _numpy((9, stable_string_seed("traffic-3")))
    assert [stream.random() for _ in range(5)] == [theirs.random() for _ in range(5)]
    assert PCG64Stream(123).state == np.random.default_rng(123).bit_generator.state


def test_state_round_trips_through_numpy_layout():
    ours = PCG64Stream(5, 6)
    ours.integers(10)  # leave a half word buffered
    saved = ours.state
    assert saved["has_uint32"] == 1
    first = [ours.integers(1000) for _ in range(5)]
    ours.state = saved
    assert [ours.integers(1000) for _ in range(5)] == first
    theirs = _numpy_at(saved)
    assert [int(theirs.integers(1000)) for _ in range(5)] == first


def test_refused_arguments():
    rng = PCG64Stream(1)
    before = rng.state
    with pytest.raises(ValueError):
        rng.integers(0)
    with pytest.raises(ValueError):
        rng.integers((1 << 32) + 1)
    with pytest.raises(ValueError):
        rng.uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        rng.choice(2, p=[0.5, 0.6])
    with pytest.raises(ValueError):
        rng.choice(3, p=[0.5, 0.5])
    with pytest.raises(ValueError):
        rng.state = {"bit_generator": "MT19937"}
    assert rng.integers(1) == 0  # one choice draws nothing
    assert rng.state == before


#: sha256 of ``_pinned_draws()``.  This pins the stream itself: it holds
#: whatever numpy does next.
PINNED_DIGEST = "b9a797fc3613c9268e722f7769e8a5d574835c6bdf0503bd226bced2a225d8c0"


def _pinned_draws() -> str:
    rng = PCG64Stream(2014, stable_string_seed("conga"))
    draws = []
    for i in range(2000):
        draws += [
            rng.random(), rng.uniform(0.5, 1.5), rng.integers(2 + i % 97),
            rng.exponential(1e-5), rng.choice(3, p=[0.25, 0.25, 0.5]),
        ]
        if i % 100 == 0:
            draws.append(rng.permutation(i % 13))
    return repr(draws)


def test_pinned_digest():
    assert hashlib.sha256(_pinned_draws().encode()).hexdigest() == PINNED_DIGEST


# -- seeding ------------------------------------------------------------------------


def test_generate_state_matches_seed_sequence():
    dice = random.Random(4)
    for length in range(0, 9):
        for _ in range(6):
            entropy = tuple(
                dice.choice([0, 1, *(dice.getrandbits(bits) for bits in (32, 64, 100))])
                for _ in range(length)
            )
            for count in (1, 3, 4, 8):
                expected = np.random.SeedSequence(entropy).generate_state(count, np.uint64)
                assert generate_state(entropy, count) == [int(v) for v in expected], entropy
            assert PCG64Stream(*entropy).state == _numpy(entropy).bit_generator.state


def test_derive_seeds_matches_seed_sequence():
    for base in (0, 7, 42, 2**40):
        for stream in ("sweep-seeds", "other"):
            sequence = np.random.SeedSequence((base, stable_string_seed(stream)))
            expected = [int(v % (1 << 31)) or 1 for v in sequence.generate_state(9, np.uint64)]
            assert derive_seeds(base, 9, stream) == expected


# -- statistics ---------------------------------------------------------------------

QUANTILES = (0, 1, 50, 90, 99, 99.9, 100)


def test_series_stats_matches_numpy():
    # Every block shape of numpy's pairwise sum (under 8, the unrolled
    # block up to 128, the recursive split) and sizes around its buffer.
    for n in [*range(1, 301), 8191, 8192, 8193, 16385, 50001]:
        dice = random.Random(n)
        values = [
            dice.lognormvariate(0, 4) * dice.choice([1.0, -1.0, 1e-9, 1e9]) for _ in range(n)
        ]
        integers = [dice.randrange(0, 10**6) for _ in range(n)]
        for samples in (values, integers, [v for v in values for _ in (0, 1)][:n]):
            array = np.asarray(samples, dtype=float)
            expected = [float(np.mean(array)), *np.percentile(array, QUANTILES).tolist()]
            assert series_stats(samples, QUANTILES, who="test") == expected, n
    # A NaN anywhere makes every percentile NaN, as numpy's sort puts it last.
    stats = series_stats([1.0, float("nan"), 2.0], QUANTILES, who="test")
    assert all(value != value for value in stats)
