"""Deterministic counter-based random streams.

Sample k of a sweep is drawn from its own Philox stream keyed by
(seed, k), so results are a pure function of the pair and independent
of evaluation order or parallel scheduling.

Every draw site builds its streams with ``substreams(seeds, indices)``:
the keys of all its rows become one uint64 array, and each Generator is
keyed by one row of it, the stream of ``substream(seed, index)`` bit for
bit. ``substream`` is the stream of one key.

The batched draws (``unit_vectors``, ``unit_disc_points``,
``uniform_rows`` and the models' ``sample_member_batch`` /
``sample_fd_safe_batch`` / ``strip_points``) take one Generator per row
and make one Generator call per row per stage: a run of uniform draws is
one ``rng.random(k)`` call, from which ``uniform_rows`` takes
``lo + (hi - lo) u``, the formula of ``rng.uniform``; a normal draw
between two uniform draws splits the run. Row i makes exactly the draws,
in the same order, that a one-row draw makes on ``rngs[i]``, and ends with
that Generator in the same state, so a batched draw is byte-identical to
the row loop. Every rejection retry of the package runs through one
function, ``redraw``: masked rounds over the rows still drawing, each
sampler's cap on the rounds and its own starvation message. Only the
arithmetic between the draws is shared across rows.

A stream's seed sequence has the key itself as its state.
``Philox(key=...)`` builds the same stream, but first builds an unkeyed
``SeedSequence()`` from OS entropy and throws it away, which more than
doubles the cost of a stream. Every Philox starts from one shared
read-only zero counter, which it copies; both give the stream of
``Philox(key=...)`` bit for bit. The class is built on first use, so that
``import pshmodels`` does not load ``numpy.random``.
"""
from __future__ import annotations

import functools

import numpy as np

from .bodies import _rowdot
from .errors import ConvergenceError

_MASK64 = (1 << 64) - 1
# Philox's default counter 0 as the uint64 words it converts 0 into;
# passing them skips that conversion, and Philox copies them
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


@functools.cache
def _keyed_seed():
    """The seed sequence class whose state is a given Philox key."""

    class KeyedSeed(np.random.bit_generator.ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key):
            # a row of substreams' key array is kept as it is, uncopied
            self.key = (key if isinstance(key, np.ndarray)
                        else np.array(key, dtype=np.uint64))

        def generate_state(self, n_words, dtype=np.uint32):
            # Philox asks for its two-word key; any other request means
            # this NumPy seeds it differently, and the key would not be
            # the stream's key
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise RuntimeError("a keyed Philox seed holds two 64-bit "
                                   f"words, not {n_words} of {dtype}")
            return self.key

    return KeyedSeed


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for sample `index` of the sweep identified by `seed`: the
    Philox stream keyed by [seed mod 2^64, index mod 2^64]."""
    return substreams(seed, [index])[0]


def substreams(seeds, indices) -> list:
    """The Generators of ``substream(seeds[i], indices[i])`` for every i,
    bit for bit, keyed by the rows of one uint64 array; an int seed
    serves every index."""
    indices = [index & _MASK64 for index in indices]
    keys = np.empty((len(indices), 2), dtype=np.uint64)
    keys[:, 0] = (seeds & _MASK64 if isinstance(seeds, int)
                  else [seed & _MASK64 for seed in seeds])
    keys[:, 1] = indices
    keyed, philox = _keyed_seed(), np.random.Philox
    return [np.random.Generator(philox(keyed(key), counter=_ZERO_COUNTER))
            for key in keys]


def uniform_rows(rngs, lo, hi) -> np.ndarray:
    """Uniform draws from [lo[j], hi[j]) in column j, a row from each
    Generator of rngs by one ``rng.random`` call of k values, written in
    place: lo + (hi - lo) u, what k calls of ``rng.uniform(lo[j], hi[j])``
    compute, at a fraction of their cost."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    U = np.empty((len(rngs), lo.shape[-1]))
    for rng, row in zip(rngs, U):
        rng.random(out=row)
    return lo + (hi - lo) * U


def redraw(rngs, draw, out: np.ndarray, rounds: int,
           starved: str) -> np.ndarray:
    """Fill the rows of out by rejection, in masked rounds; row i draws
    from rngs[i] alone.

    Each round calls ``draw(active)`` once, on the Generators of the rows
    still drawing, in row order; it returns ``(candidates, accepted)``,
    a candidate row and an acceptance flag per active row. Accepted rows
    are written to out, and the others draw again next round. After
    ``rounds`` rounds with a row still drawing, raises
    ConvergenceError(starved). With no rows, draw is never called.
    """
    rows = np.arange(len(rngs))
    for _ in range(rounds):
        if not len(rows):
            break
        candidates, accepted = draw([rngs[i] for i in rows.tolist()])
        out[rows[accepted]] = candidates[accepted]
        rows = rows[~accepted]
    if len(rows):
        raise ConvergenceError(starved)
    return out


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A uniform unit vector of R^dim: the batch of one row."""
    return unit_vectors([rng], dim)[0]


def unit_vectors(rngs, dim: int) -> np.ndarray:
    """A uniform unit vector of R^dim from each Generator of rngs, as the
    rows of an (N, dim) array: a standard normal draw, drawn again (in at
    most 1000 rounds) while its norm is below 1e-12, over its norm."""
    def draw(active):
        V = np.array([rng.normal(size=dim) for rng in active])
        # the norm of np.linalg.norm: the square root of the dot product
        norms = np.sqrt(_rowdot(V, V))
        kept = norms >= 1e-12
        return V / np.where(kept, norms, 1.0)[:, None], kept
    return redraw(rngs, draw, np.empty((len(rngs), dim)), 1000,
                  "unit-vector sampling starved")


def unit_disc_point(rng: np.random.Generator) -> complex:
    """Uniform draw from the open unit disc: the batch of one row."""
    return complex(unit_disc_points([rng])[0])


def unit_disc_points(rngs) -> np.ndarray:
    """A uniform draw from the open unit disc of the complex plane from
    each Generator of rngs, as a complex (N,) array: the root of a
    uniform radius draw, then a uniform angle in [0, 2 pi)."""
    U = uniform_rows(rngs, [0.0, 0.0], [1.0, 2.0 * np.pi])
    r, theta = np.sqrt(U[:, 0]), U[:, 1]
    zetas = np.empty(len(U), dtype=complex)
    zetas.real = r * np.cos(theta)
    zetas.imag = r * np.sin(theta)
    return zetas
