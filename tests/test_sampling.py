"""The stream contract of ``substream``: sample k of the sweep seeded by
seed is the Philox stream keyed by [seed mod 2^64, k mod 2^64], and
``substreams`` builds the same streams from one key array. One
``uniform_rows`` call per row is the run of ``rng.uniform`` calls it
replaces, bit for bit. The masked rounds of ``redraw``, the package's one rejection loop, and the
starvation message of each sampler that rejects draws, once its cap on
the rounds is reached, and the refusal of a step that a safe sampler's
window cannot serve, before any draw."""
import numpy as np
import pytest

from pshmodels import (Disc1D, EllipticTube, Ellipsoid, Gauge, Strip1D,
                       StripTube, Superellipse, sampling, substream)
from pshmodels.errors import ConvergenceError, StepRefused
from pshmodels.sampling import (redraw, substreams, uniform_rows,
                                unit_vectors)

MASK64 = (1 << 64) - 1


def _philox(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & MASK64, index & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed", [0, -1, -(2 ** 63), 2 ** 64 - 1,
                                  2 ** 64 + 5])
def test_substream_is_the_keyed_philox_stream(seed):
    for j in range(3):
        got, want = substream(seed, 10 ** 6 + j), _philox(seed, 10 ** 6 + j)
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        assert got.random(5).tolist() == want.random(5).tolist()
        assert got.normal(size=5).tolist() == want.normal(size=5).tolist()
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)


def _assert_same_streams(got, want):
    """Equal states before and after the same draws of each kind."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert repr(g.bit_generator.state) == repr(w.bit_generator.state)
        assert g.random(3).tolist() == w.random(3).tolist()
        assert g.normal(size=3).tolist() == w.normal(size=3).tolist()
        assert repr(g.bit_generator.state) == repr(w.bit_generator.state)


@pytest.mark.parametrize("seed", [0, 42, 2 ** 63 + 5, 2 ** 64 - 1, -1])
def test_substreams_are_the_substreams(seed):
    # substream is a batch of one; _philox keys its Philox on its own
    indices = [0, 1, 7, 10 ** 6, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 3,
               3 * 2 ** 64 + 11, -1]
    for reference in (substream, _philox):
        _assert_same_streams(substreams(seed, indices),
                             [reference(seed, k) for k in indices])
        _assert_same_streams(substreams(seed, range(5)),
                             [reference(seed, k) for k in range(5)])


def test_substreams_take_one_seed_per_row():
    # as chart_residuals passes them: each seed repeated over the indices
    seeds = [0, 42, 2 ** 63 + 5, 2 ** 64 - 1, -1]
    rows = [(seed, k) for seed in seeds for k in range(3)]
    for reference in (substream, _philox):
        _assert_same_streams(substreams([s for s, _ in rows],
                                        [k for _, k in rows]),
                             [reference(s, k) for s, k in rows])


def test_substreams_of_no_rows():
    assert substreams(42, []) == []
    assert substreams([], range(0)) == []


def test_uniform_rows_is_the_run_of_uniform_calls():
    lo = [-1.0, 0.05, 0.0, -0.45, 1e-3]
    hi = [1.0, 0.95, 1.0, 0.45, 2.0 * np.pi]
    rngs = [substream(7, k) for k in range(9)]
    refs = [substream(7, k) for k in range(9)]
    got = uniform_rows(rngs, lo, hi)
    want = np.array([[rng.uniform(a, b) for a, b in zip(lo, hi)]
                     for rng in refs])
    assert got.tobytes() == want.tobytes()
    assert [repr(r.bit_generator.state) for r in rngs] == \
        [repr(r.bit_generator.state) for r in refs]
    # a bound per row, and rng.uniform(lo, hi, size) on array bounds
    bounds = np.linspace(-3.0, 3.0, 18).reshape(9, 2)
    got = uniform_rows(rngs, bounds[:, :1], bounds[:, 1:])
    want = np.array([rng.uniform(a, b, 1) for rng, (a, b) in
                     zip(refs, bounds.tolist())])
    assert got.tobytes() == want.tobytes()
    box = uniform_rows(rngs, [-2.0, -1.0], [3.0, 0.5])
    assert box.tobytes() == np.array(
        [rng.uniform([-2.0, -1.0], [3.0, 0.5]) for rng in refs]).tobytes()
    assert uniform_rows([], [0.0, 1.0], [1.0, 2.0]).shape == (0, 2)


def test_keyed_seed_refuses_any_other_request():
    seq = sampling._keyed_seed()([3, 2 ** 64 - 1])
    assert seq.generate_state(2, np.uint64).tolist() == [3, 2 ** 64 - 1]
    for n_words, dtype in ((2, np.uint32), (4, np.uint32), (1, np.uint64),
                           (4, np.uint64)):
        with pytest.raises(RuntimeError):
            seq.generate_state(n_words, dtype)
    # a generator seeded any other way than Philox's key fails loudly
    with pytest.raises(RuntimeError):
        np.random.PCG64(seq)


def test_redraw_keeps_accepted_rows_and_redraws_the_rest():
    active_rows = []

    def draw(active):
        # row "b" is accepted in the third round, the others at once
        active_rows.append(list(active))
        rounds = len(active_rows)
        candidates = np.array([[rounds, ord(name)] for name in active])
        return candidates, np.array([name != "b" or rounds == 3
                                     for name in active])
    out = redraw(["a", "b", "c"], draw, np.zeros((3, 2)), 3, "starved")
    assert active_rows == [["a", "b", "c"], ["b"], ["b"]]
    assert out.tolist() == [[1, 97], [3, 98], [1, 99]]
    active_rows.clear()
    with pytest.raises(ConvergenceError, match="^starved$"):
        redraw(["a", "b", "c"], draw, np.zeros((3, 2)), 2, "starved")


def test_redraw_over_no_rows_makes_no_draw():
    def draw(active):
        raise AssertionError("draw called")
    out = np.empty((0, 2))
    assert redraw([], draw, out, 5, "starved") is out


class _Logged:
    """A Generator that records the name of each method asked of it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


class _ZeroNormals:
    """A Generator double whose normal draws are all zero."""

    def normal(self, size):
        return np.zeros(size)


class _Wall:
    """A body double: every point is inside, every gauge huge, so no safe
    window of the elliptic tube is ever open."""

    dim = 2

    def inradius(self):
        return 1.0

    def bounding_box(self):
        return -np.ones(2), np.ones(2)

    def interior_point(self):
        return np.zeros(2)

    def contains_batch(self, W):
        return np.ones(len(W), dtype=bool)

    def gauge_pair(self, X, Y):
        return np.full(len(X), 1e300), np.full(len(X), 1e300)


class _Empty(_Wall):
    """A body double that contains no point."""

    def contains_batch(self, W):
        return np.zeros(len(W), dtype=bool)


def test_unit_vector_sampling_starves():
    with pytest.raises(ConvergenceError,
                       match="^unit-vector sampling starved$"):
        unit_vectors([substream(1, 0), _ZeroNormals()], 2)


def test_strip_tube_safe_sampling_starves():
    # the needle reaches |w| = 1e8, so it serves h = 1e-3, but |y| reaches
    # the length floor 10 h only along directions within about 1e-6 of
    # its long axis, which no draw finds
    tube = StripTube(Gauge(Superellipse([1e-8, 1e8], power=4)))
    with pytest.raises(ConvergenceError,
                       match="^strip-tube safe sampling starved$"):
        tube.sample_fd_safe_batch([substream(1, 0)], 1e-3)


def test_body_sampling_starves():
    with pytest.raises(ConvergenceError, match="^body sampling starved$"):
        EllipticTube(_Empty()).sample_member_batch([substream(1, 0)])


def test_elliptic_tube_safe_sampling_starves():
    # each round draws a body point and a direction; a row whose window is
    # empty makes no random() call for it
    rng = _Logged(substream(1, 0))
    with pytest.raises(ConvergenceError,
                       match="^elliptic-tube safe sampling starved$"):
        EllipticTube(_Wall()).sample_fd_safe_batch([rng], 1e-3)
    assert rng.calls == ["random", "normal"] * 10000


def test_elliptic_tube_strip_sampling_starves():
    # a strip point needs a member point off the center
    tube = EllipticTube(Ellipsoid(np.eye(2)))
    tube.sample_member_batch = lambda rngs: np.zeros((len(rngs), 2),
                                                     dtype=complex)
    with pytest.raises(ConvergenceError,
                       match="^elliptic-tube strip sampling starved$"):
        tube.strip_points([0.1j], [substream(1, 0)])


@pytest.mark.parametrize("model, h, limit", [
    (EllipticTube(Ellipsoid(np.eye(2))), 0.1, "0.0674741"),
    (EllipticTube(Ellipsoid(np.diag([1.0, 4.0]))), 0.04, "0.033737"),
    (Disc1D(), 0.05, "0.0314159"),
    (Strip1D(), 0.1, "0.0706858"),
    (StripTube(Gauge(Ellipsoid(np.diag([1.0, 4.0])))), 0.1, "0.0706858"),
    (StripTube(Gauge(Superellipse([1.0, 0.7], power=4))), 0.1,
     "0.0745927")], ids=["ball", "ellipsoid", "disc", "strip", "striptube",
                         "squircle-striptube"])
def test_safe_sampler_refuses_an_unservable_step_before_drawing(model, h,
                                                                limit):
    # an elliptic-tube window keeps both gauges at most 0.8, so u stays
    # below atan(0.8) and no draw reaches the floor 10 h / rin from
    # h = rin atan(0.8) / 10 on; a 1-D window is empty from k h = hi pi/4;
    # a strip-tube draw has |y| < 0.9 (pi/4) R, R = sup |w| over the body,
    # so none reaches the floor 10 h from h = 0.9 (pi/4) R / 10 on
    rng = _Logged(substream(1, 0))
    with pytest.raises(StepRefused, match=f"^--step {h:g} .* {limit}$"):
        model.sample_fd_safe_batch([rng], h)
    assert rng.calls == []
    assert model.sample_fd_safe_batch([substream(1, 0)], h / 2).shape == (
        1, model.dim)
