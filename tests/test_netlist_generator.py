"""Tests for the random-logic generator."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.netlist import generator
from repro.netlist.bench import write_bench
from repro.netlist.benchmarks import (
    ISCAS85_LIKE_SPECS,
    ISCAS_LIKE_SPECS,
    benchmark_circuit,
)
from repro.netlist.generator import (
    DEFAULT_FANIN_PROBS,
    GeneratorSpec,
    generate_network,
)
from repro.netlist.stats import network_stats
from repro.netlist.validate import lint


def test_exact_gate_count_and_depth():
    spec = GeneratorSpec(name="g", n_inputs=6, n_outputs=4, n_gates=50,
                         depth=6, seed=3)
    network = generate_network(spec)
    assert network.gate_count == 50
    assert network.depth == 6
    assert len(network.inputs) == 6


def test_deterministic_in_seed():
    spec = GeneratorSpec(name="g", n_inputs=6, n_outputs=4, n_gates=40,
                         depth=5, seed=7)
    first = generate_network(spec)
    second = generate_network(spec)
    assert first.topological_order() == second.topological_order()
    for name in first.logic_gates:
        assert first.gate(name).fanins == second.gate(name).fanins


def test_different_seeds_differ():
    base = dict(name="g", n_inputs=6, n_outputs=4, n_gates=40, depth=5)
    first = generate_network(GeneratorSpec(seed=1, **base))
    second = generate_network(GeneratorSpec(seed=2, **base))
    fanins_first = [first.gate(name).fanins for name in first.logic_gates]
    fanins_second = [second.gate(name).fanins for name in second.logic_gates]
    assert fanins_first != fanins_second


def test_no_dangling_logic():
    spec = GeneratorSpec(name="g", n_inputs=8, n_outputs=6, n_gates=80,
                         depth=8, seed=5)
    network = generate_network(spec)
    issues = [issue for issue in lint(network)
              if issue.kind == "dangling-gate"]
    assert issues == []


def test_fanout_skew_increases_max_fanout():
    base = dict(name="g", n_inputs=10, n_outputs=8, n_gates=150, depth=8)
    flat = network_stats(generate_network(
        GeneratorSpec(seed=9, fanout_skew=0.0, **base)))
    skewed = network_stats(generate_network(
        GeneratorSpec(seed=9, fanout_skew=1.5, **base)))
    assert skewed.max_fanout >= flat.max_fanout


@pytest.mark.parametrize("kwargs, fragment", [
    (dict(n_inputs=0, n_outputs=1, n_gates=5, depth=2), "n_inputs"),
    (dict(n_inputs=1, n_outputs=0, n_gates=5, depth=2), "n_outputs"),
    (dict(n_inputs=1, n_outputs=1, n_gates=5, depth=0), "depth"),
    (dict(n_inputs=1, n_outputs=1, n_gates=2, depth=5), "n_gates"),
    (dict(n_inputs=1, n_outputs=1, n_gates=5, depth=2, fanout_skew=-1.0),
     "fanout_skew"),
    (dict(n_inputs=1, n_outputs=1, n_gates=5, depth=2,
          fanin_probs=((2, 0.5),)), "sum to 1"),
    (dict(n_inputs=1, n_outputs=1, n_gates=5, depth=2,
          fanout_skew=math.nan), "fanout_skew must be finite"),
    (dict(n_inputs=1, n_outputs=1, n_gates=5, depth=2,
          fanout_skew=math.inf), "fanout_skew must be finite"),
])
def test_spec_validation(kwargs, fragment):
    with pytest.raises(NetlistError, match=fragment):
        GeneratorSpec(name="bad", **kwargs)


def test_overflowing_skew_is_a_labeled_error():
    spec = GeneratorSpec(name="steep", n_inputs=8, n_outputs=6, n_gates=40,
                         depth=5, seed=1, fanout_skew=1000.0)
    with pytest.raises(NetlistError, match="fanout_skew 1000.0 overflows"):
        generate_network(spec)


@pytest.mark.filterwarnings("ignore:overflow encountered in accumulate")
def test_overflowing_weight_total_is_a_labeled_error():
    weights = generator._FanoutWeights(3, 200.0)
    weights.weights[:] = 1e308  # each finite, their sum is not
    with pytest.raises(NetlistError, match="fanout_skew 200.0 overflows"):
        weights.choose(random.Random(0), 0, 3, [])


def test_fanin_distribution_roughly_respected():
    spec = GeneratorSpec(name="g", n_inputs=12, n_outputs=8, n_gates=400,
                         depth=10, seed=13)
    network = generate_network(spec)
    stats = network_stats(network)
    histogram = dict(stats.fanin_histogram)
    # 2-input gates dominate, as specified by DEFAULT_FANIN_PROBS.
    assert histogram.get(2, 0) > histogram.get(4, 0)
    expected_mean = sum(fanin * prob for fanin, prob in DEFAULT_FANIN_PROBS)
    assert stats.mean_fanin == pytest.approx(expected_mean, rel=0.25)


@given(seed=st.integers(min_value=0, max_value=2**31),
       gates=st.integers(min_value=10, max_value=120),
       depth=st.integers(min_value=2, max_value=8))
@settings(max_examples=25, deadline=None)
def test_generated_networks_always_valid(seed, gates, depth):
    if gates < depth:
        gates = depth
    spec = GeneratorSpec(name="h", n_inputs=5, n_outputs=4, n_gates=gates,
                         depth=depth, seed=seed)
    network = generate_network(spec)
    # Construction itself validates acyclicity; check the hard promises.
    assert network.gate_count == gates
    assert network.depth == depth
    assert not [issue for issue in lint(network)
                if issue.kind == "dangling-gate"]


# --- byte stability ------------------------------------------------------------

#: sha256 of ``write_bench`` for every generated suite circuit. Recorded
#: before the preferential draw was vectorized; any Python version or
#: generator change that moves one netlist by a byte fails here.
SUITE_BENCH_SHA256 = {
    "s298": "13769b47815341427e864d52d824aba7eb8932335e626d13f3b97683f5917fcb",
    "s344": "833a3f1dab750400320944c61a60101e97f43d6419c96b1598cf095eedaabae0",
    "s349": "273e269cbcfcb6a4dfc2af5eddc33236dad2e6682e4251fc306da5a1280748b2",
    "s382": "0168d058a8782ddef58fab63fc824a9f3701634d34ec36fa134841ffecd0a6cb",
    "s386": "1eebaaaea35d7ae7466cc5659396f4a2499b6a9310f1c13a2210291d516ede44",
    "s400": "b08b5945dffb6838ee50fefabc46e5c80879169648107676ae9097f2808c8ccd",
    "s444": "9849ced92c0fceebe3f4479c2d4ff4f4e2303d98a358c82009cae7fb5a485320",
    "s526": "1f560bb8b7b746c9f97ea99e2f94ccef0e3b23379dd3e221667d8627b9581ad9",
    "c432": "016874d08e216da9071b8e6ced94c14e8207e7eee00d7637f92a68fd26cdf014",
    "c499": "03bf3bee81ba5df2b58442d8575a161ab43cbd95f9c28388b892ef58a7dbd44f",
    "c880": "7643c4acb534b1238f5745c73380764168b12e93c011a1528523315934268176",
    "c1355": "4ae19e2744f83fe2c7b007a0af0deef26c0062272d28967216e90bed2361b77a",
    "c1908": "2e55b54d7ed988ddbe8e467d8d98ec2b2ed802c943a7f4b4f2b8a9d6d1353180",
    "c2670": "ba51fd26931dbe8ed7f18cd130601729bad5f494e55f9abb0fa22776e4698582",
    "c3540": "0b46d2aafaf899332984241bcd6df7d51f694e0e68a871a5529d672188096617",
    "c5315": "aa6ea40e0db8b7c7704cf795eba72869fcfacb5097795749d78bc07e28c65bd6",
}


def test_hash_table_covers_the_generated_suite():
    assert set(SUITE_BENCH_SHA256) == {*ISCAS_LIKE_SPECS,
                                       *ISCAS85_LIKE_SPECS}


@pytest.mark.parametrize("name", sorted(SUITE_BENCH_SHA256))
def test_suite_netlists_are_byte_stable(name):
    text = write_bench(benchmark_circuit(name))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        SUITE_BENCH_SHA256[name]


# --- the vectorized draw against the per-fanin reference ------------------------


class _ReferenceDraw:
    """The original draw: rebuild the candidate list and walk it in Python."""

    def __init__(self, n_nodes, skew):
        self.skew = skew
        self.fanouts = [0] * n_nodes

    def update(self, index, fanout):
        self.fanouts[index] = fanout

    def weight(self, index):
        weight = (1.0 + self.fanouts[index]) ** self.skew
        return weight * 3.0 if self.fanouts[index] == 0 else weight

    def choose(self, rng, start, stop, exclude):
        candidates = [i for i in range(start, stop) if i not in exclude]
        if not candidates:
            return None
        weights = [self.weight(index) for index in candidates]
        total = 0.0  # sum(weights) up to Python 3.11: left to right
        for weight in weights:
            total += weight
        roll = rng.random() * total
        cumulative = 0.0
        for index, weight in zip(candidates, weights):
            cumulative += weight
            if roll < cumulative:
                return index
        return candidates[-1]


def _pair(fanouts, skew):
    fast = generator._FanoutWeights(len(fanouts), skew)
    reference = _ReferenceDraw(len(fanouts), skew)
    for index, fanout in enumerate(fanouts):
        fast.update(index, fanout)
        reference.update(index, fanout)
    return fast, reference


SKEWS = st.one_of(st.sampled_from([0.0, 0.6, 1.5]),
                  st.floats(min_value=0.0, max_value=3.0))


@st.composite
def generator_specs(draw):
    depth = draw(st.integers(min_value=1, max_value=12))
    fanin_probs = draw(st.sampled_from([
        DEFAULT_FANIN_PROBS, ((4, 1.0),), ((1, 0.2), (3, 0.3), (4, 0.5))]))
    return GeneratorSpec(
        name="diff",
        # Few inputs: 3- and 4-input gates near the inputs have their
        # fanin count capped by the pool size.
        n_inputs=draw(st.integers(min_value=1, max_value=12)),
        n_outputs=draw(st.integers(min_value=1, max_value=40)),
        n_gates=draw(st.integers(min_value=depth, max_value=150)),
        depth=depth,
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        fanin_probs=fanin_probs,
        fanout_skew=draw(SKEWS))


@given(spec=generator_specs())
@settings(max_examples=60, deadline=None)
def test_generator_matches_reference_draw(spec):
    fast = write_bench(generate_network(spec))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "_FanoutWeights", _ReferenceDraw)
        reference = write_bench(generate_network(spec))
    assert fast == reference


@given(fanout=st.integers(min_value=0, max_value=10**6), skew=SKEWS)
@settings(max_examples=200, deadline=None)
def test_weights_are_python_pow(fanout, skew):
    """numpy's ``power`` differs from ``**`` in the last bit on ~5 % of
    these inputs; the stored weights must be the reference's exactly."""
    fast, reference = _pair([fanout], skew)
    assert fast.weights[0] == reference.weight(0)


@given(seed=st.integers(min_value=0, max_value=2**32),
       fanouts=st.lists(st.integers(min_value=0, max_value=30),
                        min_size=1, max_size=40),
       skew=SKEWS, data=st.data())
@settings(max_examples=150, deadline=None)
def test_choose_matches_reference_draw(seed, fanouts, skew, data):
    start = data.draw(st.integers(min_value=0, max_value=len(fanouts) - 1))
    stop = data.draw(st.integers(min_value=start + 1,
                                 max_value=len(fanouts)))
    # Up to the whole pool excluded: the None path.
    exclude = data.draw(st.lists(st.integers(min_value=start,
                                             max_value=stop - 1),
                                 unique=True, max_size=stop - start))
    fast, reference = _pair(fanouts, skew)
    fast_rng, reference_rng = random.Random(seed), random.Random(seed)
    assert fast.choose(fast_rng, start, stop, exclude) == \
        reference.choose(reference_rng, start, stop, exclude)
    assert fast_rng.getstate() == reference_rng.getstate()
    # The weights of excluded nodes come back unchanged.
    assert fast.choose(fast_rng, start, stop, []) == \
        reference.choose(reference_rng, start, stop, [])


class _FixedRoll(random.Random):
    """An rng whose ``random()`` always returns ``fraction``."""

    def __init__(self, fraction):
        super().__init__(0)
        self.fraction = fraction

    def random(self):
        return self.fraction


@given(fanouts=st.lists(st.integers(min_value=0, max_value=30),
                        min_size=2, max_size=60),
       skew=SKEWS, data=st.data())
@settings(max_examples=150, deadline=None)
def test_choose_matches_reference_on_boundary_rolls(fanouts, skew, data):
    """Rolls on (or one ulp beside) a running total: these separate ``<``
    from ``<=`` and a left-to-right total from any other summation order."""
    exclude = data.draw(st.lists(
        st.integers(min_value=0, max_value=len(fanouts) - 1),
        unique=True, max_size=len(fanouts) - 1))
    fast, reference = _pair(fanouts, skew)
    running, total = [], 0.0
    for index in range(len(fanouts)):
        if index not in exclude:
            total += reference.weight(index)
            running.append(total)
    fraction = data.draw(st.sampled_from(running)) / total
    fraction = data.draw(st.sampled_from([
        fraction, math.nextafter(fraction, 0.0),
        min(math.nextafter(fraction, 1.0), 1.0)]))
    stop = len(fanouts)
    assert fast.choose(_FixedRoll(fraction), 0, stop, exclude) == \
        reference.choose(_FixedRoll(fraction), 0, stop, exclude)


@pytest.mark.parametrize("exclude", [[], [4], [3, 4], [0, 2, 3, 4]])
def test_roll_on_the_total_takes_the_last_candidate(exclude):
    """A roll of the whole total (never drawn by a true ``random()``)."""
    fast, reference = _pair([2, 0, 5, 1, 3], 0.6)
    expected = reference.choose(_FixedRoll(1.0), 0, 5, exclude)
    assert expected == max(set(range(5)) - set(exclude))
    assert fast.choose(_FixedRoll(1.0), 0, 5, exclude) == expected


def test_roll_equal_to_a_running_total_goes_past_it():
    fast, reference = _pair([0, 0, 0, 0], 0.6)  # weights 3.0 each
    assert reference.choose(_FixedRoll(0.25), 0, 4, []) == 1
    assert fast.choose(_FixedRoll(0.25), 0, 4, []) == 1


def test_every_pool_node_excluded_gives_none():
    weights = generator._FanoutWeights(6, 0.6)
    assert weights.choose(random.Random(0), 2, 4, [3, 2]) is None
