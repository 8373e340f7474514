"""Random stream determinism and keying properties."""

from citysim import rng
from citysim.rng import Stream, TickRng, fnv64, label_hash


def test_draws_are_pure_functions_of_keys():
    a = Stream(42, "agent::x").at(10, "course")
    b = Stream(42, "agent::x").at(10, "course")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_streams_differ_by_subagent_tick_and_label():
    base = Stream(42, "a").at(1, "x").random()
    assert base != Stream(42, "b").at(1, "x").random()
    assert base != Stream(42, "a").at(2, "x").random()
    assert base != Stream(42, "a").at(1, "y").random()
    assert base != Stream(43, "a").at(1, "x").random()


def test_draw_index_independent_of_other_streams():
    # consuming one stream never shifts another: counter-based, not shared
    s1 = Stream(7, "a").at(3, "l")
    expected = Stream(7, "b").at(3, "l").random()
    for _ in range(100):
        s1.random()
    assert Stream(7, "b").at(3, "l").random() == expected


def test_random_in_unit_interval():
    rng = Stream(1, "s").at(0, "")
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    # crude uniformity sanity check
    assert 0.4 < sum(values) / len(values) < 0.6


def test_randint_bounds_inclusive():
    rng = Stream(1, "s").at(0, "r")
    values = {rng.randint(2, 5) for _ in range(200)}
    assert values == {2, 3, 4, 5}


def test_sample_distinct():
    rng = Stream(9, "s").at(4, "pick")
    picked = rng.sample_distinct(50, 5)
    assert len(picked) == len(set(picked)) == 5
    assert all(0 <= i < 50 for i in picked)
    assert rng.sample_distinct(3, 10) == [0, 1, 2]


def test_fnv64_stable():
    assert fnv64("hospital_center::ict") == fnv64("hospital_center::ict")
    assert fnv64("a") != fnv64("b")


def test_label_cache_draws_equal_direct_fnv64_draws(monkeypatch):
    # more distinct labels than the cache holds, each drawn twice, so the
    # second pass reuses labels that were evicted and labels still cached
    labels = [f"inf:p{i}" for i in range(label_hash.cache_info().maxsize + 300)]
    stream = Stream(12, "p0::healthcare")

    def draws():
        return [(stream.at(tick, label).random(), stream.at(tick, label).randint(0, 99))
                for tick, label in enumerate(labels + labels)]

    label_hash.cache_clear()
    cached = draws()
    info = label_hash.cache_info()
    assert info.hits > 0 and info.currsize == info.maxsize
    monkeypatch.setattr(rng, "label_hash", fnv64)
    assert draws() == cached
