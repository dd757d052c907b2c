import warnings

import pytest

import tmat
from tmat import HarnessError, construct, entry_sum
from tmat import test_algorithm as run_batch
from tmat.harness import FN_MENU, OK, WARNING
from tmat.linalg import determinant


def _sum_fn(handle):
    return entry_sum(handle)


def test_minij_entry_sums():
    records = run_batch(
        _sum_fn,
        [1, 2, 3, 4],
        props=["symmetric", "eigen", "posdef", "integer"],
        exclude=["pascal", "poisson"],
    )
    assert [(r.family, r.size, int(r.value.num)) for r in records] == [
        ("minij", 1, 1),
        ("minij", 2, 5),
        ("minij", 3, 14),
        ("minij", 4, 30),
    ]


def test_poisson_feasible_sizes_only():
    records = run_batch(_sum_fn, [1, 2, 3, 4], props=["sparse"], ignore_errors=True)
    poisson = [(r.family, r.size) for r in records if r.family == "poisson"]
    assert poisson == [("poisson", 1), ("poisson", 4)]


def test_det_positive_over_spd_families():
    records = run_batch(
        FN_MENU["det-positive"], [4], props=["symmetric", "posdef"]
    )
    assert records, "expected symmetric posdef families"
    assert {r.family for r in records} == {
        "hilbert",
        "inversehilbert",
        "cauchy",
        "minij",
        "lehmer",
        "pei",
        "pascal",
        "kms",
        "moler",
        "poisson",
    }
    assert all(r.status == OK and r.value is True for r in records)


def test_record_order_is_family_major():
    records = run_batch(_sum_fn, [1, 2], props=["posdef", "eigen"], ignore_errors=True)
    fams = [r.family for r in records]
    # registration order, each family's sizes contiguous and ascending
    assert fams == sorted(fams, key=lambda f: tmat.list_families().index(f))
    for fam in set(fams):
        sizes = [r.size for r in records if r.family == fam]
        assert sizes == sorted(sizes)


def test_strict_policy_aborts_with_context():
    def boom(handle):
        if handle.rows == 3:
            raise ValueError("boom")
        return 0

    with pytest.raises(HarnessError, match="minij at size 3"):
        run_batch(
            boom,
            [1, 2, 3, 4],
            props=["symmetric", "eigen", "posdef", "integer"],
            exclude=["pascal", "poisson"],
        )


def test_ignore_policy_skips_failures():
    def boom(handle):
        if handle.rows == 3:
            raise ValueError("boom")
        return handle.rows

    records = run_batch(
        boom,
        [1, 2, 3, 4],
        props=["symmetric", "eigen", "posdef", "integer"],
        exclude=["pascal", "poisson"],
        ignore_errors=True,
    )
    assert [r.size for r in records] == [1, 2, 4]


def test_warnings_policy_records_and_warns():
    def boom(handle):
        raise ValueError("boom")

    with pytest.warns(UserWarning, match="minij at size 2"):
        records = run_batch(
            boom,
            [2],
            props=["symmetric", "eigen", "posdef", "integer"],
            exclude=["pascal", "poisson"],
            errors_as_warnings=True,
        )
    assert len(records) == 1
    assert records[0].status == WARNING
    assert "boom" in records[0].message


def test_policy_precedence_ignore_wins():
    def boom(handle):
        raise ValueError("always")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = run_batch(
            boom, [1, 2], groups=["builtin"], errors_as_warnings=True, ignore_errors=True
        )
    assert records == []
    assert caught == []


def test_record_count_matches_enumeration():
    sizes = [1, 2, 3, 4]
    records = run_batch(lambda h: 0, sizes, groups=["builtin"], ignore_errors=True)
    expected = 0
    for fam in tmat.list_matrices(["builtin"]):
        for s in sizes:
            if tmat.feasible_size(fam, s) is not None:
                expected += 1
    assert len(records) == expected == 19 * 4 - 2  # poisson misses sizes 2 and 3


def test_determinism():
    a = run_batch(_sum_fn, [2, 3], props=["posdef"], ignore_errors=True)
    b = run_batch(_sum_fn, [2, 3], props=["posdef"], ignore_errors=True)
    assert [(r.family, r.size, str(r.value)) for r in a] == [
        (r.family, r.size, str(r.value)) for r in b
    ]


def test_exclusion_applies_after_filtering():
    base = run_batch(lambda h: 0, [2], props=["posdef"], ignore_errors=True)
    excluded = run_batch(
        lambda h: 0, [2], props=["posdef"], exclude=["hilbert"], ignore_errors=True
    )
    assert {r.family for r in base} - {r.family for r in excluded} == {"hilbert"}


def test_sizes_validation():
    with pytest.raises(HarnessError):
        run_batch(lambda h: 0, [])
    with pytest.raises(HarnessError):
        run_batch(lambda h: 0, [0])


def test_fn_menu_smoke():
    h = construct("minij", n=3)
    assert FN_MENU["det-positive"](h) == (determinant(h) > 0)
    assert FN_MENU["issymmetric"](h) is True
    assert FN_MENU["sum"](h) == 14
    assert FN_MENU["timing"](h) >= 0


def test_median_ns_is_the_middle_time_or_the_mean_of_the_middle_pair(monkeypatch):
    from tmat import harness

    calls = []
    for times in ([30, 10, 20], [40, 10, 30, 20]):
        ticks = iter([t for elapsed in times for t in (0, elapsed)])
        monkeypatch.setattr(harness, "perf_counter_ns", lambda: next(ticks))
        calls.append(harness.median_ns(lambda: len(calls), len(times)))
    assert calls == [(20, 0), (25, 1)]
