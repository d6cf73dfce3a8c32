"""The identity catalogue: registry, sweeps, counterexample machinery."""

import pytest

from twotree import REGISTRY, fib, run_all
import twotree.identities
from twotree.identities import Identity, IdentityReport, UnknownIdentityError, _sign, check_identity


def test_registry_shape():
    assert sum(1 for e in REGISTRY.values() if e.in_run_all) == 19
    assert len(REGISTRY) == 20  # the partial-sum pair is queryable but folded
    assert "I-2.12" in REGISTRY and "I-B.51/52" in REGISTRY
    assert not REGISTRY["I-B.51/52"].in_run_all


def test_catalogue_order():
    # REGISTRY follows the order in which the check functions are declared,
    # and run_all and `verify` report in that order.
    in_run_all = [
        "I-2.1", "I-2.2", "I-2.3/2.4", "I-2.5", "I-2.6", "I-2.7", "I-2.8", "I-2.9", "I-2.10",
        "I-2.11", "I-2.12", "I-2.13", "I-3.2", "I-3.4", "I-3.5", "I-A.1", "I-A.2", "I-A.3", "I-A.4",
    ]
    assert list(REGISTRY) == in_run_all + ["I-B.51/52"]
    assert [r.identity_id for r in run_all("small")] == in_run_all


def test_params_are_the_check_functions_required_ones():
    assert REGISTRY["I-2.12"].params == ("n", "a", "b", "c")
    assert REGISTRY["I-2.5"].params == ("n", "m")
    # the optional `tail` of the partial-sum pair is no parameter
    partial = REGISTRY["I-B.51/52"]
    assert partial.params == ("m",)
    assert partial.fn is twotree.identities._tail_partial_sum_pairs
    assert partial.ranges["deep"] == {"m": (1, 500)}


def test_four_factor_point_value():
    entry = REGISTRY["I-2.12"]
    ((lhs, rhs),) = entry.fn(n=5, a=1, b=2, c=3)
    assert lhs == rhs == -1650
    report = check_identity("I-2.12", ranges={"n": (5, 5), "a": (1, 1), "b": (2, 2), "c": (3, 3)})
    assert report.status == "pass"


def test_double_index_product_long_sweep():
    report = check_identity("I-2.1", ranges={"m": (1, 300)})
    assert report.status == "pass"


def test_shifted_cross_diagonal():
    # equal parameters collapse the right side to a single signed unit
    for k in range(1, 51):
        ((lhs, rhs),) = REGISTRY["I-3.4"].fn(m=k, k=k)
        assert lhs == fib(k + 1) * fib(k) - fib(k - 1) * fib(k + 2)
        assert rhs == _sign(k - 1) * fib(1)
        assert lhs == rhs


def test_run_all_small_profile():
    reports = run_all("small")
    assert len(reports) == 19
    assert all(r.status == "pass" for r in reports)
    assert len({r.identity_id for r in reports}) == 19


def test_run_all_rejects_unknown_profile():
    with pytest.raises(ValueError):
        run_all("gigantic")


def test_unknown_identity_rejected():
    with pytest.raises(UnknownIdentityError):
        check_identity("I-9.99")


def test_partial_sum_identity_queryable():
    report = check_identity("I-B.51/52", ranges={"m": (1, 120)})
    assert report.status == "pass"


def test_tail_balance_sums_its_tail_once(monkeypatch):
    calls = []
    real = twotree.identities.tail_sum
    monkeypatch.setattr(twotree.identities, "tail_sum", lambda j: calls.append(j) or real(j))
    balance, partial = REGISTRY["I-A.4"].fn, REGISTRY["I-B.51/52"].fn
    for m in range(4, 61):
        pairs = balance(m=m)
        assert calls == [m - 2]
        # both partial-sum equalities ride along at every I-A.4 point
        assert pairs[1:] == partial(m=m)
        assert calls == [m - 2, m - 1]
        calls.clear()
        assert all(lhs == rhs for lhs, rhs in pairs)


def test_mutated_identity_fails_with_counterexample(monkeypatch):
    # flip one sign in an otherwise true statement
    def broken(m):
        return [(fib(2 * m), fib(m + 1) ** 2 + fib(m - 1) ** 2)]

    monkeypatch.setitem(
        REGISTRY,
        "I-BROKEN",
        Identity(
            id="I-BROKEN",
            statement="F(2m) = F(m+1)^2 + F(m-1)^2 (deliberately wrong)",
            params=("m",),
            fn=broken,
            ranges={"small": {"m": (1, 10)}, "standard": {"m": (1, 10)}, "deep": {"m": (1, 10)}},
        ),
    )
    report = check_identity("I-BROKEN")
    assert report.status == "fail"
    assert report.counterexample is not None
    assert report.mismatch is not None
    # the reported point reproduces the inequality
    assert any(lhs != rhs for lhs, rhs in REGISTRY["I-BROKEN"].fn(**report.counterexample))
    reports = run_all("standard")
    assert sum(1 for r in reports if r.status == "fail") == 1


def test_ranges_must_name_a_nonempty_box():
    for ranges in (
        {"m": (5, 1)},  # empty: would pass after checking no point
        {"m": (1, 3), "zz": (0, 9)},  # unknown parameter
        {},  # missing parameter
    ):
        with pytest.raises(ValueError):
            check_identity("I-2.1", ranges=ranges)
    with pytest.raises(ValueError):
        check_identity("I-2.2", ranges={"m": (1, 3), "k": (4, 3)})


def test_report_json_shape():
    report = check_identity("I-2.9", ranges={"m": (-5, 5)})
    data = report.to_json_dict()
    assert data["identity"] == "I-2.9"
    assert data["status"] == "pass"
    assert data["ranges"] == [{"param": "m", "lo": -5, "hi": 5}]


def test_report_json_is_unchanged():
    passed = IdentityReport("I-2.9", (("m", -5, 5),), "pass")
    assert passed.to_json_dict() == {
        "identity": "I-2.9",
        "ranges": [{"param": "m", "lo": -5, "hi": 5}],
        "status": "pass",
    }
    failed = IdentityReport(
        identity_id="I-2.2",
        ranges=(("m", 1, 3), ("k", 2, 2)),
        status="fail",
        counterexample={"m": 2, "k": 2},
        mismatch=("3", "4"),
    )
    data = failed.to_json_dict()
    assert list(data) == ["identity", "ranges", "status", "counterexample", "lhs", "rhs"]
    assert data == {
        "identity": "I-2.2",
        "ranges": [{"param": "m", "lo": 1, "hi": 3}, {"param": "k", "lo": 2, "hi": 2}],
        "status": "fail",
        "counterexample": {"m": 2, "k": 2},
        "lhs": "3",
        "rhs": "4",
    }


def test_identity_records_are_values():
    report = check_identity("I-2.9", ranges={"m": (-5, 5)})
    same = IdentityReport("I-2.9", (("m", -5, 5),), "pass")
    assert report == same and hash(report) == hash(same)
    assert report != IdentityReport("I-2.9", (("m", -5, 5),), "fail")
    with pytest.raises(AttributeError):
        report.status = "fail"
    entry = REGISTRY["I-2.1"]
    copy = Identity(entry.id, entry.statement, entry.params, entry.fn, entry.ranges)
    assert entry == copy
    assert entry.in_run_all is True
    with pytest.raises(AttributeError):
        entry.fn = None
    # Its ranges are dicts, so an Identity is unhashable, as a frozen dataclass was.
    with pytest.raises(TypeError):
        hash(entry)


def test_every_entry_carries_all_profiles():
    for entry in REGISTRY.values():
        for profile in ("small", "standard", "deep"):
            box = entry.ranges[profile]
            assert set(box) == set(entry.params)
            assert all(lo <= hi for lo, hi in box.values())


def test_profiles_nest():
    # same registry throughout; each wider profile covers the narrower box
    for entry in REGISTRY.values():
        for tight, wide in (("small", "standard"), ("standard", "deep")):
            for param in entry.params:
                t_lo, t_hi = entry.ranges[tight][param]
                w_lo, w_hi = entry.ranges[wide][param]
                assert w_lo <= t_lo and t_hi <= w_hi


def test_negative_index_reach():
    # statements exercised across the signed region actually evaluate there
    report = check_identity("I-2.8", ranges={"m": (-50, -1)})
    assert report.status == "pass"
    report = check_identity("I-2.13", ranges={"n": (-3, -1), "i": (-2, 2), "r": (-2, 2)})
    assert report.status == "pass"
