"""Direct tests for the check registry; the CLI tests drive the full run."""

from skeinlab.verify import (
    build_report,
    check_eta_normalization,
    check_hopf_meridian_poly,
    check_independence,
    check_mobius_values,
    check_oracle_sweep,
    check_s1xs2,
    check_series_one,
    check_torus_pipeline,
    run_checks,
)

RECORD_KEYS = {"id", "anchor", "expected", "got", "status"}


def test_record_shape():
    rec = check_series_one((1, 5))
    assert set(rec) == RECORD_KEYS
    assert rec["status"] == "PASS"


def test_eta_check_skipped_in_exact_mode():
    rec = check_eta_normalization((2, 3), "exact")
    assert rec["status"] == "SKIPPED"
    assert rec["got"] == "E_ETA_ODD_POWER"
    assert check_eta_normalization((2, 3), "float")["status"] == "PASS"


def test_auto_mode_is_exact_wherever_the_invariant_is(monkeypatch):
    # S^1 x S^2 and the torus both have an even eta power, so auto runs
    # exact and never reads a float tolerance
    def no_float(digits):
        raise AssertionError("a float comparison in auto mode")

    monkeypatch.setattr("skeinlab.verify._tolerance", no_float)
    assert check_s1xs2((2, 2), "auto")["status"] == "PASS"
    assert check_torus_pipeline((2, 2), "auto")["status"] == "PASS"
    assert check_s1xs2((2, 3), "exact")["status"] == "PASS"


def test_windowed_checks_respect_window():
    assert check_mobius_values((1, 10))["status"] == "PASS"
    assert check_independence((1, 6))["status"] == "PASS"
    assert check_hopf_meridian_poly((0, 8))["status"] == "PASS"


def test_oracle_sweep_deterministic(monkeypatch):
    monkeypatch.setattr("skeinlab.verify.ORACLE_SAMPLES", 40)
    monkeypatch.setattr("skeinlab.verify.ORACLE_SEED", 11)
    a = check_oracle_sweep(None)
    b = check_oracle_sweep(None)
    assert a == b
    assert a["status"] == "PASS"
    assert a["expected"] == "sweep = state sum on 40 random diagrams (seed 11)"


def test_build_report_counts():
    records = [
        {"id": "a", "anchor": "", "expected": "1", "got": "1", "status": "PASS"},
        {"id": "b", "anchor": "", "expected": "1", "got": "2", "status": "FAIL"},
        {"id": "c", "anchor": "", "expected": "", "got": "", "status": "SKIPPED"},
    ]
    report = build_report(records)
    assert report["summary"] == {"total": 3, "pass": 1, "fail": 1, "skipped": 1}
    assert report["checks"] is records


def test_checks_outside_the_window_are_skipped():
    records = {r["id"]: r for r in run_checks(window=(60, 61), mode="float")}
    skipped = {"series-one", "series-dims", "torus-pipeline", "s1xs2",
               "eta-normalization", "recoloring", "independence"}
    assert {i for i, r in records.items() if r["status"] == "SKIPPED"} == skipped
    assert {r["status"] for i, r in records.items() if i not in skipped} == {"PASS"}
    assert records["series-one"]["expected"] == (
        "skipped: levels 1..50 meet the window 60..61 in 0 level(s)")
    assert records["independence"]["expected"] == (
        "skipped: levels 1..20 meet the window 60..61 in 0 level(s)")
    assert check_independence((20, 25))["status"] == "SKIPPED"


def test_registry_runs_clean():
    records = run_checks(window=(1, 2), mode="float")
    ids = [r["id"] for r in records]
    assert len(ids) == len(set(ids)) == 12
    assert {r["status"] for r in records} == {"PASS"}
