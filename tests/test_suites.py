"""The named validation suites must pass end to end (the CLI exposes them)."""

import pytest

from halfline_bethe.suites import (run_asep_suite, run_bose_suite,
                                   run_identity_suite)


def test_identity_suite_passes():
    rep = run_identity_suite(n_max=3, draws=120)
    assert rep.all_passed, [c.line() for c in rep.checks if not c.passed]


def test_identity_suite_needs_a_particle():
    # an empty range of N would pass every check without testing anything
    with pytest.raises(ValueError):
        run_identity_suite(n_max=0)


def test_asep_suite_passes():
    rep = run_asep_suite()
    assert rep.all_passed, [c.line() for c in rep.checks if not c.passed]


def test_bose_suite_passes():
    rep = run_bose_suite()
    assert rep.all_passed, [c.line() for c in rep.checks if not c.passed]


def test_check_lines_name_every_invariant():
    rep = run_identity_suite(n_max=2, draws=40)
    names = {c.name for c in rep.checks}
    assert {"ratio-relation-bose", "ratio-relation-asep",
            "signflip-pairing-bose", "wall-pairing-asep",
            "ab-pair-cancellation"} <= names
    for check in rep.checks:
        line = check.line()
        assert check.name in line and ("PASS" in line or "FAIL" in line)
