"""The named validation suites must pass end to end (the CLI exposes them)."""

import pytest

from halfline_bethe._kernels import MAX_N
from halfline_bethe.signed_perm import group_order
from halfline_bethe.suites import (MAX_IDENTITY_BYTES, run_asep_suite, run_bose_suite,
                                   run_identity_suite)


def test_identity_suite_passes():
    rep = run_identity_suite(n_max=3, draws=120)
    assert rep.all_passed, [c.line() for c in rep.checks if not c.passed]


def test_identity_suite_needs_a_particle():
    # an empty range of N would pass every check without testing anything
    with pytest.raises(ValueError):
        run_identity_suite(n_max=0)


def test_identity_suite_stops_where_the_evaluators_do():
    # N = 5 took 40 s and N = 8 would need about 66 GB of amplitudes
    for n_max in (MAX_N + 1, 8):
        with pytest.raises(ValueError, match="n_max"):
            run_identity_suite(n_max=n_max, draws=2)


def test_identity_suite_caps_its_amplitude_bytes():
    # 10^7 draws at N = 4 would hold about 123 GB; the cap refuses them, and
    # one draw past what fits, before any work
    fit = MAX_IDENTITY_BYTES // (2 * group_order(4, True) * 16)
    for draws in (10 ** 7, fit + 1):
        with pytest.raises(ValueError, match="MiB"):
            run_identity_suite(n_max=4, draws=draws)
    with pytest.raises(ValueError, match="draws"):
        run_identity_suite(n_max=1, draws=0)


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
