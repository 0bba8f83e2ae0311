"""The test setup itself: a failing test is reported, and the run goes on."""

from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_failing_hypothesis_test_is_reported_not_fatal(pytester):
    # On failure Hypothesis imports its patch writer, whose libcst import
    # warns; with warnings as errors that once ended the run in INTERNALERROR.
    pytester.makeini(
        "[pytest]\n"
        "filterwarnings =\n    error\n"
        f"pythonpath = {TESTS.parent / 'src'}\n"
    )
    pytester.makeconftest((TESTS / "conftest.py").read_text())
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
