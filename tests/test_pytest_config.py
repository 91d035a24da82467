"""The repository's pytest configuration, run on a throwaway test module."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_does_not_stop_the_run(pytester):
    # warnings are errors, so a warning raised while hypothesis reports a
    # failure would end the session with INTERNALERROR (exit 3) and the
    # tests after it would never run
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    path = pytester.makepyfile(test_pair='''
        from hypothesis import given, settings, strategies as st


        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(n):
            assert n < 5


        def test_passes():
            assert True
    ''')
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider",
                                           str(path))
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1
