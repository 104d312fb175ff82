import pytest
from hypothesis import settings

# Every @given test runs the same examples on every run: examples derive from
# the test itself, nothing is replayed from a database, and slow examples are
# not failures.
settings.register_profile(
    "uhspath", derandomize=True, database=None, deadline=None, max_examples=50
)
settings.load_profile("uhspath")

# filled in by the acceptance tests; shown after the run so capture can't eat it
acceptance_lines = []


def record_acceptance(line):
    acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def pytest_addoption(parser):
    parser.addoption(
        "--run-mds-w6",
        action="store_true",
        default=False,
        help="run the long minimum-decycling-set census at w=6",
    )
    parser.addoption(
        "--run-mds-w7",
        action="store_true",
        default=False,
        help="run the long minimum-decycling-set census at w=7",
    )


@pytest.fixture(scope="session")
def mds_w6(request):
    if not request.config.getoption("--run-mds-w6"):
        pytest.skip("needs --run-mds-w6 (takes ~20 s)")
    from uhspath.mds import enumerate_mds

    return enumerate_mds(2, 6)


@pytest.fixture(scope="session")
def mds_w7(request):
    if not request.config.getoption("--run-mds-w7"):
        pytest.skip("needs --run-mds-w7 (takes several minutes)")
    from uhspath.mds import enumerate_mds

    return enumerate_mds(2, 7)
