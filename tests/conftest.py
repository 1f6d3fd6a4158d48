import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="mfgibbs-hypothesis-")


def pytest_configure(config):
    # Hypothesis caches what it reads from local modules in its home directory,
    # ./.hypothesis by default, while it collects; keep that out of the tree
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    _HYPOTHESIS_HOME.cleanup()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in RESULTS:
        terminalreporter.write_line(line)
