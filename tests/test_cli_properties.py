"""Property test of the command line: every configuration runs, or says why.

``cli.main`` runs ``run``, ``verify``, ``rates`` and ``toy`` at tiny sizes
(N <= 6, P <= 8, K <= 5) with lam, gamma and delta over 1e-12 to 1e12,
``--cond`` up to 1e14 and toy's u up to 1e300, warnings turned into errors.
Each must return a documented exit code (0 success, 1 a failed verification
or an aborted cell, 2 bad input, 3 a numerical failure) without raising,
and ``run`` must exit 1 exactly when it prints an ``aborted`` line.
"""

import contextlib
import io
import tempfile
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from valgrad.cli import main  # noqa: E402

# reproducible draws, and no example database left in the working tree
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

PROBLEMS = ("f1", "f2", "f3", "f4")


def log_uniform(lo: float, hi: float):
    """Floats 10^e with e uniform in [lo, hi], as command-line text."""
    return st.floats(lo, hi).map(lambda e: repr(10.0 ** e))


@st.composite
def cell_flags(draw):
    """The flags ``run``, ``verify`` and ``rates`` share."""
    return [
        "--n", str(draw(st.integers(1, 6))),
        "--seed", str(draw(st.integers(0, 10**6))),
        "--cond", draw(log_uniform(0.0, 14.0)),
        "--lam", draw(log_uniform(-12.0, 12.0)),
        "--gamma", draw(log_uniform(-12.0, 12.0)),
        "--delta", draw(log_uniform(-12.0, 12.0)),
    ]


@st.composite
def command_lines(draw, command):
    """One command line of ``command``."""
    iters = ["--iters", str(draw(st.integers(0, 5)))]
    if command == "toy":
        return ["toy", "--u", draw(log_uniform(-12.0, 300.0)), *iters]
    argv = [command, *draw(cell_flags())]
    if command == "run":
        ps = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
        problems = draw(st.lists(st.sampled_from(PROBLEMS), min_size=1, max_size=4,
                                 unique=True))
        return argv + ["--p", ",".join(map(str, ps)), "--problems", ",".join(problems),
                       "--inertia", draw(st.sampled_from(("both", "on", "off"))), *iters]
    argv += ["--problem", draw(st.sampled_from(PROBLEMS)), "--p", str(draw(st.integers(1, 8)))]
    if command == "verify":
        return argv + iters
    return argv + (["--identity"] if draw(st.booleans()) else [])


def run_main(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, warnings as errors; an
    argparse rejection counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check(argv):
    """``main(argv)`` exits with a documented code, and ``run`` with 1
    exactly when it prints an ``aborted`` line."""
    with tempfile.TemporaryDirectory() as out_dir:
        if argv[0] == "run":
            argv = [*argv, "--out", out_dir]
        code, out, err = run_main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if argv[0] == "run":
        aborted = any(line.startswith("aborted ") for line in out.splitlines())
        assert (code == 1) == aborted, (argv, code, out)


@PROPERTY
@given(command_lines("run"))
def test_run_exits_with_a_documented_code(argv):
    check(argv)


@pytest.mark.parametrize("command", ["verify", "rates", "toy"])
@PROPERTY
@given(data=st.data())
def test_every_other_command_exits_with_a_documented_code(command, data):
    check(data.draw(command_lines(command), label="argv"))
