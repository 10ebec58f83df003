import pytest

from dcxsim.cli import main


@pytest.fixture
def invoke(capsys):
    """Run ``main(argv)`` as the shell would; return its exit code and its
    stdout followed by its stderr."""

    def run(argv):
        capsys.readouterr()
        try:
            main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out + err

    return run
