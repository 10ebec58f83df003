import numpy as np
import pytest

from dcxsim.cli import main
from dcxsim.geometry import make_stream
from dcxsim.ordering import decide, replicate


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


def law_verdict(n, *comparisons):
    """The two-sided verdict on whether batch draws (gen, size) -> (size, k)
    that should share a law do.

    Each comparison is (draws, centre, stream): the draws, in (reference,
    other) pairs, run n replications together from stream, and the mean of
    1000 replications of the centre draw from substream 1 centres them.  Per
    pair, the Welch z of the other against the reference on each column's
    mean, its second moment about the centre, and the cross moment of every
    two columns; all z, and their negatives, are decided as one family."""
    z = []
    for draws, centre, stream in comparisons:
        mid = centre(make_stream(1).generator(), 1000).mean(axis=0)
        iu = np.triu_indices(mid.size, 1)

        def reduce(x):
            d = x - mid
            return np.hstack([x, d**2, d[:, iu[0]] * d[:, iu[1]]])

        moms = replicate(draws, reduce, n, stream)
        z += [(b.mean - a.mean) / np.sqrt((a.var + b.var) / n) for a, b in zip(moms[::2], moms[1::2])]
    return decide(np.concatenate(z + [-zz for zz in z]))


def wrap_oracle(w, pts):
    """A coordinate in [lows, highs) as it is; elsewhere the broadcast wrap
    formula, with a coordinate rounded up to highs or past it taken to lows."""
    pts = np.atleast_2d(pts)
    out = w.lows + np.mod(pts - w.lows, w.lengths)
    out = np.where(out >= w.highs, w.lows, out)
    return np.where((pts >= w.lows) & (pts < w.highs), pts, out)
