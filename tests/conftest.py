import bisect
import importlib
import signal

import pytest

import jetsplit.expr
import jetsplit.ift
import jetsplit.jacobian
import jetsplit.jet

# the package re-exports a function named like this module
split_module = importlib.import_module("jetsplit.split")

# a test that runs this long fails instead of hanging the suite
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Raise TimeoutError in a test once it has run ``TEST_TIME_LIMIT_S``;
    nothing where the platform has no SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test not done within {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def kernel_work(monkeypatch):
    """A function that starts counting, for the rest of the test, the calls of
    ``jet._product_into`` and the term pairs they multiply, those whose key
    sum is below the limit, and the products that took the Kronecker route
    (``jet._kronecker_into``, every caller's); it returns the live counts.

    ``calls`` and ``pairs`` count the calls made through the ``jet`` module
    (substitution and every ``_packed_product``, the parser's powers
    included, and ``Jet.__mul__``) and through the name ``split`` imports
    (the Taylor step of split's last pass), and the power tables' squares
    (``jet._square_into``, each unordered pair once); ``ift_calls``/``ift_pairs`` and
    ``expr_calls``/``expr_pairs`` those made through the names that ``ift``
    (Newton's matrix products) and ``expr`` (the parser's sums) import."""
    def start():
        counts = {"calls": 0, "pairs": 0, "ift_calls": 0, "ift_pairs": 0,
                  "expr_calls": 0, "expr_pairs": 0, "kronecker": 0}
        kernel = jetsplit.jet._product_into
        route = jetsplit.jet._kronecker_into

        def counted(prefix):
            def call(out, a, b, limit, add, mul, packing=None):
                counts[prefix + "calls"] += 1
                keys = [kb for kb, _ in b]
                for ka, _ in a:
                    within = bisect.bisect_left(keys, limit - ka)
                    if not within:
                        break
                    counts[prefix + "pairs"] += within
                kernel(out, a, b, limit, add, mul, packing)
            return call

        square = jetsplit.jet._square_into

        def squared(out, a, limit):
            counts["calls"] += 1
            keys = [k for k, _ in a]
            for i, k in enumerate(keys):
                if k + k >= limit:
                    break
                counts["pairs"] += bisect.bisect_left(keys, limit - k) - i
            square(out, a, limit)

        def routed(*args):
            taken = route(*args)
            counts["kronecker"] += taken
            return taken

        for module, prefix in ((jetsplit.jet, ""), (split_module, ""), (jetsplit.ift, "ift_"),
                               (jetsplit.expr, "expr_")):
            monkeypatch.setattr(module, "_product_into", counted(prefix))
        monkeypatch.setattr(jetsplit.jet, "_square_into", squared)
        monkeypatch.setattr(jetsplit.jet, "_kronecker_into", routed)
        return counts
    return start


@pytest.fixture
def token_loop(monkeypatch):
    """A function that starts counting, for the rest of the test, the texts
    that the parser's token loop (``expr._Evaluator.run``) reads: every text
    that the flat-sum reader hands back; it returns the live count."""
    def start():
        counts = {"entries": 0}
        run = jetsplit.expr._Evaluator.run

        def counted(self, text):
            counts["entries"] += 1
            return run(self, text)

        monkeypatch.setattr(jetsplit.expr._Evaluator, "run", counted)
        return counts
    return start


@pytest.fixture
def echelon_work(monkeypatch):
    """A function that starts recording, for the rest of the test, every
    ``jacobian._Echelon`` built (the searches' and the verifiers'); it returns
    a function that sums their ``offered`` rows and elimination ``steps``."""
    def start():
        built = []
        init = jetsplit.jacobian._Echelon.__init__

        def recorded(self, *args):
            init(self, *args)
            built.append(self)

        monkeypatch.setattr(jetsplit.jacobian._Echelon, "__init__", recorded)
        return lambda: {name: sum(getattr(ech, name) for ech in built)
                        for name in ("offered", "steps")}
    return start
