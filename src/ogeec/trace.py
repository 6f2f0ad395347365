"""Wall seconds per pipeline layer, in one record that `cli.main` clears
before each command and prints after one that succeeds. Each layer runs
inside `span`, as a `with` block or a decorator: `embed_s`, `search_s`,
`propagate_s` and `metrics_s`. Spans open only on the main thread, around
any worker threads, so the record takes no lock."""

import contextlib
import time

seconds: dict[str, float] = {}


@contextlib.contextmanager
def span(name: str):
    """Add the block's wall time to seconds[name]; a block that raises adds none."""
    start = time.perf_counter()
    yield
    seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start
