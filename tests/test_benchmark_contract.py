"""The benchmark's workloads run on this library, untraced and traced.

Each workload of `perfbench/workloads.py` warms up and runs one pass in
process, once as is and once with the span tracer installed, which replaces
public functions by name and counts their arguments (the `ws` of
`ginibre_berezin_array`, the nodes of `berezin_grid(z, ws) -> ndarray`).
Every operation of the pass must succeed and pass its check.  This reads
`perfbench/` and changes nothing there.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_pass_succeeds(name, traced, tmp_path):
    tracer = spans.Tracer() if traced else None
    if traced:
        tracer.install()
    try:
        workload = WORKLOADS[name](1, str(tmp_path), tracer)
        workload.warm_up()
        tally = checks.Tally(tracer)
        workload.run_pass(0, tally)
    finally:
        if traced:
            tracer.uninstall()
    assert tally.attempted > 0
    assert tally.failed == 0, tally.failures
    if traced and name == "ginibre_ward":
        grids = [s for s in tracer.spans if s[3] == "ginibre_exact.ginibre_berezin_array"]
        assert grids and all(s[7]["zeta_points"] > 0 for s in grids)
