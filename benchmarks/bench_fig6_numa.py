"""Fig. 6: two-level parallelization and NUMA-aware placement.

The paper pins one worker team per socket, distributes tile-rows
round-robin over the memory nodes and lets first-touch place the result
with its A tile-row.  This bench runs a real ATMULT per machine size,
records its task trace with the matching round-robin placement, and
replays it through the topology simulator comparing:

* the paper policy (round-robin placement + team pinning) per socket
  count (1, 2, 4) — makespan should shrink with sockets;
* placement-oblivious scheduling (pairs land on arbitrary teams) — A's
  locality is lost, increasing the remote-byte fraction;
* pinning plus work stealing.

Note that even the paper's policy reads B tiles remotely (B is
partitioned by *its* tile-rows); pinning guarantees locality of the A
tile-row and, via first touch, of C.
"""

import pytest

from repro import (
    MultiplyOptions,
    SystemTopology,
    WorkerTeamScheduler,
    atmult,
    build_at_matrix,
    distribute_tile_rows,
)
from repro.bench import format_table

from .conftest import register_report, BENCH_CONFIG, bench_once, selected_keys

KEY = "R3" if "R3" in selected_keys() else next(iter(selected_keys()), "R3")

_RESULTS = {}
_TRACES = {}


def trace_for(matrices, sockets: int):
    """ATMULT task trace under round-robin placement on ``sockets`` nodes."""
    if sockets not in _TRACES:
        topology = SystemTopology(sockets=sockets, cores_per_socket=4)
        # Fresh build: distribute_tile_rows mutates tile placement in
        # place, and the session cache shares matrices across benches.
        at = build_at_matrix(matrices.staged(KEY), BENCH_CONFIG)
        distribute_tile_rows(at, topology)
        _, report = atmult(at, at, options=MultiplyOptions(config=BENCH_CONFIG))
        _TRACES[sockets] = report.tasks
    return _TRACES[sockets]


@pytest.mark.parametrize(
    "label,sockets,pinned,stealing",
    [
        ("paper policy, 1 socket", 1, True, False),
        ("paper policy, 2 sockets", 2, True, False),
        ("paper policy, 4 sockets", 4, True, False),
        ("placement-oblivious, 2 sockets", 2, False, False),
        ("pinned + stealing, 2 sockets", 2, True, True),
    ],
)
def test_schedule(benchmark, matrices, collector, label, sockets, pinned, stealing):
    tasks = trace_for(matrices, sockets)
    topology = SystemTopology(sockets=sockets, cores_per_socket=4)
    scheduler = WorkerTeamScheduler(
        topology, honor_pinning=pinned, work_stealing=stealing
    )
    result, seconds = bench_once(benchmark, lambda: scheduler.run(tasks))
    _RESULTS[label] = result
    collector.record("fig6", label, KEY, result.makespan_seconds)


def test_zz_fig6_report(benchmark, capsys):
    register_report(benchmark)
    rows = [
        [
            label,
            f"{r.makespan_seconds * 1e3:.2f}",
            f"{r.parallel_efficiency:.2f}",
            f"{r.remote_fraction:.2%}",
        ]
        for label, r in _RESULTS.items()
    ]
    with capsys.disabled():
        print()
        print(
            format_table(
                ["policy", "sim. makespan ms", "parallel eff.", "remote bytes"],
                rows,
                title=f"Fig. 6: simulated schedules of the {KEY} ATMULT task trace",
            )
        )
        print(
            "paper shapes: makespan shrinks with socket count; pinning keeps "
            "the A tile-row (and C via first touch) local, so the oblivious "
            "policy reads strictly more bytes remotely"
        )
