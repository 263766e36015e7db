"""One repeat of one benchmark workload, run in a fresh process.

Usage: python3 bench/repeat.py SPEC SEED BLOCKS WINDOW MODE [TRACE_OUT]

Builds the world state (genesis) and imports BLOCKS blocks through
`gaslab.chain.run_chain` under the wall clock, then checks the run's own
outputs and prints one JSON object: block timings, final root,
instruction total, failed checks and, when MODE is `trace`, per-layer
metrics. MODE `probe` also times the host-speed probe (`hostspeed.py`)
between blocks; MODE `plain` does neither.
The parent (`run.py`) pins the CPU and measures set-up from the moment it
starts this process.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import gaslab  # noqa: E402
import hostspeed  # noqa: E402
from gaslab import (MacroCategory, SampleSink, default_schedule,  # noqa: E402
                    load_workload, run_chain)


class BlockTimer(SampleSink):
    """A normal sink that also keeps each block's TOTAL span and its end.

    With `probe` set it runs the host-speed probe after a block ends, once
    every `hostspeed.EVERY_NS` of loop time, and keeps (blocks done, probe
    ns, pause ns) for each: the pause runs from that block's end to the
    probe's return, and belongs to no block.
    """

    def __init__(self, probe: bool) -> None:
        super().__init__(0)
        self.ends: list[int] = []
        self.durations: list[int] = []
        self.probes: list[tuple[int, int, int]] = []
        self.probe_at = 0 if probe else None

    def record_span(self, category, duration_ns):
        if category is not MacroCategory.TOTAL:
            super().record_span(category, duration_ns)
            return
        end = time.perf_counter_ns()
        self.ends.append(end)
        self.durations.append(duration_ns)
        super().record_span(category, duration_ns)
        if self.probe_at is not None and end >= self.probe_at:
            probe = hostspeed.probe_ns()
            resumed = time.perf_counter_ns()
            self.probes.append((len(self.ends), probe, resumed - end))
            self.probe_at = resumed + hostspeed.EVERY_NS


def check(report, schedule, timer: BlockTimer, blocks: int) -> list[str]:
    """The run's own invariants; returns one message per failed check."""
    failures = []
    receipts = report.receipts
    failed = sum(r.status != "success" for r in receipts)
    if failed:
        failures.append(f"{failed} of {len(receipts)} transactions failed")
    gas_used = sum(r.gas_used for r in receipts)
    expected = (len(receipts) * schedule.intrinsic_gas
                + sum(w.instruction_gas_total() for w in report.windows))
    if gas_used != expected:
        failures.append(f"gas used {gas_used} != txs x intrinsic + "
                        f"instruction gas {expected}")
    if len(timer.durations) != blocks:
        failures.append(f"{len(timer.durations)} TOTAL spans for "
                        f"{blocks} blocks")
    return failures


def main(argv: list[str]) -> int:
    spec_path, seed, blocks, window, mode = argv[:5]
    seed, blocks, window = int(seed), int(blocks), int(window)
    if not Path(gaslab.__file__).resolve().is_relative_to(REPO):
        print(f"gaslab imported from outside the checkout: {gaslab.__file__}",
              file=sys.stderr)
        return 2
    spec = dataclasses.replace(load_workload(spec_path), seed=seed)
    schedule = default_schedule()
    timer = BlockTimer(probe=mode == "probe")

    tracer, run = None, run_chain
    if mode == "trace":
        from tracer import Tracer, clock_ns_per_call, summarize
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("chain", run_chain)
    try:
        report = run(spec, blocks, schedule, window_size=window, sink=timer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "loop_start_ns": timer.ends[0] - timer.durations[0],
        "block_end_ns": timer.ends,
        "block_ns": timer.durations,
        "probes": timer.probes,
        "root": report.final_root.hex(),
        "instructions": sum(r.instructions for r in report.receipts),
        "transactions": len(report.receipts),
        "failed": sum(r.status != "success" for r in report.receipts),
        "initial_keys": report.initial_keys,
        "final_keys": report.final_keys,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "failures": check(report, schedule, timer, blocks),
    }
    if tracer is not None:
        sloads = [w.instructions["SLOAD"].count
                  if "SLOAD" in w.instructions else 0
                  for w in report.windows]
        layers = summarize(tracer, timer.ends[-1], window, sloads)
        layers["clock.now_ns.ns_per_call"] = clock_ns_per_call()
        result["layers"] = layers
        if len(argv) > 5:
            tracer.write(argv[5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
