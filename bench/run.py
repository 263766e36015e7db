"""Host-time benchmark of gaslab's chain driver.

    python3 bench/run.py                 # every workload, untraced then traced
    python3 bench/run.py --workload grow --seed 5 --seconds 10 --trace 0

Each workload drives `gaslab.chain.run_chain` under the wall clock in a
closed loop: one single-threaded process pinned to one CPU imports each
block only after the previous one has finished. Every repeat runs in a
fresh process (`repeat.py`), so set-up time covers interpreter start,
imports and genesis. An untraced run (`--trace 0`) makes three repeats and
reports the end-to-end metrics, with block times scaled to a nominal host
speed by a probe timed between blocks (`hostspeed.py`); a traced run
(`--trace 1`) makes one untraced and one traced repeat of the same blocks
and reports the per-layer metrics, taken from outside by `tracer.py`.

Every run checks the program's outputs (see `check` in `repeat.py` and
`cross_check` here); a traced run also checks that `SLOAD` still walks the
trie (`mechanism_guard`). A failed check prints the result with
`"correct": false` and exits 1. The last line of standard output is one
JSON object: `correct`, `attempted` and `failed` (transactions) and
`metrics`. `NOTES.md` maps each metric to the layer and workload it
follows.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SHIPPED = REPO / "src" / "gaslab" / "data" / "workloads"
OUT = REPO / ".bench_out"


@dataclass(frozen=True)
class Workload:
    spec: Path
    # Nominal import rate on a 2-vCPU Xeon host. It only sizes a repeat:
    # a constant, so that the block count, and with it the final root,
    # never depends on the speed of the host.
    blocks_per_s: int
    same_keys: bool        # no storage writes, so the key count must hold
    reads_rise: bool = False   # the state grows, so lookups must deepen
    min_reads_per_get: float | None = None   # lookups walk a deep trie


WORKLOADS = {
    # Interpreter, generator and sink; 19 keys that never change.
    "compute": Workload(SHIPPED / "add_only.json", 1900, True),
    # The acceptance workload: reads beside writes, ~0.75 new keys a block.
    "grow": Workload(SHIPPED / "sload_heavy.json", 290, False,
                     reads_rise=True),
    # Lookups alone over 4096 prefilled keys; genesis dominates set-up.
    # Its trie is 4-5 levels deep, so a lookup reads at least 4 nodes.
    "read": Workload(BENCH / "read.json", 360, True, min_reads_per_get=4.0),
}
REPEATS = 3
WINDOWS = 4
DEADLINE_S = 170

END_TO_END = {
    "blocks_per_s": "blocks/s",
    "block_ms_p50": "ms",
    "block_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "keccak.calls": "count",
    "keccak.bytes": "B",
    "keccak.self_s": "s",
    "keccak.calls_per_insert": "calls/insert",
    "rlp.encode.calls": "count",
    "rlp.encode.self_s": "s",
    "rlp.decode.calls": "count",
    "rlp.decode.self_s": "s",
    "trie.insert.calls": "count",
    "trie.insert.self_s": "s",
    "trie.insert.ms_p50": "ms",
    "trie.get.calls": "count",
    "trie.get.self_s": "s",
    "trie.get.us_p50": "us",
    "trie.get.node_reads_per_get": "reads/get",
    "trie.get.node_reads_per_get.first": "reads/get",
    "trie.get.node_reads_per_get.last": "reads/get",
    "trie.get.node_reads_per_sload": "reads/SLOAD",
    "trie.store.reads": "count",
    "trie.store.writes": "count",
    "trie.store.write_bytes": "B",
    "trie.store.self_s": "s",
    "trie.store.nodes": "count",
    "trie.store.live_frac": "ratio",
    "evm.tx.calls": "count",
    "evm.tx.self_s": "s",
    "evm.tx.failed": "count",
    "evm.instructions": "count",
    "evm.ns_per_instruction": "ns",
    "clock.now_ns.calls": "count",
    "clock.now_ns.ns_per_call": "ns",
    "metrics.record.calls": "count",
    "metrics.record.self_s": "s",
    "chain.self_s": "s",
    "workload.generate_block.self_s": "s",
    "workload.genesis_s": "s",
    "trace.overhead_frac": "ratio",
    "host.probe_ms": "ms",
    "host.timer_ns": "ns",
}
# Self-time split of the block loop, by layer.
SPLIT = {
    "keccak": ("keccak.self_s",),
    "rlp": ("rlp.encode.self_s", "rlp.decode.self_s"),
    "trie": ("trie.get.self_s", "trie.insert.self_s", "trie.store.self_s"),
    "evm": ("evm.tx.self_s",),
    "workload": ("workload.generate_block.self_s",),
    "metrics": ("metrics.record.self_s",),
    "chain": ("chain.self_s",),
}


class RepeatError(RuntimeError):
    """A repeat process failed, timed out or printed no result."""


def probe_ms() -> float:
    """Median of 9 host-speed probes, in ms."""
    return statistics.median(hostspeed.probe_ns() for _ in range(9)) / 1e6


def pin_cpu() -> int | None:
    """Pin this process, and so its repeats, to the last CPU it may use."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def host_facts(cpu: int | None) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    now, calls = time.perf_counter_ns, 100_000
    start = now()
    for _ in range(calls):
        now()
    return {"python": platform.python_version(), "cpu": model,
            "nproc": os.cpu_count(), "affinity": cpu,
            "timer_ns": (now() - start) / calls}


def blocks_per_repeat(workload: Workload, seconds: int) -> int:
    """Blocks per repeat, so that the untraced repeats fill `seconds`."""
    per_repeat = workload.blocks_per_s * seconds / REPEATS
    return max(100, round(per_repeat / 100) * 100)


def run_repeat(workload: Workload, seed: int, blocks: int, mode: str,
               trace_out: Path, deadline: float) -> dict:
    """Run one repeat in a fresh process; `mode` as in `repeat.py`."""
    cmd = [sys.executable, str(BENCH / "repeat.py"), str(workload.spec),
           str(seed), str(blocks), str(max(1, blocks // WINDOWS)), mode]
    cmd += [str(trace_out)] if mode == "trace" else []
    # The same string hashing in every repeat, so dict layouts match.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.perf_counter_ns()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RepeatError(f"repeat timed out after {exc.timeout:.0f} s") \
            from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RepeatError(f"repeat exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = (result["loop_start_ns"] - spawned) / 1e9
    paused = sum(pause for _, _, pause in result["probes"])
    result["loop_s"] = (result["block_end_ns"][-1] - result["loop_start_ns"]
                        - paused) / 1e9
    return result


def block_times(result: dict, scaled: bool) -> tuple[list, list]:
    """Each block's interval and TOTAL span in ns; when `scaled`, at
    nominal host speed by the probes around it (`hostspeed.py`). The
    interval runs from the previous block's end (or the loop's start) to
    this block's end, less any probe pause in it, so it includes
    generating the block."""
    ends, spans = result["block_end_ns"], result["block_ns"]
    factors = (hostspeed.block_factors(result["probes"], len(ends))
               if scaled else [1] * len(ends))
    intervals = [b - a for a, b in zip([result["loop_start_ns"]] + ends,
                                       ends)]
    for done, _, pause in result["probes"]:
        if done < len(ends):
            intervals[done] -= pause
    return ([t / f for t, f in zip(intervals, factors)],
            [t / f for t, f in zip(spans, factors)])


def cross_check(name: str, workload: Workload, seed: int, blocks: int,
                results: list[dict]) -> tuple[list[str], list[str]]:
    """Checks across repeats and against the frozen reference root."""
    failures = [f"repeat {i}: {msg}"
                for i, r in enumerate(results) for msg in r["failures"]]
    notes = []
    if len({(r["root"], r["instructions"]) for r in results}) != 1:
        failures.append("repeats disagree on the final root or the "
                        "instruction total")
    if workload.same_keys:
        for i, r in enumerate(results):
            if r["final_keys"] != r["initial_keys"]:
                failures.append(f"repeat {i}: key count went from "
                                f"{r['initial_keys']} to {r['final_keys']}")
    if seed == default_seed(workload):
        reference = json.loads((BENCH / "reference.json").read_text())
        root = reference[name]["roots"].get(str(blocks))
        if root is None:
            notes.append(f"no frozen root for {blocks} blocks")
        elif root != results[0]["root"]:
            failures.append(f"final root {results[0]['root']} differs from "
                            f"the frozen reference {root}")
    else:
        notes.append("frozen-root check applies at the default seed only")
    return failures, notes


def mechanism_guard(workload: Workload,
                    windows: dict[str, list[float]]) -> list[str]:
    """`SLOAD` must still walk the trie: node reads track its depth.

    Node reads per `trie.get` catch a lookup that stops reading nodes;
    node reads per `SLOAD` also catch an `SLOAD` that skips `trie.get`.
    """
    failures = []
    floor = workload.min_reads_per_get
    for figure, values in windows.items():
        if workload.reads_rise and not values[-1] > values[0]:
            failures.append(f"{figure} did not rise as the state grew: "
                            f"first window {values[0]:.3f}, "
                            f"last {values[-1]:.3f}")
        if floor is not None and min(values) < floor:
            failures.append(f"{figure} fell below {floor}: "
                            f"{[round(v, 3) for v in values]}")
    return failures


def default_seed(workload: Workload) -> int:
    return json.loads(workload.spec.read_text())["seed"]


def percentile(ordered: list[int], q: float) -> int:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def block_figures(per_repeat: list[tuple[list[float], list[float]]]) -> dict:
    """Loop rate and TOTAL-span percentiles from (intervals, spans) in ns.

    `block_ms_p99` is printed but is no metric: the blocks past it are
    not the same blocks from one repeat of a seed to the next, and across
    runs it moved with the host's rate of interruptions (see NOTES.md).
    """
    spans = sorted(ns for _, repeat in per_repeat for ns in repeat)
    return {
        "blocks_per_s": statistics.median(
            len(intervals) / sum(intervals) * 1e9
            for intervals, _ in per_repeat),
        **{f"block_ms_p{q}": percentile(spans, q / 100) / 1e6
           for q in (50, 90, 99)},
    }


def end_to_end(results: list[dict]) -> tuple[dict, dict, dict]:
    """End-to-end metrics over untraced repeats, with their sample counts,
    and the same block figures before host-speed scaling."""
    blocks = sum(len(r["block_ns"]) for r in results)
    raw = block_figures([block_times(r, False) for r in results])
    values = {
        **block_figures([block_times(r, True) for r in results]),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    probes = sum(len(r["probes"]) for r in results)
    samples = {"blocks_per_s": f"median of {len(results)} repeats, "
                               f"{blocks} blocks",
               "block_ms_p50": f"{blocks} blocks",
               "block_ms_p90": f"{blocks} blocks, {blocks // 10} beyond",
               "block_ms_p99": f"{blocks} blocks, {blocks // 100} beyond; "
                               f"printed only",
               "setup_s": f"median of {len(results)} repeats",
               "peak_rss_mb": f"median of {len(results)} repeats"}
    for key in raw:
        samples[key] += f"; at nominal host speed, {probes} probes"
    return values, samples, raw


def run_workload(name: str, seed: int | None, seconds: int, trace: bool,
                 facts: dict) -> dict:
    workload = WORKLOADS[name]
    seed = default_seed(workload) if seed is None else seed
    blocks = blocks_per_repeat(workload, seconds)
    deadline = time.monotonic() + DEADLINE_S
    modes = ["plain", "trace"] if trace else ["probe"] * REPEATS
    OUT.mkdir(exist_ok=True)
    trace_out = OUT / f"trace-{name}-{seed}.bin"
    results, probes = [], []
    for mode in modes:
        probes.append(probe_ms())
        results.append(run_repeat(workload, seed, blocks, mode, trace_out,
                                  deadline))
        probes.append(probe_ms())

    failures, notes = cross_check(name, workload, seed, blocks, results)
    attempted = sum(r["transactions"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"== {name}: seed {seed}, {blocks} blocks x {len(results)} "
          f"repeats, trace {int(trace)}")
    print(f"   host: Python {facts['python']}, {facts['cpu']}, nproc "
          f"{facts['nproc']}, pinned to CPU {facts['affinity']}, "
          f"perf_counter_ns {facts['timer_ns']:.1f} ns, probe before/after "
          f"each repeat {' '.join(f'{p:.1f}' for p in probes)} ms")
    print(f"   transactions: {failed} failed of {attempted} attempted "
          f"(tx_fail_ratio {failed / attempted})")

    if trace:
        plain, traced = results
        layers = traced["layers"]
        windows = layers.pop("guard_windows")
        failures += mechanism_guard(workload, windows)
        layers["trace.overhead_frac"] = traced["loop_s"] / plain["loop_s"] - 1
        layers["host.probe_ms"] = statistics.median(probes)
        layers["host.timer_ns"] = facts["timer_ns"]
        metrics = {k: (layers[k], unit) for k, unit in PER_LAYER.items()}
        split = {layer: sum(layers[k] for k in keys)
                 for layer, keys in SPLIT.items()}
        total = sum(split.values())
        for figure, values in windows.items():
            print(f"   {figure} by window: "
                  f"{' '.join(f'{v:.3f}' for v in values)}")
        print("   self-time split of the traced block loop: " + ", ".join(
            f"{layer} {share / total:.1%}" for layer, share in
            sorted(split.items(), key=lambda kv: -kv[1])))
        print(f"   set-up: untraced {plain['setup_s']:.3f} s, traced genesis "
              f"{layers['workload.genesis_s']:.3f} s")
        for key, (value, unit) in metrics.items():
            print(f"   {key:34s} {value:>16.6g} {unit}")
    else:
        values, samples, raw = end_to_end(results)
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        for key, (value, unit) in [*metrics.items(),
                                   ("block_ms_p99", (values["block_ms_p99"],
                                                     "ms"))]:
            print(f"   {key:14s} {value:>12.6g} {unit:8s} ({samples[key]})")
        print("   before host-speed scaling: " + ", ".join(
            f"{key} {value:.6g}" for key, value in raw.items()))
    for note in notes:
        print(f"   note: {note}")
    print("   checks: " + ("ok" if not failures else "FAILED"))
    for failure in failures:
        print(f"   FAILED: {failure}")
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload, "
                             "untraced then traced)")
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the spec's own seed)")
    parser.add_argument("--seconds", type=int, default=15,
                        help="seconds of untraced block import per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (REPO / "src" / "gaslab" / "__init__.py").is_file():
        print(f"gaslab sources not found under {REPO / 'src'}",
              file=sys.stderr)
        return 2

    facts = host_facts(pin_cpu())
    if args.workload:
        runs = [(args.workload, bool(args.trace))]
    else:
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    outcomes = {}
    try:
        for name, trace in runs:
            outcomes[(name, trace)] = run_workload(name, args.seed,
                                                   args.seconds, trace, facts)
    except RepeatError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if args.workload:
        outcome = outcomes[runs[0]]
    else:
        outcome = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{name}.{key}": value
                        for (name, trace), o in outcomes.items() if not trace
                        for key, value in o["metrics"].items()},
        }
    outcome["metrics"] = {key: {"value": value, "unit": unit}
                          for key, (value, unit) in outcome["metrics"].items()}
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
