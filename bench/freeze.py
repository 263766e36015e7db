"""Regenerate `reference.json`, the frozen final state roots.

    python3 bench/freeze.py

For each workload at its spec's own seed, records the state root after
every block count that `run.py --seconds 1..60` can ask for. One chain run
per workload covers them all: the root after b blocks is read when block b
is generated. The roots pin the program's behaviour, so regenerate them
only when a change is meant to alter what the chain computes.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from run import BENCH, REPO, WORKLOADS, blocks_per_repeat, default_seed

sys.path.insert(0, str(REPO / "src"))

from gaslab import default_schedule, load_workload, run_chain  # noqa: E402
from gaslab.workload import WorkloadGenerator  # noqa: E402


def roots_after(spec, counts: set[int]) -> dict[str, str]:
    trie_of = {}
    roots = {}
    write_genesis = WorkloadGenerator.write_genesis
    generate_block = WorkloadGenerator.generate_block

    def genesis(self, trie):
        trie_of["trie"] = trie
        write_genesis(self, trie)

    def generate(self, height):
        if height in counts:
            roots[str(height)] = trie_of["trie"].root_hash().hex()
        return generate_block(self, height)

    WorkloadGenerator.write_genesis = genesis
    WorkloadGenerator.generate_block = generate
    try:
        report = run_chain(spec, max(counts), default_schedule())
    finally:
        WorkloadGenerator.write_genesis = write_genesis
        WorkloadGenerator.generate_block = generate_block
    roots[str(max(counts))] = report.final_root.hex()
    return dict(sorted(roots.items(), key=lambda kv: int(kv[0])))


def main() -> None:
    reference = {}
    for name, workload in WORKLOADS.items():
        seed = default_seed(workload)
        spec = dataclasses.replace(load_workload(workload.spec), seed=seed)
        counts = {blocks_per_repeat(workload, s) for s in range(1, 61)}
        reference[name] = {"seed": seed, "roots": roots_after(spec, counts)}
        print(f"{name}: {len(counts)} roots up to {max(counts)} blocks",
              file=sys.stderr)
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
