"""Outside-in span tracer for one benchmark repeat.

The tracer wraps the public functions of each gaslab layer at the place
where their callers look them up (for example `gaslab.trie.keccak_256`,
`gaslab.chain.execute_transaction`, `NodeStore.get`), so the program under
test is not edited. Every wrapped call records one span: its name, start,
end and the index of the enclosing span. Spans stay in memory in flat
arrays and are summarised, and optionally written out, when the run ends.

`gaslab.trie` reaches RLP through its module attribute `rlp`; that
attribute is swapped for a namespace of wrapped functions, so the
recursion inside `gaslab.rlp.encode` is not traced and only the outermost
call of each encode counts. `WallClock.now_ns` runs twice per instruction,
so it gets a bare call counter instead of a span; its cost per call comes
from a separate calibration loop.
"""

from __future__ import annotations

import time
import types
from array import array
from bisect import bisect_right

import gaslab.chain
import gaslab.rlp
import gaslab.trie
from gaslab.clock import WallClock
from gaslab.evm.machine import TxStatus
from gaslab.metrics import SampleSink
from gaslab.trie import MerklePatriciaTrie, NodeStore, hex_prefix_decode
from gaslab.workload import WorkloadGenerator

SPAN_NAMES = (
    "chain", "workload.genesis", "workload.generate_block", "evm.tx",
    "trie.get", "trie.insert", "trie.store.get", "trie.store.put",
    "rlp.encode", "rlp.decode", "keccak", "metrics.record",
)


class Tracer:
    """Records spans around gaslab's layer boundaries while installed."""

    def __init__(self) -> None:
        self.start = array("q")
        self.end = array("q")
        self.name = array("B")
        self.parent = array("i")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        # Counts made outside spans; `at_genesis_end` is their value when
        # genesis returned, so the block loop's share is the difference.
        self.counts = dict.fromkeys(
            ("clock_calls", "keccak_bytes", "write_bytes", "instructions",
             "tx_failed"), 0)
        self.at_genesis_end = dict(self.counts)
        self.trie: MerklePatriciaTrie | None = None

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """`fn` made to record one span per call, then call `observe`."""
        nid = SPAN_NAMES.index(name)
        starts, ends, names, parents = (self.start, self.end, self.name,
                                        self.parent)
        stack = self._stack
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        saved = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, saved))
        setattr(owner, attr, replacement)

    # -- observers ------------------------------------------------------------

    def _on_keccak(self, args, _result) -> None:
        self.counts["keccak_bytes"] += len(args[0])

    def _on_put(self, args, _result) -> None:
        self.counts["write_bytes"] += len(args[2])

    def _on_tx(self, _args, receipt) -> None:
        self.counts["instructions"] += receipt.instructions
        if receipt.status is not TxStatus.SUCCESS:
            self.counts["tx_failed"] += 1

    def _on_genesis(self, args, _result) -> None:
        self.trie = args[1]
        self.at_genesis_end = dict(self.counts)

    def loop_counts(self) -> dict[str, int]:
        return {k: v - self.at_genesis_end[k] for k, v in self.counts.items()}

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        wrap = self.wrap
        self._patch(gaslab.trie, "keccak_256",
                    wrap("keccak", gaslab.trie.keccak_256, self._on_keccak))
        self._patch(gaslab.trie, "rlp", types.SimpleNamespace(
            encode=wrap("rlp.encode", gaslab.rlp.encode),
            decode=wrap("rlp.decode", gaslab.rlp.decode),
            RlpItem=gaslab.rlp.RlpItem))
        for cls, attr, name, observe in (
                (MerklePatriciaTrie, "get", "trie.get", None),
                (MerklePatriciaTrie, "insert", "trie.insert", None),
                (NodeStore, "get", "trie.store.get", None),
                (NodeStore, "put", "trie.store.put", self._on_put),
                (WorkloadGenerator, "write_genesis", "workload.genesis",
                 self._on_genesis),
                (WorkloadGenerator, "generate_block",
                 "workload.generate_block", None),
                (SampleSink, "record_span", "metrics.record", None),
                (SampleSink, "record_instruction_totals", "metrics.record",
                 None)):
            self._patch(cls, attr, wrap(name, getattr(cls, attr), observe))
        self._patch(gaslab.chain, "execute_transaction",
                    wrap("evm.tx", gaslab.chain.execute_transaction,
                         self._on_tx))

        clock_now = WallClock.now_ns
        counts = self.counts

        def counted_now_ns() -> int:
            counts["clock_calls"] += 1
            return clock_now()
        self._patch(WallClock, "now_ns", staticmethod(counted_now_ns))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, saved = self._undo.pop()
            setattr(owner, attr, saved)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Write the span arrays: a header line, then name, parent, start
        and end, each as one native-endian array of the header's length."""
        with open(path, "wb") as fp:
            fp.write(f"{len(self.name)} {','.join(SPAN_NAMES)}\n".encode())
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fp)


def clock_ns_per_call(calls: int = 200_000) -> float:
    """Mean cost of one `WallClock.now_ns()` call, loop included."""
    now = WallClock.now_ns
    start = time.perf_counter_ns()
    for _ in range(calls):
        now()
    return (time.perf_counter_ns() - start) / calls


def reachable_nodes(trie: MerklePatriciaTrie) -> int:
    """Count the stored (hash-referenced) nodes reachable from the root."""
    store = trie.store
    seen: set[bytes] = set()
    pending: list = [trie.root_hash()]
    while pending:
        ref = pending.pop()
        if isinstance(ref, bytes):
            if ref == b"" or ref in seen:
                continue
            try:
                node = gaslab.rlp.decode(store.get(ref))
            except KeyError:   # the empty root is never stored
                continue
            seen.add(ref)
        else:
            node = ref
        if len(node) == 17:
            pending.extend(node[:16])
        elif not hex_prefix_decode(node[0])[1]:
            pending.append(node[1])  # extension; a leaf holds a value
    return len(seen)


def _median(values: list[int]) -> float:
    ordered = sorted(values)
    return float(ordered[len(ordered) // 2]) if ordered else 0.0


def summarize(tracer: Tracer, loop_end: int, window_blocks: int,
              sloads: list[int]) -> dict:
    """Per-layer metrics of the block loop, from the recorded spans.

    The loop starts with block 0's generation and ends at `loop_end`, the
    end of the last block's TOTAL span. A span belongs to the loop when it
    starts inside it; each generation start opens a block, so a span's
    window follows from its start time. `sloads` holds the `SLOAD` count of
    each window, for node reads per `SLOAD`.
    """
    names, parents = tracer.name, tracer.parent
    starts, ends = tracer.start, tracer.end
    n = len(names)
    ids = {name: i for i, name in enumerate(SPAN_NAMES)}
    block_starts = [starts[i] for i in range(n)
                    if names[i] == ids["workload.generate_block"]]
    loop_start = block_starts[0]
    child = [0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += ends[i] - starts[i]

    calls = [0] * len(SPAN_NAMES)
    self_ns = [0] * len(SPAN_NAMES)
    get_us: list[int] = []
    insert_ns: list[int] = []
    windows = -(-len(block_starts) // window_blocks)
    gets = [0] * windows
    get_reads = [0] * windows
    top_level_ns = 0   # loop time covered by spans the chain calls
    get_id, read_id = ids["trie.get"], ids["trie.store.get"]
    for i in range(n):
        if starts[i] < loop_start:
            continue
        nid, dur = names[i], ends[i] - starts[i]
        calls[nid] += 1
        self_ns[nid] += dur - child[i]
        if names[parents[i]] == ids["chain"]:
            top_level_ns += dur
        if nid == get_id:
            get_us.append(dur)
            gets[(bisect_right(block_starts, starts[i]) - 1)
                 // window_blocks] += 1
        elif nid == read_id and names[parents[i]] == get_id:
            get_reads[(bisect_right(block_starts, starts[parents[i]]) - 1)
                      // window_blocks] += 1
        elif nid == ids["trie.insert"]:
            insert_ns.append(dur)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    c = dict(zip(SPAN_NAMES, calls))
    self_s = {name: ns / 1e9 for name, ns in zip(SPAN_NAMES, self_ns)}
    counts = tracer.loop_counts()
    store = tracer.trie.store
    genesis_ns = sum(ends[i] - starts[i] for i in range(n)
                     if names[i] == ids["workload.genesis"])
    return {
        "keccak.calls": c["keccak"],
        "keccak.bytes": counts["keccak_bytes"],
        "keccak.self_s": self_s["keccak"],
        "keccak.calls_per_insert": ratio(c["keccak"], c["trie.insert"]),
        "rlp.encode.calls": c["rlp.encode"],
        "rlp.encode.self_s": self_s["rlp.encode"],
        "rlp.decode.calls": c["rlp.decode"],
        "rlp.decode.self_s": self_s["rlp.decode"],
        "trie.insert.calls": c["trie.insert"],
        "trie.insert.self_s": self_s["trie.insert"],
        "trie.insert.ms_p50": _median(insert_ns) / 1e6,
        "trie.get.calls": c["trie.get"],
        "trie.get.self_s": self_s["trie.get"],
        "trie.get.us_p50": _median(get_us) / 1e3,
        "trie.get.node_reads_per_get": ratio(sum(get_reads), sum(gets)),
        "trie.get.node_reads_per_get.first": ratio(get_reads[0], gets[0]),
        "trie.get.node_reads_per_get.last": ratio(get_reads[-1], gets[-1]),
        "trie.get.node_reads_per_sload": ratio(sum(get_reads), sum(sloads)),
        "trie.store.reads": c["trie.store.get"],
        "trie.store.writes": c["trie.store.put"],
        "trie.store.write_bytes": counts["write_bytes"],
        "trie.store.self_s": (self_s["trie.store.get"]
                              + self_s["trie.store.put"]),
        "trie.store.nodes": len(store),
        "trie.store.live_frac": reachable_nodes(tracer.trie) / len(store),
        "evm.tx.calls": c["evm.tx"],
        "evm.tx.self_s": self_s["evm.tx"],
        "evm.tx.failed": counts["tx_failed"],
        "evm.instructions": counts["instructions"],
        "evm.ns_per_instruction": (self_ns[ids["evm.tx"]]
                                   / max(counts["instructions"], 1)),
        "clock.now_ns.calls": counts["clock_calls"],
        "metrics.record.calls": c["metrics.record"],
        "metrics.record.self_s": self_s["metrics.record"],
        "chain.self_s": (loop_end - loop_start - top_level_ns) / 1e9,
        "workload.generate_block.self_s": self_s["workload.generate_block"],
        "workload.genesis_s": genesis_ns / 1e9,
        "guard_windows": {
            "node reads per get": [ratio(r, g)
                                   for r, g in zip(get_reads, gets)],
            "node reads per SLOAD": [ratio(r, n)
                                     for r, n in zip(get_reads, sloads)],
        },
    }
