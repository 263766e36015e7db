"""The benchmark's span tracer still installs on, and uninstalls from, the
program: a refactor of the names it patches would break traced bench runs.
"""

from pathlib import Path

from gaslab import SampleSink, default_schedule, load_workload, run_chain
from gaslab.clock import WallClock
from gaslab.evm.machine import TxStatus

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = Path(__file__).resolve().parent.parent / "src" / "gaslab" / \
    "data" / "workloads"
BLOCKS = 20
# Clock reads outside instructions. Per block: the TOTAL start, VERIFY
# start and end, the IMPORT start, the finalize DB span's start and end,
# and the end read IMPORT and TOTAL share. Per committed transaction: TX
# start, EVM start and end, TX end, and the commit's DB start and end.
READS_PER_BLOCK = 7
READS_PER_TX = 6
# record_span per block: VERIFY, DB, IMPORT, TOTAL; per committed
# transaction: EVM, TX and DB. Instruction samples go straight into the
# sink's open window, with no record call.
RECORDS_PER_BLOCK = 4
RECORDS_PER_TX = 3


def test_tracer_installs_counts_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer as bench_tracer

    clock_before = WallClock.__dict__["now_ns"]
    merge_before = SampleSink.record_instruction_totals
    spec = load_workload(WORKLOADS / "add_only.json")
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        report = tracer.wrap("chain", run_chain)(
            spec, BLOCKS, default_schedule(), window_size=5,
            sink=SampleSink(0))
    finally:
        tracer.uninstall()

    assert WallClock.__dict__["now_ns"] is clock_before
    assert SampleSink.record_instruction_totals is merge_before

    receipts = report.receipts
    assert receipts and all(r.status == TxStatus.SUCCESS
                            for r in receipts)
    counts = tracer.loop_counts()
    assert counts["instructions"] == sum(r.instructions for r in receipts)
    assert counts["clock_calls"] == (2 * counts["instructions"]
                                     + READS_PER_TX * len(receipts)
                                     + READS_PER_BLOCK * BLOCKS)
    record = bench_tracer.SPAN_NAMES.index("metrics.record")
    assert list(tracer.name).count(record) == (
        RECORDS_PER_TX * len(receipts) + RECORDS_PER_BLOCK * BLOCKS)


def test_tracer_sees_every_hash_and_write_of_the_commit(monkeypatch):
    # The commit, native or not, must hash and store each node through
    # `gaslab.trie.keccak_256` and `NodeStore.put`, where the tracer wraps
    # them: every keccak span is a key's first path hash (later ones come
    # from the key-path cache) or the digest of a stored node.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer as bench_tracer

    spec = load_workload(WORKLOADS / "sload_heavy.json")
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        tracer.wrap("chain", run_chain)(spec, 30, default_schedule(),
                                        window_size=10, sink=SampleSink(0))
    finally:
        tracer.uninstall()

    def spans(name):
        return list(tracer.name).count(bench_tracer.SPAN_NAMES.index(name))

    trie = tracer.trie
    puts = spans("trie.store.put")
    assert puts == trie.store.work.node_writes > 250   # genesis and blocks
    assert spans("keccak") == len(trie._key_path_cache) + puts
    assert spans("rlp.encode") >= puts
