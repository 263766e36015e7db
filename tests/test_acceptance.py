"""Acceptance suite: the project's exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. Criteria 3, 7, and 8 share a single 50,000-block
wall-clock simulation (the expensive fixture at the bottom); everything
else is fast. Budgets quoted per criterion are expectations for a
laptop-class machine and are printed alongside the measured time.
"""

import contextlib
import dataclasses
import os
import random
import tempfile
import time
from importlib import resources
from pathlib import Path

import pytest
from _synth import sample_gas_total, synth_series, transaction_samples
from scipy import stats

from gaslab.chain import execute_transaction, run_chain
from gaslab.cli import main as cli_main
from gaslab.evm.schedule import default_schedule, round_gas
from gaslab.metrics import read_windows
from gaslab.model.base import ScalarModel
from gaslab.model.classify import (classify_bh_dependence, classify_opcode,
                                   opcode_table)
from gaslab.model.contract import StandardContract, avg_prog_tpg
from gaslab.model.fit import fit_time_model
from gaslab.model.reprice import propose_gas_model
from gaslab.model.validate import (chi_square_decision,
                                   macro_micro_differences)
from gaslab.report.pipeline import analyze_windows
from gaslab.trie import MerklePatriciaTrie
from gaslab.workload import WorkloadGenerator, WorkloadSpec, load_workload

try:
    import fcntl
except ImportError:  # not POSIX: runs measure without the lock
    fcntl = None

SCHED = default_schedule()
DATA = resources.files("gaslab").joinpath("data")

# Frozen before the build with the independent structural trie oracle
# (see tests/test_trie.py) over the 16 fixture pairs.
FIXTURE_ROOT_SECURE = (
    "48bbe64b524350f564bae2e14effddd1ede0d0762890439a1002178de215c534")


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: "
          f"{'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# criterion 1: trie correctness (budget: < 1 s)
# ---------------------------------------------------------------------------

def test_criterion_1_trie_correctness():
    started = time.perf_counter()
    rng = random.Random(0xC1)

    for sequence in range(1_000):
        secure = sequence % 4 == 0
        pairs = {}
        for _ in range(rng.randrange(1, 4)):
            pairs[rng.randbytes(rng.randrange(1, 4))] = rng.randbytes(4)
        extra_key = b"x" + rng.randbytes(2)
        while extra_key in pairs:
            extra_key = b"x" + rng.randbytes(2)

        items = list(pairs.items())
        first = MerklePatriciaTrie(secure=secure)
        for key, value in items:
            first.insert(key, value)

        rng.shuffle(items)
        second = MerklePatriciaTrie(secure=secure)
        second.insert(extra_key, b"tmp")  # interleaved insert+delete
        for key, value in items:
            second.insert(key, value)
        second.delete(extra_key)

        assert first.root_hash() == second.root_hash(), sequence
        for key, value in pairs.items():
            assert first.get(key) == value
            assert second.get(key) == value

    fixture = MerklePatriciaTrie()
    for i in range(16):
        fixture.insert(f"key-{i:02d}".encode(), f"value-{i:02d}".encode())
    root_ok = fixture.root_hash().hex() == FIXTURE_ROOT_SECURE

    elapsed = time.perf_counter() - started
    _report(1, root_ok, f"1000 sequences order-independent, fixture root "
                        f"exact; {elapsed:.2f}s (budget 1s)")
    assert root_ok


# ---------------------------------------------------------------------------
# criterion 2: gas accounting (budget: < 10 s)
# ---------------------------------------------------------------------------

def test_criterion_2_gas_accounting():
    started = time.perf_counter()
    spec = WorkloadSpec(
        transactions_per_block=1, program_length=10,
        mix={"SLOAD": 0.2, "SSTORE": 0.1, "ADD": 0.1, "MUL": 0.05,
             "PUSH1": 0.1, "MSTORE": 0.1, "MLOAD": 0.05, "ISZERO": 0.05,
             "DUP1": 0.05, "SWAP1": 0.05, "CALLCODE": 0.1, "PC": 0.05},
        fresh_key_rate=0.5, seed=0xC2, initial_keys=8)
    generator = WorkloadGenerator(spec, SCHED)
    trie = MerklePatriciaTrie()
    generator.write_genesis(trie)

    receipts = []
    programs = []
    for height in range(500):
        block = generator.generate_block(height)
        for tx in block.transactions:
            receipt, samples = transaction_samples(
                tx.code, trie, tx.gas_limit, height, SCHED)
            receipts.append((receipt, samples))
            programs.append((tx.code, receipt))

    exact = all(r.status == "success"
                and r.gas_used == SCHED.intrinsic_gas + sample_gas_total(s)
                for r, s in receipts)

    # out-of-gas boundaries: a one-lower limit consumes exactly the limit.
    # SSTORE tiers depend on current state, so probe today's cost first on
    # a second trie over the same archive-style store (its commit leaves
    # `trie` as it was) and starve against that.
    boundary_ok = True
    rng = random.Random(0xC2)
    for code, _ in rng.sample(programs, 25):
        view = MerklePatriciaTrie(trie.store, root_hash=trie.root_hash())
        probe = execute_transaction(code, view, 10_000_000, 0, SCHED)
        starved_limit = probe.gas_used - 1
        if starved_limit < SCHED.intrinsic_gas:
            continue
        starved = execute_transaction(code, trie, starved_limit, 0, SCHED)
        boundary_ok &= starved.status == "out-of-gas"
        boundary_ok &= starved.gas_used == starved_limit

    elapsed = time.perf_counter() - started
    _report(2, exact and boundary_ok,
            f"500 programs: receipt gas == intrinsic + sample gas exactly; "
            f"25 starved reruns consume exactly the limit; "
            f"{elapsed:.1f}s (budget 10s)")
    assert exact
    assert boundary_ok


# ---------------------------------------------------------------------------
# criteria 3, 7, 8 share the 50,000-block wall-clock run
# ---------------------------------------------------------------------------

def _burn_in(seconds: float) -> None:
    """Spin the CPU before measuring.

    Hosts that start fast and settle slower (thermal limits, hypervisor
    burst credits) put a spurious positive height-correlation on every
    opcode; burning through the fast phase first removes it.
    """
    from gaslab.keccak import keccak_256
    deadline = time.perf_counter() + seconds
    blob = b"warmup" * 100
    while time.perf_counter() < deadline:
        blob = keccak_256(blob) * 20


@contextlib.contextmanager
def _wall_clock_lock(timeout: float):
    """Hold a machine-wide lock file while a wall-clock run measures.

    Two such runs at once (test sessions started side by side) time-share
    a CPU, and whichever ends first speeds the other up mid-run: its time
    per gas then falls with height. Sessions queue on the lock instead. A
    run that has waited `timeout` seconds measures without it.
    """
    if fcntl is None:
        yield
        return
    path = os.path.join(tempfile.gettempdir(), "gaslab-wall-clock.lock")
    with open(path, "a") as fp:
        deadline = time.monotonic() + timeout
        locked = False
        while not locked and time.monotonic() < deadline:
            try:
                fcntl.flock(fp, fcntl.LOCK_EX | fcntl.LOCK_NB)
                locked = True
            except BlockingIOError:
                time.sleep(0.5)
        try:
            yield
        finally:
            if locked:
                fcntl.flock(fp, fcntl.LOCK_UN)


def _idlest_cpu(cpus: set[int], interval: float = 0.5) -> int:
    """The CPU of `cpus` with the most idle time over `interval` seconds,
    read from /proc/stat; the lowest-numbered one where that is missing.

    A fixed choice would put the run on a CPU that other work may already
    keep busy."""
    def idle_ticks() -> dict[int, int]:
        ticks = {}
        with open("/proc/stat") as fp:
            for line in fp:
                name, *fields = line.split()
                if name[:3] == "cpu" and name[3:].isdigit():
                    ticks[int(name[3:])] = int(fields[3]) + int(fields[4])
        return ticks

    try:
        before = idle_ticks()
        time.sleep(interval)
        after = idle_ticks()
    except (OSError, ValueError, IndexError):
        return min(cpus)
    return max(sorted(cpus),
               key=lambda cpu: after.get(cpu, 0) - before.get(cpu, 0))


@pytest.fixture(scope="module")
def phenomenon_run():
    """One 50,000-block wall-clock run, shared by criteria 3, 7, and 8.

    Run while no other session's wall-clock run is measuring, pinned to
    the idlest CPU, warmed up first, and aggregated in 1000-block windows,
    so each window mean averages over short bursts of host noise. A
    window's wall span follows host speed: about 0.26 s with the native
    build on a 2-vCPU Xeon.
    """
    spec = load_workload(DATA / "workloads" / "sload_heavy.json")
    with _wall_clock_lock(timeout=600.0):
        original_affinity = None
        try:
            original_affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {_idlest_cpu(original_affinity)})
        except (AttributeError, OSError):
            pass
        started = time.perf_counter()
        try:
            _burn_in(45.0)
            report = run_chain(spec, 50_000, SCHED, window_size=1000)
        finally:
            if original_affinity is not None:
                os.sched_setaffinity(0, original_affinity)
    return report, time.perf_counter() - started


def test_criterion_3_phenomenon_reproduction(phenomenon_run):
    report, elapsed = phenomenon_run
    table = opcode_table(report.windows)
    r_sload, label_sload = classify_opcode(table["SLOAD"])
    r_add, _ = classify_opcode(table["ADD"])
    r_push, _ = classify_opcode(table["PUSH1"])

    ok = (r_sload > 0.7 and label_sload == "dependent"
          and abs(r_add) < 0.3 and abs(r_push) < 0.3)
    _report(3, ok, f"50k blocks in {elapsed / 60:.1f} min (budget 10 min); "
                   f"r(SLOAD)={r_sload:+.3f} (>0.7), r(ADD)={r_add:+.3f}, "
                   f"r(PUSH1)={r_push:+.3f} (|r|<0.3)")
    assert elapsed <= 600
    assert r_sload > 0.7
    assert abs(r_add) < 0.3
    assert abs(r_push) < 0.3


def test_criterion_7_constant_tpg_under_proposed_schedule(phenomenon_run):
    report, _ = phenomenon_run
    analysis = analyze_windows(report.windows, threshold=0.7, target_tpg=5.0,
                               split_seed=0)

    header, table = analysis.tables["tpg_curves.csv"]
    rows = [dict(zip(header.split(","), row, strict=True)) for row in table]
    rows = [row for row in rows if row["observed_tpg"] is not None]
    heights = [row["window_start"] for row in rows]
    observed = [row["observed_tpg"] for row in rows]
    tau, p_value = stats.kendalltau(heights, observed)

    integer_tpg = [row["proposed_integer_tpg"] for row in rows]
    integer_ok = all(abs(t - 5.0) / 5.0 <= 0.10 for t in integer_tpg)
    real_tpg = [row["proposed_model_tpg"] for row in rows]
    real_ok = all(abs(t - 5.0) / 5.0 <= 1e-9 for t in real_tpg)

    ok = tau > 0 and p_value < 0.05 and integer_ok and real_ok
    _report(7, ok, f"current-schedule tpg rising (Kendall tau={tau:+.3f}, "
                   f"p={p_value:.2e}); proposed-schedule tpg within "
                   f"{max(abs(t - 5.0) / 5.0 for t in integer_tpg):.2%} "
                   f"of C=5 across {len(heights)} windows")
    assert tau > 0
    assert p_value < 0.05
    assert integer_ok
    assert real_ok


def test_criterion_8_macro_micro_consistency(phenomenon_run):
    report, _ = phenomenon_run
    diffs = [d for _, d in macro_micro_differences(report.windows)]
    within = all(abs(d) <= 0.10 for d in diffs)

    fixture = chi_square_decision(20.25, 17, alpha=0.05)
    fixture_ok = fixture.accept and abs(fixture.critical - 27.59) < 0.01

    ok = within and fixture_ok and len(diffs) == 50
    _report(8, ok, f"relative difference within [{min(diffs):+.3f}, "
                   f"{max(diffs):+.3f}] over {len(diffs)} windows "
                   f"(bound 0.10); chi-square fixture 20.25 @ 17 dof < "
                   f"{fixture.critical:.2f} -> accept")
    assert within
    assert fixture_ok
    assert len(diffs) == 50


# ---------------------------------------------------------------------------
# criterion 4: classification fixture (budget: < 1 s)
# ---------------------------------------------------------------------------

def test_criterion_4_classification_fixture():
    started = time.perf_counter()
    windows = read_windows(DATA / "fixtures" / "table3_micro.csv")
    result = classify_bh_dependence(opcode_table(windows), threshold=0.7)
    expected = {"SLOAD": "dependent", "SSTORE": "dependent",
                "PUSH1": "independent", "MSTORE": "independent"}
    ok = result.labels == expected
    elapsed = time.perf_counter() - started
    _report(4, ok, f"published per-million-block fixture labels "
                   f"{result.labels}; {elapsed:.2f}s (budget 1s)")
    assert result.labels == expected


# ---------------------------------------------------------------------------
# criterion 5: BIC model selection (budget: < 30 s)
# ---------------------------------------------------------------------------

def test_criterion_5_bic_monte_carlo():
    started = time.perf_counter()
    quadratic = (6000.0, 2e-3, 1.2e-9)
    selected = 0
    for trial in range(100):
        series = synth_series(quadratic, 40, 100_000, sigma=800.0,
                              seed=5000 + trial)
        model = fit_time_model(series, seed=trial)
        selected += model.degree == 2
    elapsed = time.perf_counter() - started
    ok = selected >= 90
    _report(5, ok, f"degree 2 selected in {selected}/100 seeded "
                   f"quadratic-plus-noise trials (need >= 90); "
                   f"{elapsed:.1f}s (budget 30s)")
    assert selected >= 90


# ---------------------------------------------------------------------------
# criterion 6: repricing closure (budget: < 5 s)
# ---------------------------------------------------------------------------

def test_criterion_6_repricing_closure():
    started = time.perf_counter()
    rng = random.Random(0xC6)
    worst_real = 0.0
    worst_int = 0.0
    for _ in range(100):
        ops = [f"OP{i}" for i in range(rng.randrange(1, 6))]
        models = {}
        for op in ops:
            if rng.random() < 0.4:
                models[op] = ScalarModel("constant", (rng.uniform(50, 5000),))
            else:
                degree = rng.randrange(1, 4)
                coeffs = tuple(rng.uniform(0.05, 40) / 10 ** (3 * power)
                               for power in range(degree + 1))
                models[op] = ScalarModel("polynomial", coeffs,
                                         min_observed=0.0)
        weights = [rng.random() + 1e-3 for _ in ops]
        contract = StandardContract(
            rng.uniform(1, 400),
            {op: w / sum(weights) for op, w in zip(ops, weights)})
        # integerized costs stay >= ~25 gas for these draws, bounding the
        # rounding error well inside the 5% allowance
        target = rng.uniform(0.2, 2.0)
        n = float(rng.randrange(0, 8_000_000))
        proposed = propose_gas_model(models, target)

        tpg = avg_prog_tpg(n, models, proposed, contract)
        worst_real = max(worst_real, abs(tpg - target) / target)

        time_total = sum(models[op].evaluate(n) * freq
                         for op, freq in contract.frequencies.items())
        gas_total = sum(round_gas(proposed[op].evaluate(n)) * freq
                        for op, freq in contract.frequencies.items())
        worst_int = max(worst_int, abs(time_total / gas_total - target)
                        / target)

    elapsed = time.perf_counter() - started
    ok = worst_real < 1e-9 and worst_int < 0.05
    _report(6, ok, f"100 randomized closures: real-arithmetic error "
                   f"{worst_real:.2e} (< 1e-9), integerized error "
                   f"{worst_int:.2%} (< 5%); {elapsed:.1f}s (budget 5s)")
    assert worst_real < 1e-9
    assert worst_int < 0.05


# ---------------------------------------------------------------------------
# criterion 9: byte-identical determinism (CLI level)
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    workload = str(DATA / "workloads" / "sload_heavy.json")
    sims = []
    for name in ("sim_a", "sim_b"):
        out = tmp_path / name
        code = cli_main(["simulate", "--workload", workload,
                         "--blocks", "1500", "--window", "250",
                         "--clock", "virtual", "--out", str(out)])
        assert code == 0
        sims.append(out)

    sim_files = ["micro.csv", "macro.csv", "receipts.csv", "run.json",
                 "manifest.json"]
    sim_identical = all((sims[0] / f).read_bytes() == (sims[1] / f).read_bytes()
                        for f in sim_files)

    analyses = []
    for name in ("an_a", "an_b"):
        out = tmp_path / name
        code = cli_main(["analyze", "--micro", str(sims[0] / "micro.csv"),
                         "--macro", str(sims[0] / "macro.csv"),
                         "--receipts", str(sims[0] / "receipts.csv"),
                         "--out", str(out)])
        assert code == 0
        analyses.append(out)
    analysis_files = sorted(p.name for p in analyses[0].iterdir())
    analysis_identical = all(
        (analyses[0] / f).read_bytes() == (analyses[1] / f).read_bytes()
        for f in analysis_files)

    ok = sim_identical and analysis_identical
    _report(9, ok, f"simulate x2 byte-identical over {len(sim_files)} files; "
                   f"analyze x2 byte-identical over {len(analysis_files)} "
                   f"files")
    assert sim_identical
    assert analysis_identical
