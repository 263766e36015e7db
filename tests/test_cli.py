"""CLI contract: exit codes, determinism, and the fixture analysis."""

import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from gaslab.chain import read_receipts
from gaslab.cli import FIGURES, RECEIPTS_HEADER, main
from gaslab.evm.opcodes import Opcode
from gaslab.evm.schedule import GasSchedule, default_schedule
from gaslab.metrics import MACRO_HEADER, MICRO_HEADER, read_windows
from gaslab.model.base import ScalarModel
from gaslab.model.fit import models_to_json
from gaslab.native import IMPLEMENTATION
from gaslab.report.economics import PRICES_HEADER

DATA = resources.files("gaslab").joinpath("data")
SLOAD_HEAVY = str(DATA / "workloads" / "sload_heavy.json")
WORKLOADS = DATA / "workloads"
TABLE3 = str(DATA / "fixtures" / "table3_micro.csv")
PRICES = str(DATA / "fixtures" / "prices_fig1.csv")


def run_cli(*argv):
    return main(list(argv))


def simulate(out_dir, blocks=400, window=100, extra=()):
    code = run_cli("simulate", "--workload", SLOAD_HEAVY,
                   "--blocks", str(blocks), "--window", str(window),
                   "--clock", "virtual", "--out", str(out_dir), *extra)
    assert code == 0
    return Path(out_dir)


def test_simulate_writes_bundle(tmp_path):
    out = simulate(tmp_path / "sim")
    for name in ("micro.csv", "macro.csv", "receipts.csv", "run.json",
                 "manifest.json"):
        assert (out / name).is_file(), name
    run_doc = json.loads((out / "run.json").read_text())
    assert run_doc["blocks"] == 400
    assert run_doc["clock"] == "virtual"
    # Which native build ran is provenance: in the manifest, never in
    # run.json.
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["native"] == IMPLEMENTATION
    assert "keccak" not in manifest["parameters"]
    assert "native" not in run_doc


def test_simulate_is_byte_identical_under_virtual_clock(tmp_path):
    out_a = simulate(tmp_path / "a")
    out_b = simulate(tmp_path / "b")
    for name in ("micro.csv", "macro.csv", "receipts.csv", "run.json",
                 "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


# sha256 of each virtual-clock output at 200 blocks, window 50, default seed.
# A deliberate output change updates these and says why in CHANGES.md.
GOLDEN = {
    "sload_heavy": {
        "micro.csv":
            "9e417dfe9b29587f706a68663b8a8b95807cba5454f4720bd8263f963b63870d",
        "macro.csv":
            "d60699f3b18e6b7fa3c2c5b45b58384dbd0cf1fd5e0ef8fbf3d5ceadd16661c5",
        "receipts.csv":
            "0439661684f355b6a0640fda7f6c4fcd1e77da3f33d4ef063cfbbb2be4acbefa",
        "run.json":
            "3f9ba6e3afd72e3dbe013862c9f26843fbb1a6965cc17b075c91dbbcc65e40d2",
    },
    "mixed_fig8": {
        "micro.csv":
            "95ebb23a3c01f94d037146d583d5111e539dbf0c622c9c6255719b4c9c1d8625",
        "macro.csv":
            "2c4242bee30781bc4454fa5dd51f6569d335bd95d78464f0d9bacb24d208b709",
        "receipts.csv":
            "a52d29907c64a5d56fdef15e5bb26a18d0961230401ca4c58942dd8e6a950289",
        "run.json":
            "866ad1e340ecb72ef53e553080a6dda47526105c4c0584c9b7e63fa99b43e661",
    },
    "add_only": {
        "micro.csv":
            "476ac5c14613e5be68925e6c2b56585b5bad575b1a62bfb2a59c377b5bc2f737",
        "macro.csv":
            "5ecf9066598bebd9ecfb1b13f662a346084b0f4617fce0dfdde7f4f7906764a0",
        "receipts.csv":
            "ff98b4e4ff6b2cc0187d7defddf155e9c5e37bae9208c7e85c5d1e78462ebb0d",
        "run.json":
            "5cdd0a64bfa1e2d69a689a8c2786006650951b21a3b8d3144f93d55c7be3a8f4",
    },
}


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_virtual_simulate_matches_golden_digests(tmp_path, workload):
    out = tmp_path / workload
    assert run_cli("simulate", "--workload",
                   str(WORKLOADS / f"{workload}.json"), "--blocks", "200",
                   "--window", "50", "--clock", "virtual",
                   "--out", str(out)) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN[workload]}
    assert digests == GOLDEN[workload]


# sha256 of outputs derived from the sload_heavy run above (200 blocks,
# window 50). Nothing on their path uses numpy or scipy, so they hold on
# every host: the run's 4 windows are fewer than MIN_FIT_WINDOWS, so every
# time model is a constant mean.
DERIVED_GOLDEN = {
    "an/classification.csv":
        "eb70a7c3a95a9463c72c55efd78c8b41273acd869eccd92c41a68852a9295f54",
    "an/time_share.csv":
        "be5a6f9aca9ef8c96101d3fe42594d14da862ecf5e988a0fc175f5e9a1fbd836",
    "an/macro_micro.csv":
        "906f67082d079ba871b05b77eb31b29d1d07cba940d0618b9de248d9f40f7bab",
    "an/standard_contract.json":
        "cf307414e644d3bf25bdc26178620ee9298e52585d5bc49a7e28db7dc85b6b07",
    "eco/economics.csv":
        "803d6151bb9bd95a1d6ba50ba35b3926f142d55b53adb5e785f91c6dcdfcf425",
    "eco/fee-vs-infra.svg":
        "f3e1f513cbadedf159727100aba767f9515ceb5dddfec80f473af15b268a9855",
    "an/dep_share.csv":
        "b6769358dde5dc5c1c35b73ac2b89628251ca7598707dcf815542d4265b4fe44",
    "an/gas_curves.csv":
        "1e26ca94e1a168c3cc96a114b6cb6dae55d3f35d0d6be9c1b3cfbc2da3e6bd58",
    "an/tpg_curves.csv":
        "245674bc1ca0dcccc2a3b0643ce3ebd6b6a9c508fcc3bf78c191808db766fe0b",
    "an/time_models.json":
        "c095e6f6b2991968d65dca0e1f44a0bd6ce0ce340804e48b702cedfca68c504b",
    "an/proposed_gas_models.json":
        "bb35b37ff8f311c2d0636f20a16628d68d7b47713f3bee8d45cfb564c4d2b75f",
    "repriced_200.cfg":
        "6e34df885b0d286df6cc96b2efe151ff937cb5d03274dd90569b3059352073ae",
}


def test_derived_outputs_match_golden_digests(tmp_path):
    sim = simulate(tmp_path / "sim", blocks=200, window=50)
    tables = ("--micro", str(sim / "micro.csv"),
              "--macro", str(sim / "macro.csv"))
    assert run_cli("analyze", *tables, "--receipts", str(sim / "receipts.csv"),
                   "--out", str(tmp_path / "an")) == 0
    assert run_cli("economics", "--prices", PRICES, *tables,
                   "--out", str(tmp_path / "eco")) == 0
    assert run_cli("plot", "--bundle", str(tmp_path / "eco"),
                   "--figure", "fee-vs-infra") == 0
    assert run_cli("schedule", "materialize",
                   "--models", str(tmp_path / "an" / "time_models.json"),
                   "--height", "200",
                   "--out", str(tmp_path / "repriced_200.cfg")) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DERIVED_GOLDEN}
    assert digests == DERIVED_GOLDEN


def test_simulate_missing_workload_is_exit_2(tmp_path, capsys):
    path = tmp_path / "no.json"
    assert run_cli("simulate", "--workload", str(path),
                   "--blocks", "5", "--out", str(tmp_path / "x")) == 2
    assert f"error: workload spec not found: {path}" in \
        capsys.readouterr().err


def test_simulate_invalid_workload_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"transactions_per_block": 1,
                               "program_length": 4,
                               "mix": {"ADD": 0.7},
                               "fresh_key_rate": 0.0, "seed": 1}))
    assert run_cli("simulate", "--workload", str(bad), "--blocks", "5",
                   "--out", str(tmp_path / "x")) == 2


def test_seed_override_changes_outputs(tmp_path):
    out_a = simulate(tmp_path / "a", blocks=100)
    out_b = simulate(tmp_path / "b", blocks=100, extra=("--seed", "999"))
    assert (out_a / "micro.csv").read_bytes() != \
           (out_b / "micro.csv").read_bytes()


def test_analyze_classifies_table3_fixture(tmp_path):
    out = tmp_path / "an"
    assert run_cli("analyze", "--micro", TABLE3, "--out", str(out)) == 0
    rows = (out / "classification.csv").read_text().splitlines()[1:]
    labels = {row.split(",")[0]: row.split(",")[3] for row in rows}
    assert labels == {"SLOAD": "dependent", "SSTORE": "dependent",
                      "PUSH1": "independent", "MSTORE": "independent"}


def test_analyze_is_deterministic(tmp_path):
    sim = simulate(tmp_path / "sim", blocks=600, window=50)
    outs = []
    for name in ("an1", "an2"):
        out = tmp_path / name
        assert run_cli("analyze", "--micro", str(sim / "micro.csv"),
                       "--macro", str(sim / "macro.csv"),
                       "--receipts", str(sim / "receipts.csv"),
                       "--out", str(out)) == 0
        outs.append(out)
    for child in sorted(outs[0].iterdir()):
        assert child.read_bytes() == (outs[1] / child.name).read_bytes(), \
            child.name


def test_analyze_manifest_names_every_file_written(tmp_path):
    sim = simulate(tmp_path / "sim", blocks=200, window=50)
    out = tmp_path / "an"
    assert run_cli("analyze", "--micro", str(sim / "micro.csv"),
                   "--macro", str(sim / "macro.csv"), "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    written = {child.name for child in out.iterdir()} - {"manifest.json"}
    assert set(manifest["outputs"]) == written
    assert len(written) == 11


def test_analyze_empty_micro_is_exit_2(tmp_path):
    empty = tmp_path / "micro.csv"
    empty.write_text("window_start,opcode,count,total_gas,total_time_ns\n")
    assert run_cli("analyze", "--micro", str(empty),
                   "--out", str(tmp_path / "o")) == 2


def test_analyze_malformed_row_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "micro.csv"
    bad.write_text("window_start,opcode,count,total_gas,total_time_ns\n"
                   "0,ADD,1,3,9\n0,MUL,nope,5,5\n")
    assert run_cli("analyze", "--micro", str(bad),
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert ":3:" in err  # the offending line number


def test_analyze_receipts_without_a_success_is_exit_2(tmp_path, capsys):
    receipts = tmp_path / "receipts.csv"
    receipts.write_text("height,tx_index,status,gas_used,gas_limit,"
                        "instructions\n"
                        "0,0,out-of-gas,50000,50000,7\n"
                        "1,0,invalid-op,30000,30000,2\n")
    assert run_cli("analyze", "--micro", TABLE3,
                   "--receipts", str(receipts),
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "no successful transactions" in err
    assert "Traceback" not in err


def test_plot_unknown_figure_is_exit_2(tmp_path):
    sim = simulate(tmp_path / "sim", blocks=200, window=50)
    out = tmp_path / "an"
    run_cli("analyze", "--micro", str(sim / "micro.csv"), "--out", str(out))
    assert run_cli("plot", "--bundle", str(out), "--figure", "nope") == 2


def test_plot_is_deterministic(tmp_path):
    sim = simulate(tmp_path / "sim", blocks=200, window=50)
    out = tmp_path / "an"
    run_cli("analyze", "--micro", str(sim / "micro.csv"), "--out", str(out))
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    assert run_cli("plot", "--bundle", str(out), "--figure", "tpg-model",
                   "--out", str(svg_a)) == 0
    assert run_cli("plot", "--bundle", str(out), "--figure", "tpg-model",
                   "--out", str(svg_b)) == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()
    assert svg_a.read_text().startswith("<svg ")


def test_plot_model_curves_show_rising_current_flat_proposed(tmp_path):
    # the visual assertion targets the underlying table, not pixels
    sim = simulate(tmp_path / "sim", blocks=800, window=80)
    out = tmp_path / "an"
    run_cli("analyze", "--micro", str(sim / "micro.csv"), "--out", str(out))
    rows = (out / "tpg_curves.csv").read_text().splitlines()[1:]
    current = [float(r.split(",")[2]) for r in rows]
    proposed = [float(r.split(",")[3]) for r in rows]
    assert current[-1] > current[0]
    assert all(abs(p - 5.0) / 5.0 < 1e-9 for p in proposed)
    assert run_cli("plot", "--bundle", str(out), "--figure",
                   "tpg-model") == 0


def test_economics_scalar_and_table_modes(tmp_path, capsys):
    code = run_cli("economics", "--prices", PRICES,
                   "--gas", "166700000000", "--gas-price", "60000000000",
                   "--hours", "0.4278", "--window-start", "4880000")
    assert code == 0
    line = capsys.readouterr().out
    assert "ratio=" in line
    ratio = float(line.rsplit("ratio=", 1)[1])
    assert ratio > 1e7

    sim = simulate(tmp_path / "sim", blocks=200, window=50)
    out = tmp_path / "eco"
    assert run_cli("economics", "--prices", PRICES,
                   "--micro", str(sim / "micro.csv"),
                   "--macro", str(sim / "macro.csv"),
                   "--out", str(out)) == 0
    table = (out / "economics.csv").read_text().splitlines()
    assert table[0] == "window_start,gas,fee_usd,infra_usd,ratio"
    assert len(table) == 1 + 4
    assert run_cli("plot", "--bundle", str(out),
                   "--figure", "fee-vs-infra") == 0


def test_schedule_materialize_round_trips(tmp_path):
    sim = simulate(tmp_path / "sim", blocks=600, window=50)
    out = tmp_path / "an"
    run_cli("analyze", "--micro", str(sim / "micro.csv"), "--out", str(out))
    cfg = tmp_path / "repriced.cfg"
    assert run_cli("schedule", "materialize",
                   "--models", str(out / "time_models.json"),
                   "--height", "600", "--out", str(cfg)) == 0
    schedule = GasSchedule.load(cfg)
    assert schedule.rules[Opcode.SLOAD].cost >= 1
    assert schedule.intrinsic_gas == 21_000


def test_repriced_schedule_resimulates_the_same_chain(tmp_path):
    # simulate -> analyze -> materialize -> simulate again under the
    # schedule the tool emitted: gas metering must hold under it.
    blocks = 1500
    base = simulate(tmp_path / "base", blocks=blocks)
    models = tmp_path / "an"
    assert run_cli("analyze", "--micro", str(base / "micro.csv"),
                   "--out", str(models)) == 0
    cfg = tmp_path / "repriced.cfg"
    assert run_cli("schedule", "materialize",
                   "--models", str(models / "time_models.json"),
                   "--height", str(blocks), "--out", str(cfg)) == 0
    schedule = GasSchedule.load(cfg)
    assert schedule.rules[Opcode.SLOAD].cost != \
        default_schedule().rules[Opcode.SLOAD].cost
    repriced = simulate(tmp_path / "repriced", blocks=blocks,
                        extra=("--schedule", str(cfg)))

    runs = [json.loads((out / "run.json").read_text())
            for out in (base, repriced)]
    for key in ("final_state_root", "final_keys"):
        assert runs[0][key] == runs[1][key], key
    before, after = (read_receipts(out / "receipts.csv")
                     for out in (base, repriced))
    assert len(after) == len(before) == blocks
    for old, new in zip(before, after):
        assert (new.height, new.tx_index) == (old.height, old.tx_index)
        assert old.status == new.status == "success"
        assert new.instructions == old.instructions
    size = runs[1]["window_size"]
    for window in read_windows(repriced / "micro.csv"):
        paid = [r.gas_used for r in after
                if window.start <= r.height < window.start + size]
        assert sum(paid) == (schedule.intrinsic_gas * len(paid)
                             + window.instruction_gas_total())


def test_schedule_materialize_keeps_base_rules_for_unmodeled_opcodes(
        tmp_path):
    base = tmp_path / "base.cfg"
    base.write_text((DATA / "gas_schedule_default.cfg").read_text()
                    .replace("MUL = 5", "MUL = 7")
                    .replace("intrinsic = 21000", "intrinsic = 30000"))
    argv = _models_file(
        tmp_path, models_to_json({"SLOAD": ScalarModel("constant", (1000.0,))}),
        height="100")
    assert run_cli(*argv, "--base", str(base)) == 0
    schedule = GasSchedule.load(tmp_path / "s.cfg")
    assert schedule.rules[Opcode.MUL].cost == 7
    assert schedule.rules[Opcode.SLOAD].cost == 200
    assert schedule.intrinsic_gas == 30_000


def test_schedule_parse_error_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    default = (DATA / "gas_schedule_default.cfg").read_text()
    bad.write_text(default.replace("intrinsic = 21000", "intrinsic = x"))
    assert run_cli("simulate", "--workload", SLOAD_HEAVY, "--blocks", "5",
                   "--clock", "virtual", "--schedule", str(bad),
                   "--out", str(tmp_path / "sim")) == 2
    err = capsys.readouterr().err
    assert "line 7" in err and "Traceback" not in err


def test_schedule_rule_unfit_for_its_opcode_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    default = (DATA / "gas_schedule_default.cfg").read_text()
    bad.write_text(default.replace("MSTORE = 3 +mem", "MSTORE = 3"))
    assert run_cli("simulate", "--workload", SLOAD_HEAVY, "--blocks", "5",
                   "--clock", "virtual", "--schedule", str(bad),
                   "--out", str(tmp_path / "sim")) == 2
    err = capsys.readouterr().err
    assert "MSTORE" in err and "Traceback" not in err


def test_non_finite_schedule_and_model_errors_name_their_source(tmp_path,
                                                                capsys):
    assert run_cli(*BAD_INPUTS["schedule-poly-nan"](tmp_path)) == 2
    assert "line 32: bad rule for SLOAD: 'poly:nan'" in capsys.readouterr().err
    assert run_cli(*BAD_INPUTS["models-gas-overflows-at-height"](
        tmp_path)) == 2
    assert "SLOAD: gas at height 100 is not finite" in \
        capsys.readouterr().err


def test_sload_gas_past_float_range_halts_out_of_gas(tmp_path):
    # Finite coefficients whose value is past float range from height 2
    # on: there SLOAD costs more than any budget, and the run goes on.
    assert run_cli(*_schedule_file(tmp_path, "poly:1e308,1e308")) == 0
    receipts = (tmp_path / "sim" / "receipts.csv").read_text()
    statuses = [line.split(",")[2] for line in receipts.splitlines()[1:]]
    assert len(statuses) == 5 and set(statuses) == {"out-of-gas"}


def test_simulate_writes_only_gas_limits_that_analyze_reads(tmp_path,
                                                            capsys):
    """Each transaction's gas limit is the schedule's intrinsic gas plus
    21000 a program slot plus 2000. A limit of 2^63 - 1 simulates and
    analyzes; one more is a bad input, and no receipts are written."""
    length = json.loads(Path(SLOAD_HEAVY).read_text())["program_length"]
    room = 2 ** 63 - 1 - length * 21_000 - 2_000
    for intrinsic, status in ((room, 0), (room + 1, 2)):
        out = tmp_path / str(status)
        schedule = _write(tmp_path / "schedule.cfg", (
            DATA / "gas_schedule_default.cfg").read_text().replace(
                "intrinsic = 21000", f"intrinsic = {intrinsic}"))
        assert run_cli("simulate", "--workload", SLOAD_HEAVY, "--blocks",
                       "5", "--clock", "virtual", "--schedule", schedule,
                       "--out", str(out / "sim")) == status
    sim = tmp_path / "0" / "sim"
    assert {row.gas_limit for row in read_receipts(sim / "receipts.csv")} \
        == {2 ** 63 - 1}
    assert run_cli("analyze", "--micro", str(sim / "micro.csv"),
                   "--receipts", str(sim / "receipts.csv"),
                   "--out", str(tmp_path / "analysis")) == 0
    assert not (tmp_path / "2" / "sim" / "receipts.csv").exists()
    err = capsys.readouterr().err
    assert "error: gas limit 9223372036854775808 is above 2^63 - 1" in err
    assert "Traceback" not in err


def test_gaslab_out_env_var_roots_output(tmp_path, monkeypatch):
    monkeypatch.setenv("GASLAB_OUT", str(tmp_path))
    simulate("rooted", blocks=100, window=50)
    assert (tmp_path / "rooted" / "micro.csv").is_file()

    models = tmp_path / "time_models.json"
    models.write_text(
        models_to_json({"SLOAD": ScalarModel("constant", (1000.0,))}))
    assert run_cli("schedule", "materialize", "--models", str(models),
                   "--height", "100", "--out", "rooted/repriced.cfg") == 0
    schedule = GasSchedule.load(tmp_path / "rooted" / "repriced.cfg")
    assert schedule.rules[Opcode.SLOAD].cost == 200

    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "dep_share.csv").write_text(
        "window_start,dependent_share,extrapolated\n0,0.5,0\n50,0.6,0\n")
    assert run_cli("plot", "--bundle", str(bundle), "--figure", "dep-share",
                   "--out", "rooted/dep-share.svg") == 0
    assert (tmp_path / "rooted" / "dep-share.svg").is_file()


def _plot_reader(figure):
    table, header = FIGURES[figure][:2]
    width = header.count(",") + 1
    return (table, header, ",".join(["1"] * width),
            ",".join(["1"] * (width - 1) + ["x"]),
            lambda path, out: ["plot", "--bundle", str(Path(path).parent),
                               "--figure", figure])


# Every table reader: file name, header, a good row, a row with a
# non-number cell, and the CLI arguments that read the file.
READERS = {
    "micro": ("micro.csv", MICRO_HEADER, "0,ADD,1,3,9", "0,ADD,1,x,9",
              lambda path, out: ["analyze", "--micro", path, "--out", out]),
    "macro": ("macro.csv", MACRO_HEADER, "0,Total,5", "0,Total,x",
              lambda path, out: ["analyze", "--micro", TABLE3,
                                 "--macro", path, "--out", out]),
    "receipts": ("receipts.csv", RECEIPTS_HEADER,
                 "0,0,success,21000,30000,7", "0,0,success,21000,30000,x",
                 lambda path, out: ["analyze", "--micro", TABLE3,
                                    "--receipts", path, "--out", out]),
    "prices": ("prices.csv", PRICES_HEADER, "0,200.0,0.6", "0,x,0.6",
               lambda path, out: ["economics", "--prices", path,
                                  "--gas", "1", "--hours", "1"]),
    **{f"plot-{table}": _plot_reader(figure)
       for figure, (table, *_rest) in sorted(FIGURES.items())},
}

FAULTS = {  # content from (header, good row, bad row) -> faulty line
    "header": (lambda h, good, bad: f"x{h}\n{good}\n", 1),
    "field-count": (lambda h, good, bad: f"{h}\n{good}\n{good},1\n", 3),
    "non-number": (lambda h, good, bad: f"{h}\n{good}\n{bad}\n", 3),
    "no-rows": (lambda h, good, bad: f"# no rows\n{h}\n", 2),
    "nan-cell": (lambda h, good, bad:
                 f"{h}\n{good}\n{good.rsplit(',', 1)[0]},nan\n", 3),
    "inf-cell": (lambda h, good, bad:
                 f"{h}\n{good}\n{good.rsplit(',', 1)[0]},inf\n", 3),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_table_faults_exit_2_naming_the_line(tmp_path, capsys, reader, fault):
    name, header, good, bad, argv = READERS[reader]
    content, line = FAULTS[fault]
    path = tmp_path / "in" / name
    path.parent.mkdir()
    path.write_text(content(header, good, bad))
    assert run_cli(*argv(str(path), str(tmp_path / "out"))) == 2
    err = capsys.readouterr().err
    assert f"error: {path}:{line}:" in err
    assert "Traceback" not in err


# Every reader of a user file: the file's name and the CLI arguments that
# read it.
FILE_READERS = {
    **{reader: (name, argv)
       for reader, (name, _header, _good, _bad, argv) in READERS.items()},
    "schedule": ("schedule.cfg", lambda path, out: [
        "simulate", "--workload", SLOAD_HEAVY, "--blocks", "5",
        "--clock", "virtual", "--schedule", path, "--out", out]),
    "base": ("base.cfg", lambda path, out: _models_file(
        Path(path).parent,
        '{"SLOAD": {"kind": "constant", "coefficients": [1.0]}}')
        + ["--base", path]),
}


@pytest.mark.parametrize("reader", sorted(FILE_READERS))
def test_non_utf8_file_is_exit_2_naming_the_path(tmp_path, capsys, reader):
    name, argv = FILE_READERS[reader]
    path = tmp_path / "in" / name
    path.parent.mkdir()
    path.write_bytes(b"\xff\xfe\x00bad")
    assert run_cli(*argv(str(path), str(tmp_path / "out"))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:")
    assert "not UTF-8" in err
    assert "Traceback" not in err


# Readers of a path that may name a directory: the file's name, the CLI
# arguments and what the message calls the path.
PATH_READERS = {
    "schedule": (*FILE_READERS["schedule"], "schedule file"),
    "base": (*FILE_READERS["base"], "schedule file"),
    "workload": ("w.json", lambda path, out: [
        "simulate", "--workload", path, "--blocks", "5", "--out", out],
        "workload spec"),
}


@pytest.mark.parametrize("reader", sorted(PATH_READERS))
def test_directory_as_schedule_is_exit_2(tmp_path, capsys, reader):
    name, argv, what = PATH_READERS[reader]
    path = tmp_path / "in" / name
    path.mkdir(parents=True)
    assert run_cli(*argv(str(path), str(tmp_path / "out"))) == 2
    assert f"error: {what} is not a file: {path}" in capsys.readouterr().err


def _write(path, text):
    path.write_text(text)
    return str(path)


def _models_file(tmp_path, text, height="1"):
    path = tmp_path / "models.json"
    path.write_text(text)
    return ["schedule", "materialize", "--models", str(path),
            "--height", height, "--out", str(tmp_path / "s.cfg")]


def _schedule_file(tmp_path, sload_rule):
    path = tmp_path / "schedule.cfg"
    path.write_text((DATA / "gas_schedule_default.cfg").read_text().replace(
        "SLOAD = 200", f"SLOAD = {sload_rule}"))
    return ["simulate", "--workload", SLOAD_HEAVY, "--blocks", "5",
            "--clock", "virtual", "--schedule", str(path),
            "--out", str(tmp_path / "sim")]


def _workload_file(tmp_path, text=None, **fields):
    spec = json.loads((WORKLOADS / "add_only.json").read_text())
    spec.update(fields)
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(spec) if text is None else text)
    return ["simulate", "--workload", str(path), "--blocks", "5",
            "--out", str(tmp_path / "sim")]


BAD_INPUTS = {
    "blocks-0": lambda tmp_path: ["simulate", "--workload", SLOAD_HEAVY,
                                  "--blocks", "0", "--out", str(tmp_path)],
    "window-0": lambda tmp_path: ["simulate", "--workload", SLOAD_HEAVY,
                                  "--blocks", "5", "--window", "0",
                                  "--out", str(tmp_path)],
    "models-not-json": lambda tmp_path: _models_file(tmp_path, "{nope"),
    "models-no-kind": lambda tmp_path: _models_file(
        tmp_path, '{"SLOAD": {"coefficients": [1.0]}}'),
    "models-cubic": lambda tmp_path: _models_file(
        tmp_path, '{"SLOAD": {"kind": "cubic", "coefficients": [1.0]}}'),
    "hours-0": lambda tmp_path: ["economics", "--prices", PRICES,
                                 "--gas", "1", "--hours", "0"],
    "gas-negative": lambda tmp_path: ["economics", "--prices", PRICES,
                                      "--gas", "-1", "--hours", "1"],
    "table-mode-without-macro": lambda tmp_path: [
        "economics", "--prices", PRICES, "--micro", TABLE3,
        "--out", str(tmp_path / "eco")],
    "threshold-above-1": lambda tmp_path: [
        "analyze", "--micro", TABLE3, "--threshold", "2",
        "--out", str(tmp_path / "a")],
    "micro-all-zero-gas": lambda tmp_path: [
        "analyze", "--micro", _write(
            tmp_path / "micro.csv", MICRO_HEADER + "\n0,STOP,1,0,5\n"
            "50,STOP,1,0,6\n100,STOP,1,0,7\n"),
        "--out", str(tmp_path / "a")],
    "threshold-negative": lambda tmp_path: [
        "analyze", "--micro", TABLE3, "--threshold", "-1",
        "--out", str(tmp_path / "a")],
    "height-negative": lambda tmp_path: _models_file(
        tmp_path, '{"SLOAD": {"kind": "constant", "coefficients": [1.0]}}',
        height="-100"),
    "workload-txs-float": lambda tmp_path: _workload_file(
        tmp_path, transactions_per_block=1.5),
    "workload-length-float": lambda tmp_path: _workload_file(
        tmp_path, program_length=4.0),
    "workload-keys-float": lambda tmp_path: _workload_file(
        tmp_path, initial_keys=2.5),
    "workload-keys-bool": lambda tmp_path: _workload_file(
        tmp_path, initial_keys=True),
    "workload-seed-float": lambda tmp_path: _workload_file(tmp_path, seed=1.5),
    "workload-seed-overlong": lambda tmp_path: _workload_file(
        tmp_path, text='{"seed": ' + "9" * 5000 + "}"),
    "workload-mix-list": lambda tmp_path: _workload_file(
        tmp_path, mix=["ADD"]),
    "workload-mix-nan": lambda tmp_path: _workload_file(
        tmp_path, mix={"ADD": float("nan")}),
    "workload-rate-string": lambda tmp_path: _workload_file(
        tmp_path, fresh_key_rate="0.5"),
    "workload-price-negative": lambda tmp_path: _workload_file(
        tmp_path, gas_price_wei=-5),
    "micro-counter-overlong": lambda tmp_path: [
        "analyze", "--micro", _write(
            tmp_path / "micro.csv", MICRO_HEADER + "\n0,ADD,1,3,9\n"
            "50,ADD,1,3," + "9" * 400 + "\n"),
        "--out", str(tmp_path / "a")],
    "micro-start-overlong": lambda tmp_path: [
        "analyze", "--micro", _write(
            tmp_path / "micro.csv", MICRO_HEADER + "\n0,ADD,1,3,9\n"
            + "9" * 400 + ",ADD,1,3,9\n"),
        "--out", str(tmp_path / "a")],
    "macro-total-negative": lambda tmp_path: [
        "economics", "--prices", PRICES, "--micro", TABLE3, "--macro", _write(
            tmp_path / "macro.csv", MACRO_HEADER + "\n0,Total,-5\n"),
        "--out", str(tmp_path / "eco")],
    "macro-total-overlong": lambda tmp_path: [
        "economics", "--prices", PRICES, "--micro", TABLE3, "--macro", _write(
            tmp_path / "macro.csv", MACRO_HEADER + "\n0,Total," + "9" * 400
            + "\n"),
        "--out", str(tmp_path / "eco")],
    "analyze-tpg-nan": lambda tmp_path: [
        "analyze", "--micro", TABLE3, "--tpg-constant", "nan",
        "--out", str(tmp_path / "a")],
    "materialize-tpg-nan": lambda tmp_path: _models_file(
        tmp_path, '{"SLOAD": {"kind": "constant", "coefficients": [1.0]}}'
    ) + ["--tpg-constant", "nan"],
    "materialize-tpg-inf": lambda tmp_path: _models_file(
        tmp_path, '{"SLOAD": {"kind": "constant", "coefficients": [1.0]}}'
    ) + ["--tpg-constant", "inf"],
    "materialize-base-missing": lambda tmp_path: _models_file(
        tmp_path, '{"SLOAD": {"kind": "constant", "coefficients": [1.0]}}'
    ) + ["--base", str(tmp_path / "missing.cfg")],
    "models-coefficient-nan": lambda tmp_path: _models_file(
        tmp_path, '{"SLOAD": {"kind": "constant", "coefficients": [NaN]}}'),
    "models-gas-overflows-at-height": lambda tmp_path: _models_file(
        tmp_path, '{"SLOAD": {"kind": "polynomial", '
        '"coefficients": [1e308, 1e308]}}', height="100"),
    "schedule-poly-nan": lambda tmp_path: _schedule_file(tmp_path, "poly:nan"),
    "schedule-poly-inf": lambda tmp_path: _schedule_file(tmp_path, "poly:inf"),
    "hours-nan": lambda tmp_path: ["economics", "--prices", PRICES,
                                   "--gas", "1", "--hours", "nan"],
    "hours-inf": lambda tmp_path: ["economics", "--prices", PRICES,
                                   "--gas", "1", "--hours", "inf"],
    "prices-nan-scalar": lambda tmp_path: [
        "economics", "--prices", _write(
            tmp_path / "prices.csv", PRICES_HEADER + "\n0,nan,0.6\n"),
        "--gas", "1", "--hours", "1"],
    "plot-nan-cell": lambda tmp_path: [
        "plot", "--bundle", str(Path(_write(
            tmp_path / "dep_share.csv",
            "window_start,dependent_share,extrapolated\n0,nan,0\n"
            "50,0.6,0\n100,inf,0\n")).parent), "--figure", "dep-share"],
    "receipts-negative-count": lambda tmp_path: [
        "analyze", "--micro", TABLE3, "--receipts", _write(
            tmp_path / "receipts.csv", RECEIPTS_HEADER
            + "\n0,0,success,21000,30000,7\n"
            "1,0,success,21000,30000,-999999\n"),
        "--out", str(tmp_path / "a")],
    "receipts-unknown-status": lambda tmp_path: [
        "analyze", "--micro", TABLE3, "--receipts", _write(
            tmp_path / "receipts.csv", RECEIPTS_HEADER
            + "\n0,0,success,21000,30000,7\n1,0,reverted,21000,30000,7\n"),
        "--out", str(tmp_path / "a")],
    "receipts-no-instructions": lambda tmp_path: [
        "analyze", "--micro", TABLE3, "--receipts", _write(
            tmp_path / "receipts.csv", RECEIPTS_HEADER
            + "\n0,0,success,21000,30000,0\n"),
        "--out", str(tmp_path / "a")],
    "economics-receipt-before-first-window": lambda tmp_path: [
        "economics", "--prices", PRICES, "--micro", _write(
            tmp_path / "micro.csv", MICRO_HEADER + "\n50,ADD,1,3,9\n"),
        "--macro", _write(tmp_path / "macro.csv",
                          MACRO_HEADER + "\n50,Total,5\n"),
        "--receipts", _write(tmp_path / "receipts.csv", RECEIPTS_HEADER
                             + "\n49,0,success,21003,30000,1\n"),
        "--out", str(tmp_path / "eco")],
    "economics-receipts-scalar-mode": lambda tmp_path: [
        "economics", "--prices", PRICES, "--gas", "1", "--hours", "1",
        "--receipts", _write(tmp_path / "receipts.csv", RECEIPTS_HEADER
                             + "\n0,0,success,21003,30000,1\n")],
    "analyze-tpg-underflows": lambda tmp_path: [
        "analyze", "--micro", TABLE3, "--tpg-constant", "1e-320",
        "--out", str(tmp_path / "a")],
    "height-overlong": lambda tmp_path: _models_file(
        tmp_path, '{"SLOAD": {"kind": "polynomial", "coefficients": [1, 2]}}',
        height=str(10 ** 400)),
    "gas-overlong": lambda tmp_path: ["economics", "--prices", PRICES,
                                      "--gas", str(10 ** 400), "--hours", "1"],
    "gas-price-overlong-scalar": lambda tmp_path: [
        "economics", "--prices", PRICES, "--gas-price", str(10 ** 400),
        "--gas", "1", "--hours", "1"],
    "gas-price-overlong-table": lambda tmp_path: [
        "economics", "--prices", PRICES, "--gas-price", str(10 ** 400),
        "--micro", TABLE3, "--macro", _write(
            tmp_path / "macro.csv", MACRO_HEADER + "\n0,Total,5\n"),
        "--out", str(tmp_path / "eco")],
    "models-unknown-key": lambda tmp_path: _models_file(
        tmp_path, '{"SLOAD": {"kind": "constant", "coefficients": [1.0], '
        '"slope": 2.0}}'),
    "micro-repeated-row": lambda tmp_path: [
        "analyze", "--micro", _write(
            tmp_path / "micro.csv", MICRO_HEADER + "\n0,ADD,1,3,9\n"
            "0,ADD,1,1,1\n50,ADD,1,3,9\n100,ADD,1,3,9\n"),
        "--out", str(tmp_path / "a")],
    "macro-repeated-row": lambda tmp_path: [
        "analyze", "--micro", TABLE3, "--macro", _write(
            tmp_path / "macro.csv", MACRO_HEADER + "\n0,EVM,5\n0,EVM,6\n"),
        "--out", str(tmp_path / "a")],
    "fee-not-finite-scalar": lambda tmp_path: [
        "economics", "--prices", _write(
            tmp_path / "prices.csv", PRICES_HEADER + "\n0,1e308,0.6\n"),
        "--gas", "10000000000", "--gas-price", "1000000000", "--hours", "1"],
    "ratio-not-finite-table": lambda tmp_path: [
        "economics", "--prices", _write(
            tmp_path / "prices.csv", PRICES_HEADER + "\n0,1e300,0.6\n"),
        "--gas-price", str(10 ** 18), "--micro", TABLE3, "--macro", _write(
            tmp_path / "macro.csv", MACRO_HEADER + "\n0,Total,5\n"),
        "--out", str(tmp_path / "eco")],
    "prices-nan-table": lambda tmp_path: [
        "economics", "--prices", _write(
            tmp_path / "prices.csv", PRICES_HEADER + "\n0,200.0,nan\n"),
        "--micro", TABLE3, "--macro", _write(
            tmp_path / "macro.csv", MACRO_HEADER + "\n0,Total,5\n"),
        "--out", str(tmp_path / "eco")],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_exit_2_without_traceback(tmp_path, capsys, case):
    assert run_cli(*BAD_INPUTS[case](tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["receipts-negative-count",
                                  "receipts-unknown-status"])
def test_bad_receipt_row_names_its_line(tmp_path, capsys, case):
    assert run_cli(*BAD_INPUTS[case](tmp_path)) == 2
    assert f"error: {tmp_path / 'receipts.csv'}:3: " in capsys.readouterr().err


@pytest.mark.parametrize("case", ["micro-repeated-row",
                                  "macro-repeated-row"])
def test_repeated_table_row_names_its_line(tmp_path, capsys, case):
    assert run_cli(*BAD_INPUTS[case](tmp_path)) == 2
    table = case.split("-")[0] + ".csv"
    assert f"error: {tmp_path / table}:3: a second row for " in \
        capsys.readouterr().err


@pytest.mark.parametrize("case,message", [
    ("fee-not-finite-scalar", "window 0: fee_usd is not finite (inf)"),
    ("ratio-not-finite-table", "window 0: ratio is not finite (inf)")])
def test_non_finite_economics_names_the_window(tmp_path, capsys, case,
                                               message):
    assert run_cli(*BAD_INPUTS[case](tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "eco").exists()


def test_zero_infra_cost_is_an_empty_ratio_that_plots(tmp_path):
    sim = simulate(tmp_path / "sim", blocks=200, window=50)
    out = tmp_path / "eco"
    assert run_cli("economics", "--prices", _write(
        tmp_path / "prices.csv", PRICES_HEADER + "\n0,200.0,0.0\n"),
        "--micro", str(sim / "micro.csv"), "--macro", str(sim / "macro.csv"),
        "--out", str(out)) == 0
    rows = (out / "economics.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(row.endswith(",0.0,") for row in rows)
    assert run_cli("plot", "--bundle", str(out),
                   "--figure", "fee-vs-infra") == 0


def test_economics_receipts_price_intrinsic_gas(tmp_path):
    sim = simulate(tmp_path / "sim", blocks=2000, window=500)
    tables = ("--micro", str(sim / "micro.csv"),
              "--macro", str(sim / "macro.csv"))
    assert run_cli("economics", "--prices", PRICES, *tables,
                   "--out", str(tmp_path / "plain")) == 0
    assert run_cli("economics", "--prices", PRICES, *tables,
                   "--receipts", str(sim / "receipts.csv"),
                   "--out", str(tmp_path / "paid")) == 0

    def gas_by_start(name):
        rows = (tmp_path / name / "economics.csv").read_text().splitlines()
        return {int(row.split(",")[0]): int(row.split(",")[1])
                for row in rows[1:]}

    txs = dict.fromkeys(range(0, 2000, 500), 0)
    for row in (sim / "receipts.csv").read_text().splitlines()[1:]:
        txs[int(row.split(",")[0]) // 500 * 500] += 1
    instruction_gas = gas_by_start("plain")
    assert sorted(instruction_gas) == [0, 500, 1000, 1500]
    assert gas_by_start("paid") == {
        start: gas + 21000 * txs[start]
        for start, gas in instruction_gas.items()}
    manifest = json.loads((tmp_path / "paid" / "manifest.json").read_text())
    assert manifest["inputs"]["receipts"]["path"] == \
        str(sim / "receipts.csv")
    assert "receipts" not in json.loads(
        (tmp_path / "plain" / "manifest.json").read_text())["inputs"]
