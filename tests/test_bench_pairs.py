import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _no_export(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("ran git or exported the base tree")

    monkeypatch.setattr(bench_pairs, "git", fail)
    monkeypatch.setattr(bench_pairs, "export_revision", fail)


class TestParseSeeds:
    """A bad --seeds is an input error: one line on stderr, exit 2, nothing run."""

    def test_range_is_inclusive(self):
        assert bench_pairs.parse_seeds("701-710") == list(range(701, 711))

    def _rejected(self, monkeypatch, capsys, text):
        _no_export(monkeypatch)
        assert bench_pairs.main(["--workload", "generate-solve", "--seeds", text,
                                 "--label", "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bench_pairs: ") and err.count("\n") == 1
        return err

    def test_single_seed_rejected(self, monkeypatch, capsys):
        err = self._rejected(monkeypatch, capsys, "701")
        assert err == "bench_pairs: need at least two seeds for quartiles\n"

    def test_reversed_range_rejected(self, monkeypatch, capsys):
        err = self._rejected(monkeypatch, capsys, "710-701")
        assert err == "bench_pairs: seed range 710-701 runs backwards\n"

    @pytest.mark.parametrize("text", ["5-x", "x-5", "five", "5-6-7"])
    def test_non_integer_range_rejected(self, monkeypatch, capsys, text):
        err = self._rejected(monkeypatch, capsys, text)
        assert err == f"bench_pairs: seed range {text} is not FIRST-LAST\n"


def _pairs(base, change, name="m"):
    return [{"base": {"metrics": {name: b}}, "change": {"metrics": {name: c}}}
            for b, c in zip(base, change)]


class TestSummarize:
    @pytest.mark.parametrize("better, won", [("lower", 1), ("higher", 2)])
    def test_pairs_won_follows_direction(self, better, won):
        pairs = _pairs([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 4.5])
        out = bench_pairs.summarize(pairs, {"m": better})["m"]
        assert out["pairs_won"] == won and out["pairs"] == 4
        assert out["better"] == better

    def test_median_ratio(self):
        out = bench_pairs.summarize(_pairs([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]),
                                    {"m": "higher"})["m"]
        assert out["base"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
        assert out["median_ratio"] == 2.0

    def test_median_ratio_skipped_for_zero_base(self):
        out = bench_pairs.summarize(_pairs([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
                                    {"m": "lower"})["m"]
        assert "median_ratio" not in out


def test_unknown_workload_rejected_before_export(monkeypatch, capsys):
    def export(*args):
        raise AssertionError("exported the base tree for an unknown workload")

    monkeypatch.setattr(bench_pairs, "export_revision", export)
    with pytest.raises(SystemExit):
        bench_pairs.main(["--workload", "no-such-workload", "--seeds", "1-2",
                          "--label", "x"])
    assert "invalid choice" in capsys.readouterr().err


def test_missing_tmpdir_rejected_before_export(monkeypatch, capsys, tmp_path):
    def fail(*args):
        raise AssertionError("ran git with a missing --tmpdir")

    monkeypatch.setattr(bench_pairs, "git", fail)
    monkeypatch.setattr(bench_pairs, "export_revision", fail)
    missing = tmp_path / "missing"
    assert bench_pairs.main(["--workload", "generate-solve", "--seeds", "1-2",
                             "--label", "x", "--tmpdir", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err == f"bench_pairs: --tmpdir {missing} is not a directory\n"
    assert not missing.exists()


def test_unknown_base_rejected_before_export(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("exported or made a directory for an unknown --base")

    monkeypatch.setattr(bench_pairs, "export_revision", fail)
    monkeypatch.setattr(bench_pairs.tempfile, "mkdtemp", fail)
    assert bench_pairs.main(["--workload", "generate-solve", "--seeds", "1-2",
                             "--label", "x", "--base", "nosuchrev"]) == 2
    assert capsys.readouterr().err == "bench_pairs: --base nosuchrev is not a revision\n"


def test_workloads_are_perfbench_names():
    assert "generate-solve" in bench_pairs.workloads()


def _fake_perfbench(monkeypatch, stdout):
    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)


RECORD = json.dumps({"correct": True, "attempted": 4, "failed": 0,
                     "metrics": {"setup_s": {"value": 0.4}}})


@pytest.mark.parametrize("trace", [0, 1])
def test_every_run_keeps_its_digests(monkeypatch, tmp_path, trace):
    digests = {"round0": {"instances": ["ab", "cd"], "sweep_csv": "ef"},
               "replay_matches": True}
    _fake_perfbench(monkeypatch, "complete-sweep: 4 workers\n"
                    f"digests {json.dumps(digests)}\n  setup_s 0.4 s\n{RECORD}\n")
    result = bench_pairs.run_bench(tmp_path, "complete-sweep", 1, 1.0, trace)
    assert result["digests"] == digests
    assert result["metrics"] == {"setup_s": 0.4}
    assert ("report" in result) == bool(trace)


def test_run_without_digests_line_records_none(monkeypatch, tmp_path):
    _fake_perfbench(monkeypatch, f"{RECORD}\n")
    assert bench_pairs.run_bench(tmp_path, "complete-sweep", 1, 1.0, 0)["digests"] is None


DIGESTS = {"round0": {"instances": ["ab"], "sweep_csv": "ef"}, "replay_matches": True}


@pytest.mark.parametrize("change, same", [
    (DIGESTS, True),
    ({"round0": {"instances": ["ab"], "sweep_csv": "00"}, "replay_matches": True}, False),
    (None, False),
], ids=["equal", "different", "missing"])
def test_same_digests(change, same):
    assert bench_pairs.same_digests({"digests": DIGESTS}, {"digests": change}) is same
    assert bench_pairs.same_digests({"digests": None}, {"digests": None}) is False


@pytest.mark.parametrize("change, differing", [
    (DIGESTS, []),
    ({"round0": {"instances": ["ab"], "sweep_csv": "00"}, "replay_matches": False},
     ["sweep_csv"]),
    ({"round0": {"instances": ["00"], "sweep_csv": "00"}, "replay_matches": True},
     ["instances", "sweep_csv"]),
    ({"round0": {"instances": ["ab"]}, "replay_matches": True}, ["sweep_csv"]),
    (None, None),
], ids=["equal", "one-output", "instances-and-output", "key-missing", "missing"])
def test_differing_digests(change, differing):
    # only the first round's digests are compared, by key, sorted
    assert bench_pairs.differing_digests({"digests": DIGESTS}, {"digests": change}) == differing
    assert bench_pairs.differing_digests({"digests": None}, {"digests": DIGESTS}) is None


@pytest.mark.parametrize("differ_at, expected", [(None, 3), (1002, 2)])
def test_record_counts_pairs_with_same_digests(monkeypatch, tmp_path, capsys,
                                               differ_at, expected):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1,
         "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "workloads", lambda: ("generate-solve",))
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    (tmp_path / "src" / "angsync").mkdir(parents=True)
    (tmp_path / "src" / "angsync" / "core.py").write_text("a\nb\nc\n")
    (tmp_path / "src" / "angsync" / "eig.py").write_text("d\n")

    def export(rev, dest):  # the base tree: one line fewer
        (dest / "src" / "angsync").mkdir(parents=True)
        (dest / "src" / "angsync" / "core.py").write_text("a\nb\nc\n")

    monkeypatch.setattr(bench_pairs, "export_revision", export)

    def fake_run(tree, workload, seed, seconds, trace):
        digests = dict(DIGESTS)
        if tree == tmp_path and seed == differ_at:
            digests["replay_matches"] = False
        return {"correct": True, "failed": 0, "metrics": {"setup_s": 0.4},
                "digests": digests}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    assert bench_pairs.main(["--workload", "generate-solve", "--seeds", "1001-1003",
                             "--label", "x", "--tmpdir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "BENCH_x_generate_solve.json").read_text())
    assert record["same_digests_pairs"] == expected
    assert record["env"]["src_lines"] == {"base": 3, "change": 4}
    assert [p["same_digests"] for p in record["pairs"]] == [
        p["seed"] != differ_at for p in record["pairs"]]
    assert [p["differing_digests"] for p in record["pairs"]] == [[], [], []]
    out = capsys.readouterr().out
    assert f"same digests on {expected}/3 pairs" in out
    assert record["summary"]["setup_s"]["verdict"] == "held"  # equal runs on both sides
    assert "0/3 pairs won, held\n" in out


def test_workload_list_writes_one_record_each(monkeypatch, tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1,
         "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "workloads",
                        lambda: ("complete-sweep", "generate-solve", "other"))
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    exports = []
    monkeypatch.setattr(bench_pairs, "export_revision", lambda rev, dest: exports.append(dest))
    runs = []

    def fake_run(tree, workload, seed, seconds, trace):
        runs.append((workload, seed, "base" if tree != tmp_path else "change"))
        return {"correct": workload != "generate-solve" or seed != 2, "failed": 0,
                "metrics": {"setup_s": 0.4 if workload == "complete-sweep" else 0.6},
                "digests": DIGESTS}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    # a failed check on one workload's run gives exit 1; both records are written
    assert bench_pairs.main(["--workload", "complete-sweep, generate-solve", "--seeds", "1-2",
                             "--label", "x", "--tmpdir", str(tmp_path)]) == 1
    assert len(exports) == 1
    assert runs == [("complete-sweep", 1, "base"), ("complete-sweep", 1, "change"),
                    ("complete-sweep", 2, "change"), ("complete-sweep", 2, "base"),
                    ("generate-solve", 1, "base"), ("generate-solve", 1, "change"),
                    ("generate-solve", 2, "change"), ("generate-solve", 2, "base")]
    written = sorted(path.name for path in tmp_path.glob("BENCH_*.json"))
    assert written == ["BENCH_x_complete_sweep.json", "BENCH_x_generate_solve.json"]
    for name, workload, setup, correct in [("complete_sweep", "complete-sweep", 0.4, True),
                                           ("generate_solve", "generate-solve", 0.6, False)]:
        record = json.loads((tmp_path / f"BENCH_x_{name}.json").read_text())
        assert record["workload"] == workload and record["all_correct"] is correct
        assert record["summary"]["setup_s"]["base"]["median"] == setup
        assert list(record)[-1] == "env"
    out = capsys.readouterr().out
    assert "complete-sweep: same digests on 2/2 pairs" in out
    assert "generate-solve: same digests on 2/2 pairs" in out


@pytest.mark.parametrize("text", ["complete-sweep,no-such-workload", ",", ""])
def test_bad_workload_list_rejected_before_export(monkeypatch, capsys, text):
    def fail(*args, **kwargs):
        raise AssertionError("exported the base tree for a bad --workload")

    monkeypatch.setattr(bench_pairs, "export_revision", fail)
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--workload", text, "--seeds", "1-2", "--label", "x"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert ("invalid choice: 'no-such-workload'" in err if text.startswith("complete")
            else "no workload given" in err)


def test_parse_workloads_strips_and_keeps_order():
    assert bench_pairs.parse_workloads(" generate-solve ,complete-sweep") == [
        "generate-solve", "complete-sweep"]


def _summary(base, change, better="lower"):
    return bench_pairs.summarize(_pairs(base, change), {"m": better})["m"]


BASE = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]  # median 10.9, IQR 0.9


class TestVerdict:
    """The rule of the choosing-metrics guide, with each metric's bound."""

    @pytest.mark.parametrize("better, sign", [("lower", -1), ("higher", 1)])
    def test_gain(self, better, sign):
        change = [b + sign * 1.0 for b in BASE]  # all ten pairs won, by more than the IQR
        assert bench_pairs.verdict(_summary(BASE, change, better), 0.1) == "gain"

    def test_gain_needs_nine_of_ten_pairs(self):
        change = [b - 1.0 for b in BASE[:8]] + [b + 0.1 for b in BASE[8:]]
        s = _summary(BASE, change)
        assert s["pairs_won"] == 8
        assert bench_pairs.verdict(s, 0.1) == "held"
        change[8] = BASE[8] - 1.0
        assert bench_pairs.verdict(_summary(BASE, change), 0.1) == "gain"

    def test_gain_needs_medians_apart_by_more_than_base_iqr(self):
        change = [b - 0.5 for b in BASE]  # every pair won, medians 0.5 apart, IQR 0.9
        s = _summary(BASE, change)
        assert s["pairs_won"] == 10
        assert bench_pairs.verdict(s, 0.1) == "held"

    @pytest.mark.parametrize("better, sign", [("lower", 1), ("higher", -1)])
    def test_worse_beyond_bound(self, better, sign):
        change = [b + sign * 1.2 for b in BASE]  # 1.2 worse against an allowed 1.09
        assert bench_pairs.verdict(_summary(BASE, change, better), 0.1) == "worse"
        change = [b + sign * 1.0 for b in BASE]  # 1.0 worse: within the bound
        assert bench_pairs.verdict(_summary(BASE, change, better), 0.1) == "held"

    def test_unresolved_when_base_spreads_beyond_bound(self):
        base = [5.0, 6.0, 8.0, 9.0, 10.0, 11.0, 12.0, 14.0, 15.0, 16.0]  # IQR 5.25 on 10.5
        change = list(base)
        assert bench_pairs.verdict(_summary(base, change), 0.25) == "unresolved"
        assert bench_pairs.verdict(_summary(base, change), 0.6) == "held"

    def test_worse_wins_over_unresolved(self):
        base = [5.0, 6.0, 8.0, 9.0, 10.0, 11.0, 12.0, 14.0, 15.0, 16.0]
        change = [b + 5.0 for b in base]
        assert bench_pairs.verdict(_summary(base, change), 0.25) == "worse"
