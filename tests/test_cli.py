import json

import pytest

from tpir import audit, cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_golden(capsys):
    code, out, _ = run(capsys, "capacity", "-K", "2", "-N", "3", "-T", "2")
    assert code == 0
    assert "3/5" in out


def test_capacity_t_equals_n(capsys):
    code, out, _ = run(capsys, "capacity", "-K", "5", "-N", "3", "-T", "3")
    assert code == 0
    assert "1/5" in out


def test_capacity_records_parseable(capsys):
    code, out, _ = run(capsys, "capacity", "-K", "2", "-N", "4", "-T", "3",
                       "--format", "records")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["capacity"] == "4/7"
    assert rec["schema"] == 1


@pytest.mark.parametrize("K, N, T, cost", [(2, 4, 2, "3/2"), (3, 3, 2, "19/9")],
                         ids=["K2N4T2", "K3N3T2"])
def test_capacity_records_give_the_download_cost_as_the_reciprocal(capsys, K, N, T, cost):
    code, out, _ = run(capsys, "capacity", "-K", str(K), "-N", str(N), "-T", str(T),
                       "--format", "records")
    assert code == 0
    assert json.loads(out.strip())["download_cost_per_bit"] == cost


def test_capacity_bad_range_is_usage_error(capsys):
    code, _, err = run(capsys, "capacity", "-K", "2", "-N", "3", "-T", "4")
    assert code == 2


def test_layout_table(capsys):
    code, out, _ = run(capsys, "layout", "-K", "2", "-N", "3", "-T", "2")
    assert code == 0
    assert "rows/db=5" in out and "total=15" in out


def test_layout_records_give_no_code_for_a_pair_block_without_core(capsys):
    # at T = N the pair block {1,2} has alpha = 0, so no MDS code exists for it
    code, out, _ = run(capsys, "layout", "-K", "3", "-N", "2", "-T", "2", "-M", "3",
                       "--format", "records")
    assert code == 0
    rows = {r["block"]: r for r in map(json.loads, out.splitlines())}
    assert rows["{1,2}"]["mixes_desired"] is False and rows["{1,2}"]["alpha"] == 0
    assert rows["{1,2}"]["code"] == "-"
    assert rows["{1}"]["code"] == rows["{2}"]["code"] == "(12,8)"
    assert rows["{0}"]["code"] == "-"


def test_layout_rejects_zero_databases(capsys):
    code, out, err = run(capsys, "layout", "-K", "2", "-N", "3", "-T", "2", "-M", "0")
    assert code == 2
    assert out == "" and "N <= M" in err


def test_layout_refuses_a_default_modulus_beyond_the_bound(capsys):
    # the default q of K = N = 10 is 10000000019, too large for exact products
    code, out, err = run(capsys, "layout", "-K", "10", "-N", "10", "-T", "1")
    assert code == 2
    assert out == "" and "2^53" in err


def test_demo_small(capsys):
    code, out, _ = run(capsys, "demo", "-K", "2", "-N", "3", "-T", "2",
                       "--seed", "7")
    assert code == 0
    assert "5 rows per database" in out
    assert "exactly: True" in out
    assert "rate 9/15 = 3/5" in out


DEMO_GOLDEN = {
    ("-K", "2", "-N", "3", "-T", "2", "--seed", "7"): """\
# Retrieval demo: K=2 messages of L=9 symbols, N=3 of M=3 databases answer, T=2-collusion privacy, GF(11)

## Layout (desired message: 0)
  block {0}: 2 rows/db (desired, alpha=6)
  block {1}: 2 rows/db (side information, alpha=6)
  block {0,1}: 1 rows/db (desired+side-info, alpha=3)
  => 5 rows per database, 15 total

## Per-database answers
  db 0: [5, 7, 4, 7, 3] (5 symbols)
  db 1: [6, 3, 10, 7, 8] (5 symbols)
  db 2: [5, 0, 1, 6, 5] (5 symbols)

## Decode from databases [0, 1, 2]
  recovered message 0 exactly: True
  rate 9/15 = 3/5, capacity = 3/5, equal: True
""",
    ("-K", "3", "-N", "2", "-T", "1", "-M", "4", "--seed", "9"): """\
# Retrieval demo: K=3 messages of L=8 symbols, N=2 of M=4 databases answer, T=1-collusion privacy, GF(17)

## Layout (desired message: 2)
  block {0}: 1 rows/db (side information, alpha=2)
  block {1}: 1 rows/db (side information, alpha=2)
  block {2}: 1 rows/db (desired, alpha=2)
  block {0,1}: 1 rows/db (side information, alpha=2)
  block {0,2}: 1 rows/db (desired+side-info, alpha=2)
  block {1,2}: 1 rows/db (desired+side-info, alpha=2)
  block {0,1,2}: 1 rows/db (desired+side-info, alpha=2)
  => 7 rows per database, 14 total

## Per-database answers
  db 0: [5, 5, 12, 2, 15, 0, 2] (7 symbols)
  db 1: [0, 15, 4, 2, 2, 9, 14] (7 symbols)
  db 2: [12, 8, 7, 2, 10, 14, 13] (7 symbols)
  db 3: [7, 1, 10, 2, 5, 7, 1] (7 symbols)

## Decode from databases [0, 1]
  recovered message 2 exactly: True
  rate 8/14 = 4/7, capacity = 4/7, equal: True
""",
}


@pytest.mark.parametrize("argv", list(DEMO_GOLDEN), ids=["K2N3T2", "K3N2T1M4"])
def test_demo_golden_output(capsys, argv):
    code, out, _ = run(capsys, "demo", *argv)
    assert code == 0
    assert out == DEMO_GOLDEN[argv]


def test_demo_three_messages(capsys):
    code, out, _ = run(capsys, "demo", "-K", "3", "-N", "3", "-T", "2",
                       "--seed", "1")
    assert code == 0
    assert "19 rows per database" in out
    assert "rate 27/57 = 9/19" in out


def test_demo_trivial_k1(capsys):
    code, out, _ = run(capsys, "demo", "-K", "1", "-N", "2", "-T", "1",
                       "--seed", "0")
    assert code == 0
    assert "exactly: True" in out


def test_demo_guard(capsys):
    code, _, err = run(capsys, "demo", "-K", "7", "-N", "5", "-T", "2",
                       "--seed", "0")
    assert code == 2
    assert "audit" in err


def test_audit_passes(capsys):
    code, out, _ = run(capsys, "audit", "-K", "2", "-N", "3", "-T", "2",
                       "-M", "4", "--seed", "3", "--trials", "3")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_audit_records(capsys):
    code, out, _ = run(capsys, "audit", "-K", "2", "-N", "2", "-T", "1",
                       "--seed", "3", "--trials", "2", "--format", "records")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["passed"] for r in recs)
    assert {"rate_equals_capacity", "structural_privacy", "correctness_sweep"} <= {
        r["check"] for r in recs
    }


def test_audit_break_alignment_detected(capsys):
    code, out, _ = run(capsys, "audit", "-K", "2", "-N", "2", "-T", "1",
                       "--seed", "3", "--trials", "2", "--break-alignment")
    assert code == 0  # detection of the injected fault is the passing outcome
    assert "structural_privacy_detects_broken" in out


def test_audit_lemma1_flag(capsys):
    code, out, _ = run(capsys, "audit", "-K", "2", "-N", "2", "-T", "1",
                       "--seed", "3", "--trials", "2",
                       "--lemma1", "alpha=3,beta=2,q=2")
    assert code == 0
    assert "lemma1_alpha3_beta2_q2" in out


def test_audit_bad_lemma1_spec(capsys):
    code, _, err = run(capsys, "audit", "-K", "2", "-N", "2", "-T", "1",
                       "--seed", "3", "--lemma1", "bogus")
    assert code == 2


@pytest.mark.parametrize("q", [4, 1])
def test_audit_lemma1_with_non_prime_q_is_usage_error(capsys, q):
    code, _, err = run(capsys, "audit", "-K", "2", "-N", "2", "-T", "1",
                       "--seed", "3", "--trials", "2",
                       "--lemma1", f"alpha=2,beta=1,q={q}")
    assert code == 2
    assert f"q={q} is not prime" in err


def test_audit_lemma1_beyond_the_enumeration_guard_is_usage_error(capsys):
    # |GL(2, 61)| * 2^2 entries exceed 2^24; rejected before any check runs
    code, out, err = run(capsys, "audit", "-K", "2", "-N", "2", "-T", "1",
                         "--seed", "3", "--trials", "2",
                         "--lemma1", "alpha=2,beta=1,q=61")
    assert code == 2
    assert "GL(2,61) too large to enumerate" in err and out == ""


def test_audit_lemma1_beyond_the_work_bound_is_usage_error(capsys, monkeypatch):
    # GL(2, 31) can be enumerated, but 1.8 million (G, I) cases of it cannot
    # be compared in reasonable time; rejected before any check runs
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(audit, "capacity_shape_check", no_check)
    code, out, err = run(capsys, "audit", "-K", "2", "-N", "2", "-T", "1", "-M", "2",
                         "--seed", "1", "--lemma1", "alpha=2,beta=2,q=31")
    assert code == 2
    assert "too long" in err and out == ""


def test_audit_one_shared_key_passes(capsys):
    # at q = 2 every plan is the same; the empirical check passes with p = 1
    code, out, err = run(capsys, "audit", "-K", "2", "-N", "1", "-T", "1", "-M", "2",
                         "--seed", "1", "-R", "2000", "--format", "records")
    assert code == 0, err
    empirical = [json.loads(line) for line in out.splitlines()][-1]
    assert empirical["check"] == "empirical_privacy" and empirical["passed"]
    assert empirical["details"]["min_p"] == 1.0


def test_audit_generates_seed_when_absent(capsys):
    code, out, err = run(capsys, "audit", "-K", "2", "-N", "2", "-T", "1",
                         "--trials", "2")
    assert code == 0
    assert "seed:" in err and "seed:" not in out  # printed for reproducibility


def test_audit_records_without_seed_are_json_lines(capsys):
    code, out, _ = run(capsys, "audit", "-K", "2", "-N", "2", "-T", "1",
                       "--trials", "2", "--format", "records")
    assert code == 0
    lines = out.splitlines()
    assert lines and all(json.loads(line)["passed"] for line in lines)


def test_audit_empirical_with_one_message_is_usage_error(capsys):
    code, out, err = run(capsys, "audit", "-K", "1", "-N", "2", "-T", "1",
                         "--seed", "1", "-R", "200")
    assert code == 2
    assert "K >= 2" in err


def test_audit_zero_trials_is_usage_error(capsys):
    code, out, err = run(capsys, "audit", "-K", "2", "-N", "2", "-T", "1",
                         "--seed", "1", "--trials", "0")
    assert code == 2
    assert "trials=0" in err


def test_audit_zero_samples_is_usage_error(capsys):
    # -R 0 must not skip the empirical check and pass
    code, out, err = run(capsys, "audit", "-K", "2", "-N", "2", "-T", "1",
                         "--seed", "1", "-R", "0")
    assert code == 2
    assert out == "" and "sample_count=0" in err


@pytest.mark.parametrize(
    "point,count,message",
    [
        ("4 5 2 7", ["--trials", "0"], "trials=0"),
        ("4 5 2 7", ["-R", "0"], "sample_count=0"),
        ("1 2 1 3", ["-R", "200"], "K >= 2"),
    ],
    ids=["no-trials", "no-samples", "one-message"],
)
def test_audit_bad_counts_are_usage_errors_before_any_check(capsys, monkeypatch, point, count,
                                                           message):
    # at the benchmark's L = 625 point the checks before the empirical one
    # would take most of a second; a bad count must be rejected first
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    for check in ("capacity_shape_check", "structural_privacy_check"):
        monkeypatch.setattr(audit, check, no_check)
    K, N, T, M = point.split()
    code, out, err = run(capsys, "audit", "-K", K, "-N", N, "-T", T, "-M", M,
                         "--seed", "1", *count)
    assert code == 2
    assert out == "" and message in err


def test_simulate_with_drops(capsys):
    code, out, _ = run(capsys, "simulate", "-K", "2", "-N", "3", "-T", "2",
                       "-M", "5", "--drop", "1,3", "--seed", "2")
    assert code == 0
    assert "True" in out and "0,2,4" in out


def test_simulate_oversized_drop_usage_error(capsys):
    code, _, err = run(capsys, "simulate", "-K", "2", "-N", "3", "-T", "2",
                       "-M", "5", "--drop", "0,1,2", "--seed", "2")
    assert code == 2


def test_simulate_logs_to_dir(capsys, tmp_path):
    code, _, _ = run(capsys, "simulate", "-K", "2", "-N", "2", "-T", "1",
                     "--seed", "2", "--log-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "sessions.jsonl").exists()


def test_simulate_log_record_carries_no_seed(capsys, tmp_path):
    # with the seed in the record, the queries of every index could be rebuilt
    # and matched against its digests
    code, _, _ = run(capsys, "simulate", "-K", "3", "-N", "3", "-T", "2", "-M", "4",
                     "--desired", "1", "--seed", "12345", "--log-dir", str(tmp_path))
    assert code == 0
    rec = json.loads((tmp_path / "sessions.jsonl").read_text())
    assert rec["schema"] == 2
    assert set(rec["params"]) == {"K", "N", "T", "M", "q"}
    assert "seed" not in rec


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["capacity", "--bogus"]) == 2
