"""In-process CLI coverage: flags, formats, exit codes, file stability."""

import json
import subprocess
import sys

import pytest

from paircodes.cli import main
from paircodes.families import build_family


class TestConstruct:
    def test_json_payload(self, capsys):
        rc = main(["construct", "--family", "dp9", "--q", "5", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        code = build_family("dp9", 5)
        assert (payload["n"], payload["k"]) == (12, 5)
        assert payload["generator"] == [int(c) for c in code.g.coeffs]
        assert payload["defining_set"]["modulus"] == 12
        assert sorted(payload["defining_set"]["exponents"]) == sorted(code.T.exponents)

    def test_congruence_diagnostic(self, capsys):
        rc = main(["construct", "--family", "dp7", "--q", "7"])
        assert rc == 2
        assert "mod 4" in capsys.readouterr().err

    def test_text_format(self, capsys):
        rc = main(["construct", "--family", "dp8", "--q", "11"])
        assert rc == 0
        assert "[40, 34]" in capsys.readouterr().out

    def test_out_file(self, tmp_path):
        target = tmp_path / "code.json"
        rc = main([
            "construct", "--family", "dp7", "--q", "5",
            "--format", "json", "--out", str(target),
        ])
        assert rc == 0
        assert json.loads(target.read_text())["n"] == 24

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["construct", "--family", "dp10", "--q", "5"])


class TestCertify:
    def test_confirmed_exit_and_stable_file(self, tmp_path):
        target = tmp_path / "cert.json"
        argv = [
            "certify", "--family", "dp8", "--q", "3",
            "--format", "json", "--out", str(target),
        ]
        assert main(argv) == 0
        first = target.read_bytes()
        assert main(argv) == 0
        assert target.read_bytes() == first
        payload = json.loads(first)
        assert payload["status"] == "MDS_CONFIRMED"
        assert payload["d_H"]["elapsed_ms"] is None

    def test_discrepancy_exit(self, tmp_path):
        rc = main([
            "certify", "--family", "dp9", "--q", "3",
            "--format", "json", "--out", str(tmp_path / "c.json"),
        ])
        assert rc == 3

    def test_confirmed_stdout_json(self, capsys):
        rc = main(["certify", "--family", "dp9", "--q", "5", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["d_P"]["value"] == 9

    def test_inadmissible_exit(self, capsys):
        assert main(["certify", "--family", "dp7", "--q", "7"]) == 2
        assert "mod 4" in capsys.readouterr().err

    def test_budget_exit(self, tmp_path):
        rc = main([
            "certify", "--family", "dp9", "--q", "5", "--budget", "1e-9",
            "--format", "json", "--out", str(tmp_path / "b.json"),
        ])
        assert rc == 4
        assert json.loads((tmp_path / "b.json").read_text())["status"] == "BUDGET_EXCEEDED"

    def test_text_summary_carries_timings(self, capsys):
        rc = main(["certify", "--family", "dp8", "--q", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MDS_CONFIRMED" in out
        assert "ms" in out


class TestDistance:
    def test_defining_set_input(self, capsys):
        rc = main([
            "distance", "--q", "3", "--n", "8",
            "--defining-set", "0,1,2,4", "--pair", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 2
        assert payload["d_H"]["value"] == 6
        assert payload["d_P"]["value"] == 8
        assert payload["bounds"]["bch"] == 6
        assert payload["bounds"]["hartmann_tzeng"] == 6

    def test_generator_input_matches(self, capsys):
        code = build_family("dp9", 5)
        coeffs = ",".join(str(int(c)) for c in code.g.coeffs)
        rc = main([
            "distance", "--q", "5", "--n", "12",
            "--generator", coeffs, "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 5
        assert payload["d_H"]["value"] == 6

    def test_negacyclic_generator(self, capsys):
        rc = main([
            "distance", "--q", "5", "--n", "6", "--lam", "-1",
            "--generator", "1,0,4,0,1", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lam"] == 4
        assert payload["d_H"]["value"] >= 1
        assert payload["bounds"]["hartmann_tzeng"] is None

    def test_non_divisor_generator_rejected(self, capsys):
        rc = main([
            "distance", "--q", "3", "--n", "8", "--generator", "1,1,1",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_zero_dimension_rejected(self, capsys):
        rc = main([
            "distance", "--q", "3", "--n", "8",
            "--generator", "2,0,0,0,0,0,0,0,1",
        ])
        assert rc == 2

    def test_bad_q_rejected(self):
        assert main(["distance", "--q", "6", "--n", "5", "--generator", "1"]) == 2

    def test_w_max_caps_search(self, capsys):
        # large dimension forces the support-rank engine, where the cap
        # is a real ceiling (the tiny codes above fall into exact full
        # enumeration and ignore it)
        rc = main([
            "distance", "--q", "5", "--n", "24",
            "--defining-set", "0,12,1,6", "--w-max", "3", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["d_H"]["value"] is None
        assert payload["d_H"]["search_bound"] == 3
        assert payload["d_H"]["method"] == "support_rank"


class TestTable:
    def test_grid_rows(self, capsys):
        rc = main(["table", "--family", "dp9", "--q", "3,5", "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(r["q"], r["status"]) for r in rows] == [
            (3, "DISCREPANCY"), (5, "MDS_CONFIRMED"),
        ]
        assert rows[1]["d_P"] == 9

    def test_inadmissible_combos_skipped(self, capsys):
        rc = main(["table", "--family", "dp7,dp8", "--q", "3", "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["family"] for r in rows] == ["dp8"]

    def test_empty_q_list(self, capsys):
        rc = main(["table", "--family", "dp9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "family" in out and "dp9" not in out

    def test_unknown_family_rejected(self, capsys):
        assert main(["table", "--family", "dpx", "--q", "5"]) == 2

    def test_text_grid(self, capsys):
        rc = main(["table", "--family", "dp8", "--q", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MDS_CONFIRMED" in out


def test_module_entry_point(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "paircodes", "construct",
         "--family", "dp9", "--q", "5", "--format", "json"],
        capture_output=True, text=True, timeout=120, env=src_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["k"] == 5
