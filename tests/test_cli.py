"""Command line: exit codes, output determinism, format round-trips."""

import argparse
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elliptica import (
    DistortionBound,
    EllipticityParams,
    HarmonicMap,
    bloch_jacobian_normalized,
    bloch_lambda_normalized,
    build_Fn,
    growth_rate,
    landau,
    random_elliptic,
    verify_bloch_pipeline,
)
from elliptica import hypotheses
from elliptica.cli import _float_arg, _int_arg, build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_to_dict(text: str) -> dict:
    rows = text.strip().splitlines()
    assert rows[0] == "name,value"
    return dict(line.split(",", 1) for line in rows[1:])


class TestConstantsCommand:
    def test_json_payload(self, capsys):
        code, out, err = run(capsys, "constants", "--K", "1", "--Kp", "0", "--lam", "2")
        assert code == 0 and err == ""
        data = json.loads(out)
        res = landau(EllipticityParams(1, 0), DistortionBound(2))
        assert data["growth_rate"] == res.T
        assert data["r1"] == res.r1
        assert data["sigma1"] == res.sigma1
        assert data["bloch_lambda0"]["rho"] == bloch_lambda_normalized(EllipticityParams(1, 0)).rho
        assert data["bloch_jacobian0"]["t"] == bloch_jacobian_normalized(EllipticityParams(1, 0)).t
        assert "classical" not in data

    def test_csv_reparses_to_identical_doubles(self, capsys):
        _, json_out, _ = run(capsys, "constants", "--K", "2", "--Kp", "0.5", "--lam", "1.5")
        _, csv_out, _ = run(capsys, "constants", "--K", "2", "--Kp", "0.5", "--lam", "1.5", "--csv")
        data = json.loads(json_out)
        table = csv_to_dict(csv_out)
        # fixed, documented column order
        assert list(table) == [
            "params.K", "params.Kp", "params.lam", "growth_rate", "r1", "sigma1",
            "bloch_lambda0.t", "bloch_lambda0.rho",
            "bloch_jacobian0.t", "bloch_jacobian0.rho",
        ]
        assert float(table["r1"]) == data["r1"]
        assert float(table["sigma1"]) == data["sigma1"]
        assert float(table["bloch_jacobian0.rho"]) == data["bloch_jacobian0"]["rho"]

    def test_classical_block(self, capsys):
        code, out, _ = run(capsys, "constants", "--K", "1", "--lam", "2", "--M", "2", "--csv")
        table = csv_to_dict(out)
        assert float(table["classical.r0"]) == pytest.approx(0.2679491924311227, abs=1e-16)
        assert list(table)[-3:] == ["classical.M", "classical.r0", "classical.R0"]
        assert code == 0

    def test_byte_deterministic(self, capsys):
        _, a, _ = run(capsys, "constants", "--K", "3", "--Kp", "2", "--lam", "4")
        _, b, _ = run(capsys, "constants", "--K", "3", "--Kp", "2", "--lam", "4")
        assert a == b

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "c.json"
        code, out, _ = run(capsys, "constants", "--K", "1", "--lam", "2", "--out", str(target))
        assert code == 0
        assert f"wrote {target}" in out
        assert json.loads(target.read_text())["r1"] == 0.4

    def test_unwritable_out_is_exit_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "c.json"
        code, _, err = run(capsys, "constants", "--K", "1", "--lam", "2", "--out", str(target))
        assert code == 1
        assert "cannot write" in err

    def test_bad_parameter_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--K", "0.5", "--lam", "2"])
        assert exc.value.code == 2

    def test_overflowing_growth_rate_is_usage_error(self, capsys):
        # T = inf would print Infinity and NaN, which JSON cannot hold
        code, out, err = run(capsys, "constants", "--K", "1e200", "--lam", "1e200")
        assert code == 2 and out == ""
        assert "growth rate overflows" in err
        # the Jacobian-normalized rho underflows to 0, or K'(K + K') overflows
        for args, names in ((("--K", "1e300"), "K = 1e+300, Kp = 0.0"),
                            (("--K", "1", "--Kp", "1e160"), "K = 1.0, Kp = 1e+160")):
            code, out, err = run(capsys, "constants", *args, "--lam", "1")
            assert code == 2 and out == ""
            assert "Bloch rate overflows or radius underflows" in err and names in err


class TestExtremalAndCheckMap:
    def test_round_trip_probe(self, capsys, tmp_path):
        path = tmp_path / "f2.json"
        code, _, _ = run(capsys, "extremal", "--family", "Fn", "--n", "2",
                         "--lam", "2", "--out", str(path))
        assert code == 0
        f = HarmonicMap.load(path)
        assert f.a_n(2) == 0.75

        code, out, _ = run(capsys, "check-map", "--map", str(path), "--r", "0.35",
                           "--mode", "univalence")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["status"] == "certified"

    def test_a_legacy_map_file_gives_the_bytes_of_its_twin(self, capsys, tmp_path):
        # a record from before maps dropped their tail model, and the same
        # coefficients without it, written in turn to one path (c1 prints the path)
        path = tmp_path / "f.json"
        record = build_Fn(2, 2.0, n_terms=32).to_json_dict()
        commands = (["check-map", "--map", str(path), "--r", "0.35", "--mode", "univalence"],
                    ["verify-theorem", "--which", "c1", "--map", str(path), "--K", "2", "--Kp", "0.5"])
        outputs = []
        for data in ({**record, "tail_bound": 1.5e-5, "r_ref": 0.9}, record):
            path.write_text(json.dumps(data))
            outputs.append([run(capsys, *argv) for argv in commands])
        assert outputs[0] == outputs[1]
        (code, out, _), (c1_code, c1_out, _) = outputs[0]
        assert code == 0 and json.loads(out)["status"] == "certified"
        row = json.loads(c1_out)["maps"][0]
        assert c1_code == 0 and row["verdict"] == "pass" and row["source"] == str(path)

    def test_fn_with_overflowing_lam_powers(self, capsys):
        # lam**63 exceeds the float range at lam = 8e4; the term, about 1e-300, stays
        code, out, err = run(capsys, "extremal", "--family", "Fn", "--n", "2", "--lam", "80000")
        assert code == 0 and err == ""
        assert 0.0 < HarmonicMap.from_json_dict(json.loads(out)).a_n(64).real < 1e-299

    @pytest.mark.parametrize("family", [("Fn", "--n", "2", "--lam"), ("classical", "--M")])
    def test_parameter_whose_square_overflows(self, capsys, family):
        # lam^2 and M^2 overflow, but a_2 is about +-1e300 and every coefficient is finite
        code, out, err = run(capsys, "extremal", "--family", *family, "1e300", "--N", "8")
        assert code == 0 and err == ""
        f = HarmonicMap.from_json_dict(json.loads(out))
        assert abs(f.a_n(2)) == pytest.approx(5e299 if family[0] == "Fn" else 1e300, rel=1e-15)
        assert np.isfinite(f.analytic_coeffs).all()

    def test_refutation_exit_code(self, capsys, tmp_path):
        # the verdict still goes to stdout; the exit status carries the answer
        path = tmp_path / "sq.json"
        HarmonicMap([0.0, 0.0, 1.0]).save(path)
        code, out, _ = run(capsys, "check-map", "--map", str(path), "--r", "0.9",
                           "--mode", "univalence")
        assert code == 1
        assert json.loads(out)["status"] == "refuted"

    def test_coverage_mode(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        HarmonicMap.identity().save(path)
        code, out, _ = run(capsys, "check-map", "--map", str(path), "--r", "0.5",
                           "--mode", "coverage", "--rho", "0.45")
        assert code == 0
        assert json.loads(out)["status"] == "certified"

    def test_coverage_without_a_positive_jacobian_is_not_refuted(self, capsys, tmp_path):
        # z + 1.5 conj(z)^2 winds -2 about f(0) = 0, which is covered
        path = tmp_path / "defect.json"
        HarmonicMap([0.0, 1.0], [0.0, 1.5]).save(path)
        code, out, _ = run(capsys, "check-map", "--map", str(path), "--r", "0.9",
                           "--mode", "coverage", "--rho", "0.3")
        assert code == 0
        assert json.loads(out)["status"] == "inconclusive"

    def test_probe_grid_option_is_gone(self, capsys, tmp_path):
        # the probes sample no 2D grid, and their curve sizes and refinement
        # budget are constants, so there is nothing to set
        for option in (["--n-r", "8"], ["--n-theta", "192"], ["--rounds", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(["check-map", "--map", str(tmp_path / "f.json"), "--r", "0.5", "--mode", "univalence",
                      *option])
            assert exc.value.code == 2
            assert "unrecognized arguments: " + " ".join(option) in capsys.readouterr().err

    def test_coverage_requires_rho(self, tmp_path):
        path = tmp_path / "id.json"
        HarmonicMap.identity().save(path)
        with pytest.raises(SystemExit) as exc:
            main(["check-map", "--map", str(path), "--r", "0.5", "--mode", "coverage"])
        assert exc.value.code == 2

    def test_missing_map_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check-map", "--map", str(tmp_path / "no.json"),
                           "--r", "0.5", "--mode", "univalence")
        assert code == 2
        assert "error" in err

    def test_malformed_map_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a": "nope"}')
        code, _, err = run(capsys, "check-map", "--map", str(path),
                           "--r", "0.5", "--mode", "univalence")
        assert code == 2

    def test_oversized_coefficient_is_usage_error(self, capsys, tmp_path):
        # a 401-digit integer overflows float(); that is a malformed map, not a refutation
        path = tmp_path / "huge.json"
        path.write_text('{"a": [[0, 0], [1%s, 0]], "b": [], "tail_bound": 0, "r_ref": 0.9}' % ("0" * 400))
        code, out, err = run(capsys, "check-map", "--map", str(path),
                             "--r", "0.5", "--mode", "univalence")
        assert code == 2
        assert out == ""
        assert "error: malformed harmonic-map record" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", [["univalence"], ["coverage", "--rho", "0.1"]])
    def test_overflowing_map_is_inconclusive_strict_json(self, capsys, tmp_path, mode):
        path = tmp_path / "overflow.json"
        HarmonicMap([0.0, 1.0, 1.5e308, 1.5e308]).save(path)
        code, out, _ = run(capsys, "check-map", "--map", str(path), "--r", "0.9", "--mode", *mode)

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        assert code == 0
        verdict = json.loads(out, parse_constant=reject)
        assert verdict["status"] == "inconclusive"
        assert "non-finite map values" in verdict["resolution"]["reason"]

    def test_extremal_family_argument_coupling(self):
        with pytest.raises(SystemExit) as exc:
            main(["extremal", "--family", "Fn", "--lam", "2"])  # --n missing
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["extremal", "--family", "classical"])  # --M missing
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_coefficient_suite(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--which", "1",
                           "--K", "1", "--Kp", "0", "--lam", "2", "--n-random", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["theorem"] == "coefficient-bounds"
        assert not rep["worst_case"]["refuted"]
        assert rep["runtime_ms"] is None

    def test_c1_route_with_overflowing_effective_kp_names_its_inputs(self, capsys):
        # K'(K + K') overflows; constants says the same for these inputs
        code, out, err = run(capsys, "verify-theorem", "--which", "c1", "--K", "1", "--Kp", "1e200")
        assert code == 2 and out == ""
        assert "Bloch rate overflows or radius underflows for K = 1.0, Kp = 1e+200" in err
        assert run(capsys, "constants", "--K", "1", "--Kp", "1e200", "--lam", "1")[2] == err

    def test_remarks_deterministic(self, capsys):
        args = ("verify-theorem", "--which", "remarks", "--samples", "50")
        code_a, a, _ = run(capsys, *args)
        code_b, b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert a == b

    def test_timestamp_breaks_reproducibility_on_purpose(self, capsys):
        args = ("verify-theorem", "--which", "remarks", "--samples", "20", "--timestamp")
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        rep = json.loads(a)
        assert rep["runtime_ms"] is not None and "timestamp" in rep
        assert a != b

    def test_landau_suite(self, capsys):
        args = ("verify-theorem", "--which", "2", "--n-random", "1")
        code_a, a, _ = run(capsys, *args)
        code_b, b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert a == b
        rep = json.loads(a)
        assert rep["theorem"] == "landau-radius"
        assert [m["id"] for m in rep["maps"]] == ["Fn2", "random0"]

    def test_bloch_suite_is_the_harness_campaign(self, capsys):
        args = ("verify-theorem", "--which", "3", "--K", "2", "--Kp", "0.5", "--lam", "1.5",
                "--seed", "4", "--n-random", "2")
        code_a, a, _ = run(capsys, *args)
        code_b, b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert a == b
        params, bound = EllipticityParams(2.0, 0.5), DistortionBound(1.5)
        entries = [("identity", "identity map", HarmonicMap.identity()),
                   ("Fn2", "series extremal n=2, lam=1.5", build_Fn(2, 1.5))]
        entries += [(f"random{i}", f"random_elliptic(seed={4 + i})", random_elliptic(params, 1.5, 4 + i))
                    for i in range(2)]
        rep = verify_bloch_pipeline(entries, params, bound)
        assert rep["theorem"] == "bloch-pipeline"
        assert a == json.dumps(rep, indent=2) + "\n"

    def test_bloch_suite_adopts_a_polish_stopped_by_its_budget(self, capsys):
        # random2 is random_elliptic(seed=8631), where a simplex polish of the
        # argmax once stopped at its evaluation budget short of the bound
        code, out, _ = run(capsys, "verify-theorem", "--which", "3", "--K", "4", "--Kp", "1",
                           "--lam", "3", "--seed", "8629")
        rep = json.loads(out)
        assert code == 0 and rep["worst_case"]["refuted"] is False
        assert [m["verdict"] for m in rep["maps"]] == ["pass"] * 5

    def test_jacobian_route_exit_codes(self, capsys):
        # the fixture violates the origin bound at K = 1 and satisfies it at K = 4
        code_bad, out_bad, _ = run(capsys, "verify-theorem", "--which", "c1", "--K", "1")
        assert code_bad == 1
        assert json.loads(out_bad)["worst_case"]["refuted"]
        code_ok, out_ok, _ = run(capsys, "verify-theorem", "--which", "c1", "--K", "4")
        assert code_ok == 0
        assert not json.loads(out_ok)["worst_case"]["refuted"]

    def test_jacobian_route_with_an_undecided_review_exits_0(self, capsys, monkeypatch):
        # fewer squares than the first cover: the rescaled review cannot decide,
        # which is inconclusive, not negative
        monkeypatch.setattr(hypotheses, "_CELL_CAP", 100)
        code, out, _ = run(capsys, "verify-theorem", "--which", "c1", "--K", "4")
        rep = json.loads(out)
        assert code == 0 and rep["worst_case"] == {"refuted": False}
        assert rep["maps"][0]["verdict"] == "inconclusive" and rep["maps"][0]["slacks"] == {}


class TestReportAndBoundary:
    def test_aggregate_report(self, capsys):
        code, out, _ = run(capsys, "report", "--K", "1", "--Kp", "0", "--lam", "2",
                           "--n-random", "1", "--samples", "30")
        assert code == 0
        rep = json.loads(out)
        assert set(rep) == {"constants", "coefficient_bounds", "remarks",
                            "runtime_ms", "version"}
        assert rep["constants"]["r1"] == 0.4

    def test_report_constants_match_constants_command(self, capsys):
        params = ("--K", "2.5", "--Kp", "0.75", "--lam", "3")
        _, const_out, _ = run(capsys, "constants", *params)
        _, rep_out, _ = run(capsys, "report", *params, "--n-random", "1", "--samples", "30")
        assert json.loads(rep_out)["constants"] == json.loads(const_out)

    def test_boundary_csv(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        HarmonicMap.identity().save(path)
        code, out, _ = run(capsys, "boundary", "--map", str(path), "--r", "0.4", "--n", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,re,im"
        assert len(lines) == 9
        theta, re, im = map(float, lines[3].split(","))
        assert complex(re, im) == pytest.approx(0.4 * np.exp(1j * theta), abs=1e-16)


# (command line before the capped flag, flag, largest accepted value)
CAPS = [
    ("extremal --family Fn --n 2 --lam 2", "--N", 2**24 - 1),
    ("boundary --map f.json --r 0.5", "--n", 2**24),
    ("verify-theorem --which remarks", "--samples", 2**24),
    ("verify-theorem --which 1", "--n-random", 2**7),
    ("report --K 1 --lam 2", "--samples", 2**24),
    ("report --K 1 --lam 2", "--n-random", 2**7),
]


class TestArgumentCaps:
    """Arguments that size arrays or loops are capped; checked by parsing only."""

    @pytest.mark.parametrize("prefix,flag,cap", CAPS)
    def test_cap_is_a_usage_error(self, prefix, flag, cap, capsys):
        parser = build_parser()
        args = parser.parse_args(shlex.split(prefix) + [flag, str(cap)])
        assert getattr(args, flag[2:].replace("-", "_")) == cap
        for too_big in (cap + 1, 10**30):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(shlex.split(prefix) + [flag, str(too_big)])
            assert exc.value.code == 2
        assert f"must be <= {cap}" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", ["verify-theorem --which 1", "report --K 1 --lam 2 --n-random 0"])
    def test_negative_seed_is_a_usage_error(self, prefix, capsys):
        parser = build_parser()
        assert parser.parse_args(shlex.split(prefix) + ["--seed", "0"]).seed == 0
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(shlex.split(prefix) + ["--seed", "-3"])
        assert exc.value.code == 2
        assert "seed must be >= 0, got -3" in capsys.readouterr().err

    def test_caps_bound_every_array(self):
        caps = {flag: cap for _, flag, cap in CAPS}
        # a random map takes up to 64 draws, each one hypothesis review, then
        # the row's review and the argmax search, each of at most 2^16 squares
        assert caps["--n-random"] * (64 + 2) * hypotheses._CELL_CAP <= 2**30

    def test_readme_examples_parse(self):
        text = README.read_text()
        block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line, comments=True) for line in block.strip().splitlines()]
        assert len(lines) >= 8
        parser = build_parser()
        for argv in lines:
            assert argv[0] == "elliptica"
            parser.parse_args(argv[1:])

    @given(st.text(max_size=40) | st.integers(-10**40, 10**40).map(str) | st.floats().map(repr)
           | st.sampled_from(["1", "1.0", "0.5", "inf", "-inf", "nan", "1e999", "1 ", " x"]))
    def test_int_parser_returns_in_range_or_rejects(self, text):
        # the float parsers too: a number, finite, and above (strict) or at least the bound
        for parse, kind, low in ((_int_arg("x", 1, 1000), int, 1), (_float_arg("x", 1.0), float, 1.0),
                                 (_float_arg("x", 1.0, strict=True), float, 1.0 + 2.0**-52)):
            try:
                value = parse(text)
            except argparse.ArgumentTypeError:
                continue
            assert isinstance(value, kind) and low <= value <= (1000 if kind is int else math.inf)
            assert math.isfinite(value)


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "elliptica 0.1.0" in capsys.readouterr().out

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
