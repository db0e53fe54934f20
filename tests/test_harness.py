"""Renormalization pipeline, random map generator, campaign reports."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import elliptica
from elliptica import (
    BlochRescaledMap,
    DiskAutomorphism,
    DistortionBound,
    EllipticityParams,
    HarmonicMap,
    SamplingSpec,
    bloch_pipeline,
    build_Fn,
    build_report,
    ellipticity_check,
    parallel_map,
    profile,
    random_elliptic,
    remark_campaign,
    sup_lambda_min,
    thread_count,
    verify_bloch_pipeline,
    verify_coefficient_bounds,
    verify_jacobian_normalized,
    verify_landau_probes,
)
from elliptica import seriescore
from elliptica.harness import _hypothesis_review

P = EllipticityParams
SMALL_GRID = SamplingSpec(n_r=24, n_theta=96, refinement_rounds=2)


class TestThreading:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("ELLIPTICA_THREADS", raising=False)
        assert thread_count() == 1

    @pytest.mark.parametrize("raw,expect", [("4", 4), ("0", 1), ("-2", 1), ("x", 1)])
    def test_parsing(self, monkeypatch, raw, expect):
        monkeypatch.setenv("ELLIPTICA_THREADS", raw)
        assert thread_count() == expect

    def test_parallel_map_preserves_order(self, monkeypatch):
        monkeypatch.setenv("ELLIPTICA_THREADS", "4")
        items = list(range(40))
        assert parallel_map(lambda k: k * k, items) == [k * k for k in items]

    def test_parallel_map_sequential_path(self, monkeypatch):
        monkeypatch.delenv("ELLIPTICA_THREADS", raising=False)
        assert parallel_map(str, [1, 2]) == ["1", "2"]


class TestDiskAutomorphism:
    def test_moves_origin(self):
        phi = DiskAutomorphism(0.3 + 0.4j)
        assert phi(0.0) == 0.3 + 0.4j

    def test_identity_at_zero(self):
        phi = DiskAutomorphism(0.0)
        for z in (0.5, -0.2 + 0.7j):
            assert phi(z) == z

    def test_inverse_composition(self):
        phi = DiskAutomorphism(0.3 - 0.55j)
        inv = DiskAutomorphism(-(0.3 - 0.55j))
        for z in (0.1, 0.6j, -0.4 - 0.4j):
            assert abs(inv(phi(z)) - z) < 1e-14

    def test_keeps_the_disk(self):
        phi = DiskAutomorphism(0.62)
        theta = np.linspace(0, 2 * np.pi, 64)
        z = 0.95 * np.exp(1j * theta)
        assert np.all(np.abs(phi(z)) < 1.0)

    def test_deriv_matches_difference_quotient(self):
        phi = DiskAutomorphism(0.25 + 0.5j)
        h = 1e-6
        for z in (0.0, 0.3 - 0.2j):
            fd = (phi(z + h) - phi(z - h)) / (2 * h)
            assert abs(phi.deriv(z) - fd) < 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskAutomorphism(1.0)


class TestBlochRescaledMap:
    def test_origin_is_fixed_exactly(self):
        f = build_Fn(2, 2.0)
        g = BlochRescaledMap(f, 0.3 + 0.1j, 1.1)
        assert g.eval(0.0) == 0.0

    @pytest.mark.parametrize("w", [0.0, 0.4 + 0.2j, -0.7j, 0.9])
    def test_partials_match_central_differences(self, w):
        f = random_map = random_elliptic(P(2, 0.5), 1.5, seed=5)
        g = BlochRescaledMap(random_map, 0.2 - 0.3j, 0.8)
        h = 1e-6
        dx = (g.eval(w + h) - g.eval(w - h)) / (2 * h)
        dy = (g.eval(w + 1j * h) - g.eval(w - 1j * h)) / (2 * h)
        gz, gzb = g.partials(w)
        assert abs(gz - 0.5 * (dx - 1j * dy)) < 1e-8
        assert abs(gzb - 0.5 * (dx + 1j * dy)) < 1e-8
        del f

    def test_vectorized_agrees_with_scalar(self):
        # scalar evaluation goes through CPython complex division, the array
        # path through numpy's; they agree to an ulp, not bitwise
        g = BlochRescaledMap(build_Fn(2, 2.0), 0.1j, 1.0)
        ws = np.array([0.2, 0.4 - 0.1j])
        ev = g.eval(ws)
        pz, pzb = g.partials(ws)
        assert abs(ev[0] - g.eval(complex(ws[0]))) < 1e-15
        sz, szb = g.partials(complex(ws[1]))
        assert abs(pz[1] - sz) < 1e-15 and abs(pzb[1] - szb) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            BlochRescaledMap(build_Fn(2, 2.0), 0.0, 0.0)


def test_import_does_not_load_scipy():
    # scipy.optimize serves only bloch_pipeline and is most of the import time
    src = os.path.dirname(os.path.dirname(elliptica.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, elliptica; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestBlochPipeline:
    def test_identity_trace_is_exact(self):
        tr = bloch_pipeline(HarmonicMap.identity(), P(1, 0))
        assert tr.sup_weighted_distortion == 1.0
        assert tr.argmax_point == 0.0
        assert tr.lambda_origin == 1.0
        assert tr.distortion_bound_excess == 0.0
        assert tr.ellipticity_margin == 0.0

    def test_extremal_trace(self):
        tr = bloch_pipeline(build_Fn(2, 2.0), P(1, 0))
        # analytic input: the quadrupled-constant margin is exactly zero
        assert tr.ellipticity_margin == 0.0
        assert tr.distortion_bound_excess <= 0.0
        assert tr.lambda_origin == 1.0
        assert tr.sup_weighted_distortion == pytest.approx(1.2699128430242796, abs=1e-12)

    def test_random_map_trace(self):
        f = random_elliptic(P(2, 0.5), 1.5, seed=11)
        tr = bloch_pipeline(f, P(2, 0.5))
        assert abs(tr.lambda_origin - 1.0) <= 1e-12
        assert tr.distortion_bound_excess <= 1e-9
        assert tr.ellipticity_margin >= -1e-9
        assert tr.sup_weighted_distortion > 0

    def test_polish_stopped_by_its_budget_still_improves_the_argmax(self):
        # Nelder-Mead stops at maxfev here, at 1.0329406 against the grid's
        # 1.0328814; keeping the grid point left lambda above 2/(2 - |w|^2)
        f = random_elliptic(P(4, 1), 3.0, seed=8631)
        tr = bloch_pipeline(f, P(4, 1))
        assert tr.sup_weighted_distortion > 1.03294
        assert tr.distortion_bound_excess <= 1e-9

    def test_requires_normalized_input(self):
        with pytest.raises(ValueError):
            bloch_pipeline(HarmonicMap([0.0, 2.0]), P(1, 0))

    def test_trace_serializes(self):
        tr = bloch_pipeline(HarmonicMap.identity(), P(1, 0))
        d = tr.to_json_dict()
        assert set(d) == {"sup_weighted_distortion", "argmax_point", "center_estimate",
                          "lambda_origin", "distortion_bound_excess",
                          "ellipticity_margin", "sample_count"}
        json.dumps(d)


class TestRandomElliptic:
    def test_deterministic(self):
        a = random_elliptic(P(2, 0.5), 1.5, seed=3)
        b = random_elliptic(P(2, 0.5), 1.5, seed=3)
        assert np.array_equal(a.analytic_coeffs, b.analytic_coeffs)
        assert np.array_equal(a.antianalytic_coeffs, b.antianalytic_coeffs)
        c = random_elliptic(P(2, 0.5), 1.5, seed=4)
        assert not np.array_equal(a.analytic_coeffs, c.analytic_coeffs)

    def test_normalization_exact(self):
        f = random_elliptic(P(2, 0.5), 1.5, seed=7)
        assert f.eval(0.0) == 0.0
        assert profile(f, 0.0).lambda_min == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_hypotheses(self, seed):
        params, lam = P(2, 0.5), 1.5
        f = random_elliptic(params, lam, seed=seed)
        from elliptica import ellipticity_check, sup_lambda_min
        assert sup_lambda_min(f, 0.999, SMALL_GRID) <= lam
        rep = ellipticity_check(f, params, SMALL_GRID)
        assert rep.min_margin >= 0
        assert rep.sense_preserving_everywhere_sampled

    def test_conformal_regime_has_no_antianalytic_part(self):
        f = random_elliptic(P(1, 0), 2.0, seed=1)
        assert np.all(f.antianalytic_coeffs == 0)

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(RuntimeError):
            random_elliptic(P(1, 0), 1.0)
        with pytest.raises(ValueError):
            random_elliptic(P(1, 0), 0.5)


def test_grid_scans_make_no_horner_pass_beyond_a_cloud(monkeypatch):
    f = random_elliptic(P(2, 0.5), 1.5, seed=11)
    sizes = []
    horner = seriescore._horner

    def counting(coeffs, z):
        sizes.append(np.size(z))
        return horner(coeffs, z)

    monkeypatch.setattr(seriescore, "_horner", counting)
    random_elliptic(P(2, 0.5), 1.5, seed=12)
    ellipticity_check(f, P(2, 0.5))
    assert sizes and max(sizes) <= 128
    sizes.clear()
    bloch_pipeline(f, P(2, 0.5))
    # only the rescaled map, a composition without rings, is evaluated at
    # the grid points: its base map's h' and g' over every ring and the centre
    assert [n for n in sizes if n > 128] == [64 * 256 + 1] * 2


BENCHMARK_REGIMES = ((2.0, 0.5, 1.5), (1.0, 0.0, 2.0), (4.0, 1.0, 3.0), (1.5, 0.25, 1.2))


class TestHypothesisReview:
    def test_one_partials_call_on_the_grid(self, monkeypatch):
        # the 64 x 256 grid is read once, its rings (and a radius-0 ring for
        # the centre) summed by on_rings; point partials serve only the
        # origin and the refinement clouds
        f = random_elliptic(P(2, 0.5), 1.5, seed=0)
        rings, sizes = [], []
        on_rings, partials = HarmonicMap.on_rings, HarmonicMap.partials

        def ring_recording(self, radii, n, partials=False):
            rings.append((np.size(radii), n, partials))
            return on_rings(self, radii, n, partials)

        def recording(self, z):
            sizes.append(np.size(z))
            return partials(self, z)

        monkeypatch.setattr(HarmonicMap, "on_rings", ring_recording)
        monkeypatch.setattr(HarmonicMap, "partials", recording)
        ok, _ = _hypothesis_review(f, P(2, 0.5), DistortionBound(1.5))
        assert ok
        assert rings == [(65, 256, True)]
        assert sizes and max(sizes) <= 128

    @pytest.mark.parametrize("k,kp,lam", BENCHMARK_REGIMES)
    def test_sup_lambda_is_the_grid_supremum(self, k, kp, lam):
        grid = SamplingSpec(n_r=64, n_theta=256, refinement_rounds=3)
        for seed in range(4):
            f = random_elliptic(P(k, kp), lam, seed=seed)
            _, detail = _hypothesis_review(f, P(k, kp), DistortionBound(lam))
            assert detail["sup_lambda"] == sup_lambda_min(f, 0.999, grid)


class TestCampaigns:
    def test_coefficient_bounds_extremal_is_sharp(self):
        params, bound = P(1, 0), DistortionBound(2)
        entries = [("Fn2", "series extremal", build_Fn(2, 2.0))]
        rep = verify_coefficient_bounds(entries, params, bound)
        assert not rep["worst_case"]["refuted"]
        assert rep["maps"][0]["verdict"] == "pass"
        # degree 2 attains the bound: zero slack, to the last bit
        assert rep["worst_case"]["slack"] == 0.0
        assert rep["worst_case"]["degree"] == 2

    def test_coefficient_bounds_excludes_hypothesis_violators(self):
        params, bound = P(1, 0), DistortionBound(2)
        wild = HarmonicMap([0.0, 1.0, 1.0])  # sup lambda ~ 3 breaks the cap
        rep = verify_coefficient_bounds([("wild", "crafted", wild)], params, bound)
        assert rep["maps"][0]["verdict"] == "excluded"
        reasons = rep["maps"][0]["verdicts"]["hypotheses"]["reasons"]
        assert any("sup lambda" in r for r in reasons)
        assert not rep["worst_case"]["refuted"]

    def test_landau_probes_certify_extremal(self):
        params, bound = P(1, 0), DistortionBound(2)
        entries = [("Fn2", "series extremal", build_Fn(2, 2.0))]
        rep = verify_landau_probes(entries, params, bound)
        assert rep["maps"][0]["verdict"] == "certified"
        assert not rep["worst_case"]["refuted"]
        assert rep["worst_case"]["probe_radius"] == pytest.approx(0.4 * (1 - 1e-6))

    def test_worst_case_is_the_first_least_slack_map(self):
        params, bound = P(1, 0), DistortionBound(2)
        entries = [("id", "identity", HarmonicMap.identity()),
                   ("first", "series extremal", build_Fn(2, 2.0)),
                   ("second", "series extremal", build_Fn(2, 2.0))]
        rep = verify_coefficient_bounds(entries, params, bound)
        # the identity has no degree >= 2 and so no slacks; ties go to the first map
        assert rep["maps"][0]["slacks"] == {}
        assert rep["worst_case"] == {"refuted": False, "map": "first", "degree": 2, "slack": 0.0}

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bloch_campaign_excludes_a_map_the_pipeline_rejects(self, monkeypatch, threads):
        monkeypatch.setenv("ELLIPTICA_THREADS", threads)
        params, bound = P(1, 0), DistortionBound(2)
        # lambda(0) = 1, but J = 1 + 1.2 Re z is negative for Re z < -5/6
        reversing = HarmonicMap([0, 1, 0.3], [0, 0.3])
        with pytest.raises(RuntimeError, match="sense-reversal") as exc:
            bloch_pipeline(reversing, params)
        good = [("identity", "identity map", HarmonicMap.identity()),
                ("Fn2", "series extremal", build_Fn(2, 2))]
        rep = verify_bloch_pipeline([good[0], ("bad", "crafted", reversing), good[1]],
                                    params, bound)
        assert rep["theorem"] == "bloch-pipeline"
        assert rep["maps"][1] == {"id": "bad", "source": "crafted", "verdict": "excluded",
                                  "verdicts": {"error": str(exc.value)}, "slacks": {}}
        for entry, row in zip(good, (rep["maps"][0], rep["maps"][2])):
            assert row == verify_bloch_pipeline([entry], params, bound)["maps"][0]
            assert row["verdict"] == "pass"
        assert rep["worst_case"]["refuted"] is False
        assert rep["worst_case"]["map"] in ("identity", "Fn2")

    def test_jacobian_normalized_route(self):
        aff = HarmonicMap([0.0, 1.25], [0.75])  # J(0) = 1.25^2 - 0.75^2 = 1
        bad = verify_jacobian_normalized(aff, P(1, 0), map_id="aff")
        assert bad["worst_case"]["refuted"]
        assert not bad["maps"][0]["verdicts"]["lambda0_bound_holds"]
        good = verify_jacobian_normalized(aff, P(4, 0), map_id="aff")
        assert not good["worst_case"]["refuted"]
        # rescaled by 1/lambda(0) = 2 and checked at the inflated constant
        assert good["params"]["Kp_eff"] == 0.0
        assert good["maps"][0]["slacks"]["ellipticity_margin"] == 0.0

    def test_jacobian_normalized_validation(self):
        with pytest.raises(ValueError):
            verify_jacobian_normalized(HarmonicMap([0.0, 2.0]), P(1, 0))

        class Affine:
            def eval(self, z):
                return 1.25 * z + 0.75 * np.conj(z)

            def partials(self, z):
                one = np.ones_like(z)
                return 1.25 * one, 0.75 * one

        with pytest.raises(TypeError):
            verify_jacobian_normalized(Affine(), P(4, 0))

    def test_remark_campaign_small(self):
        rep = remark_campaign(samples=60)
        wc = rep["worst_case"]
        assert not wc["refuted"]
        assert wc["failures"] == 0 and wc["psi_failures"] == 0
        # the literal printed comparison does fail on part of the box
        assert wc["literal_radius_violations"] > 0
        assert set(wc["min_slacks"]) == {"correction", "radius", "sigma", "radius_literal"}
        assert set(wc["argmin"]["radius"]) == {"K", "Kp", "lam"}
        assert wc["min_slacks"]["radius"] > 0

    def test_report_shape(self):
        rep = build_report("x", {"K": 1.0}, [], {"refuted": False})
        assert set(rep) == {"theorem", "params", "maps", "worst_case",
                            "runtime_ms", "version"}
        assert rep["runtime_ms"] is None

    def test_campaign_reports_serialize(self):
        rep = remark_campaign(samples=5)
        json.dumps(rep)
