"""Renormalization pipeline, random map generator, campaign reports."""

import ast
import importlib
import inspect
import json
import math
import os
import pickle
import pkgutil
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import elliptica
from elliptica import (
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
from elliptica import distortion, harness, hypotheses, sampling, seriescore
from elliptica.distortion import stretches
from elliptica.harness import _hypothesis_review
from elliptica.sampling import polar_grid, sample_grid

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


class TestRescaledPartials:
    """The chain rule the pipeline applies to G(w) = sqrt(2)/m (f(phi(w/sqrt 2)) - f(z0))."""

    F, Z0, M = random_elliptic(P(2, 0.5), 1.5, seed=5), 0.2 - 0.3j, 0.8

    def g(self, w):
        zeta = w / math.sqrt(2.0)
        return math.sqrt(2.0) / self.M * (self.F.eval((zeta + self.Z0) / (1.0 + np.conj(self.Z0) * zeta))
                                          - self.F.eval(self.Z0))

    @pytest.mark.parametrize("w", [0.0, 0.4 + 0.2j, -0.7j, 0.9])
    def test_partials_match_central_differences(self, w):
        h = 1e-6
        dx = (self.g(w + h) - self.g(w - h)) / (2 * h)
        dy = (self.g(w + 1j * h) - self.g(w - 1j * h)) / (2 * h)
        gz, gzb = harness._rescaled_partials(self.F, self.Z0, self.M, w)
        assert abs(gz - 0.5 * (dx - 1j * dy)) < 1e-8
        assert abs(gzb - 0.5 * (dx + 1j * dy)) < 1e-8

    def test_scalar_and_array_calls_agree(self):
        # scalar evaluation goes through CPython complex division, the array
        # path through numpy's; they agree to an ulp, not bitwise
        ws = np.array([0.0, 0.4 + 0.2j, -0.7j, 0.9])
        pz, pzb = harness._rescaled_partials(self.F, self.Z0, self.M, ws)
        for k, w in enumerate(ws):
            sz, szb = harness._rescaled_partials(self.F, self.Z0, self.M, complex(w))
            assert abs(pz[k] - sz) < 1e-15 and abs(pzb[k] - szb) < 1e-15


def _python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports elliptica from this tree."""
    src = os.path.dirname(os.path.dirname(elliptica.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_cli_import_loads_no_scipy_mpmath_or_thread_pool():
    # each would cost every cold CLI call: mpmath loads on the first eval_hp,
    # concurrent.futures only for a threaded campaign, scipy never, and numpy
    # only in a command that builds arrays
    code = ("import sys\n"
            "def heavy():\n"
            "    return sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy', 'mpmath', 'concurrent'})\n"
            "import elliptica\n"
            "loaded = [heavy()]\n"
            "import elliptica.cli\n"
            "print(loaded + [heavy()])")
    out = _python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[[], []]"


@pytest.mark.parametrize("argv", [
    ["constants", "--K", "2.5", "--Kp", "0.75", "--lam", "3"],
    ["constants", "--K", "1.5", "--lam", "2", "--M", "3", "--csv"],
    ["verify-theorem", "--which", "remarks", "--samples", "700"],
    ["--version"],
])
def test_array_free_commands_run_without_numpy(argv):
    # the same bytes with numpy unimportable, and no numpy loaded when it is importable
    def run(block: bool) -> subprocess.CompletedProcess:
        code = ("import sys\n"
                + ("sys.modules['numpy'] = None\n" if block else "")
                + "from elliptica.cli import main\n"
                f"try:\n    code = main({argv!r})\nexcept SystemExit as exc:\n    code = exc.code\n"
                "sys.stderr.write(f'numpy loaded: {sys.modules.get(\"numpy\") is not None}')\n"
                "sys.exit(code)")
        return _python(code)

    blocked, plain = run(True), run(False)
    assert blocked.returncode == plain.returncode == 0, blocked.stderr
    assert blocked.stdout and blocked.stdout == plain.stdout
    assert plain.stderr.endswith("numpy loaded: False")


def test_every_exported_name_resolves_once():
    # the benchmark's tracer reads each module's __all__ with getattr, so a
    # name left behind by a deletion would break every traced run
    modules = [elliptica, *(importlib.import_module(f"elliptica.{name}") for name in (
        "constants", "distortion", "extremals", "harness", "hypotheses", "oracles", "sampling", "seriescore"))]
    for mod in modules:
        assert len(mod.__all__) == len(set(mod.__all__)), mod.__name__
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


class TestLazyExports:
    def test_each_name_is_its_home_modules_object(self):
        for name in elliptica.__all__:
            if name == "__version__":
                continue
            home = importlib.import_module(f"elliptica.{elliptica._HOME[name]}")
            value = getattr(elliptica, name)
            assert value is getattr(home, name), name
            # the table names the module that defines the name, not one that imports it
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == home.__name__, name

    def test_module_lists_name_only_what_the_module_defines(self):
        # the benchmark's tracer wraps the functions each module's __all__
        # names, so a package export missing there goes untraced, and an
        # imported name listed there belongs to another module
        modules = {info.name for info in pkgutil.iter_modules(elliptica.__path__)}
        assert set(elliptica._EXPORTS) <= modules
        for short in sorted(modules):
            mod = importlib.import_module(f"elliptica.{short}")
            listed = set(getattr(mod, "__all__", ()))
            defined = set()
            for node in ast.parse(inspect.getsource(mod)).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined.update(t.id for t in targets if isinstance(t, ast.Name))
            assert listed <= defined, (short, listed - defined)
            exported = set(elliptica._EXPORTS.get(short, ()))
            assert exported <= listed, (short, exported - listed)

    def test_resolved_names_are_module_globals(self):
        value = elliptica.verify_landau_probes
        assert vars(elliptica)["verify_landau_probes"] is value

    def test_version(self):
        assert elliptica.__version__ == elliptica.PACKAGE_VERSION == "0.1.0"

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            elliptica.no_such_name
        assert not hasattr(elliptica, "remark_campaign_")


def test_bloch_campaign_runs_without_scipy():
    code = ("import sys; sys.modules['scipy'] = None; from elliptica.cli import main; "
            "sys.exit(main(['verify-theorem', '--which', '3']))")
    out = _python(code)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["theorem"] == "bloch-pipeline"


def _sampled_reference(f, params, trace):
    """The 64 x 256 grid scan the pipeline once ran, at trace's argmax: the sampled excess and margin of G."""
    w = polar_grid(0.999, 64, 256)
    lam_max, lam_min, jac = stretches(*harness._rescaled_partials(f, trace.argmax_point,
                                                                  trace.sup_weighted_distortion, w))
    excess = float(np.max(lam_min - 2.0 / (2.0 - (w.real**2 + w.imag**2))))
    return excess, float(np.min(params.K * jac + 4.0 * params.Kp - lam_max**2))


REFERENCE_MAPS = [("identity", HarmonicMap.identity(), P(1, 0)),
                  ("F2-N128", build_Fn(2, 2.0, n_terms=128), P(1, 0)),
                  *[(f"rand{100 + s}", random_elliptic(P(2, 0.5), 1.5, seed=100 + s), P(2, 0.5)) for s in range(3)],
                  *[(f"K{k}-Kp{kp}-lam{lam}-seed{s}", random_elliptic(P(k, kp), lam, seed=s), P(k, kp))
                    for k, kp, lam in ((2.0, 0.5, 1.5), (1.0, 0.0, 2.0), (4.0, 1.0, 3.0), (1.5, 0.25, 1.2))
                    for s in range(2)],
                  ("F3-lam2", build_Fn(3, 2.0), P(1, 0)), ("F5-lam5", build_Fn(5, 5.0), P(1, 0))]


class TestBlochPipeline:
    @pytest.mark.parametrize("f,params", [entry[1:] for entry in REFERENCE_MAPS], ids=[e[0] for e in REFERENCE_MAPS])
    def test_certified_fields_bound_the_sampled_scan(self, f, params):
        tr = bloch_pipeline(f, params)
        excess, margin = _sampled_reference(f, params, tr)
        assert excess <= tr.distortion_bound_excess <= 2.0 * hypotheses._SEARCH_GAP + 1e-15
        assert -1e-9 <= tr.ellipticity_margin <= margin

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_search_bounds_the_weighted_distortion_on_a_grid(self, degree, seed):
        f = _random_harmonic(degree, seed)
        if hypotheses.certify_hypotheses(f, P(4, 1), math.inf, 1e-9).status != "certified":
            return
        z0, bound, squares = hypotheses._sup_weighted(f)
        z = polar_grid(0.999, 64, 256)
        _, lam_min, _ = stretches(*sample_grid(f, 0.999, 64, 256, partials=True))
        assert float(np.max((1.0 - (z.real**2 + z.imag**2)) * lam_min)) <= bound
        fz, fzb = f.partials(z0)
        m = (1.0 - abs(z0) ** 2) * (abs(fz) - abs(fzb))
        assert m <= bound <= m * (1.0 + hypotheses._SEARCH_GAP + 1e-14)
        assert 0 < squares <= hypotheses._CELL_CAP

    def test_campaign_does_not_depend_on_the_thread_count(self, monkeypatch):
        params, bound = P(2, 0.5), DistortionBound(1.5)
        out = {}
        for threads in ("1", "2"):
            # maps of their own, so that the second run reviews rather than reads the first run's memo
            entries = [("identity", "identity map", HarmonicMap.identity()),
                       ("Fn2", "series extremal", build_Fn(2, 1.5))]
            entries += [(f"seed{s}", "random", random_elliptic(params, 1.5, seed=s)) for s in range(4)]
            monkeypatch.setenv("ELLIPTICA_THREADS", threads)
            out[threads] = json.dumps(verify_bloch_pipeline(entries, params, bound))
        assert out["1"] == out["2"]

    def test_a_search_out_of_squares_is_an_excluded_row(self, monkeypatch):
        # the analytic map's review takes arcs, so only the search needs squares
        monkeypatch.setattr(hypotheses, "_CELL_CAP", 400)
        rep = verify_bloch_pipeline([("Fn2", "series extremal", build_Fn(2, 2.0))], P(1, 0), DistortionBound(2))
        assert rep["maps"][0]["verdict"] == "excluded"
        assert rep["maps"][0]["verdicts"] == {"error": "weighted-distortion search: cell budget of 400 squares used up"}

    def test_an_argmax_near_the_rim_is_rejected(self):
        # h' = 1 + 1000 ((1 + z)/2)^400 - 1000/2^400: W peaks near z = 400/402
        n = 400
        hp = np.array([1000.0 * math.comb(n, k) / 2.0**n for k in range(n + 1)])
        hp[0] += 1.0 - 1000.0 / 2.0**n
        f = HarmonicMap([0.0, *(hp / np.arange(1, n + 2))])
        with pytest.raises(RuntimeError, match=r"lies past \|z\| = 0.994"):
            bloch_pipeline(f, P(1, 0))

    def test_identity_trace_is_exact(self):
        f, params = HarmonicMap.identity(), P(1, 0)
        tr = bloch_pipeline(f, params)
        assert tr.sup_weighted_distortion == 1.0
        assert tr.argmax_point == 0.0
        assert tr.lambda_origin == 1.0
        assert tr.ellipticity_margin == 0.0
        assert _sampled_reference(f, params, tr)[0] == 0.0
        assert 0.0 < tr.distortion_bound_excess <= 2.0 * hypotheses._SEARCH_GAP

    def test_extremal_trace(self):
        tr = bloch_pipeline(build_Fn(2, 2.0), P(1, 0))
        # analytic input: the quadrupled-constant margin is exactly zero
        assert tr.ellipticity_margin == 0.0
        assert tr.distortion_bound_excess <= 2.0 * hypotheses._SEARCH_GAP
        assert abs(tr.lambda_origin - 1.0) <= 1e-15
        # m <= sup W <= m (1 + excess/2) holds the sup a simplex polish found
        m = tr.sup_weighted_distortion
        assert m <= 1.2699128430242796 <= m * (1.0 + 0.5 * tr.distortion_bound_excess)

    def test_random_map_trace(self):
        f = random_elliptic(P(2, 0.5), 1.5, seed=11)
        tr = bloch_pipeline(f, P(2, 0.5))
        assert abs(tr.lambda_origin - 1.0) <= 1e-12
        assert tr.distortion_bound_excess <= 1e-9
        assert tr.ellipticity_margin >= -1e-9
        assert tr.sup_weighted_distortion > 0

    def test_polish_stopped_by_its_budget_still_improves_the_argmax(self):
        # a simplex polish stopped by its evaluation budget here, at 1.0329406
        # against a 64 x 256 grid's 1.0328814; the grid point left lambda above
        # 2/(2 - |w|^2), and the search's best centre must do better
        f = random_elliptic(P(4, 1), 3.0, seed=8631)
        tr = bloch_pipeline(f, P(4, 1))
        assert tr.sup_weighted_distortion > 1.03294
        assert tr.distortion_bound_excess <= 1e-9

    def test_requires_normalized_input(self):
        with pytest.raises(ValueError):
            bloch_pipeline(HarmonicMap([0.0, 2.0]), P(1, 0))

    def test_nan_at_the_origin_fails_the_preconditions(self):
        # k a_k overflows in h', so lambda(0) and J(0) are inf * 0 = nan
        f = HarmonicMap([0.0, 1.0, 1.5e308, 1.5e308])
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="got nan"):
                bloch_pipeline(f, P(1, 0))
            with pytest.raises(ValueError, match="got nan"):
                verify_jacobian_normalized(f, P(1, 0))

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
    sizes = {seriescore: [], hypotheses: []}
    for module, seen in sizes.items():
        def counting(coeffs, z, horner=module._horner, seen=seen):
            seen.append(np.size(z))
            return horner(coeffs, z)

        monkeypatch.setattr(module, "_horner", counting)
    random_elliptic(P(2, 0.5), 1.5, seed=12)
    ellipticity_check(f, P(2, 0.5))
    assert sizes[seriescore] and max(sizes[seriescore]) <= 128 and not sizes[hypotheses]
    sizes[seriescore].clear()
    bloch_pipeline(f, P(2, 0.5))
    # no grid: the map is evaluated at single points, and the review and the
    # argmax search evaluate their squares a chunk at a time
    assert sizes[seriescore] and max(sizes[seriescore]) == 1
    assert sizes[hypotheses] and max(sizes[hypotheses]) <= hypotheses._CHUNK


BENCHMARK_REGIMES = ((2.0, 0.5, 1.5), (1.0, 0.0, 2.0), (4.0, 1.0, 3.0), (1.5, 0.25, 1.2))


def _random_harmonic(degree, seed):
    """A normalized map of the given degree; some are analytic, some leave the hypotheses."""
    rng = np.random.default_rng(seed)
    a, b = ((rng.standard_normal(degree) + 1j * rng.standard_normal(degree))
            * rng.uniform(0.0, 0.6) / np.arange(1, degree + 1) ** 1.5 for _ in range(2))
    a[0], b[0] = 1.0, 0.0
    if seed % 4 == 0:
        b[:] = 0.0
    return HarmonicMap([0.0, *a], b)


def _review_entries(params):
    """Four random maps, an analytic extremal and a map the review refutes, each built anew."""
    entries = [(f"seed{s}", "random", random_elliptic(params, 1.5, seed=s)) for s in range(4)]
    return entries + [("Fn2", "series extremal", build_Fn(2, 1.5)), ("wild", "crafted", HarmonicMap([0.0, 1.0, 1.0]))]


def _counting_reviews(monkeypatch) -> list:
    """Record the map of every review that _cells or _arcs computes."""
    computed = []
    for name in ("_cells", "_arcs"):
        def counting(f, *args, review=getattr(hypotheses, name)):
            computed.append(f)
            return review(f, *args)

        monkeypatch.setattr(hypotheses, name, counting)
    return computed


class TestReviewMemo:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_both_campaigns_review_each_fresh_map_once(self, monkeypatch, threads):
        params, bound = P(2, 0.5), DistortionBound(1.5)
        # each campaign on copies of its own, as a process that checks one theorem sees them
        separate = [json.dumps(campaign(_review_entries(params), params, bound))
                    for campaign in (verify_coefficient_bounds, verify_landau_probes)]
        monkeypatch.setenv("ELLIPTICA_THREADS", threads)
        computed = _counting_reviews(monkeypatch)
        entries = _review_entries(params)
        shared = [json.dumps(campaign(entries, params, bound))
                  for campaign in (verify_coefficient_bounds, verify_landau_probes)]
        assert shared == separate
        assert sorted(map(id, computed)) == sorted(id(f) for _, _, f in entries)

    def test_each_key_computes_its_own_review(self, monkeypatch):
        computed = _counting_reviews(monkeypatch)
        for f in (random_elliptic(P(2, 0.5), 1.5, seed=0), build_Fn(2, 1.5)):
            keys = [(P(2, 0.5), 1.5, 1e-9), (P(3, 0.5), 1.5, 1e-9), (P(2, 0.75), 1.5, 1e-9),
                    (P(2, 0.5), 1.75, 1e-9), (P(2, 0.5), 1.5, 1e-8)]
            reviews = [hypotheses.certify_hypotheses(f, *key) for key in keys]
            assert len(computed) == len(keys)
            # the same key again, with equal values of other types, reads the memo
            again = hypotheses.certify_hypotheses(f, P(np.float64(2), 0.5), 1.5, 1e-9)
            assert len(computed) == len(keys) and again is reviews[0]
            computed.clear()
            # a change of K or K' shows in the margin of a map with g != 0
            assert len({r.ellipticity_margin for r in reviews[:3]}) == (2 if f.is_analytic else 3)

    def test_signed_zeros_are_different_keys(self):
        # K' = -0.0 and 0.0 compare equal, but an analytic map's margin is K' itself
        f = build_Fn(2, 1.5)
        plus = hypotheses.certify_hypotheses(f, P(1, 0.0), 1.5, 1e-9)
        minus = hypotheses.certify_hypotheses(f, P(1, -0.0), 1.5, 1e-9)
        assert math.copysign(1.0, plus.ellipticity_margin) == 1.0
        assert math.copysign(1.0, minus.ellipticity_margin) == -1.0

    def test_threads_sharing_maps_get_the_reviews_of_a_serial_run(self):
        # eight threads on two cores race to fill the same memos; a lost or torn
        # store may cost a second review, but never a different one
        keys = [(P(2, 0.5), 1.5, 1e-9), (P(4, 1), 3.0, 1e-9), (P(2, 0.5), math.inf, 1e-9)]

        def maps():
            return [random_elliptic(P(2, 0.5), 1.5, seed=s) for s in range(3)] + [build_Fn(2, 1.5)]

        serial = [[hypotheses.certify_hypotheses(f, *key) for key in keys] for f in maps()]
        shared = maps()
        seen = [None] * 8

        def work(slot):
            # each thread takes the keys in its own order
            got = {}
            for i in range(slot, slot + len(keys)):
                for j, f in enumerate(shared):
                    got[j, i % len(keys)] = hypotheses.certify_hypotheses(f, *keys[i % len(keys)])
            seen[slot] = [[got[j, i] for i in range(len(keys))] for j in range(len(shared))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(reviews == serial for reviews in seen)

    def test_a_memoized_review_is_read_only(self, monkeypatch):
        f = random_elliptic(P(2, 0.5), 1.5, seed=0)
        review = hypotheses.certify_hypotheses(f, P(2, 0.5), 1.5, 1e-9)
        with pytest.raises(TypeError):
            review.pieces["cells"] = 0
        assert dict(review.pieces) == {"cells": review.pieces["cells"]} and review.pieces["cells"] > 0
        # a reviewed map still pickles, and its copy keeps the review, read-only
        computed = _counting_reviews(monkeypatch)
        copy = pickle.loads(pickle.dumps(f))
        assert hypotheses.certify_hypotheses(copy, P(2, 0.5), 1.5, 1e-9) == review and not computed
        with pytest.raises(TypeError):
            copy._reviews[next(iter(copy._reviews))].pieces["cells"] = 0

    def test_a_changed_row_leaves_the_next_campaign_alone(self):
        params, bound = P(2, 0.5), DistortionBound(1.5)
        entries = [("seed0", "random", random_elliptic(params, 1.5, seed=0)), ("Fn2", "series extremal", build_Fn(2, 1.5))]
        first = verify_coefficient_bounds(entries, params, bound)
        expected = json.dumps(first)
        for row in first["maps"]:
            review = row["verdicts"]["hypotheses"]
            for key in ("cells", "arcs"):
                if key in review:
                    review[key] = -1
            review["reasons"].append("changed")
            review["status"] = "changed"
        assert json.dumps(verify_coefficient_bounds(entries, params, bound)) == expected


class TestHypothesisReview:
    def test_the_review_samples_no_grid(self, monkeypatch):
        # the review proves its bounds from cells or arcs: no polar grid, no
        # refinement cloud, and no sampled ellipticity scan
        def refuse(*args, **kwargs):
            raise AssertionError("the review sampled a grid")

        maps = [(random_elliptic(params, 1.5, seed=seed), params) for seed, params in ((0, P(2, 0.5)), (1, P(1, 0)))]
        for module in (harness, distortion, sampling):
            for name in ("polar_grid", "sample_grid", "halton_disk", "ellipticity_check"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        for f, params in maps:
            status, detail = _hypothesis_review(f, params, DistortionBound(1.5))
            assert status == "certified" and detail["status"] == "certified"
            assert ("arcs" in detail) == f.is_analytic and ("cells" in detail) != f.is_analytic

    @pytest.mark.parametrize("k,kp,lam", BENCHMARK_REGIMES)
    def test_certified_bounds_enclose_the_grid_samples(self, k, kp, lam):
        grid = SamplingSpec(n_r=64, n_theta=256, refinement_rounds=3)
        for seed in range(4):
            f = random_elliptic(P(k, kp), lam, seed=seed)
            status, detail = _hypothesis_review(f, P(k, kp), DistortionBound(lam))
            assert status == "certified" and detail["reasons"] == [] and detail["witness"] is None
            assert sup_lambda_min(f, 0.999, grid) <= detail["sup_lambda"] <= lam + 1e-9
            assert -1e-9 <= detail["ellipticity_margin"] <= ellipticity_check(f, P(k, kp), grid).min_margin

    def test_planted_map_between_the_grid_angles_is_excluded(self):
        # h' = 1 - 0.6 z^256 is 1 - 0.6 r^256 at every angle of a 256-angle
        # grid, but reaches 1 + 0.6 * 0.999^256 = 1.464 between them
        a = np.zeros(258)
        a[1], a[257] = 1.0, -0.6 / 257
        f = HarmonicMap(a)
        params, bound = P(1, 0), DistortionBound(1.3)
        assert sup_lambda_min(f, 0.999) < 1.3
        rep = verify_coefficient_bounds([("planted", "a_257 = -0.6/257", f)], params, bound)
        row = rep["maps"][0]
        assert row["verdict"] == "excluded" and row["slacks"] == {}
        review = row["verdicts"]["hypotheses"]
        assert review["status"] == "refuted"
        assert review["sup_lambda"] > 1.46
        w = complex(*review["witness"])
        assert abs(w) <= 0.999 and abs(f.partials(w)[0]) > 1.46
        assert rep["worst_case"]["refuted"] is False

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from([(1.0, 0.0), (1.5, 0.25), (4.0, 1.0)]),
           st.floats(0.98, 1.02))
    def test_never_certifies_a_map_a_denser_scan_refutes(self, degree, seed, kp_pair, ratio):
        # Lambda near the map's sampled sup, so that the review has to decide
        # close calls; the check samples 4x the points of ellipticity_check's grid
        f = _random_harmonic(degree, seed)
        params = P(*kp_pair)
        lam_max, lam_min, jac = stretches(*sample_grid(f, 0.999, 64, 256, partials=True))
        lam = max(1.0, ratio * float(lam_min.max()))
        status, detail = _hypothesis_review(f, params, DistortionBound(lam))
        if status != "certified":
            return
        lam_max, lam_min, jac = stretches(*sample_grid(f, 0.999, 128, 512, partials=True))
        assert lam_min.max() <= min(lam + 1e-9, detail["sup_lambda"])
        margin = params.K * jac + params.Kp - lam_max**2
        assert margin.min() >= max(-1e-9, detail["ellipticity_margin"])
        assert f.is_analytic or jac.min() > 0.0

    def test_review_keys_do_not_depend_on_the_thread_count(self, monkeypatch):
        params, bound = P(2, 0.5), DistortionBound(1.5)
        reviews = {}
        for threads in ("1", "2"):
            # maps of their own, so that the second run reviews rather than reads the first run's memo
            entries = _review_entries(params)
            monkeypatch.setenv("ELLIPTICA_THREADS", threads)
            reviews[threads] = [row["verdicts"]["hypotheses"]
                                for row in verify_coefficient_bounds(entries, params, bound)["maps"]]
        assert reviews["1"] == reviews["2"]
        assert [r["status"] for r in reviews["1"]] == ["certified"] * 5 + ["refuted"]

    def test_overflowing_derivatives_make_an_inconclusive_row(self):
        # k a_k overflows to inf in h', so lambda(0) is inf * 0 = nan; that
        # must leave the row to the certificate, not raise a RuntimeWarning
        f = HarmonicMap([0.0, 1.0, 1.5e308, 1.5e308])
        rep = verify_coefficient_bounds([("overflow", "1.5e308 (z^2 + z^3)", f)], P(1, 0), DistortionBound(2.0))
        row = rep["maps"][0]
        assert row["verdict"] == "inconclusive" and row["slacks"] == {}
        review = row["verdicts"]["hypotheses"]
        assert review["status"] == "inconclusive" and review["lambda_origin"] is None
        assert "non-finite" in review["reasons"][0]
        assert rep["worst_case"]["refuted"] is False
        json.dumps(rep, allow_nan=False)

    def test_an_inconclusive_review_is_its_own_row_verdict(self, monkeypatch):
        monkeypatch.setattr(hypotheses, "_CELL_CAP", 100)
        params, bound = P(2, 0.5), DistortionBound(1.5)
        rep = verify_landau_probes([("seed0", "random", random_elliptic(params, 1.5, seed=0))], params, bound)
        row = rep["maps"][0]
        assert row["verdict"] == "inconclusive" and row["slacks"] == {}
        assert row["verdicts"]["hypotheses"]["status"] == "inconclusive"
        assert "cell budget" in row["verdicts"]["hypotheses"]["reasons"][0]
        assert rep["worst_case"]["refuted"] is False


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
        # the review refutes the sense reversal before the pipeline runs
        status, detail = _hypothesis_review(reversing, params, bound)
        assert status == "refuted" and any("Jacobian" in r for r in detail["reasons"])
        assert "sense-reversal" in str(exc.value)
        assert rep["maps"][1] == {"id": "bad", "source": "crafted", "verdict": "excluded",
                                  "verdicts": {"hypotheses": detail}, "slacks": {}}
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

    def test_jacobian_normalized_route_names_an_overflowing_input(self):
        # K'(K + K') overflows, so the route's effective constants cannot be formed
        with pytest.raises(ValueError, match=r"Bloch rate overflows or radius underflows for K = 1\.0, Kp = 1e\+200"):
            verify_jacobian_normalized(HarmonicMap([0.0, 1.25], [0.75]), P(1.0, 1e200))

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
