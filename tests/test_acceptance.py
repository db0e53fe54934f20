"""End-to-end acceptance suite: ten numbered criteria, one verdict line each.

Every test prints exactly one line of the form

    [criterion NN] PASS - <summary> (<elapsed>s)

or the FAIL twin with the collected reasons, then asserts.  The -rP
addopt in pyproject.toml keeps the passing lines visible in a plain
pytest run.  Wall-clock budgets are asserted alongside the math; they
are generous on purpose and exist to catch pathological slowdowns,
not to benchmark.

High-precision reference values are recomputed here with mpmath at 50
digits rather than imported from the library, so the suite cannot
inherit a library bug.
"""

import math
import time

import mpmath as mp
import numpy as np
from scipy.special import roots_legendre

from elliptica import (
    DistortionBound,
    EllipticityParams,
    HarmonicMap,
    bloch_jacobian_normalized,
    bloch_lambda_normalized,
    bloch_pipeline,
    build_classical,
    build_Fn,
    classical_landau,
    coeff_bound,
    coverage_probe,
    landau,
    psi,
    random_elliptic,
    remark_campaign,
    univalence_probe,
    verify_coefficient_bounds,
    verify_landau_probes,
)
from elliptica.hypotheses import certify_hypotheses

K_GRID = (1.0, 1.5, 2.0, 4.0, 8.0)
KP_GRID = (0.0, 0.25, 1.0, 4.0, 10.0)
LAM_GRID = (1.0, 1.5, 2.0, 5.0)


def _verdict(num: int, bad: list, summary: str, elapsed: float, budget: float) -> None:
    if elapsed > budget:
        bad.append(f"runtime {elapsed:.2f}s over the {budget:.0f}s budget")
    status = "PASS" if not bad else "FAIL"
    note = summary if not bad else "; ".join(str(b) for b in bad[:4])
    print(f"[criterion {num:02d}] {status} - {note} ({elapsed:.2f}s)")
    assert not bad, f"criterion {num:02d}: {note}"


def _dev(value: float, reference: mp.mpf) -> float:
    """Deviation scaled by max(1, |reference|): absolute near zero, relative for large values."""
    ref = float(reference)
    return abs(value - ref) / max(1.0, abs(ref))


def _hp_psi(t: mp.mpf) -> mp.mpf:
    if t == 0:
        return mp.mpf(1)
    return 1 + t * mp.log(t / (1 + t))


def _hp_growth_rate(K, Kp, lam) -> mp.mpf:
    K, Kp, lam = mp.mpf(K), mp.mpf(Kp), mp.mpf(lam)
    return K * lam + 2 * (Kp - 1) / (K * lam + mp.sqrt(K * K * lam * lam + 4 * Kp))


def test_criterion_01_closed_forms_match_high_precision():
    t0 = time.perf_counter()
    bad = []
    worst = 0.0
    with mp.workdps(50):
        for K in K_GRID:
            for Kp in KP_GRID:
                for lam in LAM_GRID:
                    params = EllipticityParams(K, Kp)
                    res = landau(params, DistortionBound(lam))
                    T_hp = _hp_growth_rate(K, Kp, lam)
                    checks = {
                        "T": _dev(res.T, T_hp),
                        "r1": _dev(res.r1, 1 / (1 + T_hp)),
                        "sigma1": _dev(res.sigma1, _hp_psi(T_hp)),
                    }
                    K_, Kp_ = mp.mpf(K), mp.mpf(Kp)
                    t3 = 2 * K_ + (4 * Kp_ - 1) / (K_ + mp.sqrt(K_ * K_ + 4 * Kp_))
                    checks["rho1"] = _dev(
                        bloch_lambda_normalized(params).rho, _hp_psi(t3) / mp.sqrt(2)
                    )
                    kpe = Kp_ * (K_ + Kp_)
                    tc = 2 * K_ + (4 * kpe - 1) / (K_ + mp.sqrt(K_ * K_ + 4 * kpe))
                    checks["rho2"] = _dev(
                        bloch_jacobian_normalized(params).rho,
                        _hp_psi(tc) / mp.sqrt(2 * (K_ + Kp_)),
                    )
                    for name, dev in checks.items():
                        worst = max(worst, dev)
                        if dev > 1e-12:
                            bad.append(f"{name} off by {dev:.2e} at (K={K}, Kp={Kp}, lam={lam})")
    degenerate = landau(EllipticityParams(1.0, 0.0), DistortionBound(1.0))
    if degenerate.T != 0.0 or degenerate.sigma1 != 1.0:
        bad.append(f"degenerate case gave T={degenerate.T!r}, sigma1={degenerate.sigma1!r}")
    _verdict(1, bad, f"{5 * len(K_GRID) * len(KP_GRID) * len(LAM_GRID)} values within 1e-12"
             f" of 50-digit references (worst {worst:.1e})",
             time.perf_counter() - t0, 1.0)


def test_criterion_02_conformal_case_reductions():
    t0 = time.perf_counter()
    bad = []
    for K in (1.0, 2.0, 4.0):
        for lam in (1.2, 2.0, 5.0):
            res = landau(EllipticityParams(K, 0.0), DistortionBound(lam))
            kl = K * lam
            if _dev(res.T, mp.mpf(kl) - 1 / mp.mpf(kl)) > 1e-13:
                bad.append(f"T reduction off at (K={K}, lam={lam})")
            if _dev(res.r1, mp.mpf(kl) / (kl * kl + kl - 1)) > 1e-13:
                bad.append(f"r1 reduction off at (K={K}, lam={lam})")
    # With Kp = 0 the two Bloch routes coincide only in the conformal case
    # K = 1; for K > 1 they differ by exactly sqrt(K), which is asserted
    # instead (see notes on scoping this criterion).
    rho1 = bloch_lambda_normalized(EllipticityParams(1.0, 0.0)).rho
    rho2 = bloch_jacobian_normalized(EllipticityParams(1.0, 0.0)).rho
    if abs(rho1 - rho2) > 1e-13:
        bad.append(f"routes disagree at K=1: {rho1!r} vs {rho2!r}")
    for K in (2.0, 4.0):
        r1_ = bloch_lambda_normalized(EllipticityParams(K, 0.0)).rho
        r2_ = bloch_jacobian_normalized(EllipticityParams(K, 0.0)).rho
        if abs(r1_ - math.sqrt(K) * r2_) > 1e-13:
            bad.append(f"sqrt(K) scaling off at K={K}")
    _verdict(2, bad, "Kp=0 closed forms match to 1e-13; Bloch routes equal at K=1,"
             " sqrt(K)-related at K=2,4", time.perf_counter() - t0, 1.0)


def test_criterion_03_extremal_coefficients_attain_bound():
    t0 = time.perf_counter()
    bad = []
    params = EllipticityParams(1.0, 0.0)
    nodes, weights = roots_legendre(64)
    t = 0.5 * (nodes + 1.0)
    wt = 0.5 * weights
    probes = (0.6 * np.exp(0.7j), -0.6j, 0.6 + 0.0j)
    for n in range(2, 9):
        for lam in (1.5, 2.0, 5.0):
            f = build_Fn(n, lam, n_terms=128)
            gap = abs(f.coeff_abs_sum(n) - coeff_bound(n, params, DistortionBound(lam)))
            if gap > 1e-10:
                bad.append(f"degree-{n} coefficient misses bound by {gap:.2e} (lam={lam})")
            if f.b_n(n) != 0.0:
                bad.append(f"antianalytic coefficient nonzero at (n={n}, lam={lam})")
            # independent route: 64-node Gauss-Legendre quadrature of the
            # primitive lam^2 z - (lam^3 - lam) * int_0^z dzeta/(lam + zeta^(n-1))
            for z in probes:
                zt = t * z
                integral = z * np.sum(wt / (lam + zt ** (n - 1)))
                closed = lam * lam * z - (lam**3 - lam) * integral
                err = abs(closed - complex(f.eval(z)))
                if err > 1e-11:
                    bad.append(f"quadrature mismatch {err:.2e} at (n={n}, lam={lam}, z={z})")
    _verdict(3, bad, "21 extremal maps attain |a_n|+|b_n| = T/n to 1e-10 and match"
             " the quadrature route to 1e-11", time.perf_counter() - t0, 1.0)


def test_criterion_04_extremal_maps_satisfy_hypotheses():
    t0 = time.perf_counter()
    bad = []
    params = EllipticityParams(1.0, 0.0)
    least = math.inf
    for n in range(2, 9):
        for lam in (1.5, 2.0, 5.0):
            f = build_Fn(n, lam, n_terms=128)
            if complex(f.eval(0.0)) != 0.0 or f.partials(0.0) != (1.0 + 0.0j, 0.0 + 0.0j):
                bad.append(f"normalization broken at (n={n}, lam={lam})")
            review = certify_hypotheses(f, params, lam, 1e-9)
            if review.status != "certified":
                bad.append(f"review {review.status} at (n={n}, lam={lam}): {'; '.join(review.reasons)}")
                continue
            # a certified review bounds sup lambda <= lam + 1e-9 and the margin >= -1e-9 on |z| <= 0.999
            least = min(least, lam - review.sup_lambda)
    _verdict(4, bad, "all 21 extremal maps: normalized at 0, and sup lambda <= lam and"
             f" (1,0)-ellipticity certified on |z| <= 0.999 (least slack {least:.1e})",
             time.perf_counter() - t0, 10.0)


def test_criterion_05_sharp_map_univalence_and_coverage():
    t0 = time.perf_counter()
    bad = []
    res = landau(EllipticityParams(1.0, 0.0), DistortionBound(2.0))
    f = build_Fn(2, 2.0, n_terms=128)
    probe_radius = res.r1 * (1.0 - 1e-6)
    uni = univalence_probe(f, probe_radius)
    if uni.status != "certified":
        bad.append(f"univalence probe at {probe_radius:.6f}: {uni.status} ({uni.resolution.get('reason')})")
    cov = coverage_probe(f, probe_radius, res.sigma1 * (1.0 - 1e-3))
    if cov.status != "certified":
        bad.append(f"coverage probe: {cov.status} ({cov.resolution.get('reason')})")
    _verdict(5, bad, f"F_2 certified univalent inside r1={res.r1} and covering"
             f" {res.sigma1 * (1 - 1e-3):.6f}", time.perf_counter() - t0, 60.0)


def test_criterion_06_random_elliptic_campaign():
    t0 = time.perf_counter()
    bad = []
    params = EllipticityParams(2.0, 0.5)
    bound = DistortionBound(1.5)
    entries = [(f"seed{s}", "random draw", random_elliptic(params, 1.5, seed=s))
               for s in range(20)]
    coeff_report = verify_coefficient_bounds(entries, params, bound)
    for row in coeff_report["maps"]:
        if row["verdict"] != "pass":
            bad.append(f"coefficient check: {row['id']} -> {row['verdict']}")
    probe_report = verify_landau_probes(entries, params, bound)
    for row in probe_report["maps"]:
        if row["verdict"] != "certified":
            bad.append(f"landau probe: {row['id']} -> {row['verdict']}")
    if coeff_report["worst_case"]["refuted"] or probe_report["worst_case"]["refuted"]:
        bad.append("a campaign reported refuted")
    _verdict(6, bad, "20 seeded random (2, 0.5)-elliptic maps: coefficient bounds pass,"
             " univalence and coverage certified at the stated radii",
             time.perf_counter() - t0, 300.0)


def test_criterion_07_classical_sharpness():
    t0 = time.perf_counter()
    bad = []
    cl = classical_landau(2.0)
    if abs(cl.r0 - 0.2679491924311227) > 1e-7 or abs(cl.R0 - 0.14359353944898165) > 1e-7:
        bad.append(f"frozen radii moved: r0={cl.r0!r}, R0={cl.R0!r}")
    f = build_classical(2.0, n_terms=400)
    good = univalence_probe(f, 0.99 * cl.r0)
    if good.status != "certified":
        bad.append(f"univalence at 0.99*r0: {good.status}")
    beyond = univalence_probe(f, 1.05 * cl.r0)
    if beyond.status != "refuted":
        bad.append(f"expected refutation at 1.05*r0, got {beyond.status}")
    elif beyond.witness is None:
        bad.append("refutation carries no witness")
    else:
        z1, z2 = beyond.witness
        img_gap = abs(complex(f.eval(z1)) - complex(f.eval(z2)))
        if abs(z1 - z2) < 1e-6 or img_gap > 1e-10:
            bad.append(f"witness does not confirm: sep={abs(z1 - z2):.2e}, image gap={img_gap:.2e}")
        if max(abs(z1), abs(z2)) >= 1.05 * cl.r0:
            bad.append("witness escapes the probed disk")
    cov = coverage_probe(f, 0.99 * cl.r0, 0.99 * cl.R0)
    if cov.status != "certified":
        bad.append(f"coverage at 0.99*R0: {cov.status}")
    _verdict(7, bad, "M=2: univalent below r0, collision witness just above r0,"
             " covers 0.99*R0", time.perf_counter() - t0, 60.0)


def test_criterion_08_renormalization_pipeline():
    t0 = time.perf_counter()
    bad = []
    conformal = EllipticityParams(1.0, 0.0)
    elliptic = EllipticityParams(2.0, 0.5)
    cases = [("identity", HarmonicMap.identity(), conformal),
             ("F2", build_Fn(2, 2.0, n_terms=128), conformal)]
    cases += [(f"rand{s}", random_elliptic(elliptic, 1.5, seed=100 + s), elliptic)
              for s in range(3)]
    for name, f, params in cases:
        trace = bloch_pipeline(f, params)
        if trace.distortion_bound_excess > 1e-9:
            bad.append(f"{name}: distortion bound exceeded by {trace.distortion_bound_excess:.2e}")
        if trace.ellipticity_margin < -1e-9:
            bad.append(f"{name}: rescaled map loses ellipticity ({trace.ellipticity_margin:.2e})")
        if abs(trace.lambda_origin - 1.0) > 1e-12:
            bad.append(f"{name}: rescaled lambda(0) = {trace.lambda_origin!r}")
    _verdict(8, bad, "5 maps rescale to lambda(0)=1 with the distortion bound and"
             " ellipticity certified on |w| <= 0.999", time.perf_counter() - t0, 120.0)


def test_criterion_09_growth_remark_sweep():
    t0 = time.perf_counter()
    bad = []
    report = remark_campaign(1000)
    wc = report["worst_case"]
    if wc["failures"] != 0:
        bad.append(f"{wc['failures']} comparison failures")
    if wc["psi_failures"] != 0:
        bad.append(f"{wc['psi_failures']} monotonicity failures over {wc['psi_pairs']} pairs")
    if wc["refuted"]:
        bad.append("campaign reported refuted")
    _verdict(9, bad, f"1000-point parameter sweep clean; psi strictly decreasing on"
             f" {wc['psi_pairs']} sampled pairs", time.perf_counter() - t0, 5.0)


def test_criterion_10_frozen_bloch_value():
    t0 = time.perf_counter()
    bad = []
    b = bloch_lambda_normalized(EllipticityParams(1.0, 0.0))
    if abs(b.rho - 0.16529438733337748) > 1e-14:
        bad.append(f"rho(1, 0) = {b.rho!r} drifted from the frozen value")
    if not (b.rho < 0.4719):
        bad.append(f"rho(1, 0) = {b.rho!r} is not below 0.4719")
    if b.t != 1.5 or b.rho != psi(1.5) / math.sqrt(2.0):
        bad.append("factored form broke")
    _verdict(10, bad, f"rho(1, 0) = {b.rho:.17f}, below the 0.4719 reference",
             time.perf_counter() - t0, 1.0)
