"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them all)
before asserting, so a red criterion still reports its measured numbers.
Reference correlation grids and eigenvalue-law constants are pinned below;
every tolerance is fixed here, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

from angsync.baselines import SdpOptions, estimate_lsqr, estimate_sdp
from angsync.core import TWO_PI, reduce_angles, rho1, rho2
from angsync.eig import (
    EigOptions,
    build_sync_matrix,
    estimate_eig,
    top_eigpair,
    triangle_consistency_score,
)
from angsync.generators import (
    CompleteModelParams,
    SmallWorldParams,
    gen_complete,
    gen_small_world,
)
from angsync.spectra import cluster_sizes, full_spectrum, top_k_spectrum
from angsync.theory import (
    correlation_prediction,
    mutual_info_ILp,
    mutual_info_taylor,
    threshold_ratio,
)

BASE_SEED = 20250808

# reference mean correlations for the complete model (rho1), by p
REF_RHO1_N400 = {0.2: 0.99, 0.15: 0.97, 0.1: 0.90, 0.075: 0.77, 0.05: 0.28, 0.025: 0.06}
REF_RHO1_N100 = {0.4: 0.99, 0.3: 0.97, 0.2: 0.90, 0.15: 0.75, 0.1: 0.34, 0.05: 0.13}

# reference mean correlations for the small-world model (rho1), by p
REF_SW_100 = {0.8: 0.923, 0.6: 0.775, 0.4: 0.563, 0.3: 0.314, 0.2: 0.095}
REF_SW_400 = {0.8: 0.960, 0.4: 0.817, 0.3: 0.643, 0.2: 0.282, 0.1: 0.145}

# top-eigenvalue law constants (mean, std) for the complete model, diagonal p,
# both in the units of H = p zz* + W itself (off-diagonal W has variance 1-p^2):
# mean n p + (1-p^2)/p, std sqrt((1-p^2) (1 - (1-p^2)/(n p^2)))
REF_LAMBDA1 = {0.15: (66.52, 0.93), 0.1: (49.90, 0.86)}


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def complete_cell(n, p, trials, seed_base, max_iters=1500):
    """Mean (rho1, rho2) for the complete model across seeded trials."""
    r1, r2 = [], []
    for t in range(trials):
        seed = seed_base + t
        graph, truth = gen_complete(CompleteModelParams(n=n, p=p, seed=seed))
        est = estimate_eig(graph, EigOptions(tol=1e-6, max_iters=max_iters, seed=seed))
        r1.append(rho1(est.theta_hat, truth.theta))
        r2.append(rho2(est.eigvec, truth.theta))
    return float(np.mean(r1)), float(np.mean(r2))


def small_world_cell(n, eps, p, trials, seed_base, max_iters=4000):
    """rho1 of each seeded trial for the small-world model."""
    vals = []
    for t in range(trials):
        seed = seed_base + t
        graph, truth = gen_small_world(SmallWorldParams(n=n, epsilon=eps, p=p, seed=seed))
        est = estimate_eig(graph, EigOptions(tol=1e-6, max_iters=max_iters, seed=seed))
        vals.append(rho1(est.theta_hat, truth.theta))
    return vals


@pytest.fixture(scope="module")
def complete_n400_grid():
    means = {}
    for k, p in enumerate(REF_RHO1_N400):
        means[p] = complete_cell(400, p, trials=20, seed_base=BASE_SEED + 1000 * k)
    return means


def test_criterion_1_complete_n400_correlation_grid(complete_n400_grid):
    t0 = time.perf_counter()
    devs = {p: abs(complete_n400_grid[p][0] - ref) for p, ref in REF_RHO1_N400.items()}
    ok = all(d <= 0.07 for d in devs.values())
    detail = ", ".join(f"p={p}: rho1={complete_n400_grid[p][0]:.3f} ref={REF_RHO1_N400[p]}"
                       f" dev={devs[p]:.3f}" for p in REF_RHO1_N400)
    report("1 complete model n=400, mean rho1 within 0.07 of reference grid", ok, detail)
    print(f"  [criterion 1 assertions evaluated in {time.perf_counter()-t0:.2f}s"
          f" on precomputed sweep]")
    assert ok


def test_criterion_2_complete_n100_grid_and_rho2_prediction():
    means = {}
    for k, p in enumerate(REF_RHO1_N100):
        means[p] = complete_cell(100, p, trials=20, seed_base=BASE_SEED + 77 * k)
    devs1 = {p: abs(means[p][0] - ref) for p, ref in REF_RHO1_N100.items()}
    ok1 = all(d <= 0.08 for d in devs1.values())
    # rho2 against the closed-form prediction wherever n p^2 >= 4
    devs2 = {}
    for p in REF_RHO1_N100:
        if 100 * p * p >= 4:
            devs2[p] = abs(means[p][1] - correlation_prediction(100, p))
    ok2 = all(d <= 0.08 for d in devs2.values())
    detail = ("; ".join(f"p={p}: rho1 dev={devs1[p]:.3f}" for p in REF_RHO1_N100)
              + " | rho2 vs prediction: "
              + ", ".join(f"p={p}: dev={d:.3f}" for p, d in devs2.items()))
    report("2 complete model n=100 grid (rho1) + rho2 prediction", ok1 and ok2, detail)
    assert ok1 and ok2


def test_criterion_3_top_eigenvalue_law():
    trials = 50
    results = {}
    for k, (p, (mu_ref, sd_ref)) in enumerate(REF_LAMBDA1.items()):
        lams = []
        for t in range(trials):
            seed = BASE_SEED + 5000 + 333 * k + t
            graph, _ = gen_complete(CompleteModelParams(n=400, p=p, seed=seed))
            H = build_sync_matrix(graph, diagonal_shift=p)
            res = top_eigpair(H, tol=1e-6, max_iters=3000, seed=seed)
            lams.append(res.eigval)
        tol = 3.0 * sd_ref / math.sqrt(trials)
        results[p] = (float(np.mean(lams)), mu_ref, tol)
    ok = all(abs(mean - mu) <= tol for mean, mu, tol in results.values())
    detail = ", ".join(f"p={p}: mean={mean:.3f} ref={mu} tol={tol:.3f}"
                       f" dev={abs(mean-mu):.3f}"
                       for p, (mean, mu, tol) in results.items())
    report("3 top-eigenvalue law n=400 (50 trials, diagonal shift p)", ok, detail)
    assert ok


def test_criterion_4_threshold_phenomenon(complete_n400_grid):
    low = complete_n400_grid[0.05][0]
    high = complete_n400_grid[0.1][0]
    ok = low < 0.35 and high > 0.8
    report("4 threshold at p_c=0.05 for n=400", ok,
           f"rho1(p=0.05)={low:.3f} < 0.35, rho1(p=0.1)={high:.3f} > 0.8")
    assert ok


def test_criterion_5_method_comparison_small_world():
    n, eps, trials = 200, 0.3, 40
    stats = {}
    for k, p in enumerate((0.7, 0.4)):
        r_eig, r_sdp, r_lsqr, ranks = [], [], [], []
        for t in range(trials):
            seed = BASE_SEED + 9000 + 211 * k + t
            graph, truth = gen_small_world(SmallWorldParams(n=n, epsilon=eps, p=p, seed=seed))
            e = estimate_eig(graph, EigOptions(tol=1e-6, max_iters=4000, seed=seed))
            r_eig.append(rho1(e.theta_hat, truth.theta))
            s, rank = estimate_sdp(graph, SdpOptions(seed=seed))
            r_sdp.append(rho1(s.theta_hat, truth.theta))
            ranks.append(rank)
            lq = estimate_lsqr(graph)
            r_lsqr.append(rho1(lq.theta_hat, truth.theta))
        stats[p] = (np.mean(r_eig), np.mean(r_sdp), np.mean(r_lsqr), ranks)
    e7, s7, l7, ranks7 = stats[0.7]
    e4, s4, l4, _ = stats[0.4]
    rank_frac = np.mean([r <= 3 for r in ranks7])
    ok = (e7 >= 0.93 and s7 >= 0.93 and 0.65 <= l7 <= 0.92
          and l4 < 0.3 and e4 > 0.7 and rank_frac >= 0.7)
    report("5 method comparison small-world n=200", ok,
           f"p=0.7: eig={e7:.3f} sdp={s7:.3f} lsqr={l7:.3f} rank<=3 frac={rank_frac:.2f}; "
           f"p=0.4: eig={e4:.3f} lsqr={l4:.3f}")
    assert ok


def test_criterion_6_small_world_correlation_grids():
    devs = {}
    pcts = {}  # the share of the cell's trials below the reference, in percent
    for k, (p, ref) in enumerate(REF_SW_100.items()):
        vals = small_world_cell(100, 0.3, p, trials=20, seed_base=BASE_SEED + 300 * k)
        mean = float(np.mean(vals))
        devs[("n=100", p)] = (mean, ref, abs(mean - ref))
        pcts[("n=100", p)] = 100.0 * np.mean(np.array(vals) < ref)
    for k, (p, ref) in enumerate(REF_SW_400.items()):
        vals = small_world_cell(400, 0.2, p, trials=20, seed_base=BASE_SEED + 17 * k)
        mean = float(np.mean(vals))
        devs[("n=400", p)] = (mean, ref, abs(mean - ref))
        pcts[("n=400", p)] = 100.0 * np.mean(np.array(vals) < ref)
    ok = all(d <= 0.10 for _, _, d in devs.values())
    detail = "; ".join(f"{tag} p={p}: rho1={m:.3f} ref={r} dev={d:.3f} "
                       f"ref at trial percentile {pcts[tag, p]:.0f}"
                       for (tag, p), (m, r, d) in devs.items())
    report("6 small-world correlation grids within 0.10", ok, detail)
    assert ok


def test_criterion_7_spherical_harmonic_multiplicities():
    hits = 0
    seeds = 10
    observed = []
    gaps = []  # each seed's l=0/l=1 gap against the split threshold 0.10 * lambda0
    for s in range(seeds):
        graph, _ = gen_small_world(SmallWorldParams(n=400, epsilon=0.2, p=1.0,
                                                    seed=BASE_SEED + 13 * s))
        H = build_sync_matrix(graph)
        top9 = top_k_spectrum(H, 9)
        sizes = cluster_sizes(top9, rel_gap=0.10)
        observed.append(sizes)
        gaps.append(f"{top9[0] - top9[1]:.2f}/{0.10 * top9[0]:.2f}")
        if sizes == [1, 3, 5]:
            hits += 1
    ok = hits >= 0.8 * seeds
    report("7 top-9 eigenvalue clusters of sizes [1, 3, 5] in >=80% of seeds", ok,
           f"hits={hits}/{seeds}, observed={observed}, "
           f"l0-l1 gap/threshold by seed={gaps}")
    assert ok


def test_criterion_8_property_suite():
    checks = {}

    # top_eigpair matches a dense eigendecomposition at small n
    graph, _ = gen_complete(CompleteModelParams(n=12, p=0.7, seed=BASE_SEED))
    H = build_sync_matrix(graph)
    res = top_eigpair(H, tol=1e-12, max_iters=100000, seed=1)
    w, V = np.linalg.eigh(H.to_dense())
    checks["oracle_eigpair"] = (abs(res.eigval - w[-1]) <= 1e-8 * abs(w[-1])
                                and abs(np.vdot(res.eigvec, V[:, -1])) > 1 - 1e-8)

    # trace and Frobenius identities of the full spectrum
    graph, _ = gen_complete(CompleteModelParams(n=50, p=0.4, seed=BASE_SEED + 1))
    shift = 0.4
    spec = full_spectrum(build_sync_matrix(graph, shift))
    checks["trace_identity"] = abs(spec.sum() - 50 * shift) <= 1e-8 * 50
    checks["frobenius_identity"] = (abs((spec**2).sum() - (2 * graph.m + 50 * shift**2))
                                    <= 1e-8 * graph.m)

    # gauge covariance: a constant added to the planted angles changes nothing
    graph, truth = gen_complete(CompleteModelParams(n=40, p=0.6, seed=BASE_SEED + 2))
    est = estimate_eig(graph, EigOptions(tol=1e-12, seed=2))
    shifted = reduce_angles(truth.theta + 1.1)
    checks["gauge_covariance"] = (
        abs(rho1(est.theta_hat, truth.theta) - rho1(est.theta_hat, shifted)) < 1e-10
        and abs(rho2(est.eigvec, truth.theta) - rho2(est.eigvec, shifted)) < 1e-10)

    # diagonal shift leaves the top eigenvector unchanged
    base = estimate_eig(graph, EigOptions(tol=1e-12, seed=3))
    moved = estimate_eig(graph, EigOptions(tol=1e-12, seed=3, diagonal_shift=2.3))
    checks["shift_invariance"] = abs(np.vdot(moved.eigvec, base.eigvec)) > 1 - 1e-8

    # SDP ascent is monotone and keeps rows feasible
    graph, _ = gen_small_world(SmallWorldParams(n=60, epsilon=0.3, p=0.6,
                                                seed=BASE_SEED + 3))
    sdp_est, _ = estimate_sdp(graph, SdpOptions(seed=4))
    mono = all(np.all(np.diff(tr) >= -1e-12)
               for tr in sdp_est.diagnostics["objective_traces"])
    checks["sdp_monotone"] = mono
    checks["sdp_feasible"] = sdp_est.diagnostics["feasibility_max_dev"] <= 1e-12

    # triangle consistency vanishes on clean data
    graph, _ = gen_complete(CompleteModelParams(n=15, p=1.0, seed=BASE_SEED + 4))
    checks["triangle_zero"] = triangle_consistency_score(graph, 200, seed=1) < 1e-9

    # quadratic information term matches the exact value (in nats) at small p
    exact_nats = mutual_info_ILp(4, 0.01) * math.log(2.0)
    checks["taylor_agreement"] = abs(exact_nats - mutual_info_taylor(4, 0.01)) \
        / mutual_info_taylor(4, 0.01) < 0.05

    # decoding-threshold ratio crosses 1 between L=6 and L=7
    checks["ratio_sign_change"] = threshold_ratio(6) < 1.0 < threshold_ratio(7)

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    report("8 property suite", ok, "all checks passed" if ok else f"failed: {failed}")
    assert ok


def test_criterion_9_outlier_robust_smoke():
    trials = 10
    vals = []
    worst = 0.0
    for t in range(trials):
        seed = BASE_SEED + 4242 + t
        graph, truth = gen_complete(CompleteModelParams(n=400, p=0.1, seed=seed))
        t0 = time.perf_counter()
        est = estimate_eig(graph, EigOptions(tol=1e-6, max_iters=3000, seed=seed))
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        vals.append(rho1(est.theta_hat, truth.theta))
    mean = float(np.mean(vals))
    ok = worst < 5.0 and mean > 0.8
    report("9 end-to-end smoke: n=400 with 90% outliers", ok,
           f"mean rho1={mean:.3f} > 0.8, worst solve {worst:.2f}s < 5s")
    assert ok
