//! Shape tests: the qualitative claims of the paper's evaluation must
//! hold in the reproduction (DESIGN.md §4 "expected shape"). These run on
//! scaled traces, so they assert directions and orderings, not absolute
//! numbers.

use edm_harness::experiments::{fig1, fig3, fig56, fig7, fig8};
use edm_harness::runner::RunConfig;

/// The reports of `cells` at `scale`.
fn matrix(scale: f64, cells: &[edm_harness::Cell]) -> fig56::Matrix {
    let mut m = fig56::Matrix::default();
    m.ensure(&cfg(scale), cells).expect("paper-sized cells");
    m
}

fn cfg(scale: f64) -> RunConfig {
    RunConfig { scale, jobs: None }
}

#[test]
fn fig1_shape_wear_variance_under_baseline() {
    let results = fig1::run(&cfg(0.004), 8).expect("paper-sized runs");
    for r in &results {
        assert!(
            r.erase_rsd() > 0.05,
            "{}: baseline should show wear variance, RSD {}",
            r.trace,
            r.erase_rsd()
        );
    }
    // home02 and lair62 vary more widely than deasna (Fig. 1a).
    let rsd_of = |name: &str| {
        results
            .iter()
            .find(|r| r.trace == name)
            .expect("trace present")
            .erase_rsd()
    };
    assert!(
        rsd_of("home02").max(rsd_of("lair62")) > rsd_of("deasna"),
        "skewed traces must out-vary deasna: home02 {} lair62 {} deasna {}",
        rsd_of("home02"),
        rsd_of("lair62"),
        rsd_of("deasna")
    );
}

#[test]
fn fig3_shape_eq3_fits_skewed_traces_better_than_eq2() {
    let series = fig3::run(
        &cfg(0.004),
        &fig3::FIG3_WORKLOADS,
        &[0.55, 0.65, 0.75, 0.85],
    )
    .expect("presets");
    for s in &series {
        let (mut eq2_err, mut eq3_err) = (0.0, 0.0);
        for p in &s.points {
            eq2_err += (p.eq2_ur - p.measured_ur).abs();
            eq3_err += (p.eq3_ur - p.measured_ur).abs();
        }
        match s.workload.as_str() {
            // Skewed real-world traces: the σ-corrected Eq. 3 must win.
            "home02" | "lair62" => assert!(
                eq3_err < eq2_err,
                "{}: Eq.3 err {eq3_err} should beat Eq.2 err {eq2_err}",
                s.workload
            ),
            // Uniform random: Eq. 2 must win.
            "random" => assert!(
                eq2_err < eq3_err,
                "random: Eq.2 err {eq2_err} should beat Eq.3 err {eq3_err}"
            ),
            _ => {}
        }
    }
}

#[test]
fn fig56_shape_migration_improves_throughput_and_hdf_saves_erases() {
    // One representative skewed trace to keep test time sane; the full
    // seven-trace matrix is the harness/bench job. At this scale the
    // migration transient is a visible fraction of the run, so the
    // weaker policies are only required not to regress materially.
    let m = matrix(0.02, &fig56::cells(&[16], &["home02"]));

    // Fig. 5 shape: HDF clearly beats Baseline; CMT and CDF at worst sit
    // within transient noise of it.
    let hdf_gain = m.throughput_gain("home02", "EDM-HDF", 16);
    assert!(
        hdf_gain > 0.02,
        "EDM-HDF should clearly improve throughput, got {hdf_gain:+.3}"
    );
    for p in ["CMT", "EDM-CDF"] {
        let gain = m.throughput_gain("home02", p, 16);
        assert!(
            gain > -0.10,
            "{p} regressed beyond transient noise: {gain:+.3}"
        );
    }

    // Fig. 6 shape: HDF does not add erases (the paper reports a
    // reduction in all cases) and clearly beats CMT on flash wear.
    let hdf_delta = m.erase_delta("home02", "EDM-HDF", 16);
    assert!(
        hdf_delta < 0.01,
        "EDM-HDF must not add erases, got {hdf_delta:+.3}"
    );
    let cmt_delta = m.erase_delta("home02", "CMT", 16);
    assert!(
        hdf_delta < cmt_delta,
        "HDF ({hdf_delta:+.3}) must burn less flash than CMT ({cmt_delta:+.3})"
    );
    // CDF sits between HDF and CMT (§V.C ordering).
    let cdf_delta = m.erase_delta("home02", "EDM-CDF", 16);
    assert!(
        cdf_delta <= cmt_delta + 1e-9,
        "CDF ({cdf_delta:+.3}) must not out-burn CMT ({cmt_delta:+.3})"
    );
}

#[test]
fn fig8_shape_moved_object_ordering() {
    let m = matrix(0.006, &fig8::cells(8, &["home02"]));
    let cmt = m.report("home02", "CMT", 8).moved_objects;
    let cdf = m.report("home02", "EDM-CDF", 8).moved_objects;
    let hdf = m.report("home02", "EDM-HDF", 8).moved_objects;
    assert!(
        cmt > hdf,
        "CMT ({cmt}) must move more objects than HDF ({hdf})"
    );
    assert!(
        cdf >= hdf,
        "CDF ({cdf}) must move at least as many objects as HDF ({hdf})"
    );
    // §V.E: the percentage of total moved objects is relatively small.
    for p in ["CMT", "EDM-CDF", "EDM-HDF"] {
        let frac = m.report("home02", p, 8).moved_fraction();
        assert!(frac < 0.25, "{p} moved an implausible fraction {frac}");
    }
}

#[test]
fn fig7_shape_hdf_recovers_below_baseline_cdf_stays_flat() {
    let m = matrix(0.02, &fig7::cells(16));
    let mean_of = |policy: &str| m.report("home02", policy, 16).mean_response_us;
    let base = mean_of("Baseline");
    let hdf = mean_of("EDM-HDF");
    let cdf = mean_of("EDM-CDF");
    // §V.D: after migration HDF settles below the initial level; over the
    // whole run its mean must beat Baseline.
    assert!(hdf < base, "HDF mean {hdf} should undercut Baseline {base}");
    // CDF barely perturbs the series.
    assert!(
        (cdf / base - 1.0).abs() < 0.08,
        "CDF mean {cdf} should track Baseline {base}"
    );
}
