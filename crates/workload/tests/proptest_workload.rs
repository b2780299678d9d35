//! Property-based tests of the workload substrate: the synthesizer hits
//! its targets for arbitrary specs, client assignment partitions, and
//! merging preserves structure.

use edm_workload::replay::assign_clients;
use edm_workload::synth::synthesize;
use edm_workload::transform::merge;
use edm_workload::{FileSizeModel, SkewProfile, WorkloadSpec};
use proptest::prelude::*;

fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        1u64..60,     // file_cnt
        0u64..400,    // write_cnt
        0u64..400,    // read_cnt
        1u64..40_000, // avg_write_size
        1u64..40_000, // avg_read_size
        0.0f64..1.5,  // write_theta
        0.0f64..1.5,  // read_theta
        0.0f64..=1.0, // hot_overlap
        0.0f64..=1.0, // size_coupling
        1u32..5,      // phases
        1u32..20,     // users
        any::<u64>(), // seed
    )
        .prop_filter_map("need at least one op", |t| {
            let (files, w, r, aw, ar, wt, rt, ho, sc, ph, users, seed) = t;
            if w + r == 0 {
                return None;
            }
            Some(WorkloadSpec {
                name: "prop".into(),
                file_cnt: files,
                write_cnt: w,
                avg_write_size: aw,
                read_cnt: r,
                avg_read_size: ar,
                skew: SkewProfile {
                    write_theta: wt,
                    read_theta: rt,
                    hot_overlap: ho,
                    size_coupling: sc,
                    phases: ph,
                },
                file_sizes: FileSizeModel::DEFAULT,
                users,
                seed,
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Synthesis hits the exact op counts, validates, and is a pure
    /// function of the spec, for any admissible spec.
    #[test]
    fn synthesis_hits_targets_for_any_spec(spec in spec_strategy()) {
        let t = synthesize(&spec);
        let s = t.stats();
        prop_assert_eq!(s.write_cnt, spec.write_cnt);
        prop_assert_eq!(s.read_cnt, spec.read_cnt);
        prop_assert_eq!(s.file_cnt, spec.file_cnt);
        prop_assert_eq!(s.open_cnt, s.close_cnt);
        t.validate().map_err(TestCaseError::fail)?;
        prop_assert_eq!(synthesize(&spec), t, "synthesis must be deterministic");
    }

    /// Client assignment partitions the records for any client count.
    #[test]
    fn assignment_partitions(spec in spec_strategy(), clients in 1u32..12) {
        let t = synthesize(&spec);
        let assigned: Vec<(u32, _)> = assign_clients(&t, clients).collect();
        prop_assert_eq!(assigned.len(), t.records.len());
        for ((c, r), want) in assigned.iter().zip(&t.records) {
            prop_assert!(*c < clients);
            prop_assert!(std::ptr::eq(*r, want), "records come back in trace order");
        }
    }

    /// merge conserves records and footprint and yields a valid trace.
    #[test]
    fn transforms_preserve_structure(a in spec_strategy(), b in spec_strategy()) {
        let (ta, tb) = (synthesize(&a), synthesize(&b));
        let m = merge("mix", &[&ta, &tb]);
        prop_assert_eq!(m.records.len(), ta.records.len() + tb.records.len());
        prop_assert_eq!(
            m.footprint_bytes(),
            ta.footprint_bytes() + tb.footprint_bytes()
        );
        m.validate().map_err(TestCaseError::fail)?;
    }
}
