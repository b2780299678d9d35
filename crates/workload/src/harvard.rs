//! The seven Harvard NFS workloads of Table 1, as synthesizable specs,
//! plus the `random` workload of Fig. 3.
//!
//! The paper replays traces "collected from the network storage servers in
//! Harvard University \[8\]" (§V.A). We do not redistribute those traces;
//! instead each preset pins the exact Table 1 aggregates (file count,
//! write/read counts, mean sizes) and a documented skew profile chosen to
//! reproduce the wear-variance behaviour the paper reports:
//!
//! * `home02` and `lair62` show the widest per-SSD erase variance in
//!   Fig. 1(a) → steep write skew;
//! * the `deasna` traces show the smallest variance (§V.B: "the wear
//!   variance in this case is already very small") → mild skew;
//! * the `home` traces are read-dominated (§V.B: "the home traces have
//!   higher read ratio than others"), which Table 1 confirms.

use crate::spec::{FileSizeModel, SkewProfile, WorkloadSpec};

/// Names of the seven Table 1 workloads, in paper order.
pub const TRACE_NAMES: [&str; 7] = [
    "home02", "home03", "home04", "deasna", "deasna2", "lair62", "lair62b",
];

/// The three traces used for the motivation (Fig. 1) and the migration
/// response-time study (Fig. 7).
pub const MOTIVATION_TRACES: [&str; 3] = ["home02", "deasna", "lair62"];

#[expect(
    clippy::too_many_arguments,
    reason = "one positional row per Table 1 column keeps the preset table readable"
)]
fn base(
    name: &str,
    file_cnt: u64,
    write_cnt: u64,
    avg_write_size: u64,
    read_cnt: u64,
    avg_read_size: u64,
    skew: SkewProfile,
    seed: u64,
) -> WorkloadSpec {
    WorkloadSpec {
        name: name.into(),
        file_cnt,
        write_cnt,
        avg_write_size,
        read_cnt,
        avg_read_size,
        skew,
        file_sizes: FileSizeModel::DEFAULT,
        users: 64,
        seed,
    }
}

/// Returns the spec of a preset whose name is a literal or was already
/// checked against [`named`].
///
/// # Panics
/// Panics on an unknown name; names that arrive from outside the program
/// go through [`named`].
pub fn spec(name: &str) -> WorkloadSpec {
    #[expect(
        clippy::panic,
        reason = "contract for literal or already-checked preset names; outside input goes through `named`"
    )]
    named(name).unwrap_or_else(|| panic!("unknown Harvard workload {name:?}; see TRACE_NAMES"))
}

/// The one preset lookup: the seven Table 1 workloads ([`TRACE_NAMES`])
/// and the `random` workload of Fig. 3, or `None` for any other name.
pub fn named(name: &str) -> Option<WorkloadSpec> {
    // Skew profiles (write θ, read θ, hot-set overlap) are our documented
    // reconstruction, chosen so that relative wear variance across traces
    // matches Fig. 1: home02/lair62 widest, deasna/deasna2 narrowest.
    Some(match name {
        "home02" => base(
            name,
            10_931,
            730_602,
            8_048,
            3_497_486,
            8_191,
            SkewProfile {
                write_theta: 1.05,
                read_theta: 0.85,
                hot_overlap: 0.4,
                size_coupling: 0.5,
                phases: 1,
            },
            0xED01,
        ),
        "home03" => base(
            name,
            8_010,
            355_091,
            7_938,
            2_624_676,
            8_190,
            SkewProfile {
                write_theta: 0.95,
                read_theta: 0.85,
                hot_overlap: 0.45,
                size_coupling: 0.5,
                phases: 1,
            },
            0xED02,
        ),
        "home04" => base(
            name,
            7_798,
            358_976,
            8_013,
            2_034_078,
            8_192,
            SkewProfile {
                write_theta: 0.95,
                read_theta: 0.85,
                hot_overlap: 0.45,
                size_coupling: 0.5,
                phases: 1,
            },
            0xED03,
        ),
        "deasna" => base(
            name,
            9_727,
            232_481,
            24_167,
            271_619,
            23_869,
            SkewProfile {
                write_theta: 0.65,
                read_theta: 0.65,
                hot_overlap: 0.7,
                size_coupling: 0.5,
                phases: 1,
            },
            0xED04,
        ),
        "deasna2" => base(
            name,
            8_405,
            269_936,
            18_489,
            372_750,
            20_529,
            SkewProfile {
                write_theta: 0.70,
                read_theta: 0.65,
                hot_overlap: 0.7,
                size_coupling: 0.5,
                phases: 1,
            },
            0xED05,
        ),
        "lair62" => base(
            name,
            19_088,
            740_831,
            5_415,
            890_680,
            7_264,
            SkewProfile {
                write_theta: 1.10,
                read_theta: 0.90,
                hot_overlap: 0.35,
                size_coupling: 0.5,
                phases: 1,
            },
            0xED06,
        ),
        "lair62b" => base(
            name,
            27_228,
            409_215,
            5_496,
            736_469,
            7_612,
            SkewProfile {
                write_theta: 1.05,
                read_theta: 0.90,
                hot_overlap: 0.4,
                size_coupling: 0.5,
                phases: 1,
            },
            0xED07,
        ),
        "random" => random_spec(),
        _ => return None,
    })
}

/// The synthetic `random` workload of Fig. 3: uniformly random accesses
/// with request sizes in 4–16 KB.
pub fn random_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "random".into(),
        file_cnt: 2_000,
        write_cnt: 300_000,
        avg_write_size: 10 * 1024, // uniform in [5 KB, 15 KB] ≈ paper's 4–16 KB
        read_cnt: 300_000,
        avg_read_size: 10 * 1024,
        skew: SkewProfile::UNIFORM,
        // Constant file size: uniform file choice then means uniform
        // per-page update frequency, which is what the paper's "random
        // request distribution" workload is (Fig. 3 expects Eq. 2 to fit
        // it). A spread of sizes would re-introduce per-page skew.
        file_sizes: FileSizeModel {
            min_bytes: 256 * 1024,
            max_bytes: 256 * 1024,
        },
        users: 64,
        seed: 0xEDFF,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_seven_specs_are_valid_and_match_table1() {
        assert_eq!(TRACE_NAMES.len(), 7);
        for name in TRACE_NAMES {
            spec(name).validate().unwrap();
        }
        // Spot-check the exact Table 1 numbers.
        let home02 = spec("home02");
        assert_eq!(home02.file_cnt, 10_931);
        assert_eq!(home02.write_cnt, 730_602);
        assert_eq!(home02.avg_write_size, 8_048);
        assert_eq!(home02.read_cnt, 3_497_486);
        assert_eq!(home02.avg_read_size, 8_191);
        let lair62b = spec("lair62b");
        assert_eq!(lair62b.file_cnt, 27_228);
        assert_eq!(lair62b.read_cnt, 736_469);
    }

    #[test]
    fn home_traces_are_read_dominated() {
        for name in ["home02", "home03", "home04"] {
            let s = spec(name);
            assert!(s.read_cnt > 3 * s.write_cnt, "{name} should be read-heavy");
        }
    }

    #[test]
    fn high_variance_traces_have_steeper_write_skew() {
        assert!(spec("home02").skew.write_theta > spec("deasna").skew.write_theta);
        assert!(spec("lair62").skew.write_theta > spec("deasna2").skew.write_theta);
    }

    #[test]
    #[should_panic(expected = "unknown Harvard workload")]
    fn unknown_name_panics() {
        spec("nope");
    }

    #[test]
    fn named_knows_the_seven_and_random_and_nothing_else() {
        for name in TRACE_NAMES {
            assert_eq!(named(name).map(|s| s.name).as_deref(), Some(name));
        }
        assert_eq!(named("random").map(|s| s.seed), Some(random_spec().seed));
        for name in ["nope", "", "HOME02", "home02 "] {
            assert!(named(name).is_none(), "{name:?}");
        }
    }

    #[test]
    fn random_spec_is_uniform() {
        let s = random_spec();
        s.validate().unwrap();
        assert_eq!(s.skew.write_theta, 0.0);
        assert_eq!(s.skew.read_theta, 0.0);
    }
}
