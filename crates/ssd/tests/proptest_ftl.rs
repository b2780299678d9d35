//! Property-based tests of the page-level FTL: under arbitrary interleaved
//! write/trim/read workloads the mapping tables stay consistent, data is
//! never lost, and the GC always makes forward progress.

use edm_obs::NoopRecorder;
use edm_ssd::{DeviceTime, FtlConfig, Geometry, LatencyModel, PageLevelFtl, Ssd};
use proptest::prelude::*;
use std::collections::HashMap;

/// The per-page reference: one logical page at a time through the span
/// entry points, which is what the FTL's per-LPN API used to be.
trait PerPage {
    fn write(&mut self, lpn: u64, lat: &LatencyModel) -> Result<DeviceTime, edm_ssd::FtlError>;
    fn read(&mut self, lpn: u64, lat: &LatencyModel) -> Result<DeviceTime, edm_ssd::FtlError>;
    fn trim(&mut self, lpn: u64) -> Result<(), edm_ssd::FtlError>;
}

impl PerPage for PageLevelFtl {
    fn write(&mut self, lpn: u64, lat: &LatencyModel) -> Result<DeviceTime, edm_ssd::FtlError> {
        self.write_span(lpn, 1, lat, &mut NoopRecorder)
    }
    fn read(&mut self, lpn: u64, lat: &LatencyModel) -> Result<DeviceTime, edm_ssd::FtlError> {
        self.read_span(lpn, 1, lat)
    }
    fn trim(&mut self, lpn: u64) -> Result<(), edm_ssd::FtlError> {
        self.trim_span(lpn, 1)
    }
}

/// The reference static-leveling pick: the walk over every candidate
/// block the FTL did before it kept a wear index — the minimum
/// `(erase_count, valid, block)`, returned as (valid, block).
fn scanned_static_level_pick(ftl: &PageLevelFtl) -> Option<(u32, u32)> {
    let wear = ftl.block_erase_counts();
    ftl.candidates()
        .map(|(valid, block)| (wear[block as usize], valid, block))
        .min()
        .map(|(_, valid, block)| (valid, block))
}

#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Trim(u64),
    Read(u64),
}

fn op_strategy(exported: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..exported).prop_map(Op::Write),
        1 => (0..exported).prop_map(Op::Trim),
        1 => (0..exported).prop_map(Op::Read),
    ]
}

fn tiny_geometry() -> Geometry {
    Geometry {
        page_size: 4096,
        pages_per_block: 4,
        blocks: 24,
        over_provision_ppt: 150,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary op sequences keep every FTL invariant intact and the
    /// model (a HashMap of mapped lpns) agrees with the device.
    #[test]
    fn ftl_matches_reference_model(ops in prop::collection::vec(op_strategy(tiny_geometry().exported_pages()), 1..400)) {
        let mut ftl = PageLevelFtl::new(tiny_geometry(), FtlConfig::default());
        let lat = LatencyModel::INSTANT;
        let mut model: HashMap<u64, ()> = HashMap::new();

        for op in ops {
            match op {
                Op::Write(lpn) => {
                    ftl.write(lpn, &lat).unwrap();
                    model.insert(lpn, ());
                }
                Op::Trim(lpn) => {
                    ftl.trim(lpn).unwrap();
                    model.remove(&lpn);
                }
                Op::Read(lpn) => {
                    ftl.read(lpn, &lat).unwrap();
                }
            }
        }

        prop_assert_eq!(ftl.mapped_pages(), model.len() as u64);
        #[expect(clippy::disallowed_methods, reason = "one assertion per key; order cannot matter")]
        for &lpn in model.keys() {
            prop_assert!(ftl.is_mapped(lpn));
        }
        ftl.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// Sustained overwrite pressure at high utilization never wedges the
    /// device: GC reclaims space and erase counts grow.
    #[test]
    fn gc_sustains_overwrite_pressure(seed in 0u64..1000) {
        let g = tiny_geometry();
        let mut ftl = PageLevelFtl::new(g, FtlConfig::default());
        let lat = LatencyModel::INSTANT;
        let exported = g.exported_pages();
        let live = exported * 8 / 10;
        for lpn in 0..live {
            ftl.write(lpn, &lat).unwrap();
        }
        let mut x = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        for _ in 0..2000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ftl.write(x % live, &lat).unwrap();
        }
        prop_assert!(ftl.stats().block_erases > 0);
        prop_assert_eq!(ftl.mapped_pages(), live);
        ftl.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// The byte-granular Ssd façade: free space accounting is exact under
    /// arbitrary write/trim sequences.
    #[test]
    fn ssd_free_bytes_accounting(ops in prop::collection::vec((0u64..80, 1u64..5, any::<bool>()), 1..100)) {
        let mut ssd = Ssd::new(tiny_geometry(), LatencyModel::INSTANT);
        let page = ssd.geometry().page_size;
        let exported = ssd.geometry().exported_pages();
        let mut mapped = vec![false; exported as usize];
        for (start, pages, is_write) in ops {
            let start = start.min(exported - 1);
            let pages = pages.min(exported - start);
            if is_write {
                ssd.write(start * page, pages * page, &mut NoopRecorder).unwrap();
                for p in start..start + pages { mapped[p as usize] = true; }
            } else {
                ssd.trim(start * page, pages * page).unwrap();
                for p in start..start + pages { mapped[p as usize] = false; }
            }
        }
        let live = mapped.iter().filter(|m| **m).count() as u64;
        prop_assert_eq!(ssd.mapped_pages(), live);
        prop_assert_eq!(ssd.free_bytes(), (exported - live) * page);
    }

    /// Erase counts are monotone in write volume for a fixed working set:
    /// more host writes never produce fewer erases.
    #[test]
    fn erases_monotone_in_write_volume(extra in 1u64..2000) {
        let g = tiny_geometry();
        let lat = LatencyModel::INSTANT;
        let live = g.exported_pages() / 2;
        let run = |writes: u64| {
            let mut ftl = PageLevelFtl::new(g, FtlConfig::default());
            for lpn in 0..live { ftl.write(lpn, &lat).unwrap(); }
            for i in 0..writes { ftl.write(i % live, &lat).unwrap(); }
            ftl.stats().block_erases
        };
        prop_assert!(run(1000 + extra) >= run(1000));
    }
}

mod span_equivalence_props {
    use super::*;
    use edm_ssd::ftl::VictimPolicy;

    /// A span op: (start page, page count, kind).
    #[derive(Debug, Clone, Copy)]
    enum SpanOp {
        Write(u64, u64),
        Trim(u64, u64),
        Read(u64, u64),
    }

    fn span_strategy(exported: u64) -> impl Strategy<Value = SpanOp> {
        let extent = (0..exported, 1u64..12);
        prop_oneof![
            3 => extent.clone().prop_map(|(s, n)| SpanOp::Write(s, n)),
            1 => extent.clone().prop_map(|(s, n)| SpanOp::Trim(s, n)),
            1 => extent.prop_map(|(s, n)| SpanOp::Read(s, n)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The batched span entry points must be observationally identical
        /// to per-page loops: same wear stats, same per-block erase
        /// counts, same mapping, same total device time — for every
        /// victim policy and with static leveling exercised.
        #[test]
        fn span_path_is_bit_identical_to_per_page(
            ops in prop::collection::vec(span_strategy(tiny_geometry().exported_pages()), 1..200),
            policy_idx in 0usize..3,
            threshold in prop_oneof![Just(0u64), Just(4u64)],
        ) {
            let policy = [
                VictimPolicy::Greedy,
                VictimPolicy::Fifo,
                VictimPolicy::CostBenefit,
            ][policy_idx];
            let g = tiny_geometry();
            let config = FtlConfig { victim_policy: policy, static_threshold: threshold };
            let lat = LatencyModel::PAPER;
            let exported = g.exported_pages();

            let mut span_ftl = PageLevelFtl::new(g, config);
            let mut page_ftl = PageLevelFtl::new(g, config);
            let mut span_time = DeviceTime::ZERO;
            let mut page_time = DeviceTime::ZERO;

            for &op in &ops {
                match op {
                    SpanOp::Write(start, n) => {
                        let n = n.min(exported - start);
                        span_time += span_ftl.write_span(start, n, &lat, &mut NoopRecorder).unwrap();
                        for lpn in start..start + n {
                            page_time += page_ftl.write(lpn, &lat).unwrap();
                        }
                    }
                    SpanOp::Trim(start, n) => {
                        let n = n.min(exported - start);
                        span_ftl.trim_span(start, n).unwrap();
                        for lpn in start..start + n {
                            page_ftl.trim(lpn).unwrap();
                        }
                    }
                    SpanOp::Read(start, n) => {
                        let n = n.min(exported - start);
                        span_time += span_ftl.read_span(start, n, &lat).unwrap();
                        for lpn in start..start + n {
                            page_time += page_ftl.read(lpn, &lat).unwrap();
                        }
                    }
                }
            }

            prop_assert_eq!(span_ftl.stats().clone(), page_ftl.stats().clone());
            prop_assert_eq!(span_ftl.block_erase_counts(), page_ftl.block_erase_counts());
            prop_assert_eq!(span_ftl.mapped_pages(), page_ftl.mapped_pages());
            prop_assert_eq!(span_time, page_time);
            for lpn in 0..exported {
                prop_assert_eq!(span_ftl.is_mapped(lpn), page_ftl.is_mapped(lpn));
            }
            span_ftl.check_invariants().map_err(TestCaseError::fail)?;
            page_ftl.check_invariants().map_err(TestCaseError::fail)?;
        }
    }
}

mod victim_policy_props {
    use super::*;
    use edm_ssd::ftl::VictimPolicy;
    use edm_ssd::FtlConfig;

    fn geometry() -> Geometry {
        Geometry {
            page_size: 4096,
            pages_per_block: 4,
            blocks: 32,
            over_provision_ppt: 150,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// All three victim policies keep the FTL invariants intact and
        /// complete arbitrary overwrite workloads.
        #[test]
        fn any_policy_survives_random_workloads(
            policy_idx in 0usize..3,
            seed in any::<u64>(),
        ) {
            let policy = [
                VictimPolicy::Greedy,
                VictimPolicy::Fifo,
                VictimPolicy::CostBenefit,
            ][policy_idx];
            let g = geometry();
            let mut ftl = PageLevelFtl::new(
                g,
                FtlConfig { victim_policy: policy, ..FtlConfig::default() },
            );
            let lat = LatencyModel::INSTANT;
            let live = g.exported_pages() * 3 / 4;
            for lpn in 0..live {
                ftl.write(lpn, &lat).unwrap();
            }
            let mut x = seed | 1;
            for _ in 0..1500 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ftl.write((x >> 11) % live, &lat).unwrap();
            }
            prop_assert_eq!(ftl.mapped_pages(), live);
            ftl.check_invariants().map_err(TestCaseError::fail)?;
        }

        /// After every op of a random write / overwrite / trim sequence,
        /// under every victim policy and with static leveling firing, the
        /// indexed static-leveling pick is the one the full candidate
        /// scan finds.
        #[test]
        fn indexed_static_pick_matches_the_full_scan(
            ops in prop::collection::vec((0u64..1000, 1u64..6, 0u8..8), 300..800),
            policy_idx in 0usize..3,
        ) {
            let policy = [
                VictimPolicy::Greedy,
                VictimPolicy::Fifo,
                VictimPolicy::CostBenefit,
            ][policy_idx];
            let g = geometry();
            let config = FtlConfig { victim_policy: policy, static_threshold: 2 };
            let mut ftl = PageLevelFtl::new(g, config);
            let lat = LatencyModel::INSTANT;
            let live = g.exported_pages() * 3 / 4;
            ftl.write_span(0, live, &lat, &mut NoopRecorder).unwrap();
            for (at, n, kind) in ops {
                // Mostly overwrites of a hot tenth, so wear spreads and
                // the leveler runs; some cold writes; some trims.
                let (start, n) = match kind {
                    0 => (at % live, n.min(live - at % live)),
                    1 => (at % live, 1),
                    _ => (at % (live / 10), 1),
                };
                if kind == 0 {
                    ftl.trim_span(start, n).unwrap();
                } else {
                    ftl.write_span(start, n, &lat, &mut NoopRecorder).unwrap();
                }
                prop_assert_eq!(ftl.static_level_pick(), scanned_static_level_pick(&ftl));
            }
            prop_assert!(ftl.stats().block_erases > 0);
            ftl.check_invariants().map_err(TestCaseError::fail)?;
        }

        /// Greedy never relocates more pages than either alternative on
        /// identical workloads.
        #[test]
        fn greedy_is_the_relocation_floor(seed in any::<u64>()) {
            let g = geometry();
            let lat = LatencyModel::INSTANT;
            let run = |policy: VictimPolicy| -> u64 {
                let mut ftl = PageLevelFtl::new(
                    g,
                    FtlConfig { victim_policy: policy, ..FtlConfig::default() },
                );
                let live = g.exported_pages() * 3 / 4;
                for lpn in 0..live {
                    ftl.write(lpn, &lat).unwrap();
                }
                let mut x = seed | 1;
                for _ in 0..3000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let r = x >> 9;
                    let lpn = if r % 10 < 8 { r % (live / 5).max(1) } else { r % live };
                    ftl.write(lpn, &lat).unwrap();
                }
                ftl.stats().gc_page_moves
            };
            let greedy = run(VictimPolicy::Greedy);
            prop_assert!(greedy <= run(VictimPolicy::Fifo));
        }
    }
}
