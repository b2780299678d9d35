//! Inputs, made from `--seed` and nothing else.
//!
//! Seed 0 is the preset input: the trace `Scenario::synth_trace` makes,
//! the op stream `dump_ops` prints. Every other seed is a seeded shuffle
//! of [`BLOCK`]-record blocks of that same input within windows of
//! [`WINDOW`] blocks. The seed deliberately does not re-synthesise:
//! where the few hottest files land decides the wear imbalance, and six
//! synthesis seeds of home02 moved erase RSD between 0.085 and 0.151 and
//! simulated throughput by ±10 % (lair62: RSD 0.19–0.36) — no regression
//! bound survives that. Even an unwindowed block shuffle moved home02's
//! RSD by 20 % (0.118–0.143 over ten seeds), because the one plan made
//! at the midpoint depends on what the first half held. A windowed
//! shuffle keeps the population of files and operations, and what has
//! arrived by any instant, and changes the order of arrival: every
//! simulated statistic moves a little and none of them much.

use edm_scenario::Scenario;
use edm_workload::Trace;

/// Records (or op lines) per shuffled block: long enough to keep almost
/// every open…close session (mean 6 ops) in one piece.
pub const BLOCK: usize = 4096;

/// Blocks change places only within windows of this many blocks (64 Ki
/// records): what has arrived by any instant stays the same to within
/// one window, and so does what a policy has seen when it plans.
pub const WINDOW: usize = 16;

/// SplitMix64 (Steele, Lea, Flood 2014): the benchmark's only RNG.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` ≥ 1; the modulo bias at 64 bits is
    /// far below anything a shuffle of a few thousand blocks can show).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Shuffles the whole [`BLOCK`]-sized blocks of `items` in place by
/// `seed`, each within its window of [`WINDOW`] blocks (Fisher–Yates per
/// window; seed 0 is the identity); a ragged tail block stays last.
/// `swap` exchanges two items, so a caller can keep part of an item
/// where it is.
pub fn shuffle_blocks<T>(items: &mut [T], seed: u64, mut swap: impl FnMut(&mut T, &mut T)) {
    if seed == 0 {
        return;
    }
    let mut rng = SplitMix64::new(seed);
    let blocks = items.len() / BLOCK;
    for first in (0..blocks).step_by(WINDOW) {
        let in_window = WINDOW.min(blocks - first);
        for i in (1..in_window).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            if i == j {
                continue;
            }
            let (low, high) = items.split_at_mut((first + i) * BLOCK);
            let low = &mut low[(first + j) * BLOCK..(first + j + 1) * BLOCK];
            for (a, b) in low.iter_mut().zip(&mut high[..BLOCK]) {
                swap(a, b);
            }
        }
    }
}

/// The scenario's trace for `seed`. Arrival times stay where they are
/// (a trace is sorted by time; the closed-loop engine replays by order),
/// the `(user, file, op)` payloads move with their block.
pub fn seeded_trace(scenario: &Scenario, seed: u64) -> Trace {
    let mut trace = scenario.synth_trace();
    shuffle_blocks(&mut trace.records, seed, |a, b| {
        std::mem::swap(a, b);
        std::mem::swap(&mut a.time_us, &mut b.time_us);
    });
    trace
}

/// FNV-1a over bytes: the op-stream hash printed beside the trace
/// fingerprints so that "same seed, same inputs" can be read off.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_identity_and_seeds_repeat() {
        let items: Vec<u32> = (0..(BLOCK as u32 * 5 + 17)).collect();
        let shuffled = |seed| {
            let mut v = items.clone();
            shuffle_blocks(&mut v, seed, std::mem::swap);
            v
        };
        assert_eq!(shuffled(0), items);
        let a = shuffled(7);
        assert_eq!(a, shuffled(7));
        assert_ne!(a, items);
        assert_ne!(a, shuffled(8));
        // A permutation of whole blocks; the ragged tail stays last.
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, items);
        assert_eq!(a[BLOCK * 5..], items[BLOCK * 5..]);
        assert!(a
            .chunks(BLOCK)
            .all(|c| c.windows(2).all(|w| w[1] == w[0] + 1)));
    }

    #[test]
    fn blocks_stay_inside_their_window() {
        let span = BLOCK * WINDOW;
        let mut items: Vec<usize> = (0..span * 2 + BLOCK * 3).collect();
        shuffle_blocks(&mut items, 5, std::mem::swap);
        for (at, &item) in items.iter().enumerate() {
            assert_eq!(at / span, item / span, "item {item} left its window");
        }
        // Every window was reordered, the short last one included.
        assert!(items
            .chunks(span)
            .all(|w| w.windows(2).any(|p| p[1] < p[0])));
    }

    #[test]
    fn seeded_trace_keeps_the_population_and_the_clock() {
        let scenario = Scenario::parse("trace home02\nscale 0.004\n").unwrap();
        let preset = scenario.synth_trace();
        assert_eq!(
            seeded_trace(&scenario, 0).fingerprint(),
            preset.fingerprint()
        );
        let seeded = seeded_trace(&scenario, 1);
        assert_ne!(seeded.fingerprint(), preset.fingerprint());
        assert_eq!(
            seeded.fingerprint(),
            seeded_trace(&scenario, 1).fingerprint()
        );
        seeded.validate().unwrap();
        assert_eq!(seeded.stats(), preset.stats());
        assert_eq!(seeded.file_sizes, preset.file_sizes);
        let times = |t: &Trace| t.records.iter().map(|r| r.time_us).collect::<Vec<_>>();
        assert_eq!(times(&seeded), times(&preset));
    }
}
