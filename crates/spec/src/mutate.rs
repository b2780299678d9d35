//! Seeded journal mutator — the spec's self-test.
//!
//! A conformance checker that accepts everything is worthless, so every
//! gate run proves the spec *rejects*: [`mutate`] derives an illegal
//! journal from a legal one, one deterministic seeded edit per
//! mutation class, and the caller asserts [`crate::verify_journal`]
//! reports a line-numbered violation for each class in [`MUTATIONS`].
//! [`mangle`] is the byte-level counterpart: hostile bytes the replay
//! must reject or accept, never panic on.

use edm_obs::json::{self, Record};
use edm_obs::{Event, JournalEntry, JournalLine};

/// Every mutation class the self-test must prove rejected.
pub const MUTATIONS: &[&str] = &[
    "drop_finish",        // remove a migration_finish: lifecycle left open
    "duplicate_start",    // start the same migration twice
    "reorder_events",     // swap adjacent events across a time step
    "retarget_remap",     // point a remap_update at the wrong OSD
    "retarget_migration", // send a migration to an out-of-group OSD
    "corrupt_trigger",    // flip the rsd-vs-lambda verdict
    "skip_erase",         // make a block's erase count jump
    "orphan_finish",      // finish a migration that is not in flight
];

/// Deterministic splitmix64 stream for seeded candidate selection.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Applies one seeded mutation of `class` to a JSONL journal. Returns
/// `None` when the journal has no site for that class (e.g. no
/// migration to retarget).
pub fn mutate(journal: &str, class: &str, seed: u64) -> Option<String> {
    let mut rng = Rng(seed);
    let mut lines: Vec<String> = journal.lines().map(str::to_string).collect();
    let mut rec = Record::default();
    let entries: Vec<Option<JournalEntry>> = journal
        .lines()
        .map(|l| match JournalLine::read(&mut rec, l) {
            Ok(JournalLine::Event(entry)) => Some(entry),
            _ => None,
        })
        .collect();

    let event = |i: usize| entries[i].as_ref().map(|e| &e.event);
    let of_kind = |kind: &str| -> Vec<usize> {
        (0..entries.len())
            .filter(|&i| event(i).is_some_and(|e| e.kind() == kind))
            .collect()
    };
    let mut pick = |sites: Vec<usize>| (!sites.is_empty()).then(|| sites[rng.pick(sites.len())]);
    let osds = match of_kind("run_meta").first().and_then(|&i| event(i)) {
        Some(&Event::RunMeta { osds, .. }) => u64::from(osds.max(1)),
        _ => 1,
    };

    match class {
        "drop_finish" => {
            lines.remove(pick(of_kind("migration_finish"))?);
        }
        "duplicate_start" => {
            let i = pick(of_kind("migration_start"))?;
            lines.insert(i + 1, lines[i].clone());
        }
        "reorder_events" => {
            // Adjacent events with strictly increasing timestamps:
            // swapping them breaks the canonical journal order.
            let t_us = |i: usize| entries[i].as_ref().map(|e| e.t_us);
            let sites = (0..lines.len().saturating_sub(1))
                .filter(|&i| matches!((t_us(i), t_us(i + 1)), (Some(a), Some(b)) if a < b));
            let i = pick(sites.collect())?;
            lines.swap(i, i + 1);
        }
        "retarget_remap" => {
            let i = pick(of_kind("remap_update"))?;
            if let Some(&Event::RemapUpdate { dest, .. }) = event(i) {
                lines[i] = rewrite(&lines[i], "dest", (u64::from(dest) + 1) % osds)?;
            }
        }
        "retarget_migration" => {
            let i = pick(of_kind("migration_start"))?;
            if let Some(&Event::MigrationStart { source, dest, .. }) = event(i) {
                let mut new_dest = (u64::from(dest) + 1) % osds;
                if new_dest == u64::from(source) {
                    new_dest = (new_dest + 1) % osds;
                }
                lines[i] = rewrite(&lines[i], "dest", new_dest)?;
            }
        }
        "corrupt_trigger" => {
            let i = pick(of_kind("trigger_eval"))?;
            if let Some(Event::TriggerEval(trigger)) = event(i) {
                lines[i] = rewrite(&lines[i], "triggered", !trigger.triggered)?;
            }
        }
        "skip_erase" => {
            // Prefer the last repeat erase of some (osd, block): bumping
            // its count breaks the +1 monotonicity. Fall back to zeroing
            // a first-seen count, which is impossible right after an
            // erase.
            let sites = of_kind("block_erase");
            let erase = |i: usize| match entries[i].as_ref()? {
                &JournalEntry {
                    device,
                    event:
                        Event::BlockErase {
                            block, erase_count, ..
                        },
                    ..
                } => Some(((device, block), erase_count)),
                _ => None,
            };
            let mut seen = std::collections::BTreeSet::new();
            let repeat = sites
                .iter()
                .copied()
                .filter(|&i| !seen.insert(erase(i).map(|e| e.0)));
            match repeat.last() {
                Some(i) => {
                    let count = erase(i)?.1;
                    lines[i] = rewrite(&lines[i], "erase_count", count + 1)?;
                }
                None => {
                    let i = pick(sites)?;
                    lines[i] = rewrite(&lines[i], "erase_count", 0)?;
                }
            }
        }
        "orphan_finish" => {
            // Past its remap_update, the finish has no in-flight move.
            let i = pick(of_kind("migration_finish"))?;
            lines.insert((i + 2).min(lines.len()), lines[i].clone());
        }
        _ => return None,
    }
    let mut out = lines.join("\n");
    out.push('\n');
    Some(out)
}

/// Re-renders an object line with every `key` field set to `value`,
/// the other fields verbatim and in order.
fn rewrite(line: &str, key: &str, value: impl std::fmt::Display) -> Option<String> {
    let mut rec = Record::default();
    rec.read(line).ok()?;
    rec.get(key)?;
    let mut out = String::from("{");
    for (k, v) in rec.fields() {
        let v = if k == key {
            value.to_string()
        } else {
            v.to_string()
        };
        json::field_raw(&mut out, k, &v);
    }
    out.push('}');
    Some(out)
}

/// Applies one to three seeded byte edits — flips, inserts, deletes, a
/// truncation — anywhere in `journal`. Bytes that are no longer UTF-8
/// come back as U+FFFD, so the result is still text for the replay.
pub fn mangle(journal: &str, seed: u64) -> String {
    const CORNERS: &[u8] = b"{}[],:\"\\-+.eE0123456789 \n";
    let mut rng = Rng(seed);
    let mut bytes = journal.as_bytes().to_vec();
    for _ in 0..=rng.pick(3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.pick(bytes.len());
        match rng.pick(8) {
            0..=2 => bytes[at] ^= rng.next() as u8 | 1,
            3..=5 => bytes.insert(at, CORNERS[rng.pick(CORNERS.len())]),
            6 => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}
