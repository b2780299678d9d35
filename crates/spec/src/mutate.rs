//! Seeded journal mutator — the spec's self-test.
//!
//! A conformance checker that accepts everything is worthless, so every
//! gate run proves the spec *rejects*: [`mutate`] derives an illegal
//! journal from a legal one, one deterministic seeded edit per
//! mutation class, and the caller asserts [`crate::verify_journal`]
//! reports a line-numbered violation for each class in [`MUTATIONS`].
//! [`mangle`] is the byte-level counterpart: hostile bytes the replay
//! must reject or accept, never panic on.

use edm_obs::json::{self, Raw, Record};

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
    let parsed: Vec<Option<Record>> = journal
        .lines()
        .map(|l| {
            let mut rec = Record::default();
            rec.read(l).ok().map(|()| rec)
        })
        .collect();

    let field = |i: usize, key: &str| -> Option<Raw> { parsed[i].as_ref()?.get(key) };
    let of_kind = |kind: &str| -> Vec<usize> {
        (0..parsed.len())
            .filter(|&i| field(i, "kind").and_then(Raw::as_str).as_deref() == Some(kind))
            .collect()
    };
    let u64_field = |i: usize, key: &str| -> Option<u64> { field(i, key)?.as_u64() };
    let osds = of_kind("run_meta")
        .first()
        .and_then(|&i| u64_field(i, "osds"))
        .unwrap_or(1)
        .max(1);

    match class {
        "drop_finish" => {
            let sites = of_kind("migration_finish");
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.pick(sites.len())];
            lines.remove(i);
        }
        "duplicate_start" => {
            let sites = of_kind("migration_start");
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.pick(sites.len())];
            let copy = lines[i].clone();
            lines.insert(i + 1, copy);
        }
        "reorder_events" => {
            // Adjacent event lines with strictly increasing timestamps:
            // swapping them breaks the canonical journal order.
            let sites: Vec<usize> = (0..lines.len().saturating_sub(1))
                .filter(
                    |&i| match (u64_field(i, "t_us"), u64_field(i + 1, "t_us")) {
                        (Some(a), Some(b)) => a < b,
                        _ => false,
                    },
                )
                .collect();
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.pick(sites.len())];
            lines.swap(i, i + 1);
        }
        "retarget_remap" => {
            let sites = of_kind("remap_update");
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.pick(sites.len())];
            let dest = u64_field(i, "dest")?;
            lines[i] = rewrite(parsed[i].as_ref()?, "dest", (dest + 1) % osds)?;
        }
        "retarget_migration" => {
            let sites = of_kind("migration_start");
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.pick(sites.len())];
            let source = u64_field(i, "source")?;
            let dest = u64_field(i, "dest")?;
            let mut new_dest = (dest + 1) % osds;
            if new_dest == source {
                new_dest = (new_dest + 1) % osds;
            }
            lines[i] = rewrite(parsed[i].as_ref()?, "dest", new_dest)?;
        }
        "corrupt_trigger" => {
            let sites = of_kind("trigger_eval");
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.pick(sites.len())];
            let triggered = field(i, "triggered")?.as_bool()?;
            lines[i] = rewrite(parsed[i].as_ref()?, "triggered", !triggered)?;
        }
        "skip_erase" => {
            let sites = of_kind("block_erase");
            if sites.is_empty() {
                return None;
            }
            // Prefer a repeat erase of some (osd, block): bumping its
            // count breaks the +1 monotonicity. Fall back to zeroing a
            // first-seen count, which is impossible right after an
            // erase.
            let mut seen = std::collections::BTreeSet::new();
            let mut repeat = None;
            for &i in &sites {
                let site = (u64_field(i, "osd"), u64_field(i, "block"));
                if !seen.insert(site) {
                    repeat = Some(i);
                }
            }
            match repeat {
                Some(i) => {
                    let count = u64_field(i, "erase_count")?;
                    lines[i] = rewrite(parsed[i].as_ref()?, "erase_count", count + 1)?;
                }
                None => {
                    let i = sites[rng.pick(sites.len())];
                    lines[i] = rewrite(parsed[i].as_ref()?, "erase_count", 0)?;
                }
            }
        }
        "orphan_finish" => {
            let sites = of_kind("migration_finish");
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.pick(sites.len())];
            let copy = lines[i].clone();
            // Past its remap_update, the finish has no in-flight move.
            let at = (i + 2).min(lines.len());
            lines.insert(at, copy);
        }
        _ => return None,
    }
    let mut out = lines.join("\n");
    out.push('\n');
    Some(out)
}

/// Re-renders an object line with every `key` field set to `value`,
/// the other fields verbatim and in order.
fn rewrite(rec: &Record, key: &str, value: impl std::fmt::Display) -> Option<String> {
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
