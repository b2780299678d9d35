//! The structured event vocabulary of the journal.
//!
//! Every variant is flat and uses raw integer ids (`u32` OSD index,
//! `u64` object id) because `edm-obs` sits below the crates that define
//! the typed ids. Variants map 1:1 onto JSONL records via
//! [`Event::kind`] and [`Event::write_fields`]; the journal line itself
//! (time key, optional device scope) is added by the recorder.
//!
//! The `events!` table below is the journal schema: each event is stated
//! there once — variant, `kind` string, fields and their types — and the
//! enum, [`Event::KINDS`], [`Event::kind`], [`Event::write_fields`] and
//! [`Event::from_record`] are generated from it. To add an event, add a
//! row; `edm-spec`'s transition match is exhaustive, so the compiler
//! then names what the state machine is missing.
//!
//! # Bytes per event
//!
//! [`crate::MemoryRecorder`] keeps every event of an `Events`-level run
//! (1.7 M on the `journal_verify` benchmark), so an [`Event`] costs the
//! size of its largest variant on every line. Rows whose payload fits in
//! 24 bytes are stored inline: [`Event`] is 32 bytes and a
//! [`crate::JournalEntry`] 56. A row marked `boxed` gets a payload struct
//! of the same name ([`TriggerEval`], [`PlanChosen`], [`PlanAssessment`]:
//! the few per-tick plan decisions, with `Vec` or four 8-byte fields) and
//! a `Variant(Box<Payload>)` arm; build one with `Event::from(Payload {
//! .. })`. Labels are the one-byte [`Label`], not `&'static str`. A new
//! row whose fields exceed 24 bytes must be marked `boxed`;
//! `tests::event_and_entry_stay_small` fails until it is.

use crate::json;
use crate::json::{Raw, Record};

/// Generates [`Label`] from one table of `Variant = "text"` rows.
macro_rules! labels {
    ($( $name:ident = $text:literal, )+) => {
        /// A label journal events carry: the closed vocabulary of policy
        /// and metric names (like the event set, an unknown label is a
        /// parse error). One byte in memory, its `text` in JSON.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Label {
            $( $name ),+
        }

        impl Label {
            /// Every label, in declaration order.
            #[cfg(test)]
            const ALL: &'static [Label] = &[$(Label::$name),+];

            /// The label as written to the journal.
            pub fn as_str(self) -> &'static str {
                match self {
                    $( Label::$name => $text ),+
                }
            }

            /// The label whose [`as_str`](Self::as_str) is `s`.
            pub fn parse(s: &str) -> Result<Label, String> {
                match s {
                    $( $text => Ok(Label::$name), )+
                    _ => Err(format!("unknown label {s:?}")),
                }
            }
        }
    };
}

labels! {
    // GC victim policies (VictimPolicy::label).
    Greedy = "greedy",
    Fifo = "fifo",
    CostBenefit = "cost_benefit",
    // Migration policies (TriggerEval / PlanChosen `policy`).
    Baseline = "Baseline",
    Cmt = "CMT",
    EdmHdf = "EDM-HDF",
    EdmCdf = "EDM-CDF",
    // Trigger metrics.
    EraseEstimate = "erase_estimate",
    EwmaLatencyUs = "ewma_latency_us",
}

/// Pads, so widths apply (`edm-probe`'s trigger table aligns labels).
impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.as_str())
    }
}

/// How one field type is written to, and read back from, a journal
/// record. One impl per type the `events!` table uses.
pub(crate) trait Field: Sized {
    /// Appends `"key":value` to a partially built JSON object.
    fn write(&self, out: &mut String, key: &str);
    /// Reads `key` of the `kind` record `rec`; `Err` when it is missing
    /// or ill-typed.
    fn read(rec: &Record<'_>, kind: &str, key: &str) -> Result<Self, String>;
}

impl Field for u64 {
    fn write(&self, out: &mut String, key: &str) {
        json::field_u64(out, key, *self);
    }
    fn read(rec: &Record<'_>, kind: &str, key: &str) -> Result<u64, String> {
        rec.get(key)
            .and_then(Raw::as_u64)
            .ok_or_else(|| format!("{kind}: missing or non-u64 {key:?}"))
    }
}

impl Field for u32 {
    fn write(&self, out: &mut String, key: &str) {
        json::field_u64(out, key, u64::from(*self));
    }
    fn read(rec: &Record<'_>, kind: &str, key: &str) -> Result<u32, String> {
        u32::try_from(u64::read(rec, kind, key)?)
            .map_err(|_| format!("{kind}: {key:?} exceeds u32"))
    }
}

impl Field for f64 {
    fn write(&self, out: &mut String, key: &str) {
        json::field_f64(out, key, *self);
    }
    /// Non-finite floats are journaled as null; read them back as NaN
    /// so the record still decodes (NaN != NaN keeps them visible to
    /// the spec's consistency checks).
    fn read(rec: &Record<'_>, kind: &str, key: &str) -> Result<f64, String> {
        match rec.get(key) {
            Some(Raw::Null) => Ok(f64::NAN),
            Some(n) => n
                .as_f64()
                .ok_or_else(|| format!("{kind}: non-numeric {key:?}")),
            None => Err(format!("{kind}: missing {key:?}")),
        }
    }
}

impl Field for bool {
    fn write(&self, out: &mut String, key: &str) {
        json::field_bool(out, key, *self);
    }
    fn read(rec: &Record<'_>, kind: &str, key: &str) -> Result<bool, String> {
        rec.get(key)
            .and_then(Raw::as_bool)
            .ok_or_else(|| format!("{kind}: missing or non-boolean {key:?}"))
    }
}

impl Field for Label {
    fn write(&self, out: &mut String, key: &str) {
        json::field_str(out, key, self.as_str());
    }
    fn read(rec: &Record<'_>, kind: &str, key: &str) -> Result<Label, String> {
        let raw = rec
            .get(key)
            .and_then(Raw::as_str)
            .ok_or_else(|| format!("{kind}: missing or non-string {key:?}"))?;
        Label::parse(&raw).map_err(|e| format!("{kind}: {key}: {e}"))
    }
}

impl Field for Vec<u64> {
    fn write(&self, out: &mut String, key: &str) {
        json::field_arr_u64(out, key, self);
    }
    fn read(rec: &Record<'_>, kind: &str, key: &str) -> Result<Vec<u64>, String> {
        rec.get(key)
            .and_then(Raw::items)
            .ok_or_else(|| format!("{kind}: missing or non-array {key:?}"))?
            .into_iter()
            .map(|it| {
                it.as_u64()
                    .ok_or_else(|| format!("{kind}: non-u64 element in {key:?}"))
            })
            .collect()
    }
}

/// Generates [`Event`] and everything that must stay in step with it
/// from one table of `Variant = "kind" { field: type, … }` rows; a row
/// prefixed `boxed` is stored behind a `Box` (see the module doc). The
/// JSON key of a field is its name.
///
/// The `@row` arms bring both kinds of row to one shape: the variant's
/// declaration, a pattern that binds every field by reference (plus the
/// `let` that finishes the binding for a boxed row), and the path a
/// struct literal of the fields is built on, which `Event::from` turns
/// into the event. `@emit` then generates from that shape alone.
macro_rules! events {
    (@row [$($done:tt)*]) => {
        events!(@emit $($done)*);
    };
    (@row [$($done:tt)*]
        $(#[$vdoc:meta])*
        boxed $variant:ident = $kind:literal {
            $( $(#[$fdoc:meta])* $field:ident : $ty:ty ),+ $(,)?
        }
        $($rest:tt)*
    ) => {
        $(#[$vdoc])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $variant {
            $( $(#[$fdoc])* pub $field: $ty ),+
        }

        impl From<$variant> for Event {
            fn from(payload: $variant) -> Event {
                Event::$variant(Box::new(payload))
            }
        }

        events!(@row [$($done)* {
            [$(#[$vdoc])*] $variant = $kind
            decl[$variant(Box<$variant>)]
            pat[Event::$variant(payload)]
            bind[let $variant { $($field),+ } = &**payload;]
            new[$variant]
            fields[$($field: $ty),+]
        }] $($rest)*);
    };
    (@row [$($done:tt)*]
        $(#[$vdoc:meta])*
        $variant:ident = $kind:literal {
            $( $(#[$fdoc:meta])* $field:ident : $ty:ty ),+ $(,)?
        }
        $($rest:tt)*
    ) => {
        events!(@row [$($done)* {
            [$(#[$vdoc])*] $variant = $kind
            decl[$variant { $( $(#[$fdoc])* $field: $ty ),+ }]
            pat[Event::$variant { $($field),+ }]
            bind[]
            new[Event::$variant]
            fields[$($field: $ty),+]
        }] $($rest)*);
    };
    (@emit $({
        [$($vattr:tt)*] $variant:ident = $kind:literal
        decl[$($decl:tt)*]
        pat[$($pat:tt)*]
        bind[$($bind:tt)*]
        new[$($new:tt)*]
        fields[$($field:ident : $ty:ty),+]
    })+) => {
        /// One journal event. Field names match the emitted JSON keys.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $( $($vattr)* $($decl)* ),+
        }

        impl Event {
            /// Every event kind, in declaration order — the only list of
            /// them (the denominator of `edm-spec`'s coverage report).
            pub const KINDS: &'static [&'static str] = &[$($kind),+];

            /// The `kind` discriminator written to (and dispatched on from) JSONL.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $kind ),+
                }
            }

            /// Appends this event's payload fields to a partially built JSON
            /// object (after `{` or previous fields).
            pub fn write_fields(&self, out: &mut String) {
                match self {
                    $( $($pat)* => {
                        $($bind)*
                        $( $field.write(out, stringify!($field)); )+
                    } )+
                }
            }

            /// Decodes a journal record (one JSONL line read into a
            /// [`Record`]) back into the event it was written from — the
            /// conformance spec's input contract. Inverse of [`Event::kind`] +
            /// [`Event::write_fields`]: `from_record(read(written)) == original`
            /// for every variant whose float fields are finite. Returns `Err`
            /// for trailer records (`counter`, `gauge`, `hist`), unknown kinds,
            /// and missing or ill-typed fields.
            pub fn from_record(rec: &Record<'_>) -> Result<Event, String> {
                let kind = rec
                    .get("kind")
                    .and_then(Raw::as_str)
                    .ok_or("missing kind")?;
                let kind = &*kind;
                Ok(match kind {
                    $( $kind => Event::from($($new)* {
                        $( $field: Field::read(rec, kind, stringify!($field))? ),+
                    }), )+
                    other => return Err(format!("unknown event kind {other:?}")),
                })
            }
        }

        #[cfg(test)]
        impl Event {
            /// One fixed value of every variant, in declaration order.
            fn samples() -> Vec<Event> {
                vec![$( Event::from($($new)* { $( $field: arb::Arb::sample() ),+ }) ),+]
            }

            /// Any variant with any JSON-representable field values.
            fn strategy() -> impl proptest::prelude::Strategy<Value = Event> {
                use proptest::prelude::Strategy;
                proptest::prop_oneof![$(
                    ($( <$ty as arb::Arb>::strategy(), )+)
                        .prop_map(|($($field,)+)| Event::from($($new)* { $($field),+ }))
                ),+]
            }
        }
    };
    ($($rows:tt)+) => {
        events!(@row [] $($rows)+);
    };
}

events! {
    // ---- Run preamble --------------------------------------------------
    /// The cluster shape the journal was recorded against, emitted once
    /// at t=0. The conformance spec keys its placement, capacity, and
    /// wear bookkeeping off this record.
    RunMeta = "run_meta" {
        osds: u32,
        groups: u32,
        objects_per_file: u32,
        /// Per-OSD exported capacity in bytes (uniform across the cluster).
        capacity_bytes: u64,
        /// Physical blocks per OSD (for wear-spread conservation checks).
        blocks_per_osd: u64,
    }

    // ---- FTL (device) events -------------------------------------------
    /// GC entered because the free pool fell below the low watermark.
    GcInvoked = "gc_invoked" { free_blocks: u64, low_watermark: u64, high_watermark: u64 }
    /// A victim block was selected for cleaning.
    GcVictim = "gc_victim" { block: u64, valid_pages: u64, policy: Label }
    /// A block was erased (after relocating `moved_pages` valid pages).
    BlockErase = "block_erase" { block: u64, erase_count: u64, moved_pages: u64 }
    /// Static wear leveling relocated a cold block.
    WearLevelSwap = "wear_level_swap" { block: u64, valid_pages: u64, wear_spread: u64 }

    // ---- Cluster (engine) events ---------------------------------------
    /// A sub-op entered an OSD queue; `depth` includes the new arrival.
    OpEnqueue = "op_enqueue" { osd: u32, depth: u64, mover: bool }
    /// A sub-op left the queue and began service.
    OpDequeue = "op_dequeue" { osd: u32, depth: u64 }
    /// Periodic per-OSD queue depth sample (taken on engine ticks).
    QueueDepth = "queue_depth" { osd: u32, depth: u64 }
    /// The remapping table recorded an object move.
    RemapUpdate = "remap_update" { object: u64, dest: u32 }

    // ---- EDM decision events -------------------------------------------
    /// Per-OSD wear-model input at a trigger evaluation (Eq. 4 operands).
    WearModelInput = "wear_model_input" { osd: u32, wc_pages: u64, utilization: f64,
        erase_estimate: f64 }
    /// A wear/load trigger evaluation: RSD of the per-device estimates
    /// against the λ threshold (§III.B.2).
    boxed TriggerEval = "trigger_eval" { policy: Label, metric: Label, rsd: f64,
        lambda: f64, mean: f64, triggered: bool, sources: Vec<u64>, destinations: Vec<u64> }
    /// The migration plan a policy settled on.
    boxed PlanChosen = "plan_chosen" { policy: Label, moves: u64, moved_bytes: u64,
        objects: Vec<u64>, sources: Vec<u64>, destinations: Vec<u64> }
    /// Predicted effect of the chosen plan (wear model re-run, §IV).
    boxed PlanAssessment = "plan_assessment" { rsd_before: f64, rsd_after: f64,
        moved_bytes: u64, moved_write_pages: u64 }
    /// An object migration began copying.
    MigrationStart = "migration_start" { object: u64, source: u32, dest: u32, bytes: u64 }
    /// An object migration finished (dest durable, source dropped).
    MigrationFinish = "migration_finish" { object: u64, source: u32, dest: u32, bytes: u64 }
    /// An in-flight migration was abandoned because its source or
    /// destination device failed; any partial destination copy is gone.
    MigrationAbort = "migration_abort" { object: u64, source: u32, dest: u32, bytes: u64 }

    // ---- Failure / recovery events -------------------------------------
    /// A device failed; its queue drains degraded and its objects are lost
    /// until rebuilt.
    DeviceFailed = "device_failed" { osd: u32 }
    /// A RAID-5 rebuild of a lost object began onto `dest`.
    RebuildStart = "rebuild_start" { object: u64, dest: u32, bytes: u64 }
    /// A rebuild completed; the object is durable on `dest`.
    RebuildFinish = "rebuild_finish" { object: u64, dest: u32, bytes: u64 }
}

#[cfg(test)]
mod arb {
    //! Test values per field type: what the table-generated
    //! `Event::samples` and `Event::strategy` are built from.
    use super::Label;
    use proptest::prelude::*;

    pub type Boxed<T> = Box<dyn Strategy<Value = T>>;

    pub trait Arb: Sized {
        fn sample() -> Self;
        fn strategy() -> Boxed<Self>;
    }

    impl Arb for u32 {
        fn sample() -> u32 {
            3
        }
        fn strategy() -> Boxed<u32> {
            Box::new(prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()])
        }
    }

    impl Arb for u64 {
        fn sample() -> u64 {
            1 << 21
        }
        fn strategy() -> Boxed<u64> {
            Box::new(prop_oneof![
                Just(0u64),
                Just(u64::MAX),
                Just((1u64 << 53) + 1),
                any::<u64>(),
            ])
        }
    }

    /// Finite floats incl. boundary magnitudes (non-finite values are
    /// covered by `non_finite_floats_round_trip_as_nan`: they journal as
    /// null by design, which is not an identity round-trip).
    impl Arb for f64 {
        fn sample() -> f64 {
            0.31
        }
        fn strategy() -> Boxed<f64> {
            Box::new(prop_oneof![
                Just(0.0f64),
                Just(-0.0f64),
                Just(f64::MIN_POSITIVE),
                Just(f64::MAX),
                Just(-f64::MAX),
                -1.0e9..1.0e9f64,
            ])
        }
    }

    impl Arb for bool {
        fn sample() -> bool {
            true
        }
        fn strategy() -> Boxed<bool> {
            Box::new(any::<bool>())
        }
    }

    impl Arb for Label {
        fn sample() -> Label {
            Label::EdmHdf
        }
        fn strategy() -> Boxed<Label> {
            Box::new((0..Label::ALL.len() as u64).prop_map(|i| Label::ALL[i as usize]))
        }
    }

    impl Arb for Vec<u64> {
        fn sample() -> Vec<u64> {
            vec![2, 3]
        }
        fn strategy() -> Boxed<Vec<u64>> {
            Box::new(proptest::collection::vec(u64::strategy(), 0..6))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The record the recorder writes for `e`, minus time and scope.
    pub(super) fn line_of(e: &Event) -> String {
        let mut line = String::from("{");
        json::field_str(&mut line, "kind", e.kind());
        e.write_fields(&mut line);
        line.push('}');
        line
    }

    /// Reads and decodes one line, as `verify_journal` does.
    pub(super) fn decode(line: &str) -> Result<Event, String> {
        let mut rec = Record::default();
        rec.read(line)?;
        Event::from_record(&rec)
    }

    #[test]
    fn every_event_emits_parseable_fields() {
        let events = Event::samples();
        // One sample per table row, and each decodes to its row's kind.
        let kinds: Vec<&str> = events.iter().map(Event::kind).collect();
        assert_eq!(kinds, Event::KINDS, "KINDS is in declaration order");
        let distinct: std::collections::BTreeSet<&str> = kinds.iter().copied().collect();
        assert_eq!(distinct.len(), Event::KINDS.len(), "duplicate kind string");
        for e in events {
            let line = line_of(&e);
            let v = json::parse(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(v.get("kind").unwrap().as_str(), Some(e.kind()));
            let back = decode(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(back, e, "{line}");
        }
    }

    /// Writes `events` through a recorder and reads the file back as
    /// `verify_journal` does: each event must come back equal.
    pub(super) fn assert_journal_round_trips(events: Vec<Event>) {
        use crate::{read_jsonl, JournalLine, MemoryRecorder, ObsLevel, Recorder};
        let mut r = MemoryRecorder::new(ObsLevel::Events);
        for (t, e) in events.iter().enumerate() {
            r.set_now(t as u64);
            r.event(e.clone());
        }
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let back: Vec<Event> = read_jsonl(&text)
            .map(|(no, line)| match line {
                Ok(JournalLine::Event(entry)) => entry.event,
                other => panic!("line {no}: {other:?}"),
            })
            .collect();
        assert_eq!(back, events);
    }

    #[test]
    fn every_event_round_trips_through_the_journal_file() {
        let events = Event::samples();
        let boxed = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::TriggerEval(_) | Event::PlanChosen(_) | Event::PlanAssessment(_)
                )
            })
            .count();
        assert_eq!(boxed, 3, "samples cover the boxed rows");
        assert_journal_round_trips(events);
    }

    #[test]
    fn from_record_rejects_bad_records() {
        let cases = [
            ("{\"t_us\":0}", "missing kind"),
            (
                "{\"kind\":\"counter\",\"name\":\"x\",\"value\":1}",
                "unknown",
            ),
            ("{\"kind\":\"no_such_event\"}", "unknown"),
            ("{\"kind\":\"device_failed\"}", "osd"),
            (
                "{\"kind\":\"device_failed\",\"osd\":4294967296}",
                "exceeds u32",
            ),
            ("{\"kind\":\"block_erase\",\"block\":-1}", "block"),
            ("{\"kind\":\"block_erase\",\"block\":1e300}", "block"),
            (
                "{\"kind\":\"block_erase\",\"block\":18446744073709551616}",
                "block",
            ),
            ("{\"kind\":\"block_erase\",\"block\":-0}", "block"),
            ("{\"kind\":\"block_erase\",\"block\":1.0}", "block"),
            (
                "{\"kind\":\"gc_victim\",\"block\":1,\"valid_pages\":0,\"policy\":\"mystery\"}",
                "unknown label",
            ),
            (
                "{\"kind\":\"trigger_eval\",\"policy\":\"EDM-HDF\",\"metric\":\"erase_estimate\",\
                 \"rsd\":0.1,\"lambda\":0.2,\"mean\":1.0,\"triggered\":true,\"sources\":[1,\"x\"],\
                 \"destinations\":[]}",
                "sources",
            ),
        ];
        for (line, needle) in cases {
            let err = decode(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn non_finite_floats_round_trip_as_nan() {
        let e = Event::from(PlanAssessment {
            rsd_before: f64::NAN,
            rsd_after: f64::INFINITY,
            moved_bytes: 1,
            moved_write_pages: 2,
        });
        let line = line_of(&e);
        assert!(line.contains("\"rsd_before\":null"));
        match decode(&line).unwrap() {
            Event::PlanAssessment(a) => {
                assert!(a.rsd_before.is_nan());
                assert!(a.rsd_after.is_nan());
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    /// The recorder keeps every event of an `Events`-level run, so these
    /// sizes are its bytes per retained event.
    #[test]
    fn event_and_entry_stay_small() {
        let event = std::mem::size_of::<Event>();
        let entry = std::mem::size_of::<crate::JournalEntry>();
        assert!(
            event <= 32 && entry <= 56,
            "Event is {event} bytes (at most 32), JournalEntry {entry} (at most 56): \
             mark the `events!` row whose payload exceeds 24 bytes `boxed`"
        );
        assert_eq!(std::mem::size_of::<Label>(), 1);
    }

    #[test]
    fn labels_round_trip_and_unknown_labels_fail() {
        for &label in Label::ALL {
            assert_eq!(Label::parse(label.as_str()), Ok(label));
            assert_eq!(label.to_string(), label.as_str());
        }
        assert_eq!(
            Label::parse("edm-hdf"),
            Err("unknown label \"edm-hdf\"".to_string())
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::json::JsonValue;
    use proptest::prelude::*;

    /// Whether a value the record reader read says what the tree says:
    /// floats bitwise, integers below 2^53 exactly, containers member
    /// by member.
    fn agree(raw: Raw<'_>, tree: &JsonValue) -> bool {
        match (raw, tree) {
            (Raw::Null, JsonValue::Null) => true,
            (Raw::Bool(a), JsonValue::Bool(b)) => a == *b,
            (Raw::Num(_), JsonValue::Num(f)) => {
                raw.as_f64().map(f64::to_bits) == Some(f.to_bits())
                    && raw
                        .as_u64()
                        .is_none_or(|n| n >= 1 << 53 || tree.as_u64() == Some(n))
            }
            (Raw::Str(_), JsonValue::Str(s)) => raw.as_str().as_deref() == Some(s.as_str()),
            (Raw::Arr(_), JsonValue::Arr(items)) => raw.items().is_some_and(|raws| {
                raws.len() == items.len() && raws.into_iter().zip(items).all(|(r, t)| agree(r, t))
            }),
            (Raw::Obj(text), JsonValue::Obj(_)) => record_agrees(text, tree),
            _ => false,
        }
    }

    fn record_agrees(text: &str, tree: &JsonValue) -> bool {
        let mut rec = Record::default();
        if rec.read(text).is_err() {
            return false;
        }
        let JsonValue::Obj(fields) = tree else {
            return rec.fields().count() == 0;
        };
        rec.fields().count() == fields.len()
            && rec
                .fields()
                .zip(fields)
                .all(|((k, raw), (key, value))| k == key && agree(raw, value))
    }

    /// One byte-level edit: flip, insert, delete, or truncate at `at`.
    fn edit(bytes: &mut Vec<u8>, (op, at, byte): (u8, usize, u8)) {
        if bytes.is_empty() {
            return;
        }
        let at = at % bytes.len();
        match op % 4 {
            0 => bytes[at] ^= byte | 1,
            1 => bytes.insert(at, byte),
            2 => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }

    /// Bytes that steer an insert or flip into the grammar's corners.
    fn hostile_byte() -> impl Strategy<Value = u8> {
        const CORNERS: &[u8] = b"{}[],:\"\\-+.eE0123456789 untrlfsa";
        prop_oneof![
            (0..CORNERS.len() as u64).prop_map(|i| CORNERS[i as usize]),
            any::<u8>(),
        ]
    }

    proptest! {
        /// The spec's input contract: every event the recorder can write
        /// decodes back to the identical value through the JSON layer.
        #[test]
        fn event_round_trips_through_json(e in Event::strategy()) {
            let line = tests::line_of(&e);
            prop_assert!(json::parse(&line).is_ok(), "{}", line);
            let back = tests::decode(&line).map_err(|err| {
                TestCaseError::fail(format!("{line}: {err}"))
            })?;
            // NaN never round-trips by equality; the f64 strategy keeps
            // floats finite, so bit-for-bit equality is the contract here.
            prop_assert_eq!(back, e, "{}", line);
        }

        /// The same through `write_jsonl` and `read_jsonl`, several
        /// events to a file.
        #[test]
        fn events_round_trip_through_the_journal_file(
            events in proptest::collection::vec(Event::strategy(), 1..8),
        ) {
            tests::assert_journal_round_trips(events);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Hostile bytes: both builders accept and reject the same
        /// mutated lines, agree on every field where they accept, and
        /// decoding never panics.
        #[test]
        fn record_reader_and_tree_agree_on_mutated_lines(
            e in Event::strategy(),
            edits in proptest::collection::vec((any::<u8>(), any::<usize>(), hostile_byte()), 1..4),
        ) {
            let mut bytes = tests::line_of(&e).into_bytes();
            for ed in edits {
                edit(&mut bytes, ed);
            }
            let line = String::from_utf8_lossy(&bytes);
            let mut rec = Record::default();
            match (json::parse(&line), rec.read(&line)) {
                (Ok(tree), Ok(())) => {
                    prop_assert!(record_agrees(&line, &tree), "{}", line);
                    let _ = Event::from_record(&rec);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}", line),
                (a, b) => prop_assert!(false, "{line}: parse {a:?} vs record {b:?}"),
            }
        }
    }
}
