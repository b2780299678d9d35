#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![warn(clippy::iter_over_hash_type)]
//! # edm-snap — deterministic checkpoint/restore for the EDM simulator
//!
//! A snapshot captures the complete simulator state — FTL page maps and
//! wear counters, cluster queues and event heap, policy accumulators,
//! trace cursors — into a single versioned, checksummed file that
//! restores **bit-identically**: an interrupted-and-resumed run must
//! produce the same reports and determinism digest as an uninterrupted
//! one.
//!
//! The crate deliberately has zero dependencies (it sits at the bottom
//! of the workspace graph) and splits into three layers:
//!
//! * [`Snapshot`] — the trait every stateful simulator type implements:
//!   `save` appends a canonical byte encoding to a [`SnapWriter`], `load`
//!   reads it back from a [`SnapReader`].
//! * [`SnapWriter`] / [`SnapReader`] — length-prefixed little-endian
//!   primitives. The reader never panics on corrupt input: out-of-bounds
//!   reads return zero values and latch a *sticky error* that
//!   [`SnapReader::finish`] reports as a typed [`SnapError`].
//! * [`SnapshotFile`] — the container format: an 8-byte magic, a format
//!   version, and named sections each carrying a CRC-32 over its body.
//!   The first section is by convention a small manifest, so inspection
//!   tools can describe a snapshot without materializing the simulator.
//!
//! ## Canonical encodings
//!
//! Byte-identical round-trips require canonical encodings for types with
//! unspecified in-memory order: hash maps are serialized sorted by key,
//! binary heaps as sorted event lists, and floating-point values via
//! their IEEE-754 bit patterns ([`f64::to_bits`]). Those rules live with
//! the individual `Snapshot` impls; this crate only supplies primitives
//! that make them easy to follow.

mod crc32;
mod error;
mod file;
pub mod flat;
mod reader;
mod writer;

pub use crc32::crc32;
pub use error::SnapError;
pub use file::{SnapshotFile, FORMAT_VERSION, MAGIC};
pub use flat::{FlatMap, IdMap, IdSet, TokenMap};
pub use reader::SnapReader;
pub use writer::SnapWriter;

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Canonical binary serialization of one piece of simulator state.
///
/// `load` mirrors `save` exactly. It returns `Self` (not a `Result`):
/// decode errors latch inside the [`SnapReader`] and surface as a typed
/// [`SnapError`] when the enclosing section is finished — corruption is
/// detected by the per-section CRC *before* `load` runs, so `load` only
/// sees either a valid body or a reader that is already poisoned.
///
/// # Every field, stated once or checked by the compiler
///
/// A type whose encoding is its fields in declaration order — most of
/// them — gets its impl from [`snapshot_struct!`](crate::snapshot_struct),
/// which names each field once. A type with a derived field that `load`
/// rebuilds, a canonical ordering, or a safe fallback value writes the
/// impl by hand, in one idiom: `save` opens with an exhaustive
/// destructure of `self` — no `..` — and `load` builds a struct literal.
/// A field added to the struct then fails the build until both sides
/// handle it (E0027 in `save`, E0063 in `load`), a field that is named
/// but never written is an `unused_variables` warning (`scripts/check.sh
/// lint` denies warnings), and one that is saved but not loaded fails
/// every round trip with [`SnapError::TrailingData`]. The derived field
/// is spelled `field: _`, with the reason beside it.
///
/// ```
/// use edm_snap::{SnapReader, SnapWriter, Snapshot};
///
/// struct Tracker {
///     heats: Vec<(u64, f64)>,
///     index: Vec<usize>,
/// }
///
/// fn index_of(heats: &[(u64, f64)]) -> Vec<usize> {
///     (0..heats.len()).collect()
/// }
///
/// impl Snapshot for Tracker {
///     fn save(&self, w: &mut SnapWriter) {
///         // `index` is not stored: `load` reads it back off `heats`.
///         let Self { heats, index: _ } = self;
///         heats.save(w);
///     }
///     fn load(r: &mut SnapReader) -> Self {
///         let heats = Vec::load(r);
///         Tracker {
///             index: index_of(&heats),
///             heats,
///         }
///     }
/// }
/// ```
///
/// The same `save` with `index` forgotten does not build:
///
/// ```compile_fail,E0027
/// use edm_snap::{SnapReader, SnapWriter, Snapshot};
///
/// struct Tracker {
///     heats: Vec<(u64, f64)>,
///     index: Vec<usize>,
/// }
///
/// impl Snapshot for Tracker {
///     fn save(&self, w: &mut SnapWriter) {
///         let Self { heats } = self;
///         heats.save(w);
///     }
///     fn load(r: &mut SnapReader) -> Self {
///         Tracker {
///             heats: Vec::load(r),
///             index: Vec::new(),
///         }
///     }
/// }
/// ```
pub trait Snapshot: Sized {
    fn save(&self, w: &mut SnapWriter);
    fn load(r: &mut SnapReader) -> Self;
}

/// Implements [`Snapshot`] for a type whose encoding is its fields in
/// list order, naming each field once.
///
/// `snapshot_struct!(Type { a, b, c })` expands to the hand-written
/// idiom: `save` destructures `self` exhaustively (no `..`) and saves
/// each field in list order, `load` builds a struct literal of
/// `Snapshot::load(r)` in the same order. A field missing from the list
/// therefore fails the build — E0063 names it, and the destructure is
/// rejected for leaving it out — and a listed field cannot go unwritten.
///
/// An optional `check = "what": f` runs `f: fn(&Type) -> Result<(),
/// String>` on the loaded value (only if the reader has not already
/// failed) and latches an `Err(e)` as `r.corrupt("what: e")`.
///
/// The second form covers tag enums with unit or named-field variants:
/// `snapshot_struct!(Kind { 0 = Unit, 1 = Named { x, y } })` writes the
/// `u8` tag, then the variant's fields in list order. An unknown tag
/// latches `r.corrupt` and yields the first variant.
///
/// ```
/// use edm_snap::snapshot_struct;
///
/// struct Wear {
///     erases: u64,
///     budget: u64,
/// }
/// snapshot_struct!(Wear { erases, budget });
/// ```
///
/// A list that omits a field does not build:
///
/// ```compile_fail,E0063
/// use edm_snap::snapshot_struct;
///
/// struct Wear {
///     erases: u64,
///     budget: u64,
/// }
/// snapshot_struct!(Wear { erases });
/// ```
#[macro_export]
macro_rules! snapshot_struct {
    ($T:ident { $($f:ident),* $(,)? } $(, check = $what:literal : $check:expr)?) => {
        impl $crate::Snapshot for $T {
            fn save(&self, w: &mut $crate::SnapWriter) {
                let Self { $($f),* } = self;
                $($crate::Snapshot::save($f, w);)*
            }
            fn load(r: &mut $crate::SnapReader) -> Self {
                let loaded = Self { $($f: $crate::Snapshot::load(r)),* };
                $(
                    let check: fn(&Self) -> Result<(), String> = $check;
                    if !r.failed() {
                        if let Err(e) = check(&loaded) {
                            r.corrupt(format!("{}: {e}", $what));
                        }
                    }
                )?
                loaded
            }
        }
    };
    ($T:ident {
        $tag0:literal = $V0:ident $({ $($f0:ident),* $(,)? })?
        $(, $tag:literal = $V:ident $({ $($f:ident),* $(,)? })?)* $(,)?
    }) => {
        impl $crate::Snapshot for $T {
            fn save(&self, w: &mut $crate::SnapWriter) {
                // One `put_u8` of a matched tag, not one per arm: a unit
                // enum then saves as a plain byte store.
                w.put_u8(match self {
                    Self::$V0 { .. } => $tag0,
                    $(Self::$V { .. } => $tag,)*
                });
                match self {
                    Self::$V0 $({ $($f0),* })? => { $($($crate::Snapshot::save($f0, w);)*)? }
                    $(Self::$V $({ $($f),* })? => { $($($crate::Snapshot::save($f, w);)*)? })*
                }
            }
            fn load(r: &mut $crate::SnapReader) -> Self {
                match r.take_u8() {
                    $($tag => Self::$V $({ $($f: $crate::Snapshot::load(r)),* })?,)*
                    tag => {
                        if tag != $tag0 {
                            r.corrupt(format!("{} tag {tag}", stringify!($T)));
                        }
                        Self::$V0 $({ $($f0: $crate::Snapshot::load(r)),* })?
                    }
                }
            }
        }
    };
}

// The primitive impls only forward to one `SnapWriter` / `SnapReader`
// call. `#[inline]` lets them dissolve across the crate boundary, so a
// `snapshot_struct!` field costs what a hand-written `w.put_u64(..)` did.
macro_rules! int_snapshot {
    ($($t:ty, $put:ident, $take:ident;)*) => {$(
        impl Snapshot for $t {
            #[inline]
            fn save(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            #[inline]
            fn load(r: &mut SnapReader) -> Self {
                r.$take()
            }
        }
    )*};
}

int_snapshot! {
    u8, put_u8, take_u8;
    u16, put_u16, take_u16;
    u32, put_u32, take_u32;
    u64, put_u64, take_u64;
}

impl Snapshot for bool {
    #[inline]
    fn save(&self, w: &mut SnapWriter) {
        w.put_bool(*self);
    }
    #[inline]
    fn load(r: &mut SnapReader) -> Self {
        r.take_bool()
    }
}

impl Snapshot for f64 {
    #[inline]
    fn save(&self, w: &mut SnapWriter) {
        w.put_f64(*self);
    }
    #[inline]
    fn load(r: &mut SnapReader) -> Self {
        r.take_f64()
    }
}

impl Snapshot for usize {
    #[inline]
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    #[inline]
    fn load(r: &mut SnapReader) -> Self {
        r.take_usize()
    }
}

impl Snapshot for String {
    fn save(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn load(r: &mut SnapReader) -> Self {
        r.take_string()
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader) -> Self {
        match r.take_u8() {
            0 => None,
            1 => Some(T::load(r)),
            _ => {
                r.corrupt("Option tag");
                None
            }
        }
    }
}

/// Reads a length prefix that claims `len` elements of ≥ 1 byte each;
/// latches `Truncated` and yields 0 when the claim cannot fit in the
/// remaining bytes, so corrupt input can never drive an unbounded
/// allocation.
pub(crate) fn bounded_len(r: &mut SnapReader) -> usize {
    let len = r.take_u64();
    if len as usize > r.remaining() {
        r.corrupt("length prefix exceeds section size");
        return 0;
    }
    len as usize
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader) -> Self {
        let len = bounded_len(r);
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            if r.failed() {
                break;
            }
            out.push(T::load(r));
        }
        out
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader) -> Self {
        Vec::<T>::load(r).into()
    }
}

impl<T: Snapshot + Ord> Snapshot for BTreeSet<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader) -> Self {
        Vec::<T>::load(r).into_iter().collect()
    }
}

impl<K: Snapshot + Ord, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader) -> Self {
        Vec::<(K, V)>::load(r).into_iter().collect()
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader) -> Self {
        (A::load(r), B::load(r))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader) -> Self {
        (A::load(r), B::load(r), C::load(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snapshot + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::load(&mut r);
        assert_eq!(&back, v);
        r.finish("test").unwrap();
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&u16::MAX);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&u64::MAX);
        roundtrip(&usize::MAX);
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&-0.0f64);
        roundtrip(&f64::NAN.to_bits());
        roundtrip(&String::from("héllo ∞"));
        roundtrip(&String::new());
    }

    #[test]
    fn composites_roundtrip() {
        roundtrip(&Some(17u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Vec::<u64>::new());
        roundtrip(&VecDeque::from([9u64, 8, 7]));
        roundtrip(&BTreeSet::from([(3u64, 1u32), (1, 2)]));
        roundtrip(&BTreeMap::from([(1u64, "a".to_string()), (2, "b".into())]));
        roundtrip(&(1u64, (2u32, true), 3.5f64));
    }

    #[test]
    fn f64_roundtrip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE] {
            let mut w = SnapWriter::new();
            v.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            assert_eq!(f64::load(&mut r).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_vec_fails_cleanly() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..bytes.len() - 4]);
        let _ = Vec::<u64>::load(&mut r);
        assert!(r.finish("vec").is_err());
    }

    #[test]
    fn huge_length_claim_does_not_allocate() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // claims ~1.8e19 elements
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let v = Vec::<u64>::load(&mut r);
        assert!(v.is_empty());
        assert!(r.finish("vec").is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Window {
        lo: u64,
        hi: u64,
        label: String,
    }
    snapshot_struct!(
        Window { lo, hi, label },
        check = "window": |w| if w.lo <= w.hi { Ok(()) } else { Err(format!("{} > {}", w.lo, w.hi)) }
    );

    #[derive(Debug, PartialEq)]
    enum Step {
        Idle,
        Move { from: u32, to: u32 },
        Done,
    }
    snapshot_struct!(Step { 0 = Idle, 1 = Move { from, to }, 2 = Done });

    fn bytes_of<T: Snapshot>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn snapshot_struct_round_trips_and_reencodes_identically() {
        let window = Window {
            lo: 3,
            hi: 9,
            label: "w".into(),
        };
        roundtrip(&window);
        // Fields in list order, nothing else: u64, u64, length-prefixed str.
        let mut w = SnapWriter::new();
        w.put_u64(3);
        w.put_u64(9);
        w.put_str("w");
        assert_eq!(bytes_of(&window), w.into_bytes());

        for step in [Step::Idle, Step::Move { from: 1, to: 2 }, Step::Done] {
            roundtrip(&step);
            let bytes = bytes_of(&step);
            let back = Step::load(&mut SnapReader::new(&bytes));
            assert_eq!(bytes_of(&back), bytes);
        }
        assert_eq!(
            bytes_of(&Step::Move { from: 1, to: 2 }),
            [1, 1, 0, 0, 0, 2, 0, 0, 0]
        );
    }

    #[test]
    fn failing_check_is_corrupt_and_names_what() {
        let bytes = bytes_of(&Window {
            lo: 9,
            hi: 3,
            label: String::new(),
        });
        let mut r = SnapReader::new(&bytes);
        let _ = Window::load(&mut r);
        match r.finish("sec") {
            Err(SnapError::Corrupt { detail, .. }) => assert_eq!(detail, "window: 9 > 3"),
            other => panic!("want Corrupt, got {other:?}"),
        }
        // A truncated body stays `Truncated`: the check only runs on a
        // value that decoded.
        let mut r = SnapReader::new(&bytes[..bytes.len() - 1]);
        let _ = Window::load(&mut r);
        assert!(matches!(r.finish("sec"), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn unknown_enum_tag_is_corrupt() {
        let mut r = SnapReader::new(&[7]);
        assert_eq!(Step::load(&mut r), Step::Idle);
        match r.finish("sec") {
            Err(SnapError::Corrupt { detail, .. }) => assert_eq!(detail, "Step tag 7"),
            other => panic!("want Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bad_option_tag_is_corrupt() {
        let mut r = SnapReader::new(&[7]);
        assert_eq!(Option::<u64>::load(&mut r), None);
        let err = r.finish("opt").unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { .. }), "{err:?}");
    }
}
