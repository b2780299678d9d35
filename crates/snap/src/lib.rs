#![forbid(unsafe_code)]
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
/// # Every field, checked by the compiler
///
/// `save` of a named-field struct opens with an exhaustive destructure
/// of `self` — no `..` — and `load` builds a struct literal. A field
/// added to the struct then fails the build until both sides handle it
/// (E0027 in `save`, E0063 in `load`), a field that is named but never
/// written is an `unused_variables` warning (`scripts/check.sh lint`
/// denies warnings), and one that is saved but not loaded fails every
/// round trip with [`SnapError::TrailingData`]. A derived field that
/// `load` rebuilds instead of reading is spelled `field: _`, with the
/// reason beside it.
///
/// ```
/// use edm_snap::{SnapReader, SnapWriter, Snapshot};
///
/// struct Wear {
///     erases: u64,
///     budget: u64,
/// }
///
/// impl Snapshot for Wear {
///     fn save(&self, w: &mut SnapWriter) {
///         let Self { erases, budget } = self;
///         w.put_u64(*erases);
///         w.put_u64(*budget);
///     }
///     fn load(r: &mut SnapReader) -> Self {
///         Wear {
///             erases: r.take_u64(),
///             budget: r.take_u64(),
///         }
///     }
/// }
/// ```
///
/// The same `save` with `budget` forgotten does not build:
///
/// ```compile_fail,E0027
/// use edm_snap::{SnapReader, SnapWriter, Snapshot};
///
/// struct Wear {
///     erases: u64,
///     budget: u64,
/// }
///
/// impl Snapshot for Wear {
///     fn save(&self, w: &mut SnapWriter) {
///         let Self { erases } = self;
///         w.put_u64(*erases);
///     }
///     fn load(r: &mut SnapReader) -> Self {
///         Wear {
///             erases: r.take_u64(),
///             budget: r.take_u64(),
///         }
///     }
/// }
/// ```
pub trait Snapshot: Sized {
    fn save(&self, w: &mut SnapWriter);
    fn load(r: &mut SnapReader) -> Self;
}

macro_rules! int_snapshot {
    ($($t:ty, $put:ident, $take:ident;)*) => {$(
        impl Snapshot for $t {
            fn save(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
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
    fn save(&self, w: &mut SnapWriter) {
        w.put_bool(*self);
    }
    fn load(r: &mut SnapReader) -> Self {
        r.take_bool()
    }
}

impl Snapshot for f64 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_f64(*self);
    }
    fn load(r: &mut SnapReader) -> Self {
        r.take_f64()
    }
}

impl Snapshot for usize {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
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

    #[test]
    fn bad_option_tag_is_corrupt() {
        let mut r = SnapReader::new(&[7]);
        assert_eq!(Option::<u64>::load(&mut r), None);
        let err = r.finish("opt").unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { .. }), "{err:?}");
    }
}
