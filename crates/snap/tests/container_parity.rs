//! `read_from` (a file) and `from_bytes` (a slice) run one frame parser:
//! for the same bytes they return the same `Result`, error context
//! included, and a length field that claims more than the input holds is
//! `Truncated` before anything is allocated.

use std::path::{Path, PathBuf};

use edm_snap::{crc32, SnapError, SnapshotFile, FORMAT_VERSION, MAGIC};

/// 88 bytes: a `manifest` section (a u64) and a `body` section (three u32s).
fn sample() -> Vec<u8> {
    let mut f = SnapshotFile::new();
    f.push("manifest", &42u64);
    f.push("body", &vec![1u32, 2, 3]);
    f.to_bytes()
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("edmsnap-{name}-{}", std::process::id()))
}

type Parsed = Result<Vec<u8>, SnapError>;

/// `bytes` parsed through a file at `path` and through a slice, each
/// re-serialized on success.
fn both_ways(path: &Path, bytes: &[u8]) -> (Parsed, Parsed) {
    std::fs::write(path, bytes).unwrap();
    let file = SnapshotFile::read_from(path).map(|f| f.to_bytes());
    let slice = SnapshotFile::from_bytes(bytes).map(|f| f.to_bytes());
    (file, slice)
}

fn truncated(context: &str) -> SnapError {
    SnapError::Truncated {
        context: context.to_string(),
    }
}

#[test]
fn file_and_slice_agree_on_every_truncation() {
    let bytes = sample();
    let path = scratch("cut");
    for cut in 0..bytes.len() {
        let (file, slice) = both_ways(&path, &bytes[..cut]);
        assert_eq!(file, slice, "cut at {cut}");
        assert!(
            matches!(
                slice,
                Err(SnapError::BadMagic | SnapError::Truncated { .. })
            ),
            "cut at {cut}: {slice:?}"
        );
    }
    assert_eq!(both_ways(&path, &bytes), (Ok(bytes.clone()), Ok(bytes)));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn file_and_slice_agree_on_saturated_header_fields() {
    let bytes = sample();
    assert_eq!(bytes.len(), 88, "the offsets below are this layout's");
    let path = scratch("fields");
    // (offset, width, the error once the field is all ones)
    let fields = [
        (
            8,
            4,
            Some(SnapError::UnsupportedVersion {
                found: u32::MAX,
                supported: FORMAT_VERSION,
            }),
        ),
        (12, 4, Some(truncated("section name length"))),
        (16, 4, Some(truncated("section name"))),
        (28, 8, Some(truncated("section body"))),
        (36, 4, None), // a CRC is checked when its section is read
        (48, 4, Some(truncated("section name"))),
        (56, 8, Some(truncated("section body"))),
        (64, 4, None),
    ];
    for (at, width, want) in fields {
        let mut bad = bytes.clone();
        bad[at..at + width].fill(0xFF);
        let (file, slice) = both_ways(&path, &bad);
        assert_eq!(file, slice, "field at {at}");
        assert_eq!(slice.err(), want, "field at {at}");
    }
    std::fs::remove_file(&path).unwrap();
}

/// The process's peak virtual size in KiB, where the kernel reports it.
fn vm_peak_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmPeak:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn a_body_claim_past_the_end_allocates_nothing() {
    // 100 bytes: the header, then one section "x" whose body length field
    // claims 2^40 bytes and whose body is the 67 bytes that are left.
    let body = [0xA5u8; 67];
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(b"x");
    bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
    bytes.extend_from_slice(&crc32(&body).to_le_bytes());
    bytes.extend_from_slice(&body);
    assert_eq!(bytes.len(), 100);

    let path = scratch("claim");
    let before = vm_peak_kib();
    let (file, slice) = both_ways(&path, &bytes);
    assert_eq!(file, Err(truncated("section body")));
    assert_eq!(slice, Err(truncated("section body")));
    // A buffer sized by the claim would raise the peak by 1 TiB (or abort
    // the process where the kernel refuses to overcommit).
    if let (Some(before), Some(after)) = (before, vm_peak_kib()) {
        assert!(
            after - before < 1 << 20,
            "VmPeak grew {} KiB",
            after - before
        );
    }
    std::fs::remove_file(&path).unwrap();
}
