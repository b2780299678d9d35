//! Single-file snapshot container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            8 bytes   b"EDMSNAP1"
//! format_version   u32
//! section_count    u32
//! per section:
//!   name_len       u32
//!   name           name_len bytes (UTF-8)
//!   body_len       u64
//!   body_crc32     u32       (CRC-32/IEEE over body)
//!   body           body_len bytes
//! ```
//!
//! Section CRCs are verified lazily — when a section's reader is first
//! requested — so an inspector that only reads the manifest section pays
//! only that section's checksum. Parsing still validates the full
//! structural frame (magic, version, every name/length within bounds,
//! unique names, no trailing garbage), so any single-byte corruption is
//! caught either structurally at parse time or by the CRC at decode time.
//!
//! One serializer and one parser, both streaming: `write_to` writes
//! straight into the file and `to_bytes` runs the same writer into a
//! `Vec`; `read_from` and `from_bytes` run one parser over a file or a
//! slice of known length. Every length field is checked against the
//! bytes left before anything is allocated or read, so no allocation is
//! sized by the input beyond the input's own length.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::{crc32, SnapError, SnapReader, SnapWriter, Snapshot};

/// File magic: "EDMSNAP" plus a container-layout generation digit.
pub const MAGIC: [u8; 8] = *b"EDMSNAP1";

/// Format version of the section contents. Bump when any `Snapshot`
/// encoding changes shape; old files then fail with
/// [`SnapError::UnsupportedVersion`] instead of misdecoding.
pub const FORMAT_VERSION: u32 = 5;

#[derive(Debug)]
struct Section {
    name: String,
    crc: u32,
    body: Vec<u8>,
}

/// An in-memory snapshot: an ordered list of named, checksummed sections.
#[derive(Debug, Default)]
pub struct SnapshotFile {
    sections: Vec<Section>,
}

impl SnapshotFile {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a section holding `writer`'s bytes, stamping its CRC.
    pub fn push_section(&mut self, name: &str, writer: SnapWriter) {
        let body = writer.into_bytes();
        self.sections.push(Section {
            name: name.to_string(),
            crc: crc32(&body),
            body,
        });
    }

    /// Convenience: encode `value` into a new section named `name`.
    pub fn push<T: Snapshot>(&mut self, name: &str, value: &T) {
        let mut w = SnapWriter::new();
        value.save(&mut w);
        self.push_section(name, w);
    }

    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|s| s.name.as_str())
    }

    fn find(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// A reader over `name`'s body, after verifying its CRC.
    pub fn reader(&self, name: &str) -> Result<SnapReader<'_>, SnapError> {
        let s = self.find(name).ok_or_else(|| SnapError::MissingSection {
            section: name.to_string(),
        })?;
        if crc32(&s.body) != s.crc {
            return Err(SnapError::CrcMismatch {
                section: name.to_string(),
            });
        }
        Ok(SnapReader::new(&s.body))
    }

    /// Decode a whole section as one `Snapshot` value, enforcing the CRC,
    /// full consumption, and any corruption the impl latched.
    pub fn decode<T: Snapshot>(&self, name: &str) -> Result<T, SnapError> {
        let mut r = self.reader(name)?;
        let value = T::load(&mut r);
        r.finish(name)?;
        Ok(value)
    }

    /// The one serializer: streams the on-disk byte layout into `out`.
    fn write_frame(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(&MAGIC)?;
        out.write_all(&FORMAT_VERSION.to_le_bytes())?;
        out.write_all(&(self.sections.len() as u32).to_le_bytes())?;
        for s in &self.sections {
            out.write_all(&(s.name.len() as u32).to_le_bytes())?;
            out.write_all(s.name.as_bytes())?;
            out.write_all(&(s.body.len() as u64).to_le_bytes())?;
            out.write_all(&s.crc.to_le_bytes())?;
            out.write_all(&s.body)?;
        }
        Ok(())
    }

    /// Serialize the container to its on-disk byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        // Writing into a `Vec` cannot fail.
        let _ = self.write_frame(&mut out);
        out
    }

    /// The one parser: the structural frame of a `len`-byte container
    /// read from `src`. Section CRCs are deferred to
    /// [`SnapshotFile::reader`] / [`SnapshotFile::decode`].
    fn parse(src: impl Read, len: u64) -> Result<Self, SnapError> {
        if len < MAGIC.len() as u64 {
            return Err(SnapError::BadMagic);
        }
        let mut frame = Frame { src, left: len };
        if frame.array("magic")? != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u32::from_le_bytes(frame.array("format version")?);
        if version != FORMAT_VERSION {
            return Err(SnapError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = u32::from_le_bytes(frame.array("section count")?);
        let mut sections: Vec<Section> = Vec::new();
        for i in 0..count {
            let name_len = u32::from_le_bytes(frame.array("section name length")?);
            let name = frame.bytes(name_len.into(), "section name")?;
            let name = String::from_utf8(name).map_err(|_| SnapError::Corrupt {
                section: format!("#{i}"),
                detail: "section name is not UTF-8".to_string(),
            })?;
            if sections.iter().any(|s| s.name == name) {
                return Err(SnapError::Corrupt {
                    section: name,
                    detail: "duplicate section name".to_string(),
                });
            }
            let body_len = u64::from_le_bytes(frame.array("section body length")?);
            let crc = u32::from_le_bytes(frame.array("section crc")?);
            let body = frame.bytes(body_len, "section body")?;
            sections.push(Section { name, crc, body });
        }
        if frame.left != 0 {
            return Err(SnapError::TrailingData {
                section: "<container>".to_string(),
            });
        }
        Ok(Self { sections })
    }

    /// Parse a container held in memory.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        Self::parse(bytes, bytes.len() as u64)
    }

    /// Write atomically: stream to `<path>.tmp` then rename over
    /// `path`, so a process killed mid-checkpoint never leaves a partial
    /// snapshot under the final name.
    pub fn write_to(&self, path: &Path) -> Result<(), SnapError> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut out = BufWriter::new(File::create(&tmp)?);
        self.write_frame(&mut out)?;
        out.into_inner().map_err(io::IntoInnerError::into_error)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    pub fn read_from(path: &Path) -> Result<Self, SnapError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Self::parse(BufReader::new(file), len)
    }
}

/// A container being parsed: where its bytes come from and how many of
/// them are left.
struct Frame<R> {
    src: R,
    left: u64,
}

impl<R: Read> Frame<R> {
    /// Takes `n` of the bytes left, or is `Truncated` naming `what` —
    /// before anything is allocated or read.
    fn claim(&mut self, n: u64, what: &str) -> Result<usize, SnapError> {
        let len = usize::try_from(n)
            .ok()
            .filter(|_| n <= self.left)
            .ok_or_else(|| SnapError::Truncated {
                context: what.to_string(),
            })?;
        self.left -= n;
        Ok(len)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], SnapError> {
        let mut buf = [0; N];
        self.claim(N as u64, what)?;
        self.src.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn bytes(&mut self, n: u64, what: &str) -> Result<Vec<u8>, SnapError> {
        let mut buf = vec![0; self.claim(n, what)?];
        self.src.read_exact(&mut buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotFile {
        let mut f = SnapshotFile::new();
        f.push("manifest", &42u64);
        f.push("body", &vec![1u32, 2, 3]);
        f
    }

    #[test]
    fn container_roundtrip() {
        let f = sample();
        let bytes = f.to_bytes();
        let back = SnapshotFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.decode::<u64>("manifest").unwrap(), 42);
        assert_eq!(back.decode::<Vec<u32>>("body").unwrap(), vec![1, 2, 3]);
        assert_eq!(
            back.to_bytes(),
            bytes,
            "re-serialization must be byte-identical"
        );
    }

    #[test]
    fn bad_magic() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(
            SnapshotFile::from_bytes(&bytes).unwrap_err(),
            SnapError::BadMagic
        );
    }

    #[test]
    fn version_mismatch() {
        let mut bytes = sample().to_bytes();
        bytes[8] = 99;
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes).unwrap_err(),
            SnapError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        ));
    }

    #[test]
    fn body_flip_is_crc_mismatch() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1; // final byte of the "body" section body
        bytes[last] ^= 0x01;
        let f = SnapshotFile::from_bytes(&bytes).unwrap();
        assert!(matches!(
            f.decode::<Vec<u32>>("body").unwrap_err(),
            SnapError::CrcMismatch { .. }
        ));
        // The untouched section still decodes.
        assert_eq!(f.decode::<u64>("manifest").unwrap(), 42);
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = SnapshotFile::from_bytes(&bytes[..cut])
                .err()
                .unwrap_or_else(|| panic!("truncation at {cut} parsed"));
            assert!(
                matches!(err, SnapError::BadMagic | SnapError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn missing_section() {
        let f = sample();
        assert!(matches!(
            f.decode::<u64>("nope").unwrap_err(),
            SnapError::MissingSection { .. }
        ));
    }

    #[test]
    fn trailing_container_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes).unwrap_err(),
            SnapError::TrailingData { .. }
        ));
    }

    #[test]
    fn duplicate_section_name_is_corrupt() {
        // Two sections named "manifest", written field by field.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        for value in [42u64, 7] {
            let body = value.to_le_bytes();
            bytes.extend_from_slice(&8u32.to_le_bytes());
            bytes.extend_from_slice(b"manifest");
            bytes.extend_from_slice(&8u64.to_le_bytes());
            bytes.extend_from_slice(&crc32(&body).to_le_bytes());
            bytes.extend_from_slice(&body);
        }
        assert_eq!(
            SnapshotFile::from_bytes(&bytes).unwrap_err(),
            SnapError::Corrupt {
                section: "manifest".to_string(),
                detail: "duplicate section name".to_string(),
            }
        );
    }

    #[test]
    fn atomic_write_roundtrip() {
        #[expect(
            clippy::disallowed_methods,
            reason = "test scratch directory; its location never reaches simulation state"
        )]
        let dir = std::env::temp_dir().join(format!("edmsnap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.edmsnap");
        sample().write_to(&path).unwrap();
        assert!(!path.with_extension("edmsnap.tmp").exists());
        let back = SnapshotFile::read_from(&path).unwrap();
        assert_eq!(back.decode::<u64>("manifest").unwrap(), 42);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
