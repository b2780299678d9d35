//! Workload specifications.
//!
//! A [`WorkloadSpec`] pins the aggregate characteristics of Table 1 (file
//! count, read/write counts, mean request sizes) and adds the skew knobs
//! that the Harvard traces exhibit but the table does not quantify: Zipf
//! popularity exponents, the overlap between the read-hot and write-hot
//! file sets, and the file-size distribution.

/// Skew profile of a workload: how concentrated accesses are and how much
/// the read-hot and write-hot sets overlap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewProfile {
    /// Zipf exponent of write popularity over files. Higher ⇒ writes
    /// concentrate on fewer files ⇒ more wear variance across SSDs (§II).
    pub write_theta: f64,
    /// Zipf exponent of read popularity over files.
    pub read_theta: f64,
    /// Fraction of the popularity ranking shared between the read and
    /// write orderings, in [0, 1]. 1.0 means the same files are hot for
    /// both; 0.0 means independent hot sets.
    pub hot_overlap: f64,
    /// Exponent coupling session length to file size: sessions on a file
    /// of size `s` are scaled by `(s / geometric-mean-size)^size_coupling`.
    /// 0 disables the coupling; 0.5 reproduces the correlation §II of the
    /// paper observes between a server's storage utilization and its I/O
    /// intensity.
    pub size_coupling: f64,
    /// Number of temporal phases: the popularity rankings rotate at each
    /// phase boundary, so the hot set drifts over time — the temporal
    /// locality that motivates the exponential decay of Definition 1.
    /// 1 = stationary popularity.
    pub phases: u32,
}

impl SkewProfile {
    /// A moderate default resembling departmental NFS workloads.
    pub const MODERATE: SkewProfile = SkewProfile {
        write_theta: 0.9,
        read_theta: 0.8,
        hot_overlap: 0.5,
        size_coupling: 0.5,
        phases: 1,
    };

    /// No skew at all: the `random` workload of Fig. 3 ("a random accessing
    /// workload, each request size ranging from 4KB to 16KB").
    pub const UNIFORM: SkewProfile = SkewProfile {
        write_theta: 0.0,
        read_theta: 0.0,
        hot_overlap: 1.0,
        size_coupling: 0.0,
        phases: 1,
    };

    pub fn validate(&self) -> Result<(), String> {
        if !(self.write_theta.is_finite() && self.write_theta >= 0.0) {
            return Err("write_theta must be finite and >= 0".into());
        }
        if !(self.read_theta.is_finite() && self.read_theta >= 0.0) {
            return Err("read_theta must be finite and >= 0".into());
        }
        if !(0.0..=1.0).contains(&self.hot_overlap) {
            return Err("hot_overlap must be in [0, 1]".into());
        }
        if !(self.size_coupling.is_finite() && (0.0..=2.0).contains(&self.size_coupling)) {
            return Err("size_coupling must be in [0, 2]".into());
        }
        if self.phases == 0 {
            return Err("phases must be at least 1".into());
        }
        Ok(())
    }
}

/// File-size distribution: log-uniform between `min_bytes` and `max_bytes`
/// — "heavily skewed object size distribution" (§II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileSizeModel {
    pub min_bytes: u64,
    pub max_bytes: u64,
}

impl FileSizeModel {
    pub const DEFAULT: FileSizeModel = FileSizeModel {
        min_bytes: 4 * 1024,
        max_bytes: 4 * 1024 * 1024,
    };

    pub fn validate(&self) -> Result<(), String> {
        if self.min_bytes == 0 || self.min_bytes > self.max_bytes {
            return Err("need 0 < min_bytes <= max_bytes".into());
        }
        Ok(())
    }
}

/// Full specification of one synthetic workload (one row of Table 1 plus
/// skew knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Trace name, e.g. `home02`.
    pub name: String,
    /// Number of distinct files (Table 1 "file cnt").
    pub file_cnt: u64,
    /// Number of write records (Table 1 "write cnt").
    pub write_cnt: u64,
    /// Mean write size in bytes (Table 1 "average write size").
    pub avg_write_size: u64,
    /// Number of read records (Table 1 "read cnt").
    pub read_cnt: u64,
    /// Mean read size in bytes (Table 1 "average read size").
    pub avg_read_size: u64,
    /// Skew knobs (not in Table 1; documented per trace in `harvard`).
    pub skew: SkewProfile,
    pub file_sizes: FileSizeModel,
    /// Number of distinct trace users (drives client assignment).
    pub users: u32,
    /// RNG seed: the whole trace is a pure function of the spec.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Mean ops per session burst during synthesis.
    pub const MEAN_SESSION_OPS: f64 = 6.0;

    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("workload needs a name".into());
        }
        if self.file_cnt == 0 {
            return Err("file_cnt must be positive".into());
        }
        if self.write_cnt + self.read_cnt == 0 {
            return Err("workload must contain at least one data op".into());
        }
        if self.write_cnt > 0 && self.avg_write_size == 0 {
            return Err("avg_write_size must be positive when writes exist".into());
        }
        if self.read_cnt > 0 && self.avg_read_size == 0 {
            return Err("avg_read_size must be positive when reads exist".into());
        }
        if self.users == 0 {
            return Err("need at least one user".into());
        }
        self.skew.validate()?;
        self.file_sizes.validate()?;
        Ok(())
    }

    /// Scales the op and file counts by `factor` (for fast tests and
    /// sub-full-size experiment runs), keeping the mean sizes and skew
    /// intact. Factor must be in (0, 1].
    pub fn scaled(&self, factor: f64) -> WorkloadSpec {
        assert!(factor > 0.0 && factor <= 1.0, "scale factor in (0,1]");
        let scale = |x: u64| ((x as f64 * factor).round() as u64).max(1);
        WorkloadSpec {
            name: self.name.clone(),
            file_cnt: scale(self.file_cnt),
            write_cnt: scale(self.write_cnt),
            read_cnt: scale(self.read_cnt),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WorkloadSpec {
        WorkloadSpec {
            name: "t".into(),
            file_cnt: 100,
            write_cnt: 1000,
            avg_write_size: 8000,
            read_cnt: 2000,
            avg_read_size: 8192,
            skew: SkewProfile::MODERATE,
            file_sizes: FileSizeModel::DEFAULT,
            users: 8,
            seed: 1,
        }
    }

    #[test]
    fn valid_spec_passes() {
        base().validate().unwrap();
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = base();
        s.file_cnt = 0;
        assert!(s.validate().is_err());

        let mut s = base();
        s.write_cnt = 0;
        s.read_cnt = 0;
        assert!(s.validate().is_err());

        let mut s = base();
        s.avg_write_size = 0;
        assert!(s.validate().is_err());

        let mut s = base();
        s.skew.hot_overlap = 1.5;
        assert!(s.validate().is_err());

        let mut s = base();
        s.file_sizes.min_bytes = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn write_only_spec_is_valid() {
        let mut s = base();
        s.read_cnt = 0;
        s.avg_read_size = 0;
        s.validate().unwrap();
    }

    #[test]
    fn scaled_preserves_shape() {
        let s = base().scaled(0.1);
        assert_eq!(s.file_cnt, 10);
        assert_eq!(s.write_cnt, 100);
        assert_eq!(s.read_cnt, 200);
        assert_eq!(s.avg_write_size, 8000);
        s.validate().unwrap();
    }

    #[test]
    fn scaled_never_hits_zero() {
        let s = base().scaled(0.000001);
        assert!(s.file_cnt >= 1);
        assert!(s.write_cnt >= 1);
        s.validate().unwrap();
    }
}
