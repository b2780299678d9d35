//! Scenario files: declarative, reproducible simulation runs.
//!
//! A scenario is a small line-oriented text file (no external parser
//! dependencies) describing one run — workload, cluster, policy,
//! migration schedule, failures:
//!
//! ```text
//! # lair62 under EDM-HDF with a mid-run failure
//! trace lair62
//! scale 0.05
//! osds 16
//! policy EDM-HDF
//! schedule midpoint
//! lambda 0.10
//! force true
//! fail 2000000 3 rebuild
//! ```
//!
//! Unknown keys are rejected (typos should fail loudly, not silently run
//! a different experiment).

use std::path::{Path, PathBuf};

use edm_cluster::{
    resume_trace_obs_keep, run_trace_obs_keep, CheckpointConfig, ClientAffinity, Cluster,
    ClusterConfig, FailureSpec, MigrationSchedule, Migrator, OsdId, RunReport, SimOptions,
    SnapManifest,
};
use edm_core::{make_policy, Assessor, EdmConfig};
use edm_snap::{snapshot_struct, SnapError, SnapReader, SnapWriter, Snapshot, SnapshotFile};
use edm_workload::harvard;
use edm_workload::synth::synthesize;
use edm_workload::{FileId, Trace};

/// A parsed scenario, ready to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub trace: String,
    pub scale: f64,
    pub osds: u32,
    pub groups: u32,
    pub objects_per_file: u32,
    pub policy: String,
    pub schedule: MigrationSchedule,
    pub lambda: f64,
    pub force: bool,
    pub client_concurrency: Option<u32>,
    pub failures: Vec<FailureSpec>,
    /// Worker threads for group-sharded execution (0 = sequential).
    pub shards: u32,
    /// How trace users map onto closed-loop clients.
    pub affinity: ClientAffinity,
    /// Inode stride: every file id in the synthesized trace is multiplied
    /// by this factor, and every user is split into one virtual user per
    /// placement component (tenant locality — no user's requests span
    /// components). With `objects_per_file ≤ stride` and
    /// `groups % stride == 0` the cluster's placement then splits into
    /// `groups / stride` disjoint components, which is what makes
    /// group-sharded execution applicable to the hash-placed workloads
    /// (stride 1, the default, leaves the trace untouched).
    pub stride: u64,
    /// Read by nothing, and neither parsed nor rendered: EDM has one plan
    /// trimmer. Kept, with [`Assessor`], only while the benchmark package
    /// still sets it (ROADMAP item 3).
    pub assessor: Assessor,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            trace: "home02".into(),
            scale: 0.01,
            osds: 16,
            groups: 4,
            objects_per_file: 4,
            policy: "EDM-HDF".into(),
            schedule: MigrationSchedule::Midpoint,
            lambda: 0.10,
            force: true,
            client_concurrency: None,
            failures: Vec::new(),
            shards: 0,
            affinity: ClientAffinity::User,
            stride: 1,
            assessor: Assessor::Projection,
        }
    }
}

/// Largest cluster scenario text may ask for. Every OSD is built with
/// its full FTL tables before the run starts, so an unbounded count is
/// an unbounded allocation; the largest shape in use is 1 024.
const MAX_OSDS: u32 = 65_536;

/// Largest shard thread count scenario text may ask for. A sharded run
/// spawns up to this many threads at every wear-tick barrier, so an
/// unbounded count is an unbounded thread spawn; the largest value in
/// use is 4 (`check.sh spec`).
const MAX_SHARDS: u32 = 64;

/// Largest inode stride scenario text may ask for: keeps
/// `file id × stride` inside `u64` for every trace preset.
const MAX_STRIDE: u64 = 65_536;

impl Scenario {
    /// Parses the scenario text format. Every line is `key value...`,
    /// `#` starts a comment.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let mut s = Scenario::default();
        for (no, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            let mut it = line.split_ascii_whitespace();
            // Blank and comment-only lines have no key.
            let Some(key) = it.next() else { continue };
            let mut next = |what: &str| -> Result<&str, String> {
                it.next()
                    .ok_or_else(|| format!("line {}: missing value for {what}", no + 1))
            };
            match key {
                "trace" => {
                    let name = next("trace")?;
                    if harvard::named(name).is_none() {
                        return Err(format!(
                            "line {}: unknown trace {name:?} (random | {})",
                            no + 1,
                            harvard::TRACE_NAMES.join(" | ")
                        ));
                    }
                    s.trace = name.to_string();
                }
                "scale" => {
                    s.scale = next("scale")?
                        .parse()
                        .map_err(|e| format!("line {}: bad scale: {e}", no + 1))?;
                    if !(s.scale > 0.0 && s.scale <= 1.0) {
                        return Err(format!("line {}: scale must be in (0, 1]", no + 1));
                    }
                }
                "osds" => {
                    s.osds = next("osds")?
                        .parse()
                        .map_err(|e| format!("line {}: bad osds: {e}", no + 1))?;
                    if s.osds > MAX_OSDS {
                        return Err(format!("line {}: osds must be at most {MAX_OSDS}", no + 1));
                    }
                }
                "groups" => {
                    s.groups = next("groups")?
                        .parse()
                        .map_err(|e| format!("line {}: bad groups: {e}", no + 1))?
                }
                "objects_per_file" => {
                    s.objects_per_file = next("objects_per_file")?
                        .parse()
                        .map_err(|e| format!("line {}: bad objects_per_file: {e}", no + 1))?;
                    if s.objects_per_file < 2 {
                        return Err(format!(
                            "line {}: objects_per_file must be at least 2 \
                             (RAID-5: k-1 data + parity)",
                            no + 1
                        ));
                    }
                }
                "policy" => s.policy = next("policy")?.to_string(),
                "schedule" => {
                    s.schedule = match next("schedule")? {
                        "never" => MigrationSchedule::Never,
                        "midpoint" => MigrationSchedule::Midpoint,
                        "every-tick" => MigrationSchedule::EveryTick,
                        other => {
                            return Err(format!(
                                "line {}: unknown schedule {other:?} \
                                 (never | midpoint | every-tick)",
                                no + 1
                            ))
                        }
                    }
                }
                "lambda" => {
                    s.lambda = next("lambda")?
                        .parse()
                        .map_err(|e| format!("line {}: bad lambda: {e}", no + 1))?;
                    if s.lambda.is_nan() || s.lambda < 0.0 {
                        return Err(format!("line {}: lambda must be non-negative", no + 1));
                    }
                }
                "force" => {
                    s.force = next("force")?
                        .parse()
                        .map_err(|e| format!("line {}: bad force: {e}", no + 1))?
                }
                "client_concurrency" => {
                    s.client_concurrency = Some(
                        next("client_concurrency")?
                            .parse()
                            .map_err(|e| format!("line {}: bad client_concurrency: {e}", no + 1))?,
                    )
                }
                "shards" => {
                    s.shards = next("shards")?
                        .parse()
                        .map_err(|e| format!("line {}: bad shards: {e}", no + 1))?;
                    if s.shards > MAX_SHARDS {
                        return Err(format!(
                            "line {}: shards must be at most {MAX_SHARDS}",
                            no + 1
                        ));
                    }
                }
                "affinity" => {
                    s.affinity = match next("affinity")? {
                        "user" => ClientAffinity::User,
                        "component" => ClientAffinity::Component,
                        other => {
                            return Err(format!(
                                "line {}: unknown affinity {other:?} (user | component)",
                                no + 1
                            ))
                        }
                    }
                }
                "stride" => {
                    s.stride = next("stride")?
                        .parse()
                        .map_err(|e| format!("line {}: bad stride: {e}", no + 1))?;
                    if !(1..=MAX_STRIDE).contains(&s.stride) {
                        return Err(format!(
                            "line {}: stride must be in 1..={MAX_STRIDE}",
                            no + 1
                        ));
                    }
                }
                "fail" => {
                    let at_us = next("fail time")?
                        .parse()
                        .map_err(|e| format!("line {}: bad fail time: {e}", no + 1))?;
                    let osd = next("fail osd")?
                        .parse()
                        .map_err(|e| format!("line {}: bad fail osd: {e}", no + 1))?;
                    let rebuild = match it.next() {
                        None => false,
                        Some("rebuild") => true,
                        Some(other) => {
                            return Err(format!("line {}: unknown fail option {other:?}", no + 1))
                        }
                    };
                    s.failures.push(FailureSpec {
                        at_us,
                        osd: OsdId(osd),
                        rebuild,
                    });
                }
                other => return Err(format!("line {}: unknown key {other:?}", no + 1)),
            }
        }
        // Cross-field, so after the last line: `fail` may precede `osds`.
        if let Some(f) = s.failures.iter().find(|f| f.osd.0 >= s.osds) {
            return Err(format!(
                "fail names {} but the cluster has {} OSDs",
                f.osd, s.osds
            ));
        }
        Ok(s)
    }

    /// Instantiates the named policy with this scenario's λ/force
    /// settings. Public so live hosts can build the same policy a batch
    /// run would.
    pub fn build_policy(&self) -> Result<Box<dyn Migrator>, String> {
        make_policy(
            &self.policy,
            EdmConfig {
                lambda: self.lambda,
                force: self.force,
                ..EdmConfig::default()
            },
        )
    }

    /// Renders the scenario back to its text format, canonically.
    ///
    /// `parse(to_text(s)) == s` for every parseable scenario — this is
    /// what gets embedded in snapshots so a resumed run reconstructs the
    /// exact same workload and cluster without any side files.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("trace {}\n", self.trace));
        out.push_str(&format!("scale {}\n", self.scale));
        out.push_str(&format!("osds {}\n", self.osds));
        out.push_str(&format!("groups {}\n", self.groups));
        out.push_str(&format!("objects_per_file {}\n", self.objects_per_file));
        out.push_str(&format!("policy {}\n", self.policy));
        out.push_str(&format!(
            "schedule {}\n",
            match self.schedule {
                MigrationSchedule::Never => "never",
                MigrationSchedule::Midpoint => "midpoint",
                MigrationSchedule::EveryTick => "every-tick",
            }
        ));
        out.push_str(&format!("lambda {}\n", self.lambda));
        out.push_str(&format!("force {}\n", self.force));
        if let Some(cc) = self.client_concurrency {
            out.push_str(&format!("client_concurrency {cc}\n"));
        }
        // New keys are emitted only when off-default, so scenario text
        // embedded in old checkpoints keeps round-tripping unchanged.
        if self.shards != 0 {
            out.push_str(&format!("shards {}\n", self.shards));
        }
        if self.affinity != ClientAffinity::User {
            out.push_str("affinity component\n");
        }
        if self.stride != 1 {
            out.push_str(&format!("stride {}\n", self.stride));
        }
        for f in &self.failures {
            out.push_str(&format!("fail {} {}", f.at_us, f.osd.0));
            if f.rebuild {
                out.push_str(" rebuild");
            }
            out.push('\n');
        }
        out
    }

    /// Synthesizes the scenario's trace (deterministic: spec carries the
    /// seed, so every call yields a byte-identical trace), then applies
    /// the inode-stride transform.
    pub fn synth_trace(&self) -> Trace {
        let mut trace = synthesize(&harvard::spec(&self.trace).scaled(self.scale));
        if self.stride > 1 {
            trace.file_sizes = trace
                .file_sizes
                .iter()
                .map(|(&f, &size)| (FileId(f.0 * self.stride), size))
                .collect();
            // With groups divisible by the stride, original file f lands
            // in component f mod (groups/stride); splitting each user per
            // component keeps every (virtual) user inside one component.
            let ncomp = if (self.groups as u64).is_multiple_of(self.stride) {
                self.groups as u64 / self.stride
            } else {
                1
            };
            for r in &mut trace.records {
                if ncomp > 1 {
                    let comp = (r.file.0 % ncomp) as u32;
                    r.user = r.user * ncomp as u32 + comp;
                }
                r.file = FileId(r.file.0 * self.stride);
            }
        }
        trace
    }

    /// Builds the cluster for `trace` with the paper's sizing rules,
    /// scaled to this scenario. Public for the same reason as
    /// [`build_policy`](Self::build_policy).
    pub fn build_cluster(&self, trace: &Trace) -> Result<Cluster, String> {
        let mut config = ClusterConfig::paper(self.osds);
        config.groups = self.groups;
        config.objects_per_file = self.objects_per_file;
        if let Some(cc) = self.client_concurrency {
            config.client_concurrency = cc;
        }
        config.response_window_us =
            ((config.response_window_us as f64 * self.scale) as u64).max(50_000);
        config.wear_tick_us = ((config.wear_tick_us as f64 * self.scale) as u64).max(100_000);
        Cluster::build(config, trace)
    }

    /// Evaluates the group-sharding gates for this scenario without
    /// running it: synthesizes the trace, builds the cluster, and asks
    /// the engine what it would do. `edm-sim` prints the result as a
    /// greppable `shard-plan:` line; checkpointing (a CLI-level flag,
    /// not part of the scenario) additionally forces the sequential
    /// path and is reported separately by the caller.
    pub fn shard_decision(&self) -> Result<edm_cluster::ShardDecision, String> {
        let trace = self.synth_trace();
        let cluster = self.build_cluster(&trace)?;
        let policy = self.build_policy()?;
        Ok(edm_cluster::shard_decision(
            &cluster,
            &trace,
            policy.as_ref(),
            &SimOptions {
                shards: self.shards,
                ..self.sim_options()
            },
        ))
    }

    /// The replay-shaping options of a batch run of this scenario
    /// (no checkpointing, no sharding). Live hosts pass these to the
    /// engine so their runs line up with the batch runs bit-for-bit.
    pub fn sim_options(&self) -> SimOptions {
        SimOptions {
            schedule: self.schedule,
            failures: self.failures.clone(),
            affinity: self.affinity,
            ..SimOptions::default()
        }
    }

    /// Runs the scenario end to end into the observability sink `obs`
    /// (recording is read-only: the report is identical at every obs
    /// level), optionally cutting periodic checkpoints (`every_us` of
    /// virtual time, written under `dir`), and hands back the final
    /// [`Cluster`] so callers — the fuzzer's differential oracles — can
    /// inspect end-of-run device and catalog state. Each checkpoint
    /// embeds the scenario text and the trace fingerprint so
    /// [`resume_snapshot`] can rebuild the run from the file alone.
    pub fn run(
        &self,
        obs: &mut dyn edm_obs::Recorder,
        checkpoint: Option<(u64, PathBuf)>,
    ) -> Result<(RunReport, Cluster), String> {
        let trace = self.synth_trace();
        let cluster = self.build_cluster(&trace)?;
        let mut policy = self.build_policy()?;
        let checkpoint =
            checkpoint.map(|(every_us, dir)| self.checkpoint_config(&trace, every_us, dir));
        Ok(run_trace_obs_keep(
            cluster,
            &trace,
            policy.as_mut(),
            SimOptions {
                checkpoint,
                shards: self.shards,
                ..self.sim_options()
            },
            obs,
        ))
    }

    /// Parses a `--checkpoint-every` value, a finite, non-negative
    /// number of virtual seconds, into the `every_us` of
    /// [`checkpoint_config`](Self::checkpoint_config). The one parser of
    /// that flag, for `edm-sim` and `edm-serve` alike.
    pub fn checkpoint_every_us(secs: &str) -> Result<u64, String> {
        let v: f64 = secs
            .parse()
            .map_err(|_| format!("bad --checkpoint-every value {secs:?}"))?;
        if !(v >= 0.0 && v.is_finite()) {
            return Err(format!(
                "--checkpoint-every must be a non-negative number of seconds, not {secs:?}"
            ));
        }
        Ok((v * 1e6) as u64)
    }

    /// Checkpoints every `every_us` of virtual time into `dir`, each
    /// embedding this scenario's text and `trace`'s fingerprint so that
    /// [`Checkpoint::open`] can rebuild the run from the file alone.
    pub fn checkpoint_config(
        &self,
        trace: &Trace,
        every_us: u64,
        dir: PathBuf,
    ) -> CheckpointConfig {
        CheckpointConfig {
            every_us,
            dir,
            meta: SnapMeta {
                scenario: self.to_text(),
                trace_fingerprint: trace.fingerprint(),
            }
            .encode(),
        }
    }
}

/// Harness metadata embedded in every checkpoint (`manifest.extra`): the
/// canonical scenario text plus the fingerprint of the synthesized trace,
/// so resume can re-synthesize the workload and prove it got the same one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapMeta {
    pub scenario: String,
    pub trace_fingerprint: u64,
}

snapshot_struct!(SnapMeta {
    scenario,
    trace_fingerprint
});

impl SnapMeta {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.save(&mut w);
        w.into_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Result<SnapMeta, SnapError> {
        let mut r = SnapReader::new(bytes);
        let meta = SnapMeta::load(&mut r);
        r.finish("snap-meta")?;
        Ok(meta)
    }
}

/// A checkpoint opened for resume: the container, its manifest, and the
/// scenario and trace fingerprint the manifest embeds. Every resume path
/// — batch, live replay, ingest — opens its file here.
pub struct Checkpoint {
    pub path: PathBuf,
    pub snap: SnapshotFile,
    pub manifest: SnapManifest,
    pub scenario: Scenario,
    pub trace_fingerprint: u64,
}

impl Checkpoint {
    /// Reads the file, decodes the manifest and its [`SnapMeta`], and
    /// parses the embedded scenario.
    pub fn open(path: &Path) -> Result<Checkpoint, String> {
        let snap = SnapshotFile::read_from(path)
            .map_err(|e| format!("{}: cannot read snapshot: {e}", path.display()))?;
        let manifest = SnapManifest::from_snapshot(&snap)
            .map_err(|e| format!("{}: bad manifest: {e}", path.display()))?;
        let meta = SnapMeta::decode(&manifest.extra)
            .map_err(|e| format!("{}: bad scenario metadata: {e}", path.display()))?;
        let scenario = Scenario::parse(&meta.scenario)
            .map_err(|e| format!("{}: embedded scenario: {e}", path.display()))?;
        Ok(Checkpoint {
            path: path.to_path_buf(),
            snap,
            manifest,
            scenario,
            trace_fingerprint: meta.trace_fingerprint,
        })
    }

    /// Re-synthesizes the embedded scenario's trace and checks it against
    /// the fingerprint the checkpoint was cut over: what a resume that
    /// replays the trace needs first.
    pub fn trace(&self) -> Result<Trace, String> {
        let trace = self.scenario.synth_trace();
        if trace.fingerprint() != self.trace_fingerprint {
            return Err(format!(
                "{}: re-synthesized trace fingerprint {:#018x} does not match \
                 the checkpoint's {:#018x} — workload generator changed?",
                self.path.display(),
                trace.fingerprint(),
                self.trace_fingerprint
            ));
        }
        Ok(trace)
    }
}

/// Resumes a checkpoint written by [`Scenario::run`] and drives the run
/// to completion. Returns the scenario alongside the report so callers
/// can label their output.
pub fn resume_snapshot(
    path: &Path,
    obs: &mut dyn edm_obs::Recorder,
) -> Result<(Scenario, RunReport), String> {
    let ckpt = Checkpoint::open(path)?;
    let trace = ckpt.trace()?;
    let mut policy = ckpt.scenario.build_policy()?;
    // The original run's replay-shaping options must be reproduced for
    // the rebuilt scripts to line up with the checkpointed cursors —
    // affinity in particular changes the user→client assignment. Sharding
    // is always off here: checkpointing already forces the sequential
    // path, and a resumed run continues it.
    let options = ckpt.scenario.sim_options();
    let (report, _) = resume_trace_obs_keep(&ckpt.snap, &trace, policy.as_mut(), options, obs)
        .map_err(|e| format!("{}: resume failed: {e}", path.display()))?;
    Ok((ckpt.scenario, report))
}

/// Renders a run summary for the CLI.
pub fn render_report(r: &RunReport) -> String {
    let (p50, p95, p99) = r.response_percentiles_us;
    let mut out = format!(
        "policy {} on {} ({} OSDs)\n\
         completed ops      {}\n\
         throughput         {:.0} ops/s\n\
         mean response      {:.0} us (p50 {} / p95 {} / p99 {})\n\
         aggregate erases   {}\n\
         erase RSD          {:.3}\n\
         moved objects      {} ({:.2}%) over {} rounds\n\
         remap entries      {}\n",
        r.policy,
        r.trace,
        r.osds,
        r.completed_ops,
        r.throughput_ops_per_sec(),
        r.mean_response_us,
        p50,
        p95,
        p99,
        r.aggregate_erases(),
        r.erase_rsd(),
        r.moved_objects,
        r.moved_fraction() * 100.0,
        r.migrations_triggered,
        r.remap_entries,
    );
    if !r.failed_osds.is_empty() {
        out.push_str(&format!(
            "failed OSDs        {:?}\ndegraded ops       {}\nlost ops           {}\nrebuilt objects    {}\n",
            r.failed_osds, r.degraded_ops, r.lost_ops, r.rebuilt_objects
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_scenario() {
        let s = Scenario::parse(
            "# comment\n\
             trace lair62\n\
             scale 0.004\n\
             osds 8\n\
             policy EDM-CDF\n\
             schedule every-tick\n\
             lambda 0.2\n\
             force false\n\
             client_concurrency 16\n\
             fail 5000 3 rebuild\n\
             fail 9000 4\n",
        )
        .unwrap();
        assert_eq!(s.trace, "lair62");
        assert_eq!(s.osds, 8);
        assert_eq!(s.policy, "EDM-CDF");
        assert_eq!(s.schedule, MigrationSchedule::EveryTick);
        assert!((s.lambda - 0.2).abs() < 1e-12);
        assert!(!s.force);
        assert_eq!(s.client_concurrency, Some(16));
        assert_eq!(s.failures.len(), 2);
        assert!(s.failures[0].rebuild);
        assert!(!s.failures[1].rebuild);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Scenario::parse("frobnicate 3").is_err());
        assert!(Scenario::parse("scale 2.0").is_err());
        assert!(Scenario::parse("schedule sometimes").is_err());
        assert!(Scenario::parse("fail 100").is_err());
        assert!(Scenario::parse("fail 100 2 explode").is_err());
        assert!(Scenario::parse("trace").is_err());
    }

    /// Text the engine would panic on is refused by the parser, with the
    /// offending key in the message.
    #[test]
    fn parse_rejects_what_the_engine_would_panic_on() {
        for (text, needle) in [
            ("lambda -1", "lambda"),
            ("lambda nan", "lambda"),
            ("objects_per_file 1", "objects_per_file"),
            ("objects_per_file 0", "objects_per_file"),
            ("fail 10 99", "osd99"),
            ("fail 10 8\nosds 8", "osd8"),
            ("trace nosuch", "nosuch"),
            ("osds 4294967295", "osds"),
            ("osds 100000000", "osds"),
            ("osds 65537", "osds"),
            ("stride 18446744073709551615", "stride"),
            ("stride 65537", "stride"),
            ("shards 65", "shards"),
            ("shards 100000", "shards"),
        ] {
            let err = Scenario::parse(text).expect_err(text);
            assert!(err.contains(needle), "{text:?} -> {err}");
        }
        // The same keys at their edges still parse.
        for text in [
            "lambda 0",
            "objects_per_file 2",
            "fail 10 15",
            "fail 10 19\nosds 20",
            "trace random",
            "trace lair62b",
            "osds 65536",
            "stride 65536",
            "shards 64",
        ] {
            Scenario::parse(text).expect(text);
        }
    }

    #[test]
    fn empty_scenario_is_the_default() {
        assert_eq!(Scenario::parse("").unwrap(), Scenario::default());
    }

    #[test]
    fn scenario_runs_end_to_end() {
        let s = Scenario::parse(
            "trace deasna\nscale 0.002\nosds 8\npolicy EDM-HDF\nfail 2000 1 rebuild\n",
        )
        .unwrap();
        let (r, _) = s.run(&mut edm_obs::NoopRecorder, None).unwrap();
        assert!(r.completed_ops > 0);
        assert_eq!(r.failed_osds, vec![1]);
        let text = render_report(&r);
        assert!(text.contains("EDM-HDF"));
        assert!(text.contains("failed OSDs"));
    }

    #[test]
    fn unknown_policy_is_reported() {
        let s = Scenario::parse("policy FancyPolicy\nscale 0.001\n").unwrap();
        let Err(e) = s.run(&mut edm_obs::NoopRecorder, None) else {
            panic!("unknown policy ran");
        };
        assert!(e.contains("unknown policy"), "{e}");
    }

    #[test]
    fn parse_sharding_keys() {
        let s = Scenario::parse("shards 4\naffinity component\nstride 8\n").unwrap();
        assert_eq!(s.shards, 4);
        assert_eq!(s.affinity, ClientAffinity::Component);
        assert_eq!(s.stride, 8);
        let s = Scenario::parse("affinity user\n").unwrap();
        assert_eq!(s.affinity, ClientAffinity::User);
        assert!(Scenario::parse("stride 0").is_err());
        assert!(Scenario::parse("affinity sideways").is_err());
        assert!(Scenario::parse("shards many").is_err());
    }

    #[test]
    fn sharding_keys_round_trip() {
        let s = Scenario {
            shards: 2,
            affinity: ClientAffinity::Component,
            stride: 4,
            ..Scenario::default()
        };
        assert_eq!(Scenario::parse(&s.to_text()).unwrap(), s);
        // Defaults stay off the wire, so text embedded in old
        // checkpoints is reproduced byte-for-byte.
        let d = Scenario::default();
        let text = d.to_text();
        assert!(!text.contains("shards"));
        assert!(!text.contains("affinity"));
        assert!(!text.contains("stride"));
        assert_eq!(Scenario::parse(&text).unwrap(), d);
    }

    #[test]
    fn checkpoint_every_takes_finite_non_negative_seconds() {
        assert_eq!(Scenario::checkpoint_every_us("0"), Ok(0));
        assert_eq!(Scenario::checkpoint_every_us("1.5"), Ok(1_500_000));
        for bad in ["-1", "nan", "inf", "-inf", "soon", ""] {
            let err = Scenario::checkpoint_every_us(bad).unwrap_err();
            assert!(err.contains("--checkpoint-every"), "{bad:?}: {err}");
        }
    }
}
