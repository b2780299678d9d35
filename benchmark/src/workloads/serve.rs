//! `serve_ingest`: a scenario's op stream POSTed to the `edm-serve`
//! daemon over a loopback socket — the repository's second end-to-end
//! path (trace ops/s through `edm-serve`).
//!
//! Closed loop, one client, one connection at a time (the server is
//! sequential by design): [`BATCH`] lines per `POST /ingest`; on 409 the
//! client backs off [`BACKOFF`] and resends the same batch; then `end`;
//! then `/healthz` is polled every [`POLL`] until `done`. Latencies are
//! the sandbox's loopback, not a network's.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use edm_obs::json::{parse, JsonValue};
use edm_obs::{render_prometheus, ObsLevel};
use edm_scenario::Scenario;
use edm_serve::views::{self, HealthInfo};
use edm_serve::{
    dump_ops, run_daemon_on, ApplyOutcome, BackendKind, DaemonConfig, LiveWorld, MemBackend, Mode,
    ServeRecorder,
};

use super::{cluster_wear, hex, host_metrics, timed_passes, Args};
use crate::inputs::{fnv1a, shuffle_blocks};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{percentile, supported_percentile, Summary};

/// Op lines per `POST /ingest`.
const BATCH: usize = 256;
/// Back-off after a 409. Not the issue's 2 ms: that is what the session
/// thread needs for one batch, so whether one back-off sufficed or two
/// were needed was a coin toss, and the p99 jumped between 2.5 ms and
/// 4.7 ms (42 % spread over ten runs). At 5 ms it still doubled when a
/// noisy neighbour halved the session's speed. After 20 ms the retry
/// finds room for ten batches; about 50 of 1,594 requests are refused
/// once, none twice, and the p99 sits on that plateau.
const BACKOFF: Duration = Duration::from_millis(20);
/// The `/healthz` poll interval while the daemon comes up or drains.
const POLL: Duration = Duration::from_millis(2);
/// A stalled daemon fails the pass instead of hanging the benchmark.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);
const DONE_TIMEOUT: Duration = Duration::from_secs(120);
/// The traced pass probes `GET /stats` after every this many POSTs.
const PROBE_EVERY: usize = 100;

fn scenario(args: &Args) -> Scenario {
    Scenario {
        trace: "lair62".into(),
        scale: args.scale.unwrap_or(0.25),
        policy: "EDM-CDF".into(),
        schedule: edm_cluster::MigrationSchedule::EveryTick,
        ..Scenario::default()
    }
}

struct Reply {
    status: u16,
    body: String,
}

/// The benchmark's HTTP client: one request at a time, a connection
/// per request (the server closes after every response) — and the next
/// request's connection is opened before the current request is sent.
///
/// The server polls a non-blocking `accept` and sleeps 2 ms whenever its
/// backlog is empty. With a plain connect-send-receive loop, whether the
/// server finds the next connection waiting or goes to sleep first is a
/// scheduler race: otherwise identical runs flipped between a median of
/// 0.075 ms and one of 2.2 ms per request. Keeping one spare connection
/// in the backlog takes the race away (the server never sleeps while the
/// client is active), so this workload measures the daemon at the rate
/// its session thread sustains, back-pressure included, and does not see
/// the accept poll.
struct Client {
    addr: SocketAddr,
    spare: Option<TcpStream>,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client { addr, spare: None }
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let io = |e: std::io::Error| format!("http {}: {e}", self.addr);
        let stream = TcpStream::connect(self.addr).map_err(io)?;
        stream.set_read_timeout(Some(SOCKET_TIMEOUT)).map_err(io)?;
        stream.set_write_timeout(Some(SOCKET_TIMEOUT)).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        Ok(stream)
    }

    /// One HTTP/1.1 exchange.
    fn exchange(&mut self, request: &[u8]) -> Result<Reply, String> {
        let io = |e: std::io::Error| format!("http {}: {e}", self.addr);
        let mut stream = match self.spare.take() {
            Some(waiting) => waiting,
            None => self.connect()?,
        };
        self.spare = Some(self.connect()?);
        stream.write_all(request).map_err(io)?;
        let mut reply = String::new();
        stream.read_to_string(&mut reply).map_err(io)?;
        let status = reply
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| format!("http {}: malformed reply {reply:?}", self.addr))?;
        let body = reply
            .split_once("\r\n\r\n")
            .map_or(String::new(), |(_, body)| body.to_string());
        Ok(Reply { status, body })
    }

    fn get(&mut self, path: &str) -> Result<String, String> {
        let reply = self.exchange(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())?;
        if reply.status != 200 {
            return Err(format!("GET {path}: HTTP {}", reply.status));
        }
        Ok(reply.body)
    }

    /// POSTs `request` until the daemon takes it; counts refusals.
    fn post_until_accepted(&mut self, request: &[u8], refused: &mut u64) -> Result<(), String> {
        loop {
            match self.exchange(request)?.status {
                200 => return Ok(()),
                409 => {
                    *refused += 1;
                    std::thread::sleep(BACKOFF);
                }
                other => return Err(format!("POST /ingest: HTTP {other}")),
            }
        }
    }
}

fn post_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A daemon session on a thread of this process.
struct Daemon {
    client: Client,
    handle: std::thread::JoinHandle<Result<(), String>>,
}

impl Daemon {
    /// Binds an ephemeral loopback port, starts the daemon in ingest
    /// mode and waits until it has built its world and published its
    /// first `/healthz`. Returns the daemon and its start-up seconds.
    fn start(scenario: &Scenario, tr: &mut Tracer) -> Result<(Daemon, f64), String> {
        let open = tr.begin("serve.daemon_start");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
        let config = DaemonConfig {
            scenario: scenario.clone(),
            mode: Mode::Ingest,
            speed: None,
            checkpoint_dir: None,
            checkpoint_every_us: None,
            resume: None,
            journal: None,
            obs_level: ObsLevel::Metrics,
            backend: BackendKind::Mem,
        };
        let handle = std::thread::spawn(move || run_daemon_on(listener, config));
        let mut daemon = Daemon {
            client: Client::new(addr),
            handle,
        };
        let deadline = Instant::now() + DONE_TIMEOUT;
        // Before the first publish the views are empty strings.
        while !daemon.client.get("/healthz")?.contains("\"mode\"") {
            if daemon.handle.is_finished() || Instant::now() > deadline {
                return Err(daemon.stop().err().unwrap_or("daemon never came up".into()));
            }
            std::thread::sleep(POLL);
        }
        Ok((daemon, tr.end(open)))
    }

    /// Asks the daemon to shut down and waits for its thread.
    fn stop(mut self) -> Result<(), String> {
        if !self.handle.is_finished() {
            self.client.exchange(&post_request("/shutdown", ""))?;
        }
        // Closes the spare connection, which the server may be reading.
        drop(self.client);
        match self.handle.join() {
            Ok(session) => session,
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// The op stream: the scenario's own `dump_ops` lines — other seeds
/// shuffle their blocks, so every line stays valid for the daemon's
/// catalog — and the `POST /ingest` requests that carry them.
struct Input {
    lines: Vec<String>,
    requests: Vec<Vec<u8>>,
    dump_s: f64,
    /// All of it: dump, shuffle, request rendering.
    seconds: f64,
}

impl Input {
    fn make(scenario: &Scenario, seed: u64, tr: &mut Tracer) -> Input {
        let whole = tr.begin("serve.input");
        let (dump, dump_s) = tr.time("serve.dump_ops", || dump_ops(scenario));
        let mut lines: Vec<String> = dump.lines().map(str::to_string).collect();
        shuffle_blocks(&mut lines, seed, std::mem::swap);
        let requests = lines
            .chunks(BATCH)
            .map(|batch| post_request("/ingest", &(batch.join("\n") + "\n")))
            .collect();
        Input {
            lines,
            requests,
            dump_s,
            seconds: tr.end(whole),
        }
    }
}

/// What one ingest pass over HTTP measured.
struct HttpPass {
    start_s: f64,
    total_s: f64,
    drain_s: f64,
    /// Milliseconds from batch ready to HTTP 200, refusals and back-off
    /// included; one per batch, ascending.
    latencies_ms: Vec<f64>,
    posts: u64,
    refused: u64,
    probes_s: Vec<f64>,
    stats: String,
    health: String,
}

fn http_pass(
    scenario: &Scenario,
    requests: &[Vec<u8>],
    probe: bool,
    tr: &mut Tracer,
) -> Result<HttpPass, String> {
    let (mut daemon, start_s) = Daemon::start(scenario, tr)?;
    let client = &mut daemon.client;
    let measured = (|| -> Result<HttpPass, String> {
        let mut latencies_ms = Vec::with_capacity(requests.len());
        let mut probes_s = Vec::new();
        let mut refused = 0u64;
        let whole = tr.begin("serve.http_pass");
        for (i, request) in requests.iter().enumerate() {
            let ready = Instant::now();
            client.post_until_accepted(request, &mut refused)?;
            latencies_ms.push(ready.elapsed().as_secs_f64() * 1e3);
            if probe && (i + 1) % PROBE_EVERY == 0 {
                let asked = Instant::now();
                client.get("/stats")?;
                probes_s.push(asked.elapsed().as_secs_f64());
            }
        }
        let drain = tr.begin("serve.drain");
        client.post_until_accepted(&post_request("/ingest", "end\n"), &mut refused)?;
        let deadline = Instant::now() + DONE_TIMEOUT;
        while !client.get("/healthz")?.contains("\"done\":true") {
            if Instant::now() > deadline {
                return Err("daemon never reported done".to_string());
            }
            std::thread::sleep(POLL);
        }
        let drain_s = tr.end(drain);
        let total_s = tr.end(whole);
        latencies_ms.sort_by(f64::total_cmp);
        Ok(HttpPass {
            start_s,
            total_s,
            drain_s,
            latencies_ms,
            posts: requests.len() as u64 + 1,
            refused,
            probes_s,
            stats: client.get("/stats")?,
            health: client.get("/healthz")?,
        })
    })();
    let stopped = daemon.stop();
    let pass = measured?;
    stopped?;
    Ok(pass)
}

/// The same lines through `LiveWorld::apply_line` in this process: what
/// the daemon's world costs without the daemon around it.
struct InProcess {
    world_new_s: f64,
    apply_s: f64,
    refused: u64,
    world: LiveWorld,
    recorder: ServeRecorder,
}

fn in_process(scenario: &Scenario, lines: &[String], tr: &mut Tracer) -> Result<InProcess, String> {
    let (world, world_new_s) = tr.time("serve.world_new", || LiveWorld::new(scenario.clone()));
    let mut world = world?;
    // What the daemon records with: metrics level, memory backend.
    let mut recorder = ServeRecorder::new(ObsLevel::Metrics, Box::new(MemBackend::new()));
    world.emit_run_meta(&mut recorder);
    let mut refused = 0u64;
    let ((), apply_s) = tr.time("serve.apply", || {
        for line in lines {
            if !matches!(
                world.apply_line(line, &mut recorder),
                ApplyOutcome::Applied { .. }
            ) {
                refused += 1;
            }
        }
    });
    Ok(InProcess {
        world_new_s,
        apply_s,
        refused,
        world,
        recorder,
    })
}

impl InProcess {
    /// The `/stats` body the daemon would publish for this world.
    fn stats(&self) -> String {
        views::render_live_stats(
            &self.world.stats(),
            self.world.now_us(),
            self.world.cluster(),
        )
    }

    /// One round of everything `publish_ingest` renders per batch.
    fn publish_round(&self) -> usize {
        let policy = self.world.policy_name();
        let health = HealthInfo {
            mode: "ingest",
            policy: &policy,
            backend: self.recorder.backend().name(),
            now_us: self.world.now_us(),
            paused: false,
            done: true,
            ingest_accepted: self.world.stats().applied_ops,
            ingest_buffered: 0,
            ingest_closed: true,
            skipped_ops: self.world.skipped_ops(),
            rejected_lines: self.world.rejected_lines(),
            checkpoints: 0,
            backend_moves: self.recorder.backend().moves_applied(),
            backend_errors: self.recorder.backend_errors(),
            last_error: self.world.last_error(),
        };
        let (cluster, now_us) = (self.world.cluster(), self.world.now_us());
        views::render_healthz(&health).len()
            + views::render_nodes(cluster, now_us).len()
            + views::render_plan(self.recorder.journal()).len()
            + self.stats().len()
            + views::render_model(cluster, now_us).len()
            + render_prometheus(self.recorder.inner()).len()
    }

    fn write_amp(&self) -> f64 {
        cluster_wear(self.world.cluster())
            .write_amplification()
            .unwrap_or(1.0)
    }
}

/// `(applied_ops, now_us, per-OSD erases)` of a `/stats` body.
fn parse_stats(stats: &str) -> Result<(u64, u64, Vec<f64>), String> {
    let doc = parse(stats).map_err(|e| format!("/stats is not JSON: {e}"))?;
    let field = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("/stats has no {key}"))
    };
    let erases = doc
        .get("osds")
        .and_then(JsonValue::as_arr)
        .ok_or("/stats has no osds")?
        .iter()
        .map(|osd| osd.get("erases").and_then(JsonValue::as_f64))
        .collect::<Option<Vec<f64>>>()
        .ok_or("/stats: an osd without erases")?;
    Ok((field("applied_ops")?, field("now_us")?, erases))
}

fn health_count(health: &str, key: &str) -> Option<u64> {
    parse(health).ok()?.get(key)?.as_u64()
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let scenario = scenario(args);
    let mut o = Outcome::new(args.workload, args.seed, args.traced);
    o.output(
        "scenario",
        scenario.to_text().trim_end().replace('\n', "; "),
    );

    let mut passes: Vec<HttpPass> = Vec::new();
    let mut setup_s = Vec::new();
    let input = if args.traced {
        tr.set_id(format!("{}/setup", args.workload));
        let input = Input::make(&scenario, args.seed, tr);
        tr.set_id(format!("{}/reference", args.workload));
        passes.push(http_pass(&scenario, &input.requests, false, tr)?);
        tr.set_id(format!("{}/traced", args.workload));
        passes.push(http_pass(&scenario, &input.requests, true, tr)?);
        input
    } else {
        let mut last = None;
        timed_passes(args.seconds, |i| {
            tr.set_id(format!("{}/pass{i}", args.workload));
            // Every pass sets up from nothing: op stream, then daemon.
            let input = Input::make(&scenario, args.seed, tr);
            let pass = http_pass(&scenario, &input.requests, false, tr)?;
            setup_s.push(input.seconds + pass.start_s);
            let total_s = pass.total_s;
            passes.push(pass);
            last = Some(input);
            Ok(total_s)
        })?;
        last.ok_or("no pass ran")?
    };
    let (lines, ops, dump_s) = (&input.lines, input.lines.len() as u64, input.dump_s);
    o.output("op_stream_hash", hex(fnv1a(lines.join("\n").as_bytes())));
    o.output("op_stream_lines", ops.to_string());
    tr.set_id(format!("{}/in-process", args.workload));
    let local = in_process(&scenario, lines, tr)?;

    // Output checks.
    let (applied, now_us, erases) = parse_stats(&passes[0].stats)?;
    for pass in &passes {
        let (applied, _, _) = parse_stats(&pass.stats)?;
        let rejected = health_count(&pass.health, "rejected_lines").unwrap_or(u64::MAX);
        o.attempted += ops;
        o.failed += ops.saturating_sub(applied) + rejected.min(ops);
    }
    o.check(
        "daemon_applied_every_line",
        applied == ops && local.refused == 0,
        format!(
            "{applied} applied of {ops}; in-process refused {}",
            local.refused
        ),
    );
    o.check(
        "stats_equal_across_passes",
        passes.iter().all(|p| p.stats == passes[0].stats),
        format!("{} passes", passes.len()),
    );
    o.check(
        "daemon_stats_equal_in_process_world",
        passes[0].stats == local.stats(),
        "the /stats body (applied ops, clock, counters, per-OSD erases) byte for byte",
    );
    o.output("stats_digest", hex(fnv1a(passes[0].stats.as_bytes())));

    if args.traced {
        traced_metrics(
            args,
            &mut o,
            (&passes[0], &passes[1]),
            &local,
            ops,
            dump_s,
            tr,
        )?;
    } else {
        host_metrics(
            &mut o,
            ops,
            &passes.iter().map(|p| p.total_s).collect::<Vec<_>>(),
            &setup_s,
        );
        sim_metrics(&mut o, (applied, now_us, &erases), &local);
        request_metrics(&mut o, &passes);
    }
    Ok(o)
}

/// The simulated statistics of the live world, from the daemon's
/// `/stats`; write amplification from the in-process world, whose
/// `/stats` was checked to be the daemon's.
fn sim_metrics(o: &mut Outcome, (applied, now_us, erases): (u64, u64, &[f64]), local: &InProcess) {
    let note = "virtual time; from /stats, identical on every pass";
    o.value(
        "sim_throughput_ops_per_s",
        applied as f64 / (now_us as f64 / 1e6),
        "applied ops per virtual second of the live world's serial clock; from /stats",
    );
    o.value("sim_aggregate_erases", erases.iter().sum(), note);
    o.value(
        "sim_erase_rsd",
        edm_cluster::metrics::rsd(erases.iter().copied()),
        note,
    );
    o.value(
        "sim_write_amp",
        local.write_amp(),
        "of the in-process world, whose /stats equals the daemon's (checked)",
    );
}

/// `req_p50_ms` and `req_p99_ms`: the percentile of each pass, then the
/// median over passes.
fn request_metrics(o: &mut Outcome, passes: &[HttpPass]) {
    let n = passes[0].latencies_ms.len();
    let per_pass = |p: f64| -> Vec<f64> {
        passes
            .iter()
            .map(|pass| percentile(&pass.latencies_ms, p))
            .collect()
    };
    o.set(
        "req_p50_ms",
        Summary::of(&per_pass(50.0)),
        format!("per-pass median of {n} POST /ingest, batch ready to HTTP 200; sandbox loopback"),
    );
    let p = supported_percentile(n, 99.0);
    o.set(
        "req_p99_ms",
        Summary::of(&per_pass(p)),
        format!("per-pass p{p} of {n} requests, 409s and back-off included"),
    );
}

fn traced_metrics(
    args: &Args,
    o: &mut Outcome,
    (reference, probed): (&HttpPass, &HttpPass),
    local: &InProcess,
    ops: u64,
    dump_s: f64,
    tr: &mut Tracer,
) -> Result<(), String> {
    o.value("workload.records", ops as f64, "op lines");
    o.value("serve.dump_ops_s", dump_s, "span around dump_ops");
    o.value(
        "serve.world_new_s",
        local.world_new_s,
        "span around LiveWorld::new",
    );
    o.value(
        "serve.apply_s",
        local.apply_s,
        "every line through LiveWorld::apply_line",
    );
    o.value("serve.apply_ops_per_s", ops as f64 / local.apply_s, "");
    o.value(
        "serve.http_overhead_s",
        reference.total_s - local.apply_s,
        "trace.ref_pass_s − serve.apply_s",
    );
    o.value(
        "serve.http_share",
        (reference.total_s - local.apply_s) / reference.total_s,
        "of trace.ref_pass_s",
    );
    o.value("serve.posts", probed.posts as f64, "batches + end");
    o.value(
        "serve.refused_posts",
        probed.refused as f64,
        "HTTP 409, resent after back-off",
    );
    o.value(
        "serve.drain_s",
        probed.drain_s,
        "`end` accepted to /healthz done",
    );
    let (_, publish_s) = tr.time("serve.publish_round", || local.publish_round());
    o.value(
        "serve.publish_ms",
        publish_s * 1e3,
        "one round of views::render_* + render_prometheus on the final world",
    );
    let mut probes_ms: Vec<f64> = probed.probes_s.iter().map(|s| s * 1e3).collect();
    probes_ms.sort_by(f64::total_cmp);
    if !probes_ms.is_empty() {
        o.value(
            "serve.get_stats_ms_p50",
            percentile(&probes_ms, 50.0),
            format!("{} probes, one per {PROBE_EVERY} POSTs", probes_ms.len()),
        );
    }

    // Crash-recovery cost of the same world.
    let scratch = args
        .out_dir
        .join(format!("scratch-{}-{}", args.workload, std::process::id()));
    let (path, checkpoint_s) = tr.time("serve.checkpoint", || local.world.checkpoint_now(&scratch));
    let (resumed, resume_s) = tr.time("serve.resume", || match &path {
        Ok(path) => LiveWorld::resume(path),
        Err(e) => Err(format!("checkpoint: {e}")),
    });
    let _ = std::fs::remove_dir_all(&scratch);
    let resumed = resumed?;
    o.check(
        "resumed_world_equals_checkpointed",
        resumed.stats() == local.world.stats() && resumed.now_us() == local.world.now_us(),
        "LiveStats and clock after LiveWorld::resume",
    );
    o.value(
        "serve.checkpoint_s",
        checkpoint_s,
        "span around LiveWorld::checkpoint_now",
    );
    o.value("serve.resume_s", resume_s, "span around LiveWorld::resume");
    o.value(
        "trace.ref_pass_s",
        reference.total_s,
        "untraced pass inside the traced run",
    );
    o.value(
        "trace.overhead_share",
        (probed.total_s - reference.total_s) / reference.total_s,
        "(probed pass − trace.ref_pass_s) / trace.ref_pass_s",
    );
    Ok(())
}
