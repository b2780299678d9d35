//! Shared control-plane state between the session thread and the HTTP
//! server thread.
//!
//! The deterministic machinery (cluster, policy, recorder) never crosses
//! a thread boundary: it lives on the session thread's stack. What is
//! shared is this [`Ctrl`] block — admin flags and statistics as atomics,
//! plus one mutex-guarded structure holding the ingest queue (server
//! pushes lines, session drains them) and the view hand-off: a `GET`
//! marks the one view it wants, the session renders exactly that view at
//! its next safe point and stores the string, and the server serves it.
//! A session nobody reads renders nothing. Both threads park on one
//! condvar; neither holds the lock for longer than a queue splice or a
//! string swap, and the simulation's event order can't depend on request
//! timing because rendering only reads it.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, MutexGuard};
use std::time::Duration;

// Shared state is confined to this control block; the session thread owns
// all simulation state and only rendered strings / queued text cross over.
#[expect(
    clippy::disallowed_types,
    reason = "control-plane handoff only; no simulation state is shared"
)]
type Lock<T> = std::sync::Mutex<T>;

/// Cap on buffered, not-yet-applied ingest lines. `POST /ingest` returns
/// 409 above this so a fast client gets backpressure instead of
/// unbounded daemon memory.
pub const MAX_QUEUED_LINES: usize = 1 << 18;

/// Longest a `GET` waits for the session's next safe point before it is
/// answered with the last rendered body instead: a session deep in a long
/// plan cannot wedge the control plane.
pub const VIEW_WAIT: Duration = Duration::from_millis(250);

/// The views a `GET` can ask for; `View as usize` indexes per-view arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    Healthz,
    Nodes,
    Plan,
    Stats,
    Model,
    Metrics,
}

impl View {
    pub const ALL: [View; 6] = {
        use View::*;
        [Healthz, Nodes, Plan, Stats, Model, Metrics]
    };

    /// The endpoint path without its slash; also the `view` metric label.
    pub fn name(self) -> &'static str {
        ["healthz", "nodes", "plan", "stats", "model", "metrics"][self as usize]
    }

    pub fn from_path(path: &str) -> Option<View> {
        let name = path.strip_prefix('/')?;
        View::ALL.into_iter().find(|v| v.name() == name)
    }

    fn bit(self) -> u8 {
        1 << self as usize
    }
}

#[derive(Debug, Default)]
struct Shared {
    /// Operation lines accepted over HTTP, awaiting the session thread.
    lines: VecDeque<String>,
    /// Total lines ever accepted.
    accepted: u64,
    /// An `end` marker has been received: the stream is complete.
    closed: bool,
    /// The last rendered body of each view (empty until first asked for).
    bodies: [String; View::ALL.len()],
    /// Views a reader is waiting for, as [`View::bit`]s.
    wanted: u8,
    /// The session is at work and renders on request. False before its
    /// first safe point and after it ended: `GET`s are then answered at
    /// once from `bodies`.
    live: bool,
    /// Bumped by everything the session may be parked waiting for.
    epoch: u64,
}

/// The shared control block (one per daemon, behind an `Arc`).
#[derive(Default)]
pub struct Ctrl {
    paused: AtomicBool,
    shutdown: AtomicBool,
    checkpoint_requested: AtomicBool,
    shared: Lock<Shared>,
    /// Signalled whenever `shared` changes in a way a parked thread
    /// (session or reader) may be waiting for.
    changed: Condvar,
    // Control-plane statistics for `/metrics`. They live here, never in
    // the session's recorder, so journals and recorder metrics cannot
    // depend on who polled what.
    renders: [AtomicU64; View::ALL.len()],
    refused: AtomicU64,
}

impl Ctrl {
    pub fn new() -> Ctrl {
        Ctrl::default()
    }

    // ---- admin flags ---------------------------------------------------

    pub fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
        self.wake_session();
    }

    pub fn resume(&self) {
        self.paused.store(false, Ordering::SeqCst);
        self.wake_session();
    }

    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_session();
    }

    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub fn request_checkpoint(&self) {
        self.checkpoint_requested.store(true, Ordering::SeqCst);
        self.wake_session();
    }

    /// Consumes a pending checkpoint request (session thread, at a safe
    /// point).
    pub fn take_checkpoint_request(&self) -> bool {
        self.checkpoint_requested.swap(false, Ordering::SeqCst)
    }

    // ---- session parking -----------------------------------------------

    /// Blocks the session thread until something happened since
    /// [`serve_views`](Ctrl::serve_views) returned `seen`: lines queued, a
    /// view requested, or a flag changed.
    pub fn park(&self, seen: u64) {
        let parked = self.changed.wait_while(self.lock(), |s| s.epoch == seen);
        drop(parked.unwrap_or_else(|p| p.into_inner()));
    }

    /// Blocks the session thread, with nothing left to do, until shutdown.
    pub fn park_until_shutdown(&self) {
        let parked = self
            .changed
            .wait_while(self.lock(), |_| !self.shutdown_requested());
        drop(parked.unwrap_or_else(|p| p.into_inner()));
    }

    /// Flag setters store first and bump the epoch under the lock after,
    /// so a session about to park either sees the flag or the new epoch.
    fn wake_session(&self) {
        self.lock().epoch += 1;
        self.changed.notify_all();
    }

    // ---- ingest queue --------------------------------------------------

    /// Enqueues the lines of one `POST /ingest` body. Returns the total
    /// accepted-line count, or an error string (HTTP 409) if the stream
    /// is already closed or the queue is full.
    pub fn push_ingest(&self, body: &str) -> Result<u64, String> {
        // Built before locking: the session drains under the same lock.
        let mut batch = Vec::new();
        let mut end = false;
        for line in body.lines().map(str::trim) {
            if line == "end" {
                end = true;
                break;
            }
            if !line.is_empty() && !line.starts_with('#') {
                batch.push(line.to_string());
            }
        }
        let mut s = self.lock();
        let full = s.lines.len() + batch.len() > MAX_QUEUED_LINES;
        if s.closed || full {
            self.refused.fetch_add(1, Ordering::Relaxed);
            return Err(if s.closed {
                "ingest stream already ended".to_string()
            } else {
                format!("ingest queue full ({} lines buffered)", s.lines.len())
            });
        }
        s.accepted += batch.len() as u64;
        s.lines.extend(batch);
        s.closed = end;
        s.epoch += 1;
        self.changed.notify_all();
        Ok(s.accepted)
    }

    /// Moves up to `max` queued lines into `batch` (cleared first), which
    /// the session reuses from one drain to the next.
    pub fn drain_ingest(&self, max: usize, batch: &mut Vec<String>) {
        batch.clear();
        let mut s = self.lock();
        let n = s.lines.len().min(max);
        batch.extend(s.lines.drain(..n));
    }

    /// `(accepted, buffered, closed)` — for `/healthz`.
    pub fn ingest_status(&self) -> (u64, usize, bool) {
        let s = self.lock();
        (s.accepted, s.lines.len(), s.closed)
    }

    /// True once the stream is closed and every queued line was drained.
    pub fn ingest_complete(&self) -> bool {
        let s = self.lock();
        s.closed && s.lines.is_empty()
    }

    // ---- view hand-off -------------------------------------------------

    /// Server thread: the body of `view`. On a live session this asks for
    /// a render and waits — at most [`VIEW_WAIT`] — for the session's next
    /// safe point, so the body reflects the world no earlier than the
    /// request; on expiry, before the session's first safe point and after
    /// its end, it is the last body stored (empty if there never was one).
    pub fn fetch(&self, view: View) -> String {
        let mut s = self.lock();
        if s.live {
            s.wanted |= view.bit();
            s.epoch += 1;
            self.changed.notify_all();
            // An expired request stays marked: the session renders it when
            // it gets there, refreshing what the next expiry would serve.
            let asked = |s: &mut Shared| s.live && s.wanted & view.bit() != 0;
            s = match self.changed.wait_timeout_while(s, VIEW_WAIT, asked) {
                Ok((s, _expired)) => s,
                Err(p) => p.into_inner().0,
            };
        }
        s.bodies[view as usize].clone()
    }

    /// Session thread, at a safe point: renders the views readers are
    /// waiting for and hands them over. With no reader it renders nothing.
    /// The first call turns the hand-off on. Returns the event count to
    /// [`park`](Ctrl::park) on: taken *before* the session looks for work,
    /// so an event landing between the look and the park is not slept
    /// through.
    pub fn serve_views(&self, mut render: impl FnMut(View) -> String) -> u64 {
        let (wanted, seen) = {
            let mut s = self.lock();
            s.live = true;
            (s.wanted, s.epoch)
        };
        for view in View::ALL {
            if wanted & view.bit() != 0 {
                // Rendered outside the lock: a POST must not wait on it.
                self.store(view, render(view));
            }
        }
        seen
    }

    /// Session thread, when replay has finished: renders every view one
    /// last time and ends the hand-off, freezing them.
    pub fn freeze_views(&self, mut render: impl FnMut(View) -> String) {
        for view in View::ALL {
            self.store(view, render(view));
        }
        self.end_session();
    }

    /// The session is over (or never started): every waiting reader, and
    /// every later `GET`, is answered from the stored bodies.
    pub fn end_session(&self) {
        self.lock().live = false;
        self.changed.notify_all();
    }

    fn store(&self, view: View, body: String) {
        let mut s = self.lock();
        s.bodies[view as usize] = body;
        s.wanted &= !view.bit();
        self.renders[view as usize].fetch_add(1, Ordering::Relaxed);
        self.changed.notify_all();
    }

    /// Appends the control-plane statistics to a `/metrics` body. A render
    /// is counted when its body is stored, so the `metrics` series does
    /// not include the render that carries it.
    pub fn write_metrics(&self, out: &mut String) {
        let (accepted, buffered, _) = self.ingest_status();
        let _ = writeln!(out, "# TYPE edm_serve_view_renders_total counter");
        for view in View::ALL {
            let n = self.renders[view as usize].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "edm_serve_view_renders_total{{view=\"{}\"}} {n}",
                view.name()
            );
        }
        let refused = self.refused.load(Ordering::Relaxed);
        let _ = write!(
            out,
            "# TYPE edm_serve_ingest_accepted_total counter\n\
             edm_serve_ingest_accepted_total {accepted}\n\
             # TYPE edm_serve_ingest_refused_total counter\n\
             edm_serve_ingest_refused_total {refused}\n\
             # TYPE edm_serve_ingest_buffered gauge\n\
             edm_serve_ingest_buffered {buffered}\n"
        );
    }

    fn lock(&self) -> MutexGuard<'_, Shared> {
        // A poisoned lock means a thread panicked mid-update; the data is
        // plain strings, queues and counters, valid at every step.
        self.shared.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admin_flags_toggle() {
        let c = Ctrl::new();
        assert!(!c.is_paused());
        c.pause();
        assert!(c.is_paused());
        c.resume();
        assert!(!c.is_paused());
        c.request_checkpoint();
        assert!(c.take_checkpoint_request());
        assert!(!c.take_checkpoint_request());
        c.request_shutdown();
        assert!(c.shutdown_requested());
    }

    #[test]
    fn ingest_queue_accepts_drains_and_closes() {
        let c = Ctrl::new();
        let n = c
            .push_ingest("w 0 0 4096\nr 1 512 100\n\n# comment\n")
            .unwrap();
        assert_eq!(n, 2);
        assert!(!c.ingest_complete());
        let mut drained = Vec::new();
        c.drain_ingest(10, &mut drained);
        assert_eq!(drained, vec!["w 0 0 4096", "r 1 512 100"]);
        c.push_ingest("w 2 0 1\nend\nw 3 0 1\n").unwrap();
        let (accepted, buffered, closed) = c.ingest_status();
        assert_eq!((accepted, buffered, closed), (3, 1, true));
        assert!(c.push_ingest("w 9 0 1").is_err());
        c.drain_ingest(10, &mut drained);
        assert_eq!(drained, vec!["w 2 0 1"]);
        assert!(c.ingest_complete());
    }

    #[test]
    fn capacity_counts_only_lines_that_will_be_queued() {
        let c = Ctrl::new();
        let full = "w 0 0 1\n".repeat(MAX_QUEUED_LINES);
        assert_eq!(c.push_ingest(&full).unwrap(), MAX_QUEUED_LINES as u64);
        assert!(c.push_ingest("w 0 0 1").is_err());
        // Neither the marker nor what follows it takes queue space.
        c.push_ingest("# bye\nend\nw 1 0 1\nw 2 0 1\n").unwrap();
        assert_eq!(
            c.ingest_status(),
            (MAX_QUEUED_LINES as u64, MAX_QUEUED_LINES, true)
        );
        let mut metrics = String::new();
        c.write_metrics(&mut metrics);
        assert!(
            metrics.contains("edm_serve_ingest_refused_total 1\n"),
            "{metrics}"
        );
    }

    #[test]
    fn fetch_before_the_first_render_returns_the_empty_body_at_once() {
        // No session thread exists: anything but an immediate answer hangs.
        let c = Ctrl::new();
        assert_eq!(c.fetch(View::Healthz), "");
    }

    #[test]
    fn fetch_on_a_live_session_blocks_until_that_view_is_rendered() {
        let c = &Ctrl::new();
        let seen = c.serve_views(|_| panic!("nobody asked yet"));
        std::thread::scope(|scope| {
            #[expect(
                clippy::disallowed_methods,
                reason = "the test forces the interleaving it checks through Ctrl's own park/serve hand-off"
            )]
            let reader = scope.spawn(|| c.fetch(View::Stats));
            // The request is what wakes the session.
            c.park(seen);
            assert!(!reader.is_finished());
            let mut rendered = Vec::new();
            c.serve_views(|view| {
                rendered.push(view);
                "fresh".to_string()
            });
            assert_eq!(rendered, vec![View::Stats]);
            assert_eq!(reader.join().unwrap(), "fresh");
        });
        let mut metrics = String::new();
        c.write_metrics(&mut metrics);
        assert!(
            metrics.contains("renders_total{view=\"stats\"} 1\n"),
            "{metrics}"
        );
        assert!(
            metrics.contains("renders_total{view=\"healthz\"} 0\n"),
            "{metrics}"
        );
    }

    #[test]
    fn fetch_serves_the_last_body_when_the_bound_expires() {
        let c = &Ctrl::new();
        std::thread::scope(|scope| {
            let seen = c.serve_views(|_| panic!("nobody asked yet"));
            #[expect(
                clippy::disallowed_methods,
                reason = "the test forces the interleaving it checks through Ctrl's own park/serve hand-off"
            )]
            let first = scope.spawn(|| c.fetch(View::Plan));
            c.park(seen);
            c.serve_views(|_| "old".to_string());
            assert_eq!(first.join().unwrap(), "old");
        });
        // The session is live but never reaches another safe point.
        assert_eq!(c.fetch(View::Plan), "old");
    }

    #[test]
    fn ending_the_session_releases_every_waiter() {
        let c = &Ctrl::new();
        let mut seen = c.serve_views(|_| panic!("nobody asked yet"));
        let views = [View::Healthz, View::Stats, View::Stats];
        std::thread::scope(|scope| {
            let all_waiting = seen + views.len() as u64;
            #[expect(
                clippy::disallowed_methods,
                reason = "the test forces the interleaving it checks through Ctrl's own park/serve hand-off"
            )]
            let readers = views.map(|view| scope.spawn(move || c.fetch(view)));
            // A reader bumps the epoch under the lock it then waits on, so
            // once every bump is visible every reader is parked.
            while seen < all_waiting {
                c.park(seen);
                seen = c.lock().epoch;
            }
            c.end_session();
            for reader in readers {
                assert_eq!(reader.join().unwrap(), "");
            }
        });
        // And stays ended: later reads don't wait either.
        assert_eq!(c.fetch(View::Nodes), "");
    }
}
