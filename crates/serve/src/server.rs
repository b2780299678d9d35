//! The daemon's HTTP server: a sequential accept loop over a
//! line-protocol subset of HTTP/1.1 (see [`crate::http`]).
//!
//! The server thread never touches simulation state. A GET asks the
//! session thread for the one view it names and serves the string handed
//! back ([`Ctrl::fetch`]: a bounded wait for the session's next safe
//! point); POST endpoints flip control flags or enqueue ingest lines on
//! the shared [`Ctrl`] block. One connection is serviced at a time — the
//! daemon's API traffic is control-plane, where simplicity beats
//! throughput — and `accept` blocks, so an idle daemon costs nothing and
//! a request never waits out a poll interval.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::http::{parse_request, status_text, write_response, ParseError, Request};
use crate::state::{Ctrl, View};

/// Per-connection socket timeout: a stalled client cannot wedge the
/// control plane for longer than this.
const SOCKET_TIMEOUT: Duration = Duration::from_millis(2000);

/// Runs the accept loop until a shutdown is requested. Consumes the
/// listener; every response closes its connection. A shutdown that did
/// not arrive as a request on this loop must be followed by
/// [`wake_server`], or the loop stays blocked in `accept`.
pub fn serve(listener: TcpListener, ctrl: &Ctrl) {
    while !ctrl.shutdown_requested() {
        match listener.accept() {
            Ok((stream, _addr)) => handle_connection(stream, ctrl),
            // Transient (ECONNABORTED, EMFILE, ...): don't spin on it.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Spawns the server thread. The handle joins once a shutdown request
/// is observed.
pub fn spawn_server(listener: TcpListener, ctrl: Arc<Ctrl>) -> std::thread::JoinHandle<()> {
    #[expect(
        clippy::disallowed_methods,
        reason = "server thread shares only the Ctrl control block, never simulation state"
    )]
    std::thread::spawn(move || serve(listener, &ctrl))
}

/// Unblocks a server sitting in `accept` on the listener bound to `addr`
/// so it observes a shutdown requested elsewhere: a loopback connection
/// that is opened and dropped.
pub fn wake_server(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, SOCKET_TIMEOUT);
}

fn handle_connection(stream: TcpStream, ctrl: &Ctrl) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    match parse_request(&mut reader) {
        Ok(request) => respond(&mut writer, &request, ctrl),
        Err(ParseError::Io(_)) => {} // client went away; nothing to say
        Err(e) => {
            let _ = write_response(&mut writer, e.status(), "text/plain", e.detail().as_bytes());
        }
    }
    let _ = writer.flush();
}

fn respond(w: &mut TcpStream, request: &Request, ctrl: &Ctrl) {
    let method = request.method.as_str();
    let path = request.path.as_str();
    let result = match (method, path, View::from_path(path)) {
        ("GET", _, Some(View::Metrics)) => write_response(
            w,
            200,
            "text/plain; version=0.0.4",
            ctrl.fetch(View::Metrics).as_bytes(),
        ),
        ("GET", _, Some(view)) => json(w, &ctrl.fetch(view)),
        ("POST", "/ingest", _) => match std::str::from_utf8(&request.body) {
            Err(_) => write_response(w, 400, "text/plain", b"ingest body is not UTF-8"),
            Ok(body) => match ctrl.push_ingest(body) {
                Ok(accepted) => json(w, &format!("{{\"accepted\":{accepted}}}")),
                Err(e) => write_response(w, 409, "text/plain", e.as_bytes()),
            },
        },
        ("POST", "/pause", _) => {
            ctrl.pause();
            json(w, "{\"paused\":true}")
        }
        ("POST", "/resume", _) => {
            ctrl.resume();
            json(w, "{\"paused\":false}")
        }
        ("POST", "/checkpoint", _) => {
            ctrl.request_checkpoint();
            json(w, "{\"checkpoint\":\"requested\"}")
        }
        ("POST", "/shutdown", _) => {
            ctrl.request_shutdown();
            json(w, "{\"shutdown\":\"requested\"}")
        }
        // Known paths with the wrong verb are 405, the rest 404.
        (_, _, Some(_))
        | (_, "/ingest" | "/pause" | "/resume" | "/checkpoint" | "/shutdown", _) => {
            write_response(w, 405, "text/plain", status_text(405).as_bytes())
        }
        _ => write_response(w, 404, "text/plain", status_text(404).as_bytes()),
    };
    let _ = result;
}

fn json(w: &mut TcpStream, body: &str) -> std::io::Result<()> {
    write_response(w, 200, "application/json", body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn start() -> (std::net::SocketAddr, Arc<Ctrl>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ctrl = Arc::new(Ctrl::new());
        // A finished session's frozen views: served without a hand-off.
        ctrl.freeze_views(|view| match view {
            View::Healthz => "{\"ok\":true}".to_string(),
            View::Metrics => "# TYPE edm_x_total counter\nedm_x_total 1\n".to_string(),
            _ => String::new(),
        });
        let handle = spawn_server(listener, Arc::clone(&ctrl));
        (addr, ctrl, handle)
    }

    fn roundtrip(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_views_and_control() {
        let (addr, ctrl, handle) = start();
        let reply = roundtrip(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.ends_with("{\"ok\":true}"), "{reply}");

        let reply = roundtrip(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert!(reply.contains("edm_x_total 1"), "{reply}");

        let body = "w 0 0 4096\n";
        let reply = roundtrip(
            addr,
            &format!(
                "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(reply.contains("\"accepted\":1"), "{reply}");
        let mut drained = Vec::new();
        ctrl.drain_ingest(10, &mut drained);
        assert_eq!(drained, vec!["w 0 0 4096"]);

        let reply = roundtrip(addr, "POST /pause HTTP/1.1\r\n\r\n");
        assert!(reply.contains("\"paused\":true"), "{reply}");
        assert!(ctrl.is_paused());

        let reply = roundtrip(addr, "DELETE /healthz HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}"); // parser: GET/POST only
        let reply = roundtrip(addr, "POST /healthz HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 405"), "{reply}");
        let reply = roundtrip(addr, "GET /nope HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");

        let reply = roundtrip(addr, "POST /shutdown HTTP/1.1\r\n\r\n");
        assert!(reply.contains("\"shutdown\""), "{reply}");
        handle.join().unwrap();
    }

    #[test]
    fn ingest_conflict_maps_to_409() {
        let (addr, ctrl, handle) = start();
        ctrl.push_ingest("end").unwrap();
        let reply = roundtrip(
            addr,
            "POST /ingest HTTP/1.1\r\nContent-Length: 4\r\n\r\nw000",
        );
        assert!(reply.starts_with("HTTP/1.1 409"), "{reply}");
        // Requested off the accept loop: the server has to be woken.
        ctrl.request_shutdown();
        wake_server(addr);
        handle.join().unwrap();
    }
}
