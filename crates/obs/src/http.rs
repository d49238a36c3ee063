//! The std-only exposition listener behind
//! [`Sampler::serve`](crate::Sampler::serve) (served only by a started
//! sampler).
//!
//! Deliberately tiny, same no-dependency discipline as `oll_util::json`
//! and the async executor: a non-blocking `TcpListener` polled by one
//! thread, one request per connection, `Connection: close` semantics. It
//! speaks just enough HTTP/1.1 for `curl` and a Prometheus scraper:
//!
//! * `GET /metrics` — Prometheus text exposition (format 0.0.4)
//! * `GET /json` (or `/`) — the `oll.obs` v1 JSON document
//! * `GET /health` — only the health array, for cheap liveness probes
//!
//! Responses carry `Content-Length` and the socket closes after each
//! one, so clients can simply read to EOF.

use crate::health::{score_all, HealthConfig};
use crate::report::render_obs_json;
use crate::sampler::Shared;
use oll_util::json::{obj, text, Value};
use std::fmt::Write as _;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const POLL: Duration = Duration::from_millis(20);
const MAX_REQUEST: usize = 4096;

#[derive(Debug)]
pub(crate) struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn response(status: &str, content_type: &str, body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 128);
    let _ = write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    out
}

/// Reads the request head (up to the blank line or [`MAX_REQUEST`]
/// bytes) and returns the request path, if the line parses.
fn read_path(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next()?.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    (method == "GET").then(|| path.to_string())
}

fn handle(stream: &mut TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let reply = match read_path(stream).as_deref() {
        Some("/metrics") => {
            let state = shared.state_copy();
            let health = score_all(&state, &HealthConfig::default());
            response(
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &crate::prom::render_prometheus(&state, &health),
            )
        }
        Some("/json") | Some("/") => {
            let state = shared.state_copy();
            let health = score_all(&state, &HealthConfig::default());
            response(
                "200 OK",
                "application/json",
                &render_obs_json(&state, &health),
            )
        }
        Some("/health") => {
            let state = shared.state_copy();
            let health = score_all(&state, &HealthConfig::default());
            let rows = health.iter().map(|h| {
                obj([
                    ("lock", text(&h.name)),
                    ("health", text(h.health.name())),
                    ("severity", h.health.severity().into()),
                ])
            });
            let body = rows.collect::<Value>().render();
            response("200 OK", "application/json", &body)
        }
        Some(_) => response("404 Not Found", "text/plain; charset=utf-8", "not found\n"),
        None => response(
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "bad request\n",
        ),
    };
    let _ = stream.write_all(reply.as_bytes());
    let _ = stream.flush();
}

/// Binds `addr` and spawns the accept loop. `addr` may use port 0 for
/// an ephemeral port; the bound address is readable from the returned
/// server.
pub(crate) fn serve(addr: &str, shared: Arc<Shared>) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("oll-obs-http".into())
        .spawn(move || {
            while !stop_flag.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        handle(&mut stream, &shared);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(POLL),
                }
            }
        })?;
    Ok(Server {
        addr,
        stop,
        thread: Some(thread),
    })
}
