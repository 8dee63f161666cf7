//! A minimal, dependency-free Prometheus exposition endpoint.
//!
//! `std::net::TcpListener` in non-blocking accept mode, polled from the
//! service's event loop — no threads, no async runtime, no HTTP crate.
//! That is deliberate: the scrape path must not perturb the validation
//! pipeline it measures, and the offline build environment rules out a
//! web framework anyway. One poll per loop iteration serves the pending
//! connections it reaches within one 250 ms budget; a scraper sees `HTTP/1.1 200` with
//! `text/plain; version=0.0.4` (the Prometheus exposition content type)
//! for `GET /metrics`, and `404` for anything else.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Longest request head we will read before answering; a scraper's GET
/// line plus headers fits comfortably.
const MAX_REQUEST_BYTES: usize = 4096;

/// Time one poll gets to read request heads, summed over every
/// connection it serves. Also the timeout of each write of a response.
const POLL_BUDGET: Duration = Duration::from_millis(250);

/// A polled metrics endpoint. Construct with [`MetricsServer::bind`],
/// call [`MetricsServer::poll`] from the event loop with a closure that
/// renders the current exposition text.
#[derive(Debug)]
pub struct MetricsServer {
    listener: TcpListener,
}

impl MetricsServer {
    /// Binds the listener (e.g. `"127.0.0.1:9090"`; port 0 picks a free
    /// port — read it back with [`MetricsServer::local_addr`]).
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(MetricsServer { listener })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves pending connections, answering each with the text `render`
    /// returns (for `/metrics`) or a 404. `render` runs once per
    /// `/metrics` request and never for a 404 or an idle poll. Returns
    /// how many requests were answered. The whole call gets 250 ms to
    /// read request heads, however many connections wait and however
    /// slowly they trickle, so idle scrapers cannot hold the caller's
    /// loop; connections it does not reach in time stay in the backlog
    /// for the next poll. Errors per connection are swallowed (a
    /// half-open scraper must not take the relayer down).
    pub fn poll(&self, mut render: impl FnMut() -> String) -> std::io::Result<usize> {
        let deadline = Instant::now() + POLL_BUDGET;
        let mut served = 0;
        while Instant::now() < deadline {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if serve_one(stream, deadline, &mut render).is_ok() {
                        served += 1;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(served)
    }
}

/// Reads the request head (up to the blank line, [`MAX_REQUEST_BYTES`] or
/// end of stream) before the poll's `deadline`.
fn read_head(stream: &mut TcpStream, deadline: Instant) -> std::io::Result<Vec<u8>> {
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(head);
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_BYTES {
            return Ok(head);
        }
    }
}

fn serve_one(
    mut stream: TcpStream,
    deadline: Instant,
    render: &mut impl FnMut() -> String,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(POLL_BUDGET))?;
    let head = read_head(&mut stream, deadline)?;

    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let response = if method == "GET" && (path == "/metrics" || path == "/") {
        let body = render();
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    } else {
        let msg = "not found\n";
        format!(
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            msg.len(),
            msg
        )
    };
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends one GET for `path` and polls until it is answered; returns
    /// the response and how often the exposition was rendered.
    fn request(
        addr: SocketAddr,
        server: &MetricsServer,
        body: &str,
        path: &str,
    ) -> (String, usize) {
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        client.flush().unwrap();
        // Give the kernel a beat to surface the connection, then poll.
        let mut renders = 0;
        for _ in 0..100 {
            let render = || {
                renders += 1;
                body.to_string()
            };
            if server.poll(render).unwrap() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        (response, renders)
    }

    #[test]
    fn serves_exposition_and_404s_unknown_paths() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();

        let (ok, renders) = request(addr, &server, "waku_up 1\n", "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"));
        assert!(ok.ends_with("waku_up 1\n"), "{ok}");
        assert_eq!(renders, 1);

        let (missing, renders) = request(addr, &server, "waku_up 1\n", "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        assert_eq!(renders, 0, "a 404 renders no exposition");

        // An idle poll serves nothing, does not block, and renders
        // nothing.
        let mut renders = 0;
        let render = || {
            renders += 1;
            String::new()
        };
        assert_eq!(server.poll(render).unwrap(), 0);
        assert_eq!(renders, 0, "no connection, no exposition rendered");
    }

    #[test]
    fn a_trickling_client_cannot_hold_the_poll() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        // One byte of a request head every 50 ms for 3 s: each byte lands
        // well inside any per-read timeout, and the head never ends.
        let trickle = std::thread::spawn(move || {
            let mut sent = 0;
            for &byte in b"GET /metrics HTTP/1.1\r\nX-Slow: ".iter().cycle().take(60) {
                if client.write_all(&[byte]).is_err() {
                    break;
                }
                sent += 1;
                std::thread::sleep(Duration::from_millis(50));
            }
            sent
        });
        let mut renders = 0;
        let start = Instant::now();
        while !trickle.is_finished() && start.elapsed() < Duration::from_secs(2) {
            let polled = Instant::now();
            server
                .poll(|| {
                    renders += 1;
                    String::new()
                })
                .unwrap();
            let held = polled.elapsed();
            assert!(held < Duration::from_secs(1), "poll held for {held:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(renders, 0, "an unfinished head is never answered");
        let sent = trickle.join().unwrap();
        assert!(sent < 60, "the server hung up only after {sent} bytes");
    }

    #[test]
    fn idle_connections_share_one_budget_per_poll() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let _idle: Vec<TcpStream> = (0..6).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let render = || "waku_up 1\n".to_string();

        let polled = Instant::now();
        let mut served = server.poll(render).unwrap();
        let held = polled.elapsed();
        assert!(held < Duration::from_millis(500), "poll held for {held:?}");
        for _ in 1..8 {
            if served > 0 {
                break;
            }
            served = server.poll(render).unwrap();
        }
        assert_eq!(served, 1, "the GET behind six idle sockets is answered");
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert!(response.ends_with("waku_up 1\n"), "{response}");
    }
}
