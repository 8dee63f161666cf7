//! A minimal, dependency-free Prometheus exposition endpoint.
//!
//! `std::net::TcpListener` in non-blocking accept mode, polled from the
//! service's event loop — no threads, no async runtime, no HTTP crate.
//! That is deliberate: the scrape path must not perturb the validation
//! pipeline it measures, and the offline build environment rules out a
//! web framework anyway. One poll per loop iteration drains every
//! pending connection; a scraper sees `HTTP/1.1 200` with
//! `text/plain; version=0.0.4` (the Prometheus exposition content type)
//! for `GET /metrics`, and `404` for anything else.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Longest request head we will read before answering; a scraper's GET
/// line plus headers fits comfortably.
const MAX_REQUEST_BYTES: usize = 4096;

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

    /// Serves every connection currently pending, answering each with
    /// the text `render` returns (for `/metrics`) or a 404. `render` runs
    /// once per accepted connection and never on an idle poll. Returns
    /// how many requests were answered. Never blocks beyond a short
    /// per-connection read timeout; per-connection errors are swallowed
    /// (a half-open scraper must not take the relayer down).
    pub fn poll(&self, mut render: impl FnMut() -> String) -> std::io::Result<usize> {
        let mut served = 0;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if serve_one(stream, &render()).is_ok() {
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

fn serve_one(mut stream: TcpStream, body: &str) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    stream.set_write_timeout(Some(Duration::from_millis(250)))?;

    // Read until the end of the request head (or the cap).
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }

    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let response = if method == "GET" && (path == "/metrics" || path == "/") {
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

    fn request(addr: SocketAddr, server: &MetricsServer, body: &str, path: &str) -> String {
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        client.flush().unwrap();
        // Give the kernel a beat to surface the connection, then poll.
        for _ in 0..100 {
            if server.poll(|| body.to_string()).unwrap() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_exposition_and_404s_unknown_paths() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();

        let ok = request(addr, &server, "waku_up 1\n", "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"));
        assert!(ok.ends_with("waku_up 1\n"), "{ok}");

        let missing = request(addr, &server, "waku_up 1\n", "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

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
}
