//! Minimal blocking HTTP/1.1 plumbing for the metrics endpoint.
//!
//! [`MetricsServer`] binds a `std::net::TcpListener`, answers
//! `GET /metrics` from a background accept thread by calling a
//! caller-supplied render closure at scrape time (so every scrape sees a
//! fresh snapshot), and shuts down cooperatively. [`get`] is the
//! matching two-line client used by `dota top` and the smoke tests.
//! Deliberately tiny: one request per connection, `Connection: close`,
//! no keep-alive, no TLS — this is an operator loopback port, not a web
//! server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps between polls of its shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Longest request head we bother reading.
const MAX_REQUEST: usize = 4096;

/// A background metrics endpoint (see module docs).
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept thread. `render` produces the exposition body
    /// for each `GET /metrics`.
    ///
    /// # Errors
    ///
    /// Propagates bind errors (bad address, port in use).
    pub fn start<F>(addr: &str, render: F) -> std::io::Result<Self>
    where
        F: Fn() -> String + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("dota-metrics".to_owned())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Per-connection errors (client hung up, slow
                            // reader) must not kill the endpoint.
                            let _ = answer(stream, &render);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => std::thread::sleep(ACCEPT_POLL),
                    }
                }
            })
            .expect("spawn metrics accept thread");
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Dropping the server stops the accept thread and joins it.
impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn answer<F: Fn() -> String>(mut stream: TcpStream, render: &F) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nonblocking(false)?;
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < MAX_REQUEST {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.lines().next().unwrap_or("").split(' ');
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = match (method, path) {
        ("GET", "/metrics") => ("200 OK", render()),
        ("GET", _) => ("404 Not Found", "not found; try /metrics\n".to_owned()),
        _ => ("405 Method Not Allowed", "GET only\n".to_owned()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

/// Fetches `http://{addr}{path}` with one blocking GET and returns the
/// body.
///
/// # Errors
///
/// I/O errors propagate; non-200 statuses and malformed responses map to
/// `ErrorKind::Other`/`InvalidData`.
pub fn get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<String> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response")
    })?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(std::io::Error::other(format!("HTTP error: {status}")));
    }
    Ok(body.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_metrics_and_404s_everything_else() {
        let server =
            MetricsServer::start("127.0.0.1:0", || "# TYPE up gauge\nup 1\n".to_owned()).unwrap();
        let addr = server.addr();
        let body = get(addr, "/metrics").unwrap();
        assert_eq!(body, "# TYPE up gauge\nup 1\n");
        // A second scrape re-renders.
        assert_eq!(get(addr, "/metrics").unwrap(), body);
        let err = get(addr, "/other").unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
        drop(server);
        // After shutdown the port stops answering (connect may succeed
        // briefly on some kernels, so only assert the request fails).
        assert!(get(addr, "/metrics").is_err());
    }

    #[test]
    fn render_closure_sees_fresh_state_each_scrape() {
        use std::sync::atomic::AtomicU64;
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let server = MetricsServer::start("127.0.0.1:0", move || {
            format!(
                "# TYPE n counter\nn_total {}\n",
                n2.fetch_add(1, Ordering::SeqCst)
            )
        })
        .unwrap();
        let a = get(server.addr(), "/metrics").unwrap();
        let b = get(server.addr(), "/metrics").unwrap();
        assert_ne!(a, b);
    }
}
