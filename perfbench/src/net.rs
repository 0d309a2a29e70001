//! Socket plumbing the standard library lacks: connecting from a chosen
//! loopback source address, tightening the sender's timer slack, and a
//! minimal `/metrics` scrape.

use std::collections::HashMap;
use std::ffi::{c_int, c_ulong};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd};
use std::time::Duration;

const AF_INET: c_int = 2;
const SOCK_STREAM: c_int = 1;
const SOCK_CLOEXEC: c_int = 0o2_000_000;
const PR_SET_TIMERSLACK: c_int = 29;
const IPPROTO_TCP: c_int = 6;
const TCP_QUICKACK: c_int = 12;

/// `struct sockaddr_in`.
#[repr(C)]
struct SockaddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

extern "C" {
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn bind(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
    fn connect(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_int, len: u32) -> c_int;
}

fn sockaddr(addr: SocketAddrV4) -> SockaddrIn {
    SockaddrIn {
        sin_family: AF_INET as u16,
        sin_port: addr.port().to_be(),
        sin_addr: u32::from_ne_bytes(addr.ip().octets()),
        sin_zero: [0; 8],
    }
}

/// A TCP connection to `to` from source address `from` (any free port).
/// The flood guard keys on the peer IP, so each simulated user connects
/// from its own 127.0.0.0/8 address.
pub fn connect_from(from: Ipv4Addr, to: SocketAddrV4) -> io::Result<TcpStream> {
    // SAFETY: socket() takes no pointers.
    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is a fresh socket owned by nothing else; the stream
    // closes it on every path below.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let len = std::mem::size_of::<SockaddrIn>() as u32;
    let local = sockaddr(SocketAddrV4::new(from, 0));
    // SAFETY: `local` is a valid sockaddr_in of `len` bytes that outlives
    // the call.
    if unsafe { bind(fd, &local, len) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let remote = sockaddr(to);
    // SAFETY: as for bind.
    if unsafe { connect(fd, &remote, len) } != 0 {
        return Err(io::Error::last_os_error());
    }
    stream.set_nodelay(true)?;
    quick_ack(&stream);
    Ok(stream)
}

/// Acknowledge the answers read so far at once instead of after the
/// delayed-ACK timer. The server leaves Nagle's algorithm on, so while an
/// open-loop driver has two requests in flight on one connection, the
/// second answer waits for the first one's ACK; a closed-loop client never
/// meets that stall, so the driver must not add it. Linux clears the flag
/// after use, so it is set again after every read.
pub fn quick_ack(stream: &TcpStream) {
    let on: c_int = 1;
    let len = std::mem::size_of::<c_int>() as u32;
    // SAFETY: `on` is a valid c_int of `len` bytes that outlives the call;
    // the fd belongs to `stream`, which is open.
    let _ = unsafe { setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, len) };
}

/// Let the calling thread's sleeps end within 1 µs of their deadline (the
/// default slack is 50 µs), so requests leave on schedule without the
/// sender spinning for long.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument, no pointers.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1_000 as c_ulong) };
}

/// A loopback address with a free port.
pub fn free_port() -> io::Result<SocketAddrV4> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    v4(listener.local_addr()?).map_err(io::Error::other)
}

/// The IPv4 address inside `addr`.
pub fn v4(addr: SocketAddr) -> Result<SocketAddrV4, String> {
    match addr {
        SocketAddr::V4(a) => Ok(a),
        SocketAddr::V6(a) => Err(format!("expected an IPv4 address, got {a}")),
    }
}

/// One `/metrics` exposition: its unlabelled series by name.
pub struct Metrics(HashMap<String, f64>);

impl Metrics {
    /// The series `name`, 0 when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// How far counter `name` moved since `earlier`.
    pub fn delta(&self, earlier: &Metrics, name: &str) -> f64 {
        self.get(name) - earlier.get(name)
    }
}

/// `GET /metrics` from the web interface at `web`.
pub fn scrape(web: SocketAddrV4) -> Result<Metrics, String> {
    let fail = |e: io::Error| format!("scrape {web}: {e}");
    let mut stream =
        TcpStream::connect_timeout(&SocketAddr::V4(web), Duration::from_secs(2)).map_err(fail)?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(fail)?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").map_err(fail)?;
    let mut text = String::new();
    stream.read_to_string(&mut text).map_err(fail)?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("malformed /metrics response")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("/metrics answered {}", head.lines().next().unwrap_or("")));
    }
    let series = body
        .lines()
        .filter(|line| !line.starts_with('#') && !line.contains('{'))
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect();
    Ok(Metrics(series))
}
