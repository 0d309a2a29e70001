//! The web interface of §3: "The system will also offer a web based
//! interface, which gives the users more possibilities in searching the
//! information stored in the database. This will be used as an extension
//! to the GUI client, where users e.g. can read more information about
//! some particular software program or vendor along with all the comments
//! that have been submitted."
//!
//! A deliberately small HTTP/1.1 server (GET only, `Connection: close`)
//! hand-rolled on `std::net`, serving:
//!
//! * `/` — deployment statistics + best/worst lists,
//! * `/software/<hex id>` — the full detail page (metadata, rating,
//!   behaviours, verified evidence, comments),
//! * `/vendor/<name>` — the derived vendor view,
//! * `/search?q=<query>` — substring search over names and vendors,
//! * `/metrics` — Prometheus-style text exposition of every process
//!   metric (see `crates/obs` and DESIGN.md §12).
//!
//! Everything user-controlled is HTML-escaped; unknown paths 404; bad
//! requests 400. No cookies, no forms, no state: the web UI is read-only
//! by design — writes go through the authenticated XML protocol.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::handler::ReputationServer;

/// The first `max_chars` characters of `text`, on a char boundary. Byte
/// slicing (`&text[..12]`) panics when byte 12 falls inside a multi-byte
/// UTF-8 code point — use this everywhere an id or label is shortened
/// for display.
pub fn truncate_chars(text: &str, max_chars: usize) -> &str {
    match text.char_indices().nth(max_chars) {
        Some((boundary, _)) => text.get(..boundary).unwrap_or(text),
        None => text,
    }
}

/// Escape text for HTML contexts.
pub fn html_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            other => out.push(other),
        }
    }
    out
}

/// Decode `%xx` and `+` in a query value. Invalid escapes pass through
/// literally (lenient, like most servers).
pub fn url_decode(input: &str) -> String {
    let mut rest = input.as_bytes();
    let mut out = Vec::with_capacity(rest.len());
    while let [first, tail @ ..] = rest {
        let escape = match tail {
            [hi, lo, after @ ..] if *first == b'%' => std::str::from_utf8(&[*hi, *lo])
                .ok()
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .map(|b| (b, after)),
            _ => None,
        };
        match escape {
            Some((b, after)) => {
                out.push(b);
                rest = after;
            }
            None => {
                out.push(if *first == b'+' { b' ' } else { *first });
                rest = tail;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

const CONTENT_TYPE_HTML: &str = "text/html; charset=utf-8";
/// Prometheus text exposition format version 0.0.4.
const CONTENT_TYPE_METRICS: &str = "text/plain; version=0.0.4; charset=utf-8";

/// An HTTP response about to be written.
struct HttpResponse {
    status: &'static str,
    content_type: &'static str,
    body: String,
}

impl HttpResponse {
    fn ok(body: String) -> Self {
        HttpResponse { status: "200 OK", content_type: CONTENT_TYPE_HTML, body }
    }

    fn metrics(body: String) -> Self {
        HttpResponse { status: "200 OK", content_type: CONTENT_TYPE_METRICS, body }
    }

    fn not_found(what: &str) -> Self {
        HttpResponse {
            status: "404 Not Found",
            content_type: CONTENT_TYPE_HTML,
            body: page("Not found", &format!("<p>No such {}.</p>", html_escape(what))),
        }
    }

    fn bad_request(msg: &str) -> Self {
        HttpResponse {
            status: "400 Bad Request",
            content_type: CONTENT_TYPE_HTML,
            body: page("Bad request", &format!("<p>{}</p>", html_escape(msg))),
        }
    }
}

fn page(title: &str, body: &str) -> String {
    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
         <title>{title} — softwareputation</title></head>\
         <body><h1>{title}</h1>\
         <p><a href=\"/\">home</a> · <form style=\"display:inline\" action=\"/search\">\
         <input name=\"q\" placeholder=\"search software or vendor\">\
         <button>search</button></form></p>\
         {body}\
         <hr><p><small>softwareputation — collaborative software reputation \
         (Boldt et&nbsp;al., SDM 2007)</small></p></body></html>",
        title = html_escape(title),
        body = body,
    )
}

/// Render the routed response for `path_and_query`.
pub fn render(server: &ReputationServer, path_and_query: &str) -> (String, String) {
    let resp = respond(server, path_and_query);
    (resp.status.to_string(), resp.body)
}

/// Route `path_and_query` to the full response, content type included.
fn respond(server: &ReputationServer, path_and_query: &str) -> HttpResponse {
    let (path, query) = match path_and_query.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (path_and_query, None),
    };
    route(server, path, query)
}

fn route(server: &ReputationServer, path: &str, query: Option<&str>) -> HttpResponse {
    match path {
        "/" => front_page(server),
        "/metrics" => HttpResponse::metrics(server.metrics_text()),
        "/search" => {
            let q = query
                .and_then(|q| q.split('&').find_map(|pair| pair.strip_prefix("q=").map(url_decode)))
                .unwrap_or_default();
            search_page(server, &q)
        }
        _ => {
            if let Some(id) = path.strip_prefix("/software/") {
                software_page(server, id)
            } else if let Some(vendor) = path.strip_prefix("/vendor/") {
                vendor_page(server, &url_decode(vendor))
            } else {
                HttpResponse::not_found("page")
            }
        }
    }
}

fn front_page(server: &ReputationServer) -> HttpResponse {
    let stats = server.db().deployment_stats();
    let mut body = format!(
        "<p>{} members · {} known programs · {} votes · {} rated</p>",
        stats.users, stats.software, stats.votes, stats.rated_software
    );
    let engine = server.db().store_stats();
    body.push_str(&format!(
        "<p class=\"engine\">engine: {} batches · {} group commits \
         ({} fsyncs saved, deepest group {}) · {} WAL rotations</p>",
        engine.batches_applied,
        engine.group_commits,
        engine.fsyncs_saved,
        engine.max_group_depth,
        engine.wal_rotations,
    ));
    let mut list = |title: &str, rows: Vec<softrep_core::model::RatingRecord>| {
        body.push_str(&format!("<h2>{title}</h2><ol>"));
        for r in rows {
            body.push_str(&format!(
                "<li><a href=\"/software/{id}\">{short}…</a> — {rating:.1}/10 ({votes} votes)</li>",
                id = html_escape(&r.software_id),
                short = html_escape(truncate_chars(&r.software_id, 12)),
                rating = r.rating,
                votes = r.vote_count,
            ));
        }
        body.push_str("</ol>");
    };
    list("Best rated", server.db().top_rated(10).unwrap_or_default());
    list("Warning list (worst rated)", server.db().bottom_rated(10).unwrap_or_default());
    HttpResponse::ok(page("softwareputation", &body))
}

fn search_page(server: &ReputationServer, q: &str) -> HttpResponse {
    if q.trim().is_empty() {
        return HttpResponse::bad_request("empty search query");
    }
    let hits = server.db().search_software(q, 50).unwrap_or_default();
    let mut body = format!("<p>{} result(s) for <b>{}</b></p><ul>", hits.len(), html_escape(q));
    for rec in hits {
        body.push_str(&format!(
            "<li><a href=\"/software/{id}\">{name}</a>{vendor}</li>",
            id = html_escape(&rec.software_id),
            name = html_escape(&rec.file_name),
            vendor = rec
                .company
                .as_deref()
                .map(|c| format!(" — <a href=\"/vendor/{0}\">{0}</a>", html_escape(c)))
                .unwrap_or_default(),
        ));
    }
    body.push_str("</ul>");
    HttpResponse::ok(page("Search", &body))
}

fn software_page(server: &ReputationServer, id: &str) -> HttpResponse {
    let Ok(Some(report)) = server.db().software_report(id) else {
        return HttpResponse::not_found("software");
    };
    let mut body = String::new();
    body.push_str(&format!(
        "<p><b>{}</b> ({} bytes){}{}</p>",
        html_escape(&report.software.file_name),
        report.software.file_size,
        report
            .software
            .company
            .as_deref()
            .map(|c| format!(" — vendor <a href=\"/vendor/{0}\">{0}</a>", html_escape(c)))
            .unwrap_or_else(|| " — <i>no vendor metadata (PIS signal, §3.3)</i>".to_string()),
        report
            .software
            .version
            .as_deref()
            .map(|v| format!(", version {}", html_escape(v)))
            .unwrap_or_default(),
    ));
    match &report.rating {
        Some(r) => {
            body.push_str(&format!(
                "<p>rating <b>{:.1}/10</b> from {} votes (trust mass {:.0})</p>",
                r.rating, r.vote_count, r.trust_mass
            ));
            if !r.behaviours.is_empty() {
                body.push_str("<h2>Reported behaviours</h2><ul>");
                for (b, n) in &r.behaviours {
                    body.push_str(&format!("<li>{} ({n} reports)</li>", html_escape(b)));
                }
                body.push_str("</ul>");
            }
        }
        None => body.push_str("<p><i>not yet rated</i></p>"),
    }
    if let Some(evidence) = &report.evidence {
        body.push_str(&format!(
            "<h2>Verified behaviours</h2><p>by analyzer <b>{}</b>:</p><ul>",
            html_escape(&evidence.analyzer)
        ));
        for b in &evidence.behaviours {
            body.push_str(&format!("<li>{}</li>", html_escape(b)));
        }
        body.push_str("</ul>");
    }
    if !report.comments.is_empty() {
        body.push_str("<h2>Comments</h2><ul>");
        for pc in &report.comments {
            // Authors are rendered as pseudonymized tags, never as the
            // raw identity a commenter registered with (§2.2).
            let author_tag = server.db().pseudonym_tag("author", &pc.comment.author);
            body.push_str(&format!(
                "<li>\u{201c}{}\u{201d} — {} ({:+} remarks)</li>",
                html_escape(&pc.comment.text),
                html_escape(&author_tag),
                pc.remark_score,
            ));
        }
        body.push_str("</ul>");
    }
    HttpResponse::ok(page(&report.software.file_name.clone(), &body))
}

fn vendor_page(server: &ReputationServer, vendor: &str) -> HttpResponse {
    let Ok(report) = server.db().vendor_report(vendor) else {
        return HttpResponse::not_found("vendor");
    };
    if report.software_count == 0 {
        return HttpResponse::not_found("vendor");
    }
    let body = format!(
        "<p><b>{}</b>: {} software title(s), derived rating {}</p>",
        html_escape(&report.vendor),
        report.software_count,
        report.rating.map_or("—".to_string(), |r| format!("{r:.1}/10")),
    );
    HttpResponse::ok(page(&format!("Vendor: {vendor}"), &body))
}

/// A running web front end.
pub struct WebServer {
    local_addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl WebServer {
    /// Bind `addr` and serve the read-only web UI over `server`.
    pub fn spawn(server: Arc<ReputationServer>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || {
            let accept = || listener.accept().map(|(stream, _peer)| stream);
            accept_loop(&accept_shutdown, accept, |stream| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let _ = serve_connection(&server, stream);
                });
            });
        });
        Ok(WebServer { local_addr, shutdown, accept_thread: Some(accept_thread) })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stop accepting connections.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WebServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Accept until `shutdown` is set, handing each connection to `serve`.
/// No accept error ends the loop, only shutdown does: an aborted
/// handshake, a signal or a full fd table is transient, and leaving the
/// loop would leave the port refusing connections (`/metrics` scrapes
/// included) for the rest of the process. Every error, `WouldBlock` on
/// the nonblocking listener included, waits 5 ms before the next try.
fn accept_loop<S>(
    shutdown: &AtomicBool,
    mut accept: impl FnMut() -> std::io::Result<S>,
    mut serve: impl FnMut(S),
) {
    while !shutdown.load(Ordering::SeqCst) {
        match accept() {
            Ok(stream) => serve(stream),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn serve_connection(server: &ReputationServer, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers until the blank line (we ignore them).
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("/");

    let resp = if method != "GET" {
        HttpResponse {
            status: "405 Method Not Allowed",
            content_type: CONTENT_TYPE_HTML,
            body: page("Method not allowed", "<p>GET only.</p>"),
        }
    } else {
        respond(server, target)
    };

    let mut out = stream;
    write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {len}\r\nConnection: close\r\n\r\n{body}",
        status = resp.status,
        content_type = resp.content_type,
        len = resp.body.len(),
        body = resp.body,
    )?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{ErrorKind, Read};

    use softrep_core::clock::SimClock;
    use softrep_core::db::ReputationDb;

    use crate::handler::ServerConfig;

    fn seeded_server() -> Arc<ReputationServer> {
        let clock = SimClock::new();
        let db = ReputationDb::in_memory("web");
        let server = Arc::new(ReputationServer::new(
            db,
            Arc::new(clock.clone()),
            ServerConfig { puzzle_difficulty: 0, ..ServerConfig::default() },
            1,
        ));
        // Seed: a member, two programs, votes, a comment, evidence.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let db = server.db();
        let token = db.register_user("webber", "pw", "w@x.example", clock.now(), &mut rng).unwrap();
        db.activate_user("webber", &token).unwrap();
        let good = "aa".repeat(20);
        let bad = "bb".repeat(20);
        db.register_software(
            &good,
            "GoodApp.exe",
            100,
            Some("Acme & Sons".into()),
            Some("1.0".into()),
            clock.now(),
        )
        .unwrap();
        db.register_software(&bad, "ad<ware>.exe", 100, None, None, clock.now()).unwrap();
        db.submit_vote("webber", &good, 9, vec![], clock.now()).unwrap();
        db.submit_vote("webber", &bad, 2, vec!["popup_ads".into()], clock.now()).unwrap();
        db.submit_comment("webber", &bad, "shows <b>ads</b> & tracks", clock.now()).unwrap();
        db.record_evidence(&bad, vec!["tracking".into()], "sandbox", clock.now()).unwrap();
        db.force_aggregation(clock.now()).unwrap();
        server
    }

    #[test]
    fn front_page_lists_stats_and_rankings() {
        let server = seeded_server();
        let (status, body) = render(&server, "/");
        assert_eq!(status, "200 OK");
        assert!(body.contains("1 members"));
        assert!(body.contains("2 known programs"));
        assert!(body.contains("Best rated"));
        assert!(body.contains("Warning list"));
        // Storage-engine commit telemetry is surfaced alongside the
        // deployment counters.
        assert!(body.contains("group commits"));
        assert!(body.contains("WAL rotations"));
    }

    #[test]
    fn software_page_renders_escaped_details() {
        let server = seeded_server();
        let bad = "bb".repeat(20);
        let (status, body) = render(&server, &format!("/software/{bad}"));
        assert_eq!(status, "200 OK");
        // File name and comment are escaped, never raw HTML.
        assert!(body.contains("ad&lt;ware&gt;.exe"));
        assert!(body.contains("shows &lt;b&gt;ads&lt;/b&gt; &amp; tracks"));
        assert!(!body.contains("<b>ads</b>"));
        assert!(body.contains("popup_ads"));
        assert!(body.contains("Verified behaviours"));
        assert!(body.contains("no vendor metadata"));
        // The commenter's registered identity never reaches the page;
        // only the pseudonymized author tag does.
        assert!(!body.contains("webber"), "raw author identity leaked into the page");
        assert!(body.contains("author-"), "pseudonymized author tag missing: {body}");
    }

    #[test]
    fn vendor_and_search_pages() {
        let server = seeded_server();
        let (status, body) = render(&server, "/vendor/Acme%20%26%20Sons");
        assert_eq!(status, "200 OK");
        assert!(body.contains("Acme &amp; Sons"));
        assert!(body.contains("1 software title"));

        let (status, body) = render(&server, "/search?q=goodapp");
        assert_eq!(status, "200 OK");
        assert!(body.contains("GoodApp.exe"));
        assert!(body.contains("1 result"));

        let (status, _) = render(&server, "/search?q=");
        assert_eq!(status, "400 Bad Request");
    }

    /// Regression: ids were shortened with a byte slice
    /// (`&id[..12.min(len)]`), which panics when byte 12 lands inside a
    /// multi-byte UTF-8 character. The char-boundary helper must never
    /// split a character, whatever the input.
    #[test]
    fn truncate_chars_never_splits_multibyte_ids() {
        // Byte index 12 falls inside '软' (bytes 11..14) — the old slice
        // would panic right here.
        let id = "abcdefghijk软件信誉";
        assert!(!id.is_char_boundary(12), "test input must straddle byte 12");
        assert_eq!(truncate_chars(id, 12), "abcdefghijk软");

        // Purely multi-byte input and exact-fit / short inputs.
        assert_eq!(truncate_chars("αβγδεζηθικλμνξ", 12), "αβγδεζηθικλμ");
        assert_eq!(truncate_chars("abcdef", 12), "abcdef");
        assert_eq!(truncate_chars("", 12), "");
        assert_eq!(truncate_chars("é", 0), "");
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let server = seeded_server();
        // Exercise the instrumented dispatch path once so request-level
        // series exist, then aggregate so lag is measured, not inferred.
        server.run_full_aggregation();
        let (status, body) = render(&server, "/metrics");
        assert_eq!(status, "200 OK");
        assert!(!body.contains('<'), "metrics exposition must not be HTML: {body}");
        for series in [
            "softrep_agg_full_run_us",
            "softrep_agg_lag_seconds",
            "softrep_agg_dirty_titles",
            "softrep_flood_rejected_total",
            "softrep_flood_evicted_total",
            "softrep_store_batches_applied_total",
            "softrep_server_requests_served_total",
            "softrep_slow_op_threshold_us",
        ] {
            assert!(body.contains(series), "missing series {series} in:\n{body}");
        }
        // Every non-comment line is `name value` with a numeric value.
        for line in body.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let mut parts = line.split_whitespace();
            let (name, value) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            assert!(!name.is_empty(), "malformed line: {line}");
            assert!(value.parse::<f64>().is_ok(), "non-numeric value in line: {line}");
        }
    }

    #[test]
    fn unknown_paths_and_ids_404() {
        let server = seeded_server();
        assert_eq!(render(&server, "/nope").0, "404 Not Found");
        assert_eq!(render(&server, &format!("/software/{}", "cc".repeat(20))).0, "404 Not Found");
        assert_eq!(render(&server, "/vendor/Nobody").0, "404 Not Found");
    }

    #[test]
    fn http_transport_end_to_end() {
        let server = seeded_server();
        let web = WebServer::spawn(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(web.local_addr()).unwrap();
        write!(stream, "GET / HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"));
        assert!(response.contains("softwareputation"));
        assert!(response.contains("Content-Type: text/html"));

        // The metrics endpoint is plain text, not HTML.
        let mut stream = TcpStream::connect(web.local_addr()).unwrap();
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"));
        assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(response.contains("softrep_agg_lag_seconds"));

        // Non-GET methods are refused.
        let mut stream = TcpStream::connect(web.local_addr()).unwrap();
        write!(stream, "POST / HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"));
        web.shutdown();
    }

    #[test]
    fn url_decode_handles_escapes_and_junk() {
        assert_eq!(url_decode("a+b%20c"), "a b c");
        assert_eq!(url_decode("%41%42"), "AB");
        assert_eq!(url_decode("100%"), "100%");
        assert_eq!(url_decode("%zz"), "%zz");
        assert_eq!(url_decode("%4"), "%4");
        assert_eq!(url_decode("%%41"), "%A");
        assert_eq!(url_decode(""), "");
    }

    #[test]
    fn accept_errors_do_not_end_the_accept_loop() {
        let shutdown = AtomicBool::new(false);
        let mut script = vec![
            Err(std::io::Error::from(ErrorKind::ConnectionAborted)),
            Err(ErrorKind::Interrupted.into()),
            Err(ErrorKind::WouldBlock.into()),
            Err(ErrorKind::OutOfMemory.into()),
            // EMFILE and ENFILE (per-process and system fd tables full)
            // and ENOBUFS, as Linux's accept(2) reports them.
            Err(std::io::Error::from_raw_os_error(24)),
            Err(std::io::Error::from_raw_os_error(23)),
            Err(std::io::Error::from_raw_os_error(105)),
            Ok("the connection after the errors"),
        ]
        .into_iter();
        let mut served = Vec::new();
        let accept = || script.next().expect("the loop accepts only until it is shut down");
        accept_loop(&shutdown, accept, |stream| {
            served.push(stream);
            shutdown.store(true, Ordering::SeqCst);
        });
        assert_eq!(served, ["the connection after the errors"]);
    }

    #[test]
    fn html_escape_covers_the_five() {
        assert_eq!(
            html_escape("<a href=\"x\">&'</a>"),
            "&lt;a href=&quot;x&quot;&gt;&amp;&#39;&lt;/a&gt;"
        );
    }
}
