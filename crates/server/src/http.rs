//! HTTP/1.1 gateway: a standard-tooling front-end for the daemon.
//!
//! The binary protocol of [`crate::proto`] is fast but private — no
//! off-the-shelf load generator (wrk, hey, curl) can speak it, and the
//! FaasCache paper's artifact was driven through OpenWhisk's HTTP
//! invoker API. This module adds a dependency-free HTTP/1.1 ingress in
//! the same style as the PR 6 frame codecs:
//!
//! - [`HttpParser`] — an incremental, allocation-conscious request
//!   parser for nonblocking transports: feed it whatever bytes the
//!   socket had (possibly one) and it yields every request that
//!   completed, carrying partial state across calls. Keep-alive and
//!   pipelining fall out of the state machine; `Content-Length` bodies
//!   are buffered up to [`MAX_BODY_BYTES`] (413 beyond), header blocks
//!   up to [`MAX_HEADER_BYTES`] (431 beyond). Chunked transfer encoding
//!   is deliberately rejected — the gateway's routes carry no streaming
//!   bodies.
//! - [`write_response`] — the matching encoder: status line, minimal
//!   headers, `Content-Length` framing, `Connection: close` when the
//!   connection should end after the response.
//! - `route` — maps a parsed request onto the protocol-neutral
//!   `Op` of `crate::service`: `POST /invoke/<function>`, `GET
//!   /healthz`, `GET /metrics`, `PUT /functions/<name>` and `PUT
//!   /tenants/<name>/quota`. Executing the op and choosing the status
//!   code (draining → `Connection: close`) happen once, in
//!   `service::respond`, for the daemon and the router alike.
//! - `outcome_status` — the one map of invoke outcomes to HTTP status:
//!   Warm/Cold → 200, Dropped/Throttled → 429, Rejected → 503, with the
//!   outcome's label in the body. The server encodes with it and the
//!   client decodes with it, the way `proto`'s outcome codes serve both
//!   ends of the binary protocol.
//! - the client codec behind [`Client`](crate::client::Client) over
//!   HTTP: `encode_request`, the inverse of `route`, writes a
//!   [`Request`] as a method, a target and headers; `read_response`
//!   reads one keep-alive response and `decode_response` turns its
//!   status and body into the [`Response`] a binary frame would carry.
//!
//! An `Idempotency-Key` request header rides the same daemon-side
//! dedup cache as the binary `InvokeKeyed` opcode, so retrying HTTP
//! clients keep exactly-once accounting under injected faults.

use crate::journal::JournalRecord;
use crate::proto::{Request, Response};
use crate::service::{FnTarget, Op};
use faascache_platform::sharded::InvokeOutcome;
use std::collections::VecDeque;
use std::io::{self, Read};

/// Upper bound on a request's header block (request line + headers +
/// terminator). Beyond this the parser reports
/// [`HttpParseError::HeadersTooLarge`] → 431.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Upper bound on a request body. A `Content-Length` promising more is
/// [`HttpParseError::BodyTooLarge`] → 413, rejected before buffering a
/// single body byte — the same guard [`crate::proto::MAX_FRAME`] gives
/// the binary protocol.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …), verbatim.
    pub method: String,
    /// Origin-form request target including any query string.
    pub target: String,
    /// Whether the connection must close after the response
    /// (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub close: bool,
    /// Parsed `Idempotency-Key` header, if present — rides the same
    /// daemon-side dedup cache as the binary `InvokeKeyed` opcode.
    pub idem_key: Option<u64>,
    /// Request body (`Content-Length` bytes, possibly empty).
    pub body: Vec<u8>,
}

/// Why the parser rejected a byte stream. Every variant maps to a
/// status code via [`HttpParseError::status`]; after any error the
/// connection must be closed (framing is unrecoverable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpParseError {
    /// Header block exceeded [`MAX_HEADER_BYTES`] → 431.
    HeadersTooLarge,
    /// `Content-Length` exceeded [`MAX_BODY_BYTES`] → 413.
    BodyTooLarge,
    /// Anything else malformed → 400.
    Malformed(&'static str),
}

impl HttpParseError {
    /// The status code of the error response owed to the peer.
    pub fn status(&self) -> u16 {
        match self {
            HttpParseError::HeadersTooLarge => 431,
            HttpParseError::BodyTooLarge => 413,
            HttpParseError::Malformed(_) => 400,
        }
    }

    /// Human-readable detail for the error body.
    pub fn message(&self) -> &'static str {
        match self {
            HttpParseError::HeadersTooLarge => "request header block too large",
            HttpParseError::BodyTooLarge => "request body too large",
            HttpParseError::Malformed(msg) => msg,
        }
    }
}

impl std::fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message(), self.status())
    }
}

enum ParseState {
    /// Accumulating the header block (request line + headers).
    Head { buf: Vec<u8> },
    /// Buffering `remaining` body bytes of an otherwise-parsed request.
    Body { req: HttpRequest, remaining: usize },
}

/// Incremental, resumable HTTP/1.1 request parser for nonblocking
/// transports — the HTTP twin of [`crate::proto::FrameDecoder`].
///
/// Feeding the same byte stream one byte at a time or in arbitrary
/// chunks yields the identical request sequence (see the `proto_fuzz`
/// property tests), and no byte of one request ever leaks into the
/// next: the head buffer consumes exactly through its terminator and
/// the body phase consumes exactly `Content-Length` bytes.
pub struct HttpParser {
    state: ParseState,
}

impl Default for HttpParser {
    fn default() -> Self {
        Self::new()
    }
}

impl HttpParser {
    /// A parser at a request boundary.
    pub fn new() -> Self {
        HttpParser {
            state: ParseState::Head { buf: Vec::new() },
        }
    }

    /// Whether any byte of an unfinished request has been consumed. A
    /// peer that closes the stream while this is true tore a request in
    /// half — the same contract as
    /// [`FrameDecoder::is_mid_frame`](crate::proto::FrameDecoder::is_mid_frame).
    pub fn is_mid_request(&self) -> bool {
        match &self.state {
            ParseState::Head { buf } => !buf.is_empty(),
            ParseState::Body { .. } => true,
        }
    }

    /// Consumes all of `input`, pushing every request that completed
    /// onto `out`. An error poisons the stream: requests completed
    /// earlier in the call are already on `out` (serve them, then close
    /// after answering with [`HttpParseError::status`]), but the parser
    /// must not be fed again.
    pub fn feed(
        &mut self,
        mut input: &[u8],
        out: &mut VecDeque<HttpRequest>,
    ) -> Result<(), HttpParseError> {
        while !input.is_empty() {
            match &mut self.state {
                ParseState::Head { buf } => {
                    // Scan for the terminator across the buffered tail
                    // and the new chunk, so the head buffer consumes
                    // exactly through the blank line and pipelined
                    // bytes after it are never copied into the head.
                    let tail_start = buf.len().saturating_sub(3);
                    match terminator_take(&buf[tail_start..], input) {
                        Some(take) => {
                            buf.extend_from_slice(&input[..take]);
                            input = &input[take..];
                            if buf.len() > MAX_HEADER_BYTES {
                                return Err(HttpParseError::HeadersTooLarge);
                            }
                            let (mut req, body_len) = parse_head(buf)?;
                            buf.clear();
                            if body_len > MAX_BODY_BYTES as u64 {
                                return Err(HttpParseError::BodyTooLarge);
                            }
                            if body_len == 0 {
                                out.push_back(req);
                            } else {
                                req.body.reserve(body_len as usize);
                                self.state = ParseState::Body {
                                    req,
                                    remaining: body_len as usize,
                                };
                            }
                        }
                        None => {
                            buf.extend_from_slice(input);
                            input = &[];
                            if buf.len() > MAX_HEADER_BYTES {
                                return Err(HttpParseError::HeadersTooLarge);
                            }
                        }
                    }
                }
                ParseState::Body { req, remaining } => {
                    let take = (*remaining).min(input.len());
                    req.body.extend_from_slice(&input[..take]);
                    *remaining -= take;
                    input = &input[take..];
                    if *remaining == 0 {
                        let prev = std::mem::replace(
                            &mut self.state,
                            ParseState::Head { buf: Vec::new() },
                        );
                        match prev {
                            ParseState::Body { req, .. } => out.push_back(req),
                            ParseState::Head { .. } => unreachable!("body state just matched"),
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Finds the first header terminator that *completes* within `input`,
/// scanning the virtual concatenation `tail ++ input` (`tail` is the
/// last ≤3 already-buffered bytes, so a terminator split across feeds
/// is still seen). Returns how many input bytes to consume so the head
/// ends exactly at the terminator. Accepts `\r\n\r\n` and bare `\n\n`
/// (and the mixed `\n\r\n`), like mainstream lenient parsers.
fn terminator_take(tail: &[u8], input: &[u8]) -> Option<usize> {
    let t = tail.len();
    let at = |j: usize| -> u8 {
        if j < t {
            tail[j]
        } else {
            input[j - t]
        }
    };
    for (i, &byte) in input.iter().enumerate() {
        if byte != b'\n' {
            continue;
        }
        let end = t + i;
        if end >= 1 && at(end - 1) == b'\n' {
            return Some(i + 1);
        }
        if end >= 2 && at(end - 1) == b'\r' && at(end - 2) == b'\n' {
            return Some(i + 1);
        }
    }
    None
}

/// Parses a complete header block (including its terminator) into a
/// request awaiting its body, returning the promised body length.
fn parse_head(head: &[u8]) -> Result<(HttpRequest, u64), HttpParseError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpParseError::Malformed("header block is not utf-8"))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or(HttpParseError::Malformed("empty request line"))?;
    let target = parts
        .next()
        .ok_or(HttpParseError::Malformed("request line missing target"))?;
    let version = parts
        .next()
        .ok_or(HttpParseError::Malformed("request line missing version"))?;
    if parts.next().is_some() {
        return Err(HttpParseError::Malformed("request line has extra tokens"));
    }
    let http10 = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        _ => return Err(HttpParseError::Malformed("unsupported http version")),
    };
    if !target.starts_with('/') {
        return Err(HttpParseError::Malformed("target must be origin-form"));
    }

    let mut close = http10;
    let mut content_length: Option<u64> = None;
    let mut idem_key = None;
    for line in lines {
        if line.is_empty() {
            break; // blank line: end of headers
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpParseError::Malformed("header line missing colon"))?;
        // Whitespace before the colon is the classic request-smuggling
        // vector; reject it like every strict parser does.
        if name.is_empty() || name.ends_with(' ') || name.ends_with('\t') {
            return Err(HttpParseError::Malformed("malformed header name"));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n = decimal(value).ok_or(HttpParseError::Malformed("bad content-length"))?;
            if content_length.is_some_and(|prev| prev != n) {
                return Err(HttpParseError::Malformed("conflicting content-length"));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpParseError::Malformed("transfer-encoding not supported"));
        } else if name.eq_ignore_ascii_case("idempotency-key") {
            idem_key =
                Some(decimal(value).ok_or(HttpParseError::Malformed("bad idempotency-key"))?);
        }
    }

    Ok((
        HttpRequest {
            method: method.to_string(),
            target: target.to_string(),
            close,
            idem_key,
            body: Vec::new(),
        },
        content_length.unwrap_or(0),
    ))
}

/// A header value that is `1*DIGIT` (RFC 9110) and fits a `u64`.
/// `str::parse` alone also takes a leading `+`, which a front proxy may
/// reject or reframe — and then disagree with us about where the body
/// ends.
fn decimal(value: &str) -> Option<u64> {
    if !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    value.parse().ok()
}

/// Canonical reason phrase for the status codes the gateway emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Encodes one HTTP/1.1 response into `buf` (appended): status line,
/// `Content-Type`/`Content-Length`, `Connection: close` when `close`,
/// then the body. The output is a plain byte buffer, so it rides the
/// reactor's [`FrameEncoder`](crate::proto::FrameEncoder) unchanged —
/// one buffer per response keeps the drain accounting's
/// frames-completed arithmetic exact.
pub fn write_response(
    buf: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) {
    write_response_with(buf, status, content_type, body, close, None);
}

/// [`write_response`] plus an optional `Retry-After: <secs>` header —
/// carried by 429 tenant-throttle responses so well-behaved clients know
/// this is a back-off signal, not a permanent failure.
pub fn write_response_with(
    buf: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
    retry_after: Option<u64>,
) {
    buf.extend_from_slice(b"HTTP/1.1 ");
    push_u64(buf, status as u64);
    buf.push(b' ');
    buf.extend_from_slice(status_reason(status).as_bytes());
    buf.extend_from_slice(b"\r\nContent-Type: ");
    buf.extend_from_slice(content_type.as_bytes());
    buf.extend_from_slice(b"\r\nContent-Length: ");
    push_u64(buf, body.len() as u64);
    if let Some(secs) = retry_after {
        buf.extend_from_slice(b"\r\nRetry-After: ");
        push_u64(buf, secs);
    }
    if close {
        buf.extend_from_slice(b"\r\nConnection: close");
    }
    buf.extend_from_slice(b"\r\n\r\n");
    buf.extend_from_slice(body);
}

/// Appends the decimal digits of `v` without a `format!` allocation.
fn push_u64(buf: &mut Vec<u8>, v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut v = v;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

/// Seconds advertised in `Retry-After` on tenant-throttle (429)
/// responses. Budgets are resource-occupancy gates, not rate windows, so
/// the hint is a constant short back-off rather than a computed horizon.
pub const THROTTLE_RETRY_AFTER_SECS: u64 = 1;

/// A poisoned stream is owed its 431/413/400 like any routing failure.
impl From<HttpParseError> for Op {
    fn from(err: HttpParseError) -> Op {
        Op::Fail {
            status: err.status(),
            msg: err.message().to_string(),
        }
    }
}

/// Maps a parsed request onto an operation. Pure routing — no server
/// state is touched, so this runs on the reactor thread.
pub(crate) fn route(req: &HttpRequest) -> Op {
    let (path, query) = match req.target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.target.as_str(), ""),
    };
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("POST", ["invoke", f]) => {
            let function = match f.parse::<u32>() {
                Ok(idx) => FnTarget::Index(idx),
                Err(_) => FnTarget::Name((*f).to_string()),
            };
            Op::Invoke {
                function,
                key: req.idem_key,
            }
        }
        ("GET", ["healthz"]) => Op::Healthz,
        ("GET", ["metrics"]) => Op::Metrics,
        ("PUT", ["functions", name]) => route_register(name, query),
        ("PUT", ["tenants", name, "quota"]) => route_set_quota(name, query),
        (_, ["invoke", _])
        | (_, ["healthz"])
        | (_, ["metrics"])
        | (_, ["functions", _])
        | (_, ["tenants", _, "quota"]) => Op::Fail {
            status: 405,
            msg: "method not allowed".to_string(),
        },
        _ => Op::Fail {
            status: 404,
            msg: "no such route".to_string(),
        },
    }
}

/// Parses `PUT /functions/<name>` query parameters. Durations accept
/// `warm_us`/`cold_us` (microseconds) or `warm_ms`/`cold_ms`
/// (milliseconds); defaults model a tiny function (1 ms warm, 100 ms
/// cold, 128 MB). `tenant=` assigns the function's owning tenant (empty
/// or absent = default tenant). Names are checked by [`Op::mutation`].
fn route_register(name: &str, query: &str) -> Op {
    let mut mem_mb: u64 = 128;
    let mut warm_us: u64 = 1_000;
    let mut cold_us: u64 = 100_000;
    let mut tenant = String::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k == "tenant" {
            tenant = v.to_string();
            continue;
        }
        let parsed: Result<u64, _> = v.parse();
        let Ok(v) = parsed else {
            return Op::Fail {
                status: 400,
                msg: format!("bad value for query parameter {k:?}"),
            };
        };
        match k {
            "mem_mb" => mem_mb = v,
            "warm_us" => warm_us = v,
            "cold_us" => cold_us = v,
            "warm_ms" => warm_us = v.saturating_mul(1_000),
            "cold_ms" => cold_us = v.saturating_mul(1_000),
            _ => {
                return Op::Fail {
                    status: 400,
                    msg: format!("unknown query parameter {k:?}"),
                };
            }
        }
    }
    // The binary protocol and the journal carry `mem_mb` as a u32; the
    // one place a wider value can arrive refuses it here.
    let Ok(mem_mb) = u32::try_from(mem_mb) else {
        return Op::Fail {
            status: 400,
            msg: format!("mem_mb {mem_mb} exceeds the u32 wire range"),
        };
    };
    Op::mutation(JournalRecord::Register {
        name: name.to_string(),
        mem_mb,
        warm_us,
        cold_us,
        tenant,
    })
}

/// Parses `PUT /tenants/<name>/quota` query parameters. `inflight=` and
/// `mem=` (MB) each default to unlimited when absent, so
/// `PUT /tenants/acme/quota` with no query lifts both budgets. The
/// tenant is checked by [`Op::mutation`].
fn route_set_quota(tenant: &str, query: &str) -> Op {
    let mut inflight = u64::MAX;
    let mut mem_mb = u64::MAX;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let parsed: Result<u64, _> = v.parse();
        let Ok(v) = parsed else {
            return Op::Fail {
                status: 400,
                msg: format!("bad value for query parameter {k:?}"),
            };
        };
        match k {
            "inflight" => inflight = v,
            "mem" | "mem_mb" => mem_mb = v,
            _ => {
                return Op::Fail {
                    status: 400,
                    msg: format!("unknown query parameter {k:?}"),
                };
            }
        }
    }
    Op::mutation(JournalRecord::SetQuota {
        tenant: tenant.to_string(),
        inflight,
        mem_mb,
    })
}

/// The status and label an outcome is answered with. Both Dropped and
/// Throttled answer 429, told apart by the label.
pub(crate) fn outcome_status(outcome: InvokeOutcome) -> (u16, &'static str) {
    let status = match outcome {
        InvokeOutcome::Warm | InvokeOutcome::Cold => 200,
        InvokeOutcome::Dropped | InvokeOutcome::Throttled => 429,
        InvokeOutcome::Rejected => 503,
    };
    (status, outcome.label())
}

/// The outcome a (status, label) pair carries, if it is one an outcome
/// is answered with.
fn outcome_from_status(status: u16, label: &str) -> Option<InvokeOutcome> {
    InvokeOutcome::ALL
        .into_iter()
        .find(|&outcome| outcome_status(outcome) == (status, label))
}

/// The client half of `route`: the bytes that carry `request` to the
/// gateway. `Stats` and `Shutdown` have no route, so they are
/// `Unsupported`.
pub(crate) fn encode_request(request: &Request) -> io::Result<Vec<u8>> {
    let (method, target, key) = match request {
        Request::Invoke { function } => ("POST", format!("/invoke/{function}"), None),
        Request::InvokeKeyed { function, key } => {
            ("POST", format!("/invoke/{function}"), Some(*key))
        }
        Request::Register {
            name,
            mem_mb,
            warm_us,
            cold_us,
            tenant,
        } => (
            "PUT",
            format!(
                "/functions/{name}?mem_mb={mem_mb}&warm_us={warm_us}&cold_us={cold_us}&tenant={tenant}"
            ),
            None,
        ),
        Request::SetTenantQuota {
            tenant,
            inflight,
            mem_mb,
        } => (
            "PUT",
            format!("/tenants/{tenant}/quota?inflight={inflight}&mem={mem_mb}"),
            None,
        ),
        Request::Ping => ("GET", "/healthz".to_string(), None),
        Request::Stats | Request::Shutdown => {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("{request:?} is served on the binary protocol only"),
            ));
        }
    };
    Ok(request_head(method, &target, key))
}

/// One bodiless request: the request line, `Host`, the optional
/// `Idempotency-Key`, and `Content-Length: 0`.
pub(crate) fn request_head(method: &str, target: &str, key: Option<u64>) -> Vec<u8> {
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: faascached\r\n");
    if let Some(key) = key {
        head.push_str(&format!("Idempotency-Key: {key}\r\n"));
    }
    head.push_str("Content-Length: 0\r\n\r\n");
    head.into_bytes()
}

/// Reads one response off `stream`, keeping any bytes past it in
/// `rbuf`, and returns its status, its body, and whether the server
/// closes the connection after it.
pub(crate) fn read_response(
    stream: &mut impl Read,
    rbuf: &mut Vec<u8>,
) -> io::Result<(u16, Vec<u8>, bool)> {
    let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut chunk = [0u8; 4096];
    loop {
        match find_head_end(rbuf) {
            Some(head_end) => {
                let (status, len, close) = parse_response_head(&rbuf[..head_end])?;
                if len > MAX_BODY_BYTES {
                    return Err(invalid("gateway response body exceeds cap"));
                }
                if rbuf.len() >= head_end + len {
                    let body = rbuf[head_end..head_end + len].to_vec();
                    rbuf.drain(..head_end + len);
                    return Ok((status, body, close));
                }
            }
            None if rbuf.len() > MAX_HEADER_BYTES => {
                return Err(invalid("gateway response head exceeds cap"));
            }
            None => {}
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "gateway closed the connection mid-response",
                ));
            }
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Decodes a gateway response into the [`Response`] a binary frame
/// would carry: an outcome by its `outcome_status`, any other status
/// but 200 as [`Response::Error`] (the status in front of its message),
/// and an ack or `Pong` from a 200 body.
pub(crate) fn decode_response(status: u16, body: &[u8]) -> io::Result<Response> {
    let body = String::from_utf8_lossy(body);
    let flag = |key: &str| body.contains(&format!("\"{key}\":true"));
    let response = if let Some(label) = json_str(&body, "outcome") {
        outcome_from_status(status, label).map(Response::Invoked)
    } else if status != 200 {
        let msg = json_str(&body, "error").unwrap_or(body.trim());
        Some(Response::Error(format!("{status} {msg}")))
    } else if body.contains("\"live\":") {
        Some(Response::QuotaSet { live: flag("live") })
    } else if body == "ok\n" {
        Some(Response::Pong)
    } else {
        json_u64(&body, "function")
            .and_then(|function| u32::try_from(function).ok())
            .map(|function| Response::Registered {
                function,
                created: flag("created"),
            })
    };
    response.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected gateway response {status}: {}", body.trim()),
        )
    })
}

/// Index one past a response head's terminator, if complete.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    terminator_take(&[], buf)
}

/// Parses a response head into `(status, content_length, close)`.
fn parse_response_head(head: &[u8]) -> io::Result<(u16, usize, bool)> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let text = std::str::from_utf8(head).map_err(|_| bad("non-utf8 response head"))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split_ascii_whitespace();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(bad("bad status line"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status code"))?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| bad("bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    Ok((status, content_length, close))
}

/// Extracts the number following `"key":` from a tiny JSON body.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Extracts the string following `"key":"` from a tiny JSON body. The
/// server writes no escapes (`error_json` replaces quotes), so the
/// value ends at the next quote.
fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &body[body.find(&pat)? + pat.len()..];
    rest.split('"').next()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(wire: &[u8]) -> Vec<HttpRequest> {
        let mut parser = HttpParser::new();
        let mut out = VecDeque::new();
        parser.feed(wire, &mut out).expect("clean parse");
        assert!(!parser.is_mid_request(), "stream ended at a boundary");
        out.into()
    }

    #[test]
    fn parses_a_minimal_request() {
        let got = parse_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].method, "GET");
        assert_eq!(got[0].target, "/healthz");
        assert!(!got[0].close);
        assert!(got[0].body.is_empty());
    }

    #[test]
    fn byte_at_a_time_matches_one_shot() {
        let wire: &[u8] = b"POST /invoke/7 HTTP/1.1\r\nIdempotency-Key: 42\r\n\
                            Content-Length: 5\r\n\r\nhelloGET /metrics HTTP/1.1\r\n\r\n";
        let one_shot = parse_all(wire);
        let mut parser = HttpParser::new();
        let mut out = VecDeque::new();
        for byte in wire {
            parser.feed(std::slice::from_ref(byte), &mut out).unwrap();
        }
        assert_eq!(Vec::from(out), one_shot);
        assert_eq!(one_shot.len(), 2);
        assert_eq!(one_shot[0].body, b"hello");
        assert_eq!(one_shot[0].idem_key, Some(42));
        assert_eq!(one_shot[1].target, "/metrics");
    }

    #[test]
    fn pipelined_requests_do_not_share_bytes() {
        let wire: &[u8] = b"POST /invoke/1 HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
                            POST /invoke/2 HTTP/1.1\r\nContent-Length: 2\r\n\r\nxy";
        let got = parse_all(wire);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].body, b"abc");
        assert_eq!(got[1].body, b"xy");
        assert_eq!(got[1].target, "/invoke/2");
    }

    #[test]
    fn connection_close_and_http10_semantics() {
        let got = parse_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(got[0].close);
        let got = parse_all(b"GET / HTTP/1.0\r\n\r\n");
        assert!(got[0].close, "http/1.0 defaults to close");
        let got = parse_all(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!got[0].close);
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let got = parse_all(b"GET /healthz HTTP/1.1\nHost: x\n\n");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].target, "/healthz");
    }

    #[test]
    fn oversized_content_length_is_413_before_buffering() {
        let mut parser = HttpParser::new();
        let mut out = VecDeque::new();
        let wire = format!(
            "POST /invoke/1 HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parser.feed(wire.as_bytes(), &mut out).unwrap_err();
        assert_eq!(err, HttpParseError::BodyTooLarge);
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn oversized_header_block_is_431() {
        let mut parser = HttpParser::new();
        let mut out = VecDeque::new();
        let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
        wire.extend_from_slice(format!("X-Pad: {}\r\n", "a".repeat(MAX_HEADER_BYTES)).as_bytes());
        let err = parser.feed(&wire, &mut out).unwrap_err();
        assert_eq!(err, HttpParseError::HeadersTooLarge);
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn malformed_requests_are_400() {
        for wire in [
            &b"BOGUS\r\n\r\n"[..],
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST /invoke/1 HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
            b"POST /invoke/1 HTTP/1.1\r\nIdempotency-Key: +42\r\n\r\n",
            b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Header Line\r\n\r\n",
            b"GET nothing HTTP/1.1\r\n\r\n",
        ] {
            let mut parser = HttpParser::new();
            let mut out = VecDeque::new();
            let err = parser.feed(wire, &mut out).unwrap_err();
            assert_eq!(
                err.status(),
                400,
                "wire {:?}",
                String::from_utf8_lossy(wire)
            );
        }
    }

    #[test]
    fn completed_requests_survive_a_poisoned_tail() {
        // A valid request pipelined ahead of garbage: the valid one is
        // already on `out` when feed errors — the serve-then-close
        // contract the daemon relies on.
        let wire = b"GET /healthz HTTP/1.1\r\n\r\nBOGUS LINE\r\n\r\n";
        let mut parser = HttpParser::new();
        let mut out = VecDeque::new();
        assert!(parser.feed(wire, &mut out).is_err());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].target, "/healthz");
    }

    #[test]
    fn response_encoder_is_parseable_and_framed() {
        let mut buf = Vec::new();
        write_response(&mut buf, 200, "application/json", b"{\"ok\":1}", false);
        let head_end = find_head_end(&buf).expect("terminator");
        let (status, len, close) = parse_response_head(&buf[..head_end]).unwrap();
        assert_eq!((status, len, close), (200, 8, false));
        assert_eq!(&buf[head_end..], b"{\"ok\":1}");

        let mut buf = Vec::new();
        write_response(&mut buf, 503, "text/plain", b"draining\n", true);
        let head_end = find_head_end(&buf).unwrap();
        let (status, _, close) = parse_response_head(&buf[..head_end]).unwrap();
        assert_eq!((status, close), (503, true));
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
    }

    #[test]
    fn routes_map_to_the_expected_ops() {
        let req = |method: &str, target: &str, key: Option<u64>| HttpRequest {
            method: method.to_string(),
            target: target.to_string(),
            close: false,
            idem_key: key,
            body: Vec::new(),
        };
        assert_eq!(
            route(&req("POST", "/invoke/7", Some(9))),
            Op::Invoke {
                function: FnTarget::Index(7),
                key: Some(9)
            }
        );
        assert_eq!(
            route(&req("POST", "/invoke/img-resize", None)),
            Op::Invoke {
                function: FnTarget::Name("img-resize".to_string()),
                key: None
            }
        );
        assert_eq!(route(&req("GET", "/healthz", None)), Op::Healthz);
        assert_eq!(route(&req("GET", "/metrics", None)), Op::Metrics);
        assert_eq!(
            route(&req(
                "PUT",
                "/functions/f1?mem_mb=256&warm_ms=2&cold_ms=50",
                None
            )),
            Op::Mutate(JournalRecord::Register {
                name: "f1".to_string(),
                mem_mb: 256,
                warm_us: 2_000,
                cold_us: 50_000,
                tenant: String::new(),
            })
        );
        assert_eq!(
            route(&req(
                "PUT",
                "/functions/f2?mem_mb=128&warm_ms=1&cold_ms=20&tenant=acme",
                None
            )),
            Op::Mutate(JournalRecord::Register {
                name: "f2".to_string(),
                mem_mb: 128,
                warm_us: 1_000,
                cold_us: 20_000,
                tenant: "acme".to_string(),
            })
        );
        assert_eq!(
            route(&req("PUT", "/tenants/acme/quota?inflight=4&mem=512", None)),
            Op::Mutate(JournalRecord::SetQuota {
                tenant: "acme".to_string(),
                inflight: 4,
                mem_mb: 512,
            })
        );
        assert_eq!(
            route(&req("PUT", "/tenants/acme/quota", None)),
            Op::Mutate(JournalRecord::SetQuota {
                tenant: "acme".to_string(),
                inflight: u64::MAX,
                mem_mb: u64::MAX,
            })
        );
        match route(&req("PUT", "/tenants/acme/quota?inflight=lots", None)) {
            Op::Fail { status: 400, .. } => {}
            other => panic!("expected 400, got {other:?}"),
        }
        match route(&req("GET", "/tenants/acme/quota", None)) {
            Op::Fail { status: 405, .. } => {}
            other => panic!("expected 405, got {other:?}"),
        }
        match route(&req("DELETE", "/healthz", None)) {
            Op::Fail { status: 405, .. } => {}
            other => panic!("expected 405, got {other:?}"),
        }
        match route(&req("GET", "/nope", None)) {
            Op::Fail { status: 404, .. } => {}
            other => panic!("expected 404, got {other:?}"),
        }
        match route(&req("PUT", "/functions/bad%20name", None)) {
            Op::Fail { status: 400, .. } => {}
            other => panic!("expected 400, got {other:?}"),
        }
        assert_eq!(
            route(&req("PUT", "/functions/big?mem_mb=4294967296", None)),
            Op::Fail {
                status: 400,
                msg: "mem_mb 4294967296 exceeds the u32 wire range".to_string(),
            }
        );
    }

    /// `encode_request` is the inverse of `route`: every request the
    /// client sends over HTTP routes to the op its binary frame decodes
    /// to (liveness is `Healthz` rather than `Ping`).
    #[test]
    fn encoded_requests_route_to_the_ops_their_frames_decode_to() {
        let register = |tenant: &str| Request::Register {
            name: "f1".to_string(),
            mem_mb: 256,
            warm_us: 2_000,
            cold_us: 50_000,
            tenant: tenant.to_string(),
        };
        let quota = |inflight, mem_mb| Request::SetTenantQuota {
            tenant: "acme".to_string(),
            inflight,
            mem_mb,
        };
        for request in [
            Request::Invoke { function: 7 },
            Request::InvokeKeyed {
                function: 7,
                key: 9,
            },
            register(""),
            register("acme"),
            quota(4, 512),
            quota(u64::MAX, 512),
            quota(4, u64::MAX),
            quota(u64::MAX, u64::MAX),
        ] {
            let wire = encode_request(&request).expect("has a route");
            let parsed = parse_all(&wire);
            assert_eq!(parsed.len(), 1);
            assert_eq!(route(&parsed[0]), Op::from_frame(&request.encode()));
        }
        let ping = parse_all(&encode_request(&Request::Ping).expect("has a route"));
        assert_eq!(route(&ping[0]), Op::Healthz);
        for request in [Request::Stats, Request::Shutdown] {
            let err = encode_request(&request).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        }
    }

    #[test]
    fn off_table_outcomes_do_not_decode() {
        assert_eq!(
            outcome_from_status(429, "throttled"),
            Some(InvokeOutcome::Throttled)
        );
        assert_eq!(outcome_from_status(200, "dropped"), None);
        assert_eq!(outcome_from_status(503, "wasm"), None);
        let err = decode_response(200, b"{\"function\":1,\"outcome\":\"rejected\"}\n");
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            decode_response(503, b"{\"error\":\"draining\"}\n").unwrap(),
            Response::Error("503 draining".to_string())
        );
    }

    #[test]
    fn terminator_split_across_feeds_is_found() {
        let wire = b"GET / HTTP/1.1\r\n\r\n";
        for split in 1..wire.len() {
            let mut parser = HttpParser::new();
            let mut out = VecDeque::new();
            parser.feed(&wire[..split], &mut out).unwrap();
            parser.feed(&wire[split..], &mut out).unwrap();
            assert_eq!(out.len(), 1, "split at {split}");
        }
    }

    #[test]
    fn json_u64_extracts_fields() {
        assert_eq!(
            json_u64("{\"function\":17,\"created\":true}", "function"),
            Some(17)
        );
        assert_eq!(json_u64("{\"created\":true}", "function"), None);
    }
}
