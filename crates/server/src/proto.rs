//! The `faascached` wire protocol: length-prefixed binary frames.
//!
//! The daemon speaks the same format over TCP and Unix domain sockets.
//! Every frame is a `u32` little-endian payload length followed by the
//! payload; the first payload byte is an opcode. All multi-byte integers
//! are little-endian. The format is deliberately trivial — no external
//! serialization crates exist in this build environment, and the protocol
//! must stay cheap enough that framing never dominates a warm invoke.
//!
//! ```text
//! frame    := len:u32le payload[len]
//! request  := 0x01 fn:u32le      (Invoke)
//!           | 0x02               (Stats)
//!           | 0x03               (Shutdown)
//!           | 0x04               (Ping)
//!           | 0x05 fn:u32le key:u64le  (InvokeKeyed: idempotent invoke)
//!           | 0x06 mem:u32le warm_us:u64le cold_us:u64le
//!                  name_len:u8 name:utf8[name_len] tenant:utf8
//!                  (Register: introduce a function at runtime; the
//!                   trailing tenant may be empty = default tenant)
//!           | 0x07 inflight:u64le mem_mb:u64le tenant:utf8
//!                  (SetTenantQuota: a tenant's budgets at runtime)
//! response := 0x81 outcome:u8    (Invoked: 0 warm, 1 cold, 2 dropped,
//!                                 3 rejected, 4 throttled)
//!           | 0x82 warm:u64le cold:u64le dropped:u64le rejected:u64le
//!                  throttled:u64le evictions:u64le prewarms:u64le
//!                  migrations:u64le
//!                  (Stats)
//!           | 0x83               (ShutdownStarted)
//!           | 0x84               (Pong)
//!           | 0x85 fn:u32le created:u8  (Registered)
//!           | 0x86 live:u8       (QuotaSet)
//!           | 0xFF msg:utf8      (Error)
//! ```
//!
//! An outcome's code and its place among the Stats counts are its index
//! in `InvokeOutcome::ALL`. The `Register` and `SetTenantQuota` payloads
//! are also the journal's record payloads ([`crate::journal`]), so this
//! is the one byte layout of a control-plane mutation.

use faascache_platform::sharded::{InvokeOutcome, InvokerStats, Outcomes};
use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload; anything larger is a protocol error.
/// Legitimate frames are under 100 bytes — the guard exists so a
/// corrupted or hostile length prefix cannot trigger a huge allocation.
pub const MAX_FRAME: usize = 64 * 1024;

/// A request frame sent by clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Invoke the function with the given registry index.
    Invoke {
        /// Index of the function in the shared workload registry.
        function: u32,
    },
    /// Invoke with a client-chosen idempotency key: the daemon records
    /// the outcome per key, and a retry carrying the same key returns
    /// the recorded outcome instead of invoking again. This is what
    /// keeps both sides' counters exact when a response is lost to a
    /// connection reset and the client retries.
    InvokeKeyed {
        /// Index of the function in the shared workload registry.
        function: u32,
        /// Idempotency key, unique per logical request.
        key: u64,
    },
    /// Register a function at runtime (ROADMAP registry-sync item).
    /// Duplicate registration of the same name is idempotent: the daemon
    /// answers with the existing index and `created = false`. This is
    /// what lets clients introduce functions instead of deriving the
    /// whole workload from a shared `--functions/--seed` pair.
    Register {
        /// Function name, unique in the registry.
        name: String,
        /// Memory footprint in MB (must be nonzero).
        mem_mb: u32,
        /// Warm execution time in microseconds.
        warm_us: u64,
        /// Cold (initialization + execution) time in microseconds; must
        /// be at least `warm_us`.
        cold_us: u64,
        /// Owning tenant name; empty means the default tenant. Budgets
        /// are looked up by this name (unknown names get the default
        /// quota).
        tenant: String,
    },
    /// Update a tenant's admission budget at runtime (ROADMAP
    /// runtime-quota item). Applied to the live accounting table
    /// immediately and journaled when the daemon runs with
    /// `--state-dir`, so the budget survives a restart.
    SetTenantQuota {
        /// Tenant name (must be non-empty; the default tenant is
        /// addressed as `"default"`).
        tenant: String,
        /// In-flight budget (`u64::MAX` = unlimited).
        inflight: u64,
        /// Memory budget in MB (`u64::MAX` = unlimited).
        mem_mb: u64,
    },
    /// Ask for the daemon's aggregate invoker statistics.
    Stats,
    /// Ask the daemon to drain in-flight work and exit.
    Shutdown,
    /// Liveness probe.
    Ping,
}

/// A response frame sent by the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Outcome of an [`Request::Invoke`].
    Invoked(InvokeOutcome),
    /// Aggregate invoker statistics.
    Stats(InvokerStats),
    /// The daemon acknowledged [`Request::Shutdown`] and began draining.
    ShutdownStarted,
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Register`]: the function's registry index and
    /// whether this call created it (`false` = idempotent duplicate).
    Registered {
        /// Registry index usable in [`Request::Invoke`].
        function: u32,
        /// Whether this registration created the function.
        created: bool,
    },
    /// Reply to [`Request::SetTenantQuota`].
    QuotaSet {
        /// Whether the quota was applied to a live accounting slot
        /// (`false` = stored; it binds when the tenant is first seen).
        live: bool,
    },
    /// The request could not be served (unknown opcode, bad function
    /// index, malformed payload).
    Error(String),
}

const OP_INVOKE: u8 = 0x01;
const OP_STATS: u8 = 0x02;
const OP_SHUTDOWN: u8 = 0x03;
const OP_PING: u8 = 0x04;
const OP_INVOKE_KEYED: u8 = 0x05;
const OP_REGISTER: u8 = 0x06;
const OP_SET_QUOTA: u8 = 0x07;
const OP_R_INVOKED: u8 = 0x81;
const OP_R_STATS: u8 = 0x82;
const OP_R_SHUTDOWN: u8 = 0x83;
const OP_R_PONG: u8 = 0x84;
const OP_R_REGISTERED: u8 = 0x85;
const OP_R_QUOTA_SET: u8 = 0x86;
const OP_R_ERROR: u8 = 0xFF;

fn protocol_error(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn outcome_from_code(code: u8) -> io::Result<InvokeOutcome> {
    InvokeOutcome::ALL
        .get(usize::from(code))
        .copied()
        .ok_or_else(|| protocol_error(format!("bad outcome code {code}")))
}

fn read_u32(payload: &[u8], at: usize) -> io::Result<u32> {
    let bytes = payload
        .get(at..at + 4)
        .ok_or_else(|| protocol_error("truncated u32"))?;
    Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
}

fn read_u64(payload: &[u8], at: usize) -> io::Result<u64> {
    let bytes = payload
        .get(at..at + 8)
        .ok_or_else(|| protocol_error("truncated u64"))?;
    Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
}

impl Request {
    /// Encodes the request as a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Invoke { function } => {
                let mut out = Vec::with_capacity(5);
                out.push(OP_INVOKE);
                out.extend_from_slice(&function.to_le_bytes());
                out
            }
            Request::InvokeKeyed { function, key } => {
                let mut out = Vec::with_capacity(13);
                out.push(OP_INVOKE_KEYED);
                out.extend_from_slice(&function.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
                out
            }
            Request::Register {
                name,
                mem_mb,
                warm_us,
                cold_us,
                tenant,
            } => {
                debug_assert!(name.len() <= u8::MAX as usize, "name fits the length byte");
                let mut out = Vec::with_capacity(22 + name.len() + tenant.len());
                out.push(OP_REGISTER);
                out.extend_from_slice(&mem_mb.to_le_bytes());
                out.extend_from_slice(&warm_us.to_le_bytes());
                out.extend_from_slice(&cold_us.to_le_bytes());
                out.push(name.len() as u8);
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(tenant.as_bytes());
                out
            }
            Request::SetTenantQuota {
                tenant,
                inflight,
                mem_mb,
            } => {
                let mut out = Vec::with_capacity(17 + tenant.len());
                out.push(OP_SET_QUOTA);
                out.extend_from_slice(&inflight.to_le_bytes());
                out.extend_from_slice(&mem_mb.to_le_bytes());
                out.extend_from_slice(tenant.as_bytes());
                out
            }
            Request::Stats => vec![OP_STATS],
            Request::Shutdown => vec![OP_SHUTDOWN],
            Request::Ping => vec![OP_PING],
        }
    }

    /// Decodes a frame payload into a request.
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        match payload.first().copied() {
            Some(OP_INVOKE) => Ok(Request::Invoke {
                function: read_u32(payload, 1)?,
            }),
            Some(OP_INVOKE_KEYED) => Ok(Request::InvokeKeyed {
                function: read_u32(payload, 1)?,
                key: read_u64(payload, 5)?,
            }),
            Some(OP_REGISTER) => {
                let name_len = payload
                    .get(21)
                    .copied()
                    .ok_or_else(|| protocol_error("truncated register frame"))?
                    as usize;
                let name_bytes = payload
                    .get(22..22 + name_len)
                    .ok_or_else(|| protocol_error("truncated register name"))?;
                let name = std::str::from_utf8(name_bytes)
                    .map_err(|_| protocol_error("register name is not utf-8"))?;
                if name.is_empty() {
                    return Err(protocol_error("register name is empty"));
                }
                // Everything after the name is the tenant; empty = the
                // default tenant.
                let tenant = std::str::from_utf8(&payload[22 + name_len..])
                    .map_err(|_| protocol_error("register tenant is not utf-8"))?;
                Ok(Request::Register {
                    name: name.to_string(),
                    mem_mb: read_u32(payload, 1)?,
                    warm_us: read_u64(payload, 5)?,
                    cold_us: read_u64(payload, 13)?,
                    tenant: tenant.to_string(),
                })
            }
            Some(OP_SET_QUOTA) => {
                let inflight = read_u64(payload, 1)?;
                let mem_mb = read_u64(payload, 9)?;
                // Everything after the fixed header is the tenant name.
                let tenant = std::str::from_utf8(&payload[17..])
                    .map_err(|_| protocol_error("quota tenant is not utf-8"))?;
                if tenant.is_empty() {
                    return Err(protocol_error("quota tenant is empty"));
                }
                Ok(Request::SetTenantQuota {
                    tenant: tenant.to_string(),
                    inflight,
                    mem_mb,
                })
            }
            Some(OP_STATS) => Ok(Request::Stats),
            Some(OP_SHUTDOWN) => Ok(Request::Shutdown),
            Some(OP_PING) => Ok(Request::Ping),
            Some(op) => Err(protocol_error(format!("unknown request opcode {op:#x}"))),
            None => Err(protocol_error("empty request frame")),
        }
    }
}

impl Response {
    /// Encodes the response as a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Invoked(outcome) => vec![OP_R_INVOKED, *outcome as u8],
            Response::Stats(stats) => {
                let mut out = Vec::with_capacity(1 + 8 * 8);
                out.push(OP_R_STATS);
                let outcomes = stats.outcomes.iter().map(|(_, n)| n);
                for v in outcomes.chain([stats.evictions, stats.prewarms, stats.migrations]) {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out
            }
            Response::ShutdownStarted => vec![OP_R_SHUTDOWN],
            Response::Pong => vec![OP_R_PONG],
            Response::Registered { function, created } => {
                let mut out = Vec::with_capacity(6);
                out.push(OP_R_REGISTERED);
                out.extend_from_slice(&function.to_le_bytes());
                out.push(u8::from(*created));
                out
            }
            Response::QuotaSet { live } => vec![OP_R_QUOTA_SET, u8::from(*live)],
            Response::Error(msg) => {
                let mut out = Vec::with_capacity(1 + msg.len());
                out.push(OP_R_ERROR);
                out.extend_from_slice(msg.as_bytes());
                out
            }
        }
    }

    /// Decodes a frame payload into a response.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        match payload.first().copied() {
            Some(OP_R_INVOKED) => {
                let code = payload
                    .get(1)
                    .copied()
                    .ok_or_else(|| protocol_error("truncated invoke response"))?;
                Ok(Response::Invoked(outcome_from_code(code)?))
            }
            Some(OP_R_STATS) => {
                let mut outcomes = [0; 5];
                for (i, count) in outcomes.iter_mut().enumerate() {
                    *count = read_u64(payload, 1 + 8 * i)?;
                }
                Ok(Response::Stats(InvokerStats {
                    outcomes: Outcomes::from(outcomes),
                    evictions: read_u64(payload, 41)?,
                    prewarms: read_u64(payload, 49)?,
                    migrations: read_u64(payload, 57)?,
                }))
            }
            Some(OP_R_SHUTDOWN) => Ok(Response::ShutdownStarted),
            Some(OP_R_PONG) => Ok(Response::Pong),
            Some(OP_R_REGISTERED) => {
                let created = match payload.get(5).copied() {
                    Some(0) => false,
                    Some(1) => true,
                    Some(other) => {
                        return Err(protocol_error(format!("bad created flag {other}")));
                    }
                    None => return Err(protocol_error("truncated register response")),
                };
                Ok(Response::Registered {
                    function: read_u32(payload, 1)?,
                    created,
                })
            }
            Some(OP_R_QUOTA_SET) => {
                let live = match payload.get(1).copied() {
                    Some(0) => false,
                    Some(1) => true,
                    Some(other) => {
                        return Err(protocol_error(format!("bad quota live flag {other}")));
                    }
                    None => return Err(protocol_error("truncated quota response")),
                };
                Ok(Response::QuotaSet { live })
            }
            Some(OP_R_ERROR) => Ok(Response::Error(
                String::from_utf8_lossy(&payload[1..]).into_owned(),
            )),
            Some(op) => Err(protocol_error(format!("unknown response opcode {op:#x}"))),
            None => Err(protocol_error("empty response frame")),
        }
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let len =
        u32::try_from(payload.len()).map_err(|_| protocol_error("frame too large to encode"))?;
    // One buffered write per frame: header + payload together, so a frame
    // is never split by an interleaving writer on the same stream.
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Reads one length-prefixed frame, blocking until it is complete.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary; mid-frame EOF and
/// oversized lengths are `InvalidData` errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header)? {
        FrameRead::Eof => return Ok(None),
        FrameRead::Complete => {}
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(protocol_error(format!("frame length {len} exceeds cap")));
    }
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(r, &mut payload)? {
        FrameRead::Eof => Err(protocol_error("eof inside frame payload")),
        FrameRead::Complete => Ok(Some(payload)),
    }
}

enum FrameRead {
    Complete,
    Eof,
}

/// `read_exact` that distinguishes clean EOF before the first byte.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<FrameRead> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameRead::Eof),
            Ok(0) => return Err(protocol_error("eof inside frame")),
            Ok(n) => filled += n,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(FrameRead::Complete)
}

/// Incremental, resumable frame decoder: the serving side's reader.
///
/// [`read_frame`] parks a thread until a frame completes; a server must
/// keep reading whole chunks and notice drain and stall deadlines
/// between them. `FrameDecoder` instead consumes whatever bytes a read
/// returned — possibly one — and buffers partial state across calls,
/// yielding every frame that completed. Feeding the same byte stream one byte at a time
/// or in arbitrary chunks produces the identical frame sequence (see the
/// `proto_fuzz` property tests).
///
/// Oversized length prefixes are rejected exactly like the blocking
/// reader: an `InvalidData` error before any payload allocation.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    header: [u8; 4],
    header_filled: usize,
    payload: Option<Vec<u8>>,
    payload_len: usize,
}

impl FrameDecoder {
    /// A decoder at the start of a stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any byte of an unfinished frame has been consumed. A peer
    /// that closes the stream while this is true tore a frame in half.
    pub fn is_mid_frame(&self) -> bool {
        self.header_filled > 0 || self.payload.is_some()
    }

    /// Consumes all of `bytes`, pushing every frame payload that
    /// completed onto `out`. Returns the number of frames completed by
    /// this call. An oversized length prefix poisons the stream: the
    /// error is returned and the decoder must not be fed again.
    pub fn feed(&mut self, mut bytes: &[u8], out: &mut VecDeque<Vec<u8>>) -> io::Result<usize> {
        let mut completed = 0;
        while !bytes.is_empty() {
            if self.payload.is_none() {
                // Header phase: accumulate the 4-byte length prefix.
                let need = 4 - self.header_filled;
                let take = need.min(bytes.len());
                self.header[self.header_filled..self.header_filled + take]
                    .copy_from_slice(&bytes[..take]);
                self.header_filled += take;
                bytes = &bytes[take..];
                if self.header_filled < 4 {
                    break;
                }
                let len = u32::from_le_bytes(self.header) as usize;
                if len > MAX_FRAME {
                    return Err(protocol_error(format!("frame length {len} exceeds cap")));
                }
                self.payload = Some(Vec::with_capacity(len));
                self.payload_len = len;
            }
            let payload = self.payload.as_mut().expect("payload phase");
            let need = self.payload_len - payload.len();
            let take = need.min(bytes.len());
            payload.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if payload.len() == self.payload_len {
                out.push_back(self.payload.take().expect("frame complete"));
                self.header_filled = 0;
                completed += 1;
            }
        }
        Ok(completed)
    }
}

/// How a [`FrameEncoder::write_to`] call ended.
#[derive(Debug)]
pub enum WriteProgress {
    /// Every queued frame was written.
    Flushed,
    /// The transport would block (or spuriously timed out) with frames
    /// still queued; retry when the socket reports writability, or at
    /// once on a blocking socket.
    Blocked,
    /// The transport failed; the connection is dead.
    Closed(io::Error),
}

/// Incremental reply writer: the serving side's writer.
///
/// Replies are appended to one contiguous buffer, each remembered by the
/// offset it ends at, and [`FrameEncoder::write_to`] offers the transport
/// everything not yet written in one `write`: the replies of a pipelined
/// burst leave in one syscall, and a partial write resumes exactly where
/// it stopped. It reports how many *whole frames* finished in the call —
/// the unit the daemon's drain accounting brackets (`active` counts
/// frames whose response is not yet fully on the wire).
#[derive(Debug, Default)]
pub struct FrameEncoder {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` the transport already took.
    written: usize,
    /// Offset in `buf` at which each queued frame ends, oldest first.
    ends: VecDeque<usize>,
}

impl FrameEncoder {
    /// Capacity an idle encoder keeps; a burst's larger buffer is given
    /// back once it is flushed.
    const RETAIN_CAP: usize = 4096;

    /// An empty write queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues the bytes `fill` appends as one frame (a length-prefixed
    /// binary frame or a whole HTTP response) and passes its result on.
    pub fn push_with<R>(&mut self, fill: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let result = fill(&mut self.buf);
        self.ends.push_back(self.buf.len());
        result
    }

    /// Whether no frames (not even a partial one) remain queued.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes queued and not yet written.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.written
    }

    /// Drops everything queued, returning how many frames (complete or
    /// partial) were discarded — the connection-close path's drain
    /// accounting.
    pub fn abandon(&mut self) -> usize {
        self.buf.clear();
        self.written = 0;
        let frames = self.ends.len();
        self.ends.clear();
        frames
    }

    /// Writes queued bytes until none are left or the transport blocks.
    /// Returns `(frames_completed, progress)`.
    pub fn write_to(&mut self, w: &mut impl Write) -> (usize, WriteProgress) {
        let mut completed = 0;
        let progress = loop {
            if self.written == self.buf.len() {
                break WriteProgress::Flushed;
            }
            match w.write(&self.buf[self.written..]) {
                Ok(0) => break WriteProgress::Closed(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.written += n;
                    while self.ends.front().is_some_and(|&end| end <= self.written) {
                        self.ends.pop_front();
                        completed += 1;
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                // A spurious (injected) timeout is retryable exactly like
                // WouldBlock: nothing was consumed, writability will
                // re-report.
                Err(ref e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break WriteProgress::Blocked;
                }
                Err(e) => break WriteProgress::Closed(e),
            }
        };
        if self.written == self.buf.len() {
            self.buf.clear();
            self.buf.shrink_to(Self::RETAIN_CAP);
            self.written = 0;
        } else if self.written >= self.buf.len() - self.written {
            // A peer that reads slowly but steadily never empties the
            // buffer; drop the written prefix once it is at least as
            // long as what is left, so the copy is amortised.
            self.buf.drain(..self.written);
            for end in &mut self.ends {
                *end -= self.written;
            }
            self.written = 0;
        }
        (completed, progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Invoke { function: 0 },
            Request::Invoke { function: u32::MAX },
            Request::InvokeKeyed {
                function: 0,
                key: 0,
            },
            Request::InvokeKeyed {
                function: u32::MAX,
                key: u64::MAX,
            },
            Request::Register {
                name: "img-resize".to_string(),
                mem_mb: 256,
                warm_us: 1_500,
                cold_us: 250_000,
                tenant: String::new(),
            },
            Request::Register {
                name: "img-resize".to_string(),
                mem_mb: 256,
                warm_us: 1_500,
                cold_us: 250_000,
                tenant: "acme-corp".to_string(),
            },
            Request::SetTenantQuota {
                tenant: "acme-corp".to_string(),
                inflight: 16,
                mem_mb: 512,
            },
            Request::SetTenantQuota {
                tenant: "unbounded".to_string(),
                inflight: u64::MAX,
                mem_mb: u64::MAX,
            },
            Request::Stats,
            Request::Shutdown,
            Request::Ping,
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn set_quota_rejects_truncation_and_empty_tenant() {
        let frame = Request::SetTenantQuota {
            tenant: "t".to_string(),
            inflight: 4,
            mem_mb: 128,
        }
        .encode();
        // Dropping the tenant tail leaves an empty name, which is
        // rejected; cutting into the fixed header truncates a u64.
        assert!(Request::decode(&frame[..17]).is_err());
        assert!(Request::decode(&frame[..12]).is_err());
        assert!(Request::decode(&[OP_SET_QUOTA]).is_err());
        // Non-utf8 tenant bytes are rejected.
        let mut bad = frame.clone();
        bad[17] = 0xFF;
        assert!(Request::decode(&bad).is_err());
    }

    #[test]
    fn register_rejects_truncation_and_empty_names() {
        // Header bytes only, no name.
        let frame = Request::Register {
            name: "xy".to_string(),
            mem_mb: 1,
            warm_us: 1,
            cold_us: 1,
            tenant: String::new(),
        }
        .encode();
        // Cutting the last byte truncates the name below its length byte.
        assert!(Request::decode(&frame[..frame.len() - 1]).is_err());
        assert!(Request::decode(&frame[..8]).is_err());
        assert!(Request::decode(&[OP_REGISTER]).is_err());
        // A zero name_len decodes to an empty name, which is rejected.
        let mut empty_name = frame.clone();
        empty_name[21] = 0;
        assert!(Request::decode(&empty_name[..22]).is_err());
    }

    #[test]
    fn responses_round_trip() {
        let stats = InvokerStats {
            outcomes: Outcomes::from([1, 2, 3, 4, 8]),
            evictions: 5,
            prewarms: 6,
            migrations: 7,
        };
        for resp in [
            Response::Invoked(InvokeOutcome::Warm),
            Response::Invoked(InvokeOutcome::Cold),
            Response::Invoked(InvokeOutcome::Dropped),
            Response::Invoked(InvokeOutcome::Rejected),
            Response::Invoked(InvokeOutcome::Throttled),
            Response::Stats(stats),
            Response::ShutdownStarted,
            Response::Pong,
            Response::Registered {
                function: 17,
                created: true,
            },
            Response::Registered {
                function: 0,
                created: false,
            },
            Response::QuotaSet { live: true },
            Response::QuotaSet { live: false },
            Response::Error("bad function".into()),
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    /// The outcome byte of an `Invoked` reply is pinned to the codes in
    /// the module doc; a round trip alone would pass with encode and
    /// decode renumbered together.
    #[test]
    fn invoked_codes_are_pinned() {
        for (outcome, code) in [
            (InvokeOutcome::Warm, 0),
            (InvokeOutcome::Cold, 1),
            (InvokeOutcome::Dropped, 2),
            (InvokeOutcome::Rejected, 3),
            (InvokeOutcome::Throttled, 4),
        ] {
            assert_eq!(Response::Invoked(outcome).encode(), [0x81, code]);
        }
    }

    /// A `Stats` payload is pinned byte for byte to the layout in the
    /// module doc: eight little-endian `u64`s after the opcode.
    #[test]
    fn stats_layout_is_pinned() {
        let stats = InvokerStats {
            outcomes: Outcomes::from([1, 2, 3, 4, 5]),
            evictions: 0x0106,
            prewarms: 7,
            migrations: 8,
        };
        #[rustfmt::skip]
        let layout: [u8; 65] = [
            0x82,
            1, 0, 0, 0, 0, 0, 0, 0, // warm
            2, 0, 0, 0, 0, 0, 0, 0, // cold
            3, 0, 0, 0, 0, 0, 0, 0, // dropped
            4, 0, 0, 0, 0, 0, 0, 0, // rejected
            5, 0, 0, 0, 0, 0, 0, 0, // throttled
            6, 1, 0, 0, 0, 0, 0, 0, // evictions
            7, 0, 0, 0, 0, 0, 0, 0, // prewarms
            8, 0, 0, 0, 0, 0, 0, 0, // migrations
        ];
        assert_eq!(Response::Stats(stats).encode(), layout);
        assert_eq!(Response::decode(&layout).unwrap(), Response::Stats(stats));
    }

    #[test]
    fn quota_set_response_rejects_bad_flags() {
        assert!(Response::decode(&[OP_R_QUOTA_SET]).is_err());
        assert!(Response::decode(&[OP_R_QUOTA_SET, 2]).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Invoke { function: 7 }.encode()).unwrap();
        write_frame(&mut wire, &Request::Stats.encode()).unwrap();
        let mut cursor = Cursor::new(wire);
        let first = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(
            Request::decode(&first).unwrap(),
            Request::Invoke { function: 7 }
        );
        let second = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(Request::decode(&second).unwrap(), Request::Stats);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean eof");
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn eof_inside_payload_is_an_error() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(&[1, 2, 3]); // 3 of 8 promised bytes
        let err = read_frame(&mut Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_opcodes_are_errors() {
        assert!(Request::decode(&[0x60]).is_err());
        assert!(Response::decode(&[0x60]).is_err());
        assert!(Request::decode(&[]).is_err());
    }

    #[test]
    fn truncated_invoke_is_an_error() {
        assert!(Request::decode(&[OP_INVOKE, 1, 2]).is_err());
        assert!(Request::decode(&[OP_INVOKE_KEYED, 1, 2, 3, 4, 5]).is_err());
    }

    #[test]
    fn incremental_decoder_byte_at_a_time_matches_blocking_reader() {
        let payloads: Vec<Vec<u8>> = vec![
            Request::Invoke { function: 7 }.encode(),
            Vec::new(), // zero-length payload frame
            Request::Stats.encode(),
            vec![0xAB; 300],
        ];
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }

        let mut blocking = Vec::new();
        let mut cursor = Cursor::new(wire.clone());
        while let Some(frame) = read_frame(&mut cursor).unwrap() {
            blocking.push(frame);
        }

        let mut decoder = FrameDecoder::new();
        let mut out = VecDeque::new();
        for byte in &wire {
            decoder.feed(std::slice::from_ref(byte), &mut out).unwrap();
        }
        assert!(!decoder.is_mid_frame(), "stream ended at a frame boundary");
        assert_eq!(Vec::from(out), blocking);
    }

    #[test]
    fn incremental_decoder_mid_frame_state_is_visible() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[1, 2, 3, 4]).unwrap();
        let mut decoder = FrameDecoder::new();
        let mut out = VecDeque::new();
        decoder.feed(&wire[..2], &mut out).unwrap();
        assert!(decoder.is_mid_frame(), "partial header is mid-frame");
        decoder.feed(&wire[2..6], &mut out).unwrap();
        assert!(decoder.is_mid_frame(), "partial payload is mid-frame");
        decoder.feed(&wire[6..], &mut out).unwrap();
        assert!(!decoder.is_mid_frame());
        assert_eq!(out.pop_front().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn incremental_decoder_rejects_oversized_prefix() {
        let mut decoder = FrameDecoder::new();
        let mut out = VecDeque::new();
        let err = decoder
            .feed(&u32::MAX.to_le_bytes(), &mut out)
            .expect_err("oversized prefix");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Queues `payload` as one length-prefixed frame.
    fn push(enc: &mut FrameEncoder, payload: &[u8]) {
        enc.push_with(|buf| write_frame(buf, payload)).unwrap();
    }

    /// A writer that accepts at most `cap` bytes per call, then blocks.
    struct Throttled {
        out: Vec<u8>,
        cap: usize,
        budget: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.cap).min(self.budget);
            self.out.extend_from_slice(&buf[..n]);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn encoder_resumes_partial_writes_and_counts_whole_frames() {
        let mut enc = FrameEncoder::new();
        push(&mut enc, &[1, 2, 3]);
        push(&mut enc, &[4, 5]);
        let mut expected = Vec::new();
        write_frame(&mut expected, &[1, 2, 3]).unwrap();
        write_frame(&mut expected, &[4, 5]).unwrap();
        assert_eq!(enc.pending_bytes(), expected.len());

        let mut w = Throttled {
            out: Vec::new(),
            cap: 3,
            budget: 5,
        };
        let (done, progress) = enc.write_to(&mut w);
        assert_eq!(done, 0, "first frame is 7 wire bytes, only 5 accepted");
        assert!(matches!(progress, WriteProgress::Blocked));
        assert!(!enc.is_empty());
        assert_eq!(enc.pending_bytes(), expected.len() - 5);

        // A frame queued behind a partly written one keeps its place.
        push(&mut enc, &[6]);
        write_frame(&mut expected, &[6]).unwrap();

        w.budget = usize::MAX;
        let (done, progress) = enc.write_to(&mut w);
        assert_eq!(done, 3);
        assert!(matches!(progress, WriteProgress::Flushed));
        assert!(enc.is_empty());
        assert_eq!(enc.pending_bytes(), 0);
        assert_eq!(w.out, expected, "partial writes resume without gaps");
    }

    #[test]
    fn encoder_offers_a_burst_in_one_write_and_forgets_written_bytes() {
        /// Takes `quota` bytes per call and counts the calls.
        struct Counting {
            out: Vec<u8>,
            quota: usize,
            calls: usize,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.calls += 1;
                if self.calls.is_multiple_of(2) {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                let n = buf.len().min(self.quota);
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut enc = FrameEncoder::new();
        let mut expected = Vec::new();
        for i in 0..64u8 {
            push(&mut enc, &[i; 9]);
            write_frame(&mut expected, &[i; 9]).unwrap();
        }
        let mut w = Counting {
            out: Vec::new(),
            quota: usize::MAX,
            calls: 0,
        };
        let (done, progress) = enc.write_to(&mut w);
        assert_eq!((done, w.calls), (64, 1), "64 replies, one write");
        assert!(matches!(progress, WriteProgress::Flushed));
        assert_eq!(w.out, expected);

        // A peer that takes one reply's worth per wake-up while another
        // is queued never sees the buffer empty; it must not grow.
        let mut w = Counting {
            out: Vec::new(),
            quota: 13,
            calls: 0,
        };
        let mut expected = Vec::new();
        push(&mut enc, &[0xEE; 9]);
        write_frame(&mut expected, &[0xEE; 9]).unwrap();
        for i in 0..10_000u32 {
            let payload = [i.to_le_bytes().as_slice(), &[7; 5]].concat();
            push(&mut enc, &payload);
            write_frame(&mut expected, &payload).unwrap();
            let (done, progress) = enc.write_to(&mut w);
            assert_eq!(done, 1);
            assert!(matches!(progress, WriteProgress::Blocked));
            assert_eq!(enc.pending_bytes(), 13);
            assert!(enc.buf.len() <= 3 * 13, "buffer holds {}", enc.buf.len());
        }
        w.quota = usize::MAX;
        while !enc.is_empty() {
            enc.write_to(&mut w);
        }
        assert_eq!(w.out, expected, "compaction loses and repeats nothing");
    }

    #[test]
    fn encoder_abandon_reports_unwritten_frames() {
        let mut enc = FrameEncoder::new();
        push(&mut enc, &[1]);
        push(&mut enc, &[2]);
        assert_eq!(enc.abandon(), 2);
        assert!(enc.is_empty());
        assert_eq!(enc.pending_bytes(), 0);
    }
}
