//! Seeded, deterministic fault injection for the serving path.
//!
//! [`FaultyStream`] wraps any `Read + Write` transport and injects the
//! failure modes a production cache meets on real networks — torn writes,
//! short reads, spurious timeouts, byte corruption, mid-frame connection
//! resets, and stalls — according to a [`FaultPlan`] derived from the
//! workspace's deterministic [`Pcg64`] generator. Every decision is a
//! draw from a per-stream RNG split, so a `(seed, stream_id)` pair
//! replays the identical fault schedule on every run and on every
//! machine: a failing chaos seed is a bug report, not a flake.
//!
//! The wrapper is transport-agnostic and direction-symmetric. The daemon
//! wraps accepted connections (`faascached --faults SPEC`); the client
//! wraps its outbound connection
//! ([`crate::client::Client::connect_with_faults`]). Both sides of a
//! connection can be faulty at once.
//!
//! Fault semantics, chosen to compose with the frame layer in
//! [`crate::proto`]:
//!
//! - **Reset**: the operation fails with `ConnectionReset` and the stream
//!   is *permanently broken* — every later operation fails the same way,
//!   exactly like a real RST'd socket. Because resets strike between the
//!   partial chunks of a torn write, they are what actually tears frames
//!   on the wire (`write_all` retries short writes, so a tear without a
//!   reset is invisible to the peer).
//! - **Torn write**: only a prefix of the buffer is written and the short
//!   count is returned.
//! - **Short read**: at most one byte is read.
//! - **Timeout**: the operation fails with `TimedOut` without touching
//!   the transport — indistinguishable from a socket read timeout, which
//!   is precisely what [`crate::proto::poll_frame`]'s stall handling must
//!   survive.
//! - **Corrupt**: the operation proceeds but one bit of the transferred
//!   bytes is flipped.
//! - **Stall**: the thread sleeps `stall_ms` before the operation
//!   proceeds, simulating a peer that goes quiet mid-frame.

use faascache_util::rng::Pcg64;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Probabilities (per stream operation) and parameters of the injected
/// fault mix. All probabilities are clamped to `[0, 1]` at draw time; a
/// config with every probability zero injects nothing and costs one
/// branch per operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault schedule. Per-stream plans are derived by
    /// splitting, so one seed drives a whole daemon's worth of
    /// connections deterministically.
    pub seed: u64,
    /// Probability an operation resets the connection (and breaks the
    /// stream permanently).
    pub reset: f64,
    /// Probability a write is torn (short count returned).
    pub torn_write: f64,
    /// Probability a read returns at most one byte.
    pub short_read: f64,
    /// Probability an operation fails with a spurious `TimedOut`.
    pub timeout: f64,
    /// Probability one bit of an operation's bytes is flipped.
    pub corrupt: f64,
    /// Probability the operation stalls for [`FaultConfig::stall_ms`]
    /// before proceeding.
    pub stall: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
}

impl FaultConfig {
    /// A config that injects nothing (all probabilities zero).
    pub fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            reset: 0.0,
            torn_write: 0.0,
            short_read: 0.0,
            timeout: 0.0,
            corrupt: 0.0,
            stall: 0.0,
            stall_ms: 10,
        }
    }

    /// A balanced chaos mix for conformance testing: every fault class
    /// enabled at low-but-noticeable rates, seeded by `seed`.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            reset: 0.01,
            torn_write: 0.05,
            short_read: 0.05,
            timeout: 0.02,
            corrupt: 0.005,
            stall: 0.01,
            stall_ms: 5,
        }
    }

    /// Whether any fault class has a nonzero probability.
    pub fn is_active(&self) -> bool {
        self.reset > 0.0
            || self.torn_write > 0.0
            || self.short_read > 0.0
            || self.timeout > 0.0
            || self.corrupt > 0.0
            || self.stall > 0.0
    }

    /// Sets one knob by name (one `key=value` of a `--faults` spec).
    /// Recognized keys: `seed`, `reset`, `torn`, `short-read`, `timeout`,
    /// `corrupt`, `stall`, `stall-ms`.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn prob(key: &str, value: &str) -> Result<f64, String> {
            let p: f64 = value
                .parse()
                .map_err(|_| format!("fault knob {key}: bad probability {value:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault knob {key}: probability {p} outside [0, 1]"));
            }
            Ok(p)
        }
        match key {
            "seed" => {
                self.seed = value
                    .parse()
                    .map_err(|_| format!("fault knob seed: bad u64 {value:?}"))?
            }
            "reset" => self.reset = prob(key, value)?,
            "torn" => self.torn_write = prob(key, value)?,
            "short-read" => self.short_read = prob(key, value)?,
            "timeout" => self.timeout = prob(key, value)?,
            "corrupt" => self.corrupt = prob(key, value)?,
            "stall" => self.stall = prob(key, value)?,
            "stall-ms" => {
                self.stall_ms = value
                    .parse()
                    .map_err(|_| format!("fault knob stall-ms: bad u64 {value:?}"))?
            }
            other => return Err(format!("unknown fault knob {other:?}")),
        }
        Ok(())
    }

    /// Parses a compact spec like `"seed=42,reset=0.05,corrupt=0.01"`.
    /// Empty spec yields a disabled config.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let mut cfg = FaultConfig::disabled();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry {part:?} is not key=value"))?;
            cfg.set(key.trim(), value.trim())?;
        }
        Ok(cfg)
    }

    /// Derives the deterministic per-stream plan for `stream_id`.
    pub fn plan(&self, stream_id: u64) -> FaultPlan {
        FaultPlan::derive(*self, stream_id)
    }
}

/// The deterministic fault schedule of one stream: a [`FaultConfig`]
/// plus the per-stream RNG split that drives its draws.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: Pcg64,
    active: bool,
}

impl FaultPlan {
    /// Plan for stream `stream_id` under `cfg`. Two streams with
    /// different ids draw from independent RNG splits of the same seed.
    pub fn derive(cfg: FaultConfig, stream_id: u64) -> Self {
        let mut parent = Pcg64::seed_from_u64(cfg.seed);
        FaultPlan {
            rng: parent.split(stream_id),
            active: cfg.is_active(),
            cfg,
        }
    }

    /// A plan that injects nothing.
    pub fn disabled() -> Self {
        Self::derive(FaultConfig::disabled(), 0)
    }
}

/// Counts of injected faults, by class — exposed so tests can assert a
/// schedule actually exercised the classes it configured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Connection resets injected.
    pub resets: u64,
    /// Writes torn short.
    pub torn_writes: u64,
    /// Reads truncated to one byte.
    pub short_reads: u64,
    /// Spurious timeouts injected.
    pub timeouts: u64,
    /// Bytes corrupted (bit flips).
    pub corruptions: u64,
    /// Stalls injected.
    pub stalls: u64,
}

impl FaultStats {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.resets
            + self.torn_writes
            + self.short_reads
            + self.timeouts
            + self.corruptions
            + self.stalls
    }
}

/// What the per-operation draw decided. Truncation (short reads, torn
/// writes) is drawn separately per direction, after this decision.
enum Decision {
    Clean,
    Reset,
    Timeout,
    Corrupt,
}

/// A `Read + Write` transport with deterministic injected faults.
///
/// See the [module docs](self) for fault semantics. The wrapper is
/// zero-allocation on the clean path and draws at most one RNG decision
/// per operation class.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    plan: FaultPlan,
    broken: bool,
    stats: FaultStats,
}

impl<S> FaultyStream<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultyStream {
            inner,
            plan,
            broken: false,
            stats: FaultStats::default(),
        }
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether an injected reset has permanently broken the stream.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// The wrapped transport.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Consumes the wrapper, returning the transport.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// One decision for this operation. A stall is applied inline (it
    /// delays, then the operation proceeds); the other classes are
    /// mutually exclusive, checked in severity order.
    fn decide(&mut self) -> Decision {
        if !self.plan.active {
            return Decision::Clean;
        }
        if self.plan.cfg.stall > 0.0 && self.plan.rng.chance(self.plan.cfg.stall) {
            self.stats.stalls += 1;
            std::thread::sleep(Duration::from_millis(self.plan.cfg.stall_ms));
        }
        if self.plan.cfg.reset > 0.0 && self.plan.rng.chance(self.plan.cfg.reset) {
            return Decision::Reset;
        }
        if self.plan.cfg.timeout > 0.0 && self.plan.rng.chance(self.plan.cfg.timeout) {
            return Decision::Timeout;
        }
        if self.plan.cfg.corrupt > 0.0 && self.plan.rng.chance(self.plan.cfg.corrupt) {
            return Decision::Corrupt;
        }
        Decision::Clean
    }

    fn reset_error(&mut self) -> io::Error {
        if !self.broken {
            self.stats.resets += 1;
            self.broken = true;
        }
        io::Error::new(io::ErrorKind::ConnectionReset, "injected connection reset")
    }

    fn timeout_error(&mut self) -> io::Error {
        self.stats.timeouts += 1;
        io::Error::new(io::ErrorKind::TimedOut, "injected timeout")
    }

    /// Flips one deterministic bit of `bytes` (no-op on empty slices).
    fn corrupt(&mut self, bytes: &mut [u8]) {
        if bytes.is_empty() {
            return;
        }
        let at = self.plan.rng.next_below(bytes.len() as u64) as usize;
        let bit = self.plan.rng.next_below(8) as u8;
        bytes[at] ^= 1 << bit;
        self.stats.corruptions += 1;
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.broken {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "stream broken by injected reset",
            ));
        }
        let mut corrupt_after = false;
        match self.decide() {
            Decision::Clean => {}
            Decision::Reset => return Err(self.reset_error()),
            Decision::Timeout => return Err(self.timeout_error()),
            Decision::Corrupt => corrupt_after = true,
        }
        let cap = if !buf.is_empty()
            && self.plan.active
            && self.plan.cfg.short_read > 0.0
            && self.plan.rng.chance(self.plan.cfg.short_read)
        {
            self.stats.short_reads += 1;
            1
        } else {
            buf.len()
        };
        let n = self.inner.read(&mut buf[..cap])?;
        if corrupt_after && n > 0 {
            self.corrupt(&mut buf[..n]);
        }
        Ok(n)
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.broken {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "stream broken by injected reset",
            ));
        }
        let mut corrupt_this = false;
        match self.decide() {
            Decision::Clean => {}
            Decision::Reset => return Err(self.reset_error()),
            Decision::Timeout => return Err(self.timeout_error()),
            Decision::Corrupt => corrupt_this = true,
        }
        let len = if buf.len() > 1
            && self.plan.active
            && self.plan.cfg.torn_write > 0.0
            && self.plan.rng.chance(self.plan.cfg.torn_write)
        {
            self.stats.torn_writes += 1;
            // A nonempty strict prefix, so `write_all` observes a short
            // count and the next operation (possibly a reset) lands
            // mid-frame.
            1 + self.plan.rng.next_below(buf.len() as u64 - 1) as usize
        } else {
            buf.len()
        };
        if corrupt_this && len > 0 {
            let mut copy = buf[..len].to_vec();
            self.corrupt(&mut copy);
            self.inner.write(&copy)
        } else {
            self.inner.write(&buf[..len])
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "stream broken by injected reset",
            ));
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// An in-memory duplex-ish transport: reads from `input`, writes to
    /// `output`.
    struct Pipe {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Pipe {
        fn with_input(bytes: Vec<u8>) -> Self {
            Pipe {
                input: Cursor::new(bytes),
                output: Vec::new(),
            }
        }
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disabled_plan_is_transparent() {
        let data: Vec<u8> = (0..=255).collect();
        let mut s = FaultyStream::new(Pipe::with_input(data.clone()), FaultPlan::disabled());
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
        s.write_all(&data).unwrap();
        assert_eq!(s.get_ref().output, data);
        assert_eq!(s.stats().total(), 0);
    }

    #[test]
    fn same_seed_same_stream_id_replays_identically() {
        let cfg = FaultConfig::chaos(42);
        let observe = || {
            let mut s = FaultyStream::new(Pipe::with_input(vec![7u8; 4096]), cfg.plan(3));
            let mut reads = Vec::new();
            let mut buf = [0u8; 64];
            for _ in 0..200 {
                match s.read(&mut buf) {
                    Ok(n) => reads.push(Ok((n, buf[..n].to_vec()))),
                    Err(e) => reads.push(Err(e.kind())),
                }
            }
            (reads, s.stats())
        };
        let (a, sa) = observe();
        let (b, sb) = observe();
        assert_eq!(a, b, "fault schedule must replay byte-for-byte");
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_stream_ids_diverge() {
        let cfg = FaultConfig::chaos(42);
        let run = |id: u64| {
            let mut s = FaultyStream::new(Pipe::with_input(vec![7u8; 4096]), cfg.plan(id));
            let mut buf = [0u8; 64];
            for _ in 0..300 {
                let _ = s.read(&mut buf);
            }
            s.stats()
        };
        assert_ne!(run(0), run(1), "per-stream plans must be independent");
    }

    #[test]
    fn reset_breaks_the_stream_permanently() {
        let cfg = FaultConfig {
            reset: 1.0,
            ..FaultConfig::disabled()
        };
        let mut s = FaultyStream::new(Pipe::with_input(vec![1, 2, 3]), cfg.plan(0));
        let mut buf = [0u8; 8];
        for _ in 0..3 {
            let err = s.read(&mut buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        }
        assert!(s.is_broken());
        assert_eq!(s.stats().resets, 1, "only the first reset counts");
        assert_eq!(
            s.write(&[1]).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
    }

    #[test]
    fn short_reads_cap_at_one_byte() {
        let cfg = FaultConfig {
            short_read: 1.0,
            ..FaultConfig::disabled()
        };
        let mut s = FaultyStream::new(Pipe::with_input(vec![9u8; 100]), cfg.plan(0));
        let mut buf = [0u8; 50];
        assert_eq!(s.read(&mut buf).unwrap(), 1);
        assert_eq!(s.stats().short_reads, 1);
    }

    #[test]
    fn torn_writes_return_short_counts() {
        let cfg = FaultConfig {
            torn_write: 1.0,
            ..FaultConfig::disabled()
        };
        let mut s = FaultyStream::new(Pipe::with_input(Vec::new()), cfg.plan(0));
        let n = s.write(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert!(
            (1..8).contains(&n),
            "torn write must be a nonempty strict prefix, got {n}"
        );
        assert_eq!(s.get_ref().output.len(), n);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let cfg = FaultConfig {
            corrupt: 1.0,
            ..FaultConfig::disabled()
        };
        let data = vec![0u8; 32];
        let mut s = FaultyStream::new(Pipe::with_input(data), cfg.plan(0));
        let mut buf = [0u8; 32];
        let n = s.read(&mut buf).unwrap();
        let flipped: u32 = buf[..n].iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped per corrupted read");
    }

    #[test]
    fn timeouts_do_not_consume_bytes() {
        let cfg = FaultConfig {
            timeout: 1.0,
            ..FaultConfig::disabled()
        };
        let mut s = FaultyStream::new(Pipe::with_input(vec![1, 2, 3]), cfg.plan(0));
        let mut buf = [0u8; 8];
        let err = s.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(s.get_ref().input.position(), 0, "no bytes consumed");
    }

    #[test]
    fn spec_round_trip_and_validation() {
        let cfg = FaultConfig::parse_spec("seed=9,reset=0.05,torn=0.1,short-read=0.2,timeout=0.01,corrupt=0.001,stall=0.02,stall-ms=7").unwrap();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.reset, 0.05);
        assert_eq!(cfg.torn_write, 0.1);
        assert_eq!(cfg.short_read, 0.2);
        assert_eq!(cfg.timeout, 0.01);
        assert_eq!(cfg.corrupt, 0.001);
        assert_eq!(cfg.stall, 0.02);
        assert_eq!(cfg.stall_ms, 7);
        assert!(cfg.is_active());

        assert!(!FaultConfig::parse_spec("").unwrap().is_active());
        assert!(FaultConfig::parse_spec("reset=1.5").is_err());
        assert!(FaultConfig::parse_spec("bogus=1").is_err());
        assert!(FaultConfig::parse_spec("reset").is_err());
    }
}
