//! Durable control-plane state: a CRC-framed, append-only journal.
//!
//! Everything the daemon serves from — warm containers, counters — is
//! legitimately volatile, but the *control plane* (which functions exist,
//! which tenant owns them, what budgets tenants have) must survive a
//! crash: a SIGKILLed `faascached` restarted from the same `--state-dir`
//! has to rejoin a cluster with the registry it acknowledged, or every
//! runtime `Register` since boot is silently forgotten.
//!
//! Design (no external deps — `std::fs` + a hand-rolled CRC-32):
//!
//! - **Record framing** — each record is `len:u32le | crc:u32le |
//!   payload`, where `crc` is the IEEE CRC-32 of the payload. A record is
//!   valid iff `1 <= len <= MAX_RECORD_LEN`, the payload is fully
//!   present, the CRC matches, and the payload decodes. Replay stops at
//!   the first invalid record: recovery is always the **longest valid
//!   prefix**, and the torn tail is physically truncated so the next
//!   append never interleaves with garbage.
//! - **Files** — `<state-dir>/journal.log` (append-only tail) and
//!   `<state-dir>/snapshot.log` (compacted full state, same framing).
//!   Recovery replays the snapshot, then the journal.
//! - **fsync policy** — every append is `write_all` + `sync_data` before
//!   the daemon acknowledges the mutation on the wire: an acked
//!   `Register`/quota update is durable. Control-plane mutations are
//!   rare, so the fsync sits nowhere near the invoke hot path. Creating
//!   `journal.log`, the state dir, or any missing ancestor of it syncs
//!   the directory that holds the new entry. An unreadable snapshot or
//!   journal fails the open.
//! - **Compaction** — when the journal tail grows past
//!   [`COMPACT_BYTES`]/[`COMPACT_RECORDS`], the caller serializes its
//!   full state into `snapshot.tmp`, fsyncs, renames over
//!   `snapshot.log`, syncs the directory so the rename is durable, then
//!   truncates the journal. A crash between the
//!   rename and the truncate leaves snapshot *and* journal describing the
//!   same mutations — harmless, because replay is idempotent (duplicate
//!   registers are skipped, duplicate quota sets are last-wins with equal
//!   values).
//! - **Idempotent replay** — records are applied through the same apply
//!   step runtime mutations take (`Daemon::replay`): a replayed
//!   `Register` whose name already exists (e.g. from the boot workload
//!   contract) is a no-op, so a state dir composes with
//!   `--functions/--seed` and with later runtime traffic.
//!
//! [`JournalRecord`] is also the one in-memory form of a mutation: the
//! wire's `Register` and `SetTenantQuota` decode into it, the daemon
//! journals and applies it, the router broadcasts and logs it, and
//! [`JournalRecord::validate`] holds every rule it must pass.

use crate::proto::Request;
use faascache_core::function::FunctionRegistry;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Upper bound on one record's payload. Registers and quota sets are a
/// few hundred bytes at most; anything larger is corruption, and the
/// bound keeps a flipped length byte from asking for a huge allocation.
pub const MAX_RECORD_LEN: u32 = 1024;

/// Journal size past which [`Journal::should_compact`] asks for a
/// snapshot.
pub const COMPACT_BYTES: u64 = 256 * 1024;

/// Appended-record count past which [`Journal::should_compact`] asks for
/// a snapshot.
pub const COMPACT_RECORDS: usize = 4096;

const JOURNAL_FILE: &str = "journal.log";
const SNAPSHOT_FILE: &str = "snapshot.log";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

const TAG_REGISTER: u8 = 0x01;
const TAG_SET_QUOTA: u8 = 0x02;

/// Longest function name: the wire and the journal carry its length in
/// one byte.
const MAX_NAME_LEN: usize = u8::MAX as usize;

/// Longest tenant name.
const MAX_TENANT_LEN: usize = 32;

/// One control-plane mutation, from the wire to the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A function registration (the durable twin of wire opcode 0x06).
    Register {
        /// Function name.
        name: String,
        /// Container memory footprint in MB.
        mem_mb: u32,
        /// Warm execution time in microseconds.
        warm_us: u64,
        /// Cold execution time in microseconds.
        cold_us: u64,
        /// Owning tenant (empty = default).
        tenant: String,
    },
    /// A tenant quota update (the durable twin of wire opcode 0x07).
    SetQuota {
        /// Tenant name.
        tenant: String,
        /// In-flight budget (`u64::MAX` = unlimited).
        inflight: u64,
        /// Memory budget in MB (`u64::MAX` = unlimited).
        mem_mb: u64,
    },
}

impl JournalRecord {
    /// Checks every rule a mutation must pass on top of the registry's
    /// own (`FunctionRegistry::register_in`), wherever it enters a
    /// process: decode, routing, and the client before it sends. A
    /// function name is 1 to 255 bytes of `[A-Za-z0-9._-]`; a tenant is
    /// empty (the default tenant, `Register` only) or 1 to 32 bytes of
    /// the same. The charset keeps names safe verbatim in metrics
    /// labels, URL paths and summary lines.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            JournalRecord::Register { name, tenant, .. } => {
                check_function_name(name)?;
                if tenant.is_empty() {
                    return Ok(());
                }
                check_name("tenant name", tenant, MAX_TENANT_LEN)
            }
            JournalRecord::SetQuota { tenant, .. } => {
                check_name("tenant name", tenant, MAX_TENANT_LEN)
            }
        }
    }

    /// The wire request that carries this mutation.
    pub(crate) fn to_request(&self) -> Request {
        match self.clone() {
            JournalRecord::Register {
                name,
                mem_mb,
                warm_us,
                cold_us,
                tenant,
            } => Request::Register {
                name,
                mem_mb,
                warm_us,
                cold_us,
                tenant,
            },
            JournalRecord::SetQuota {
                tenant,
                inflight,
                mem_mb,
            } => Request::SetTenantQuota {
                tenant,
                inflight,
                mem_mb,
            },
        }
    }

    /// Serializes the record payload (without framing).
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            JournalRecord::Register {
                name,
                mem_mb,
                warm_us,
                cold_us,
                tenant,
            } => {
                out.push(TAG_REGISTER);
                push_str(&mut out, name);
                push_str(&mut out, tenant);
                out.extend_from_slice(&mem_mb.to_le_bytes());
                out.extend_from_slice(&warm_us.to_le_bytes());
                out.extend_from_slice(&cold_us.to_le_bytes());
            }
            JournalRecord::SetQuota {
                tenant,
                inflight,
                mem_mb,
            } => {
                out.push(TAG_SET_QUOTA);
                push_str(&mut out, tenant);
                out.extend_from_slice(&inflight.to_le_bytes());
                out.extend_from_slice(&mem_mb.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a record payload. `None` means the payload is malformed —
    /// the caller treats the containing record as the start of the torn
    /// tail.
    fn decode_payload(payload: &[u8]) -> Option<JournalRecord> {
        let (&tag, rest) = payload.split_first()?;
        match tag {
            TAG_REGISTER => {
                let (name, rest) = take_str(rest)?;
                let (tenant, rest) = take_str(rest)?;
                let (mem_mb, rest) = take_u32(rest)?;
                let (warm_us, rest) = take_u64(rest)?;
                let (cold_us, rest) = take_u64(rest)?;
                if !rest.is_empty() {
                    return None;
                }
                Some(JournalRecord::Register {
                    name,
                    mem_mb,
                    warm_us,
                    cold_us,
                    tenant,
                })
            }
            TAG_SET_QUOTA => {
                let (tenant, rest) = take_str(rest)?;
                let (inflight, rest) = take_u64(rest)?;
                let (mem_mb, rest) = take_u64(rest)?;
                if !rest.is_empty() {
                    return None;
                }
                Some(JournalRecord::SetQuota {
                    tenant,
                    inflight,
                    mem_mb,
                })
            }
            _ => None,
        }
    }

    /// Serializes the record with framing (`len | crc | payload`).
    pub fn encode_framed(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(8 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

/// The function-name rule of [`JournalRecord::validate`]. The client
/// holds a name it invokes by to it as well, since the name becomes
/// part of a URL path.
pub(crate) fn check_function_name(name: &str) -> Result<(), String> {
    check_name("function name", name, MAX_NAME_LEN)
}

/// `name` is 1 to `max` bytes of `[A-Za-z0-9._-]`.
fn check_name(what: &str, name: &str, max: usize) -> Result<(), String> {
    if name.is_empty() {
        return Err(format!("{what} must be non-empty"));
    }
    if name.len() > max {
        return Err(format!("{what} too long ({} > {max})", name.len()));
    }
    if name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
    {
        Ok(())
    } else {
        Err(format!("{what} has characters outside [A-Za-z0-9._-]"))
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u8::MAX as usize, "journaled names fit in u8");
    out.push(s.len().min(u8::MAX as usize) as u8);
    out.extend_from_slice(&s.as_bytes()[..s.len().min(u8::MAX as usize)]);
}

fn take_str(buf: &[u8]) -> Option<(String, &[u8])> {
    let (&len, rest) = buf.split_first()?;
    let len = len as usize;
    if rest.len() < len {
        return None;
    }
    let s = std::str::from_utf8(&rest[..len]).ok()?.to_string();
    Some((s, &rest[len..]))
}

fn take_u32(buf: &[u8]) -> Option<(u32, &[u8])> {
    let bytes: [u8; 4] = buf.get(..4)?.try_into().ok()?;
    Some((u32::from_le_bytes(bytes), &buf[4..]))
}

fn take_u64(buf: &[u8]) -> Option<(u64, &[u8])> {
    let bytes: [u8; 8] = buf.get(..8)?.try_into().ok()?;
    Some((u64::from_le_bytes(bytes), &buf[8..]))
}

/// IEEE CRC-32 (the polynomial every `crc32` tool uses), table-driven,
/// computed without any external crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// What [`Journal::open`] recovered from the state dir.
#[derive(Debug, Clone, Default)]
pub struct RecoveredState {
    /// Every recovered mutation: snapshot records first, then the
    /// journal tail, in append order.
    pub records: Vec<JournalRecord>,
    /// How many of [`RecoveredState::records`] came from the snapshot.
    pub snapshot_records: usize,
    /// Torn-tail bytes truncated from the journal during recovery.
    pub truncated_bytes: u64,
}

/// Scans a framed record stream, returning the records of the longest
/// valid prefix and the byte length of that prefix. Never panics on
/// arbitrary input.
pub fn scan_records(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &bytes[offset..];
        let Some((len, rest_after_len)) = take_u32(rest) else {
            break;
        };
        if len == 0 || len > MAX_RECORD_LEN {
            break;
        }
        let Some((crc, payload_and_rest)) = take_u32(rest_after_len) else {
            break;
        };
        let len = len as usize;
        if payload_and_rest.len() < len {
            break;
        }
        let payload = &payload_and_rest[..len];
        if crc32(payload) != crc {
            break;
        }
        let Some(record) = JournalRecord::decode_payload(payload) else {
            break;
        };
        records.push(record);
        offset += 8 + len;
    }
    (records, offset)
}

/// A computable fingerprint of a function registry: FNV-1a over every
/// spec's identity-relevant fields in id order. Two daemons whose
/// registries converged report the same digest. The recovery tests
/// compare pre-crash and post-restart digests, and the benchmark
/// harness and operators compare a cluster's backends.
pub fn registry_digest(registry: &FunctionRegistry) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for spec in registry.iter() {
        feed(spec.name().as_bytes());
        feed(&[0xFF]);
        feed(&spec.mem().as_mb().to_le_bytes());
        feed(&spec.warm_time().as_micros().to_le_bytes());
        feed(&spec.cold_time().as_micros().to_le_bytes());
        feed(spec.tenant_name().as_bytes());
        feed(&[0xFE]);
    }
    hash
}

/// The append-only journal over a state directory. See the module docs
/// for the format and crash-consistency argument.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    file: File,
    journal_bytes: u64,
    journal_records: usize,
}

impl Journal {
    /// Opens (creating if needed) the state directory, recovers the
    /// longest valid snapshot+journal prefix, truncates any torn journal
    /// tail, and returns the journal positioned for appending.
    ///
    /// Never panics on corrupt bytes: arbitrary truncation or bit flips
    /// degrade to a shorter recovered prefix.
    ///
    /// An unreadable snapshot or journal (anything but a missing file)
    /// fails the open: booting from a partial registry would let the next
    /// compaction write that partial state over the snapshot.
    pub fn open(dir: &Path) -> io::Result<(Journal, RecoveredState)> {
        let made_dirs = create_dirs(dir)?;
        // A leftover snapshot.tmp is a compaction that never committed;
        // the durable snapshot.log + journal.log pair is authoritative.
        let _ = fs::remove_file(dir.join(SNAPSHOT_TMP));

        let bytes = read_or_empty(&dir.join(SNAPSHOT_FILE))?;
        let (records, valid) = scan_records(&bytes);
        let mut recovered = RecoveredState {
            snapshot_records: records.len(),
            records,
            truncated_bytes: (bytes.len() - valid) as u64,
        };

        let journal_path = dir.join(JOURNAL_FILE);
        let made_file = !journal_path.exists();
        let bytes = read_or_empty(&journal_path)?;
        let (records, valid) = scan_records(&bytes);
        recovered.truncated_bytes += (bytes.len() - valid) as u64;
        let journal_records = records.len();
        recovered.records.extend(records);

        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&journal_path)?;
        // Physically drop the torn tail so appends resume from the last
        // valid record.
        file.set_len(valid as u64)?;
        file.sync_data()?;
        // A new file (or directory) survives a power loss only once the
        // directory holding its entry is synced.
        if made_file {
            sync_dir(dir)?;
        }
        for made in &made_dirs {
            sync_dir(parent_of(made))?;
        }
        let mut journal = Journal {
            dir: dir.to_path_buf(),
            file,
            journal_bytes: valid as u64,
            journal_records,
        };
        use std::io::Seek;
        journal.file.seek(io::SeekFrom::Start(valid as u64))?;
        Ok((journal, recovered))
    }

    /// Appends one record durably: the write is fsynced before this
    /// returns, so a mutation acked after `append` survives kill -9.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        let framed = record.encode_framed();
        self.file.write_all(&framed)?;
        self.file.sync_data()?;
        self.journal_bytes += framed.len() as u64;
        self.journal_records += 1;
        Ok(())
    }

    /// Whether the journal tail has grown enough that the owner should
    /// call [`Journal::compact`] with its full state.
    pub fn should_compact(&self) -> bool {
        self.journal_bytes > COMPACT_BYTES || self.journal_records > COMPACT_RECORDS
    }

    /// Replaces the snapshot with `state` (the owner's *complete*
    /// control-plane state re-serialized as records) and truncates the
    /// journal. Crash-safe: tmp-write + fsync + atomic rename, and a
    /// crash before the journal truncate merely replays duplicates,
    /// which recovery applies idempotently.
    pub fn compact(&mut self, state: &[JournalRecord]) -> io::Result<()> {
        let tmp_path = self.dir.join(SNAPSHOT_TMP);
        let mut tmp = File::create(&tmp_path)?;
        for record in state {
            tmp.write_all(&record.encode_framed())?;
        }
        tmp.sync_data()?;
        drop(tmp);
        fs::rename(&tmp_path, self.dir.join(SNAPSHOT_FILE))?;
        // Nothing orders the rename before the truncation's fsync of
        // another file: without this sync a power loss could keep the
        // truncation and lose the rename, and the tail with it.
        sync_dir(&self.dir)?;
        self.file.set_len(0)?;
        use std::io::Seek;
        self.file.seek(io::SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.journal_bytes = 0;
        self.journal_records = 0;
        Ok(())
    }

    /// Bytes currently in the journal tail (excluding the snapshot).
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes
    }
}

/// Reads a state file; a missing file reads as empty, and every other
/// error is returned.
fn read_or_empty(path: &Path) -> io::Result<Vec<u8>> {
    match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// Creates `dir` and every missing ancestor of it, and returns the
/// directories it created, deepest first.
fn create_dirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let missing = dir
        .ancestors()
        .take_while(|p| !p.as_os_str().is_empty() && !p.is_dir())
        .map(Path::to_path_buf)
        .collect();
    fs::create_dir_all(dir)?;
    Ok(missing)
}

/// Makes the entries of `dir` durable (the files created in it and
/// renamed within it).
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The directory holding `path`'s entry (`.` for a bare relative name).
fn parent_of(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Overwrites the raw journal tail bytes of a state dir (testing aid for
/// corruption harnesses).
pub fn write_journal_bytes(dir: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = File::create(dir.join(JOURNAL_FILE))?;
    f.write_all(bytes)?;
    f.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Register {
                name: "alpha".into(),
                mem_mb: 128,
                warm_us: 1_000,
                cold_us: 25_000,
                tenant: String::new(),
            },
            JournalRecord::SetQuota {
                tenant: "acme".into(),
                inflight: 16,
                mem_mb: u64::MAX,
            },
            JournalRecord::Register {
                name: "beta".into(),
                mem_mb: 512,
                warm_us: 2_000,
                cold_us: 60_000,
                tenant: "acme".into(),
            },
        ]
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "faascache-journal-{}-{tag}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn validate_holds_every_name_to_one_rule() {
        let register = |name: &str, tenant: &str| JournalRecord::Register {
            name: name.into(),
            mem_mb: 128,
            warm_us: 1_000,
            cold_us: 25_000,
            tenant: tenant.into(),
        };
        let quota = |tenant: &str| JournalRecord::SetQuota {
            tenant: tenant.into(),
            inflight: 1,
            mem_mb: 64,
        };
        let (long_name, long_tenant) = ("n".repeat(255), "t".repeat(32));
        for ok in [register("fn-1.a_B", ""), register(&long_name, &long_tenant)] {
            assert_eq!(ok.validate(), Ok(()), "{ok:?}");
        }
        let (longer_name, longer_tenant) = (long_name + "n", long_tenant + "t");
        for (name, tenant) in [
            ("", ""),
            (&longer_name, ""),
            ("a b", ""),
            ("f", &longer_tenant),
        ] {
            assert!(
                register(name, tenant).validate().is_err(),
                "{name:?} {tenant:?}"
            );
        }
        assert_eq!(quota("acme").validate(), Ok(()));
        assert!(quota("").validate().is_err() && quota("x\"y").validate().is_err());
    }

    #[test]
    fn records_round_trip_through_framing() {
        for record in sample_records() {
            let framed = record.encode_framed();
            let (decoded, consumed) = scan_records(&framed);
            assert_eq!(consumed, framed.len());
            assert_eq!(decoded, vec![record]);
        }
    }

    #[test]
    fn append_then_reopen_recovers_everything() {
        // Two levels below a directory that does not exist either.
        let root = tmp_dir("reopen");
        let dir = root.join("node").join("state");
        let (mut journal, recovered) = Journal::open(&dir).unwrap();
        assert!(recovered.records.is_empty());
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        drop(journal);
        let (_, recovered) = Journal::open(&dir).unwrap();
        assert_eq!(recovered.records, sample_records());
        assert_eq!(recovered.truncated_bytes, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_creates_every_missing_ancestor_of_the_state_dir() {
        // Open syncs the entry of each directory created here into its
        // parent; the second time nothing is missing.
        let root = tmp_dir("ancestors");
        let dir = root.join("node").join("state");
        let created = [dir.clone(), root.join("node"), root.clone()];
        assert_eq!(create_dirs(&dir).unwrap(), created);
        assert!(create_dirs(&dir).unwrap().is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_is_truncated_to_longest_valid_prefix() {
        let dir = tmp_dir("torn");
        let (mut journal, _) = Journal::open(&dir).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        drop(journal);
        // Tear the last record mid-payload.
        let bytes = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        write_journal_bytes(&dir, &bytes[..bytes.len() - 3]).unwrap();
        let (mut journal, recovered) = Journal::open(&dir).unwrap();
        assert_eq!(recovered.records, sample_records()[..2].to_vec());
        assert!(recovered.truncated_bytes > 0);
        // Appends resume cleanly after the truncation.
        journal.append(&sample_records()[2]).unwrap();
        drop(journal);
        let (_, recovered) = Journal::open(&dir).unwrap();
        assert_eq!(recovered.records, sample_records());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_stops_replay_at_the_flip() {
        let dir = tmp_dir("flip");
        let (mut journal, _) = Journal::open(&dir).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        drop(journal);
        let mut bytes = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        // Flip a bit inside the *second* record's payload.
        let first_len = sample_records()[0].encode_framed().len();
        bytes[first_len + 9] ^= 0x40;
        write_journal_bytes(&dir, &bytes).unwrap();
        let (_, recovered) = Journal::open(&dir).unwrap();
        assert_eq!(recovered.records, sample_records()[..1].to_vec());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_moves_state_into_the_snapshot() {
        let dir = tmp_dir("compact");
        let (mut journal, _) = Journal::open(&dir).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        journal.compact(&sample_records()).unwrap();
        assert_eq!(journal.journal_bytes(), 0);
        // New appends land in the (now empty) journal tail.
        let extra = JournalRecord::SetQuota {
            tenant: "late".into(),
            inflight: 1,
            mem_mb: 64,
        };
        journal.append(&extra).unwrap();
        drop(journal);
        let (_, recovered) = Journal::open(&dir).unwrap();
        assert_eq!(recovered.snapshot_records, 3);
        let mut expected = sample_records();
        expected.push(extra);
        assert_eq!(recovered.records, expected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_snapshot_tmp_is_ignored() {
        let dir = tmp_dir("tmpfile");
        let (mut journal, _) = Journal::open(&dir).unwrap();
        journal.append(&sample_records()[0]).unwrap();
        drop(journal);
        fs::write(dir.join(SNAPSHOT_TMP), b"half-written garbage").unwrap();
        let (_, recovered) = Journal::open(&dir).unwrap();
        assert_eq!(recovered.records, sample_records()[..1].to_vec());
        assert!(!dir.join(SNAPSHOT_TMP).exists(), "tmp removed on open");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unreadable_snapshot_fails_the_open() {
        // Treating the snapshot as absent would boot with only the tail's
        // one record, and the next compaction would write that partial
        // registry over the snapshot.
        let dir = tmp_dir("unreadable");
        let (mut journal, _) = Journal::open(&dir).unwrap();
        journal.append(&sample_records()[0]).unwrap();
        drop(journal);
        fs::create_dir(dir.join(SNAPSHOT_FILE)).unwrap();
        assert!(Journal::open(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_never_panics_on_garbage() {
        // Adversarial prefixes: truncated length, absurd length, bad crc.
        assert_eq!(scan_records(&[]).1, 0);
        assert_eq!(scan_records(&[1, 2, 3]).1, 0);
        assert_eq!(scan_records(&u32::MAX.to_le_bytes()).1, 0);
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        huge.extend_from_slice(&[0u8; 64]);
        assert_eq!(scan_records(&huge).1, 0);
        let mut bad_crc = sample_records()[0].encode_framed();
        bad_crc[4] ^= 0xFF;
        assert_eq!(scan_records(&bad_crc).1, 0);
    }

    #[test]
    fn registry_digest_tracks_content() {
        use faascache_util::{MemMb, SimDuration};
        let mut a = FunctionRegistry::new();
        let mut b = FunctionRegistry::new();
        assert_eq!(registry_digest(&a), registry_digest(&b));
        a.register("f", MemMb::new(64), SimDuration::ZERO, SimDuration::ZERO)
            .unwrap();
        assert_ne!(registry_digest(&a), registry_digest(&b));
        b.register("f", MemMb::new(64), SimDuration::ZERO, SimDuration::ZERO)
            .unwrap();
        assert_eq!(registry_digest(&a), registry_digest(&b));
        // Tenant membership is identity-relevant.
        let id = a.find("f").unwrap().id();
        a.set_tenant(id, "acme");
        assert_ne!(registry_digest(&a), registry_digest(&b));
    }
}
