//! Crash-safe state: kill -9 crash injection against a journaling
//! `faascached`, plus a proptest corruption suite over the journal's
//! recovery scan.
//!
//! Two layers of evidence:
//!
//! - **Process-level crash injection**: a real `faascached` child with
//!   `--state-dir` takes registrations and quota updates over the wire,
//!   is SIGKILLed (quiesced and mid-storm), and is restarted from the
//!   same state dir. Every mutation that was *acked* before the kill
//!   must survive: re-registering answers `created == false` at the
//!   same index, the scraped `faascache_registry_digest` matches the
//!   pre-crash value, and a journaled `inflight=0` quota still
//!   throttles after the restart.
//! - **Byte-level corruption**: proptests write arbitrarily truncated,
//!   bit-flipped, or outright garbage journal bytes and assert
//!   [`Journal::open`] never panics, recovers exactly the longest
//!   valid record prefix, physically truncates the torn tail, and
//!   resumes appending cleanly.

use faascache_server::journal::{self, Journal, JournalRecord};

// ---------------------------------------------------------------------
// Process-level crash injection.
// ---------------------------------------------------------------------

#[cfg(unix)]
mod crash {
    use faascache_platform::sharded::InvokeOutcome;
    use faascache_server::client::{self, Client, LoadOptions};
    use faascache_server::daemon::BoundAddr;
    use faascache_server::{HttpClient, WorkloadConfig};
    use faascache_trace::replay::OpenLoopSchedule;
    use std::io::{BufRead, Read};
    use std::net::SocketAddr;
    use std::path::{Path, PathBuf};
    use std::process::{Child, Command, Stdio};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::thread;
    use std::time::{Duration, Instant};

    const READY_TIMEOUT: Duration = Duration::from_secs(10);
    static SEQ: AtomicUsize = AtomicUsize::new(0);

    /// A scratch directory under the system temp dir, removed on drop.
    pub struct Scratch(pub PathBuf);

    impl Scratch {
        pub fn new(tag: &str) -> Scratch {
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "faascache-recovery-{}-{tag}-{seq}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create scratch dir");
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// One journaling `faascached` child on a unix socket plus an HTTP
    /// gateway for the digest scrapes.
    struct JournalingChild {
        child: Child,
        sock: PathBuf,
        http: SocketAddr,
        stderr_drain: Option<thread::JoinHandle<()>>,
    }

    impl JournalingChild {
        fn spawn(state_dir: &Path, tag: &str) -> JournalingChild {
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let sock = std::env::temp_dir().join(format!(
                "faascache-recovery-{}-{tag}-{seq}.sock",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&sock);
            let mut child = Command::new(env!("CARGO_BIN_EXE_faascached"))
                .args([
                    "--unix",
                    sock.to_str().expect("socket path is utf-8"),
                    "--http-listen",
                    "127.0.0.1:0",
                    "--state-dir",
                    state_dir.to_str().expect("state dir is utf-8"),
                    "--shards",
                    "2",
                    "--mem-mb",
                    "2048",
                    "--queue-bound",
                    "256",
                    "--functions",
                    "8",
                    "--seed",
                    "11",
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn faascached");

            let stderr = child.stderr.take().expect("stderr piped");
            let mut lines = std::io::BufReader::new(stderr);
            let deadline = Instant::now() + READY_TIMEOUT;
            let mut http = None;
            let mut line = String::new();
            while http.is_none() {
                assert!(
                    Instant::now() < deadline,
                    "faascached never announced its http gateway"
                );
                line.clear();
                let n = lines.read_line(&mut line).expect("read child stderr");
                assert!(n > 0, "faascached exited before announcing its gateway");
                if let Some(rest) = line.trim().strip_prefix("faascached: http gateway on Tcp(") {
                    http = Some(
                        rest.trim_end_matches(')')
                            .parse()
                            .expect("parse gateway addr"),
                    );
                }
            }
            let stderr_drain = Some(thread::spawn(move || {
                let _ = std::io::copy(&mut lines, &mut std::io::sink());
            }));

            let backend = JournalingChild {
                child,
                sock,
                http: http.unwrap(),
                stderr_drain,
            };
            client::await_ready(&backend.addr(), READY_TIMEOUT).expect("backend ready");
            backend
        }

        fn addr(&self) -> BoundAddr {
            BoundAddr::Unix(self.sock.clone())
        }

        /// Scrapes `/metrics` and returns the registry (epoch, digest)
        /// gauges.
        fn registry_fingerprint(&self) -> (u64, u64) {
            let mut http =
                HttpClient::connect(&BoundAddr::Tcp(self.http)).expect("connect gateway");
            let body = http.metrics().expect("scrape metrics");
            let get = |name: &str| -> u64 {
                let prefix = format!("{name} ");
                body.lines()
                    .find_map(|l| l.strip_prefix(prefix.as_str()))
                    .unwrap_or_else(|| panic!("metrics missing {name}:\n{body}"))
                    .trim()
                    .parse()
                    .expect("gauge parses")
            };
            (
                get("faascache_registry_epoch"),
                get("faascache_registry_digest"),
            )
        }

        /// SIGKILL — no drain, no fsync beyond what `append` already
        /// did. Reaps the corpse.
        fn kill(mut self) {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(drain) = self.stderr_drain.take() {
                let _ = drain.join();
            }
            let _ = std::fs::remove_file(&self.sock);
        }

        /// Graceful teardown via the protocol Shutdown frame: the child
        /// exits 0 and its summary line reports a completed drain.
        fn shutdown_clean(mut self) {
            Client::connect(&self.addr())
                .expect("connect for shutdown")
                .shutdown()
                .expect("shutdown frame");
            let status = self.child.wait().expect("wait for child");
            assert!(status.success(), "faascached exited with {status}");
            let mut summary = String::new();
            self.child
                .stdout
                .take()
                .expect("stdout piped")
                .read_to_string(&mut summary)
                .expect("read child stdout");
            assert!(summary.contains("drained=true"), "{summary}");
            if let Some(drain) = self.stderr_drain.take() {
                let _ = drain.join();
            }
            let _ = std::fs::remove_file(&self.sock);
        }
    }

    /// The headline contract: every mutation acked before a SIGKILL is
    /// visible after a restart from the same state dir — same indices,
    /// same registry digest, quotas still enforced.
    #[test]
    fn acked_mutations_survive_sigkill_and_restart() {
        let state = Scratch::new("acked");
        let first = JournalingChild::spawn(&state.0, "acked-a");
        let mut conn = Client::connect(&first.addr()).expect("connect");

        let mut acked: Vec<(String, &str, u32)> = Vec::new();
        for i in 0..12u32 {
            let name = format!("crash-fn-{i}");
            let tenant = if i % 2 == 0 { "" } else { "acme" };
            let (index, created) = conn
                .register_in(&name, 128, 1_000, 10_000, tenant)
                .expect("register");
            assert!(created, "{name} should be new");
            acked.push((name, tenant, index));
        }
        // A function whose tenant we then cap to zero admissions: the
        // quota update is journaled after the registration, so replay
        // order matters and the throttle must survive the crash.
        let (capped_index, created) = conn
            .register_in("capped-fn", 64, 1_000, 10_000, "capped")
            .expect("register capped");
        assert!(created);
        // `live` may be false: the tenant's accounting slot is created
        // lazily on first invoke. The throttle check below is the
        // behavioral proof either way.
        conn.set_tenant_quota("capped", 0, u64::MAX)
            .expect("set quota");
        assert_eq!(
            conn.invoke(capped_index).expect("invoke capped"),
            InvokeOutcome::Throttled,
            "inflight=0 must throttle before the crash"
        );

        let (epoch, digest) = first.registry_fingerprint();
        first.kill();

        let second = JournalingChild::spawn(&state.0, "acked-b");
        let mut conn = Client::connect(&second.addr()).expect("reconnect");
        for (name, tenant, index) in &acked {
            let (replayed_index, created) = conn
                .register_in(name, 128, 1_000, 10_000, tenant)
                .expect("re-register");
            assert!(!created, "{name} was acked pre-crash but came back new");
            assert_eq!(
                replayed_index, *index,
                "{name} recovered at a different index"
            );
        }
        let (epoch_after, digest_after) = second.registry_fingerprint();
        assert_eq!(
            (epoch_after, digest_after),
            (epoch, digest),
            "registry fingerprint diverged across the crash"
        );
        assert_eq!(
            conn.invoke(capped_index)
                .expect("invoke capped after restart"),
            InvokeOutcome::Throttled,
            "journaled quota update did not survive the restart"
        );
        // A recovered function still serves.
        let outcome = conn.invoke(acked[0].2).expect("invoke recovered");
        assert!(
            matches!(outcome, InvokeOutcome::Warm | InvokeOutcome::Cold),
            "recovered function failed to serve: {outcome:?}"
        );
        // So does a replay of the boot workload, without loss.
        let workload = WorkloadConfig {
            functions: 8,
            seed: 11,
            ..WorkloadConfig::default()
        };
        let schedule = OpenLoopSchedule::from_trace(&workload.build(), 5_000.0);
        let opts = LoadOptions::new(5_000.0, 500, 2);
        let report = client::run_load_with(&second.addr(), &schedule, opts);
        assert_eq!(
            (report.errors, report.lost()),
            (0, 0),
            "{}",
            report.summary_line()
        );
        second.shutdown_clean();
    }

    /// Crash *mid-stream*: a registration storm is SIGKILLed with
    /// appends in flight. The ack is the durability boundary — every
    /// registration the client saw acked must be present after the
    /// restart; un-acked tail writes may or may not be (either is
    /// sound).
    #[test]
    fn kill_mid_registration_storm_loses_no_acked_register() {
        let state = Scratch::new("storm");
        let child = JournalingChild::spawn(&state.0, "storm-a");

        let acked: Arc<Mutex<Vec<(String, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let addr = child.addr();
        let acked_in_storm = Arc::clone(&acked);
        let storm = thread::spawn(move || {
            let Ok(mut conn) = Client::connect(&addr) else {
                return;
            };
            let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
            for i in 0..100_000u32 {
                let name = format!("storm-fn-{i}");
                match conn.register_in(&name, 64, 500, 5_000, "storm") {
                    Ok((index, created)) => {
                        assert!(created, "{name} registered twice");
                        acked_in_storm.lock().unwrap().push((name, index));
                    }
                    // The kill severs the connection mid-call; the
                    // in-flight registration was never acked.
                    Err(_) => return,
                }
            }
        });

        thread::sleep(Duration::from_millis(60));
        child.kill();
        storm.join().expect("storm thread panicked");

        let acked = acked.lock().unwrap();
        assert!(
            !acked.is_empty(),
            "storm never got an ack before the kill; test proves nothing"
        );

        let second = JournalingChild::spawn(&state.0, "storm-b");
        let mut conn = Client::connect(&second.addr()).expect("reconnect");
        for (name, index) in acked.iter() {
            let (replayed_index, created) = conn
                .register_in(name, 64, 500, 5_000, "storm")
                .expect("re-register");
            assert!(!created, "acked registration {name} lost in the crash");
            assert_eq!(
                replayed_index, *index,
                "{name} recovered at a different index"
            );
        }
        eprintln!(
            "storm: {} acked registrations all survived kill -9",
            acked.len()
        );
        second.shutdown_clean();
    }

    /// Restart idempotence without a crash: a graceful shutdown and a
    /// restart from the same state dir must also converge, and a third
    /// boot replaying a snapshot+journal mix (if compaction ran) is
    /// byte-for-byte the same registry.
    #[test]
    fn graceful_restart_is_idempotent() {
        let state = Scratch::new("graceful");
        let first = JournalingChild::spawn(&state.0, "graceful-a");
        let mut conn = Client::connect(&first.addr()).expect("connect");
        for i in 0..6u32 {
            conn.register_in(&format!("calm-fn-{i}"), 128, 1_000, 10_000, "")
                .expect("register");
        }
        let fingerprint = first.registry_fingerprint();
        drop(conn);
        first.shutdown_clean();

        let second = JournalingChild::spawn(&state.0, "graceful-b");
        assert_eq!(second.registry_fingerprint(), fingerprint);
        second.shutdown_clean();

        let third = JournalingChild::spawn(&state.0, "graceful-c");
        assert_eq!(third.registry_fingerprint(), fingerprint);
        third.shutdown_clean();
    }
}

// ---------------------------------------------------------------------
// Byte-level corruption proptests.
// ---------------------------------------------------------------------

mod corruption {
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static SEQ: AtomicUsize = AtomicUsize::new(0);

    /// Fresh scratch dir per proptest case, removed when dropped.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Scratch {
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "faascache-journal-prop-{}-{seq}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create scratch dir");
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Draws either record kind from numeric tuples (the shim has no
    /// string strategies; names derive from a drawn id).
    fn arb_record() -> impl Strategy<Value = JournalRecord> {
        (
            any::<u8>(),
            0u64..=9_999,
            any::<u64>(),
            any::<u64>(),
            0u64..=9,
        )
            .prop_map(|(kind, id, a, b, tenant_id)| {
                if kind % 2 == 0 {
                    JournalRecord::Register {
                        name: format!("fn-{id}"),
                        mem_mb: (a % 65_537) as u32,
                        warm_us: a % 10_000_000,
                        cold_us: b % 10_000_000,
                        tenant: if tenant_id == 0 {
                            String::new()
                        } else {
                            format!("tenant-{tenant_id}")
                        },
                    }
                } else {
                    JournalRecord::SetQuota {
                        tenant: format!("tenant-{tenant_id}"),
                        inflight: a,
                        mem_mb: b,
                    }
                }
            })
    }

    /// The frame boundaries of a record stream: cumulative byte offsets
    /// after each record.
    fn frame_ends(records: &[JournalRecord]) -> Vec<usize> {
        let mut ends = Vec::with_capacity(records.len());
        let mut total = 0usize;
        for r in records {
            total += r.encode_framed().len();
            ends.push(total);
        }
        ends
    }

    fn concat_frames(records: &[JournalRecord]) -> Vec<u8> {
        records.iter().flat_map(|r| r.encode_framed()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Truncation at *any* byte offset recovers exactly the records
        /// whose frames fit, truncates the torn tail physically, and
        /// resumes appending cleanly.
        #[test]
        fn truncation_recovers_the_longest_valid_prefix(
            records in collection::vec(arb_record(), 0..16),
            cut_seed in any::<u64>(),
        ) {
            let bytes = concat_frames(&records);
            let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
            let ends = frame_ends(&records);
            let survivors = ends.iter().filter(|&&e| e <= cut).count();

            let scratch = Scratch::new();
            journal::write_journal_bytes(&scratch.0, &bytes[..cut]).unwrap();
            let (mut journal, recovered) = Journal::open(&scratch.0).unwrap();

            prop_assert_eq!(&recovered.records, &records[..survivors]);
            prop_assert_eq!(recovered.snapshot_records, 0);
            let valid = ends.get(survivors.wrapping_sub(1)).copied().unwrap_or(0);
            prop_assert_eq!(recovered.truncated_bytes, (cut - valid) as u64);

            // The torn tail is physically gone and appends land after
            // the last valid record.
            let appended = JournalRecord::SetQuota {
                tenant: "post-recovery".to_string(),
                inflight: 7,
                mem_mb: 512,
            };
            journal.append(&appended).unwrap();
            drop(journal);
            let (_, reopened) = Journal::open(&scratch.0).unwrap();
            let mut expected = records[..survivors].to_vec();
            expected.push(appended);
            prop_assert_eq!(reopened.records, expected);
            prop_assert_eq!(reopened.truncated_bytes, 0);
        }

        /// A bit flip anywhere in the stream never panics recovery and
        /// always degrades to a (possibly shorter) prefix of the
        /// original records — CRC framing means a corrupted record can
        /// neither decode wrong nor let later records misparse.
        #[test]
        fn bit_flips_never_panic_and_recover_a_prefix(
            records in collection::vec(arb_record(), 1..12),
            flip_seed in any::<u64>(),
            flip_mask in 1u8..=255,
        ) {
            let mut bytes = concat_frames(&records);
            let at = (flip_seed % bytes.len() as u64) as usize;
            bytes[at] ^= flip_mask;

            let scratch = Scratch::new();
            journal::write_journal_bytes(&scratch.0, &bytes).unwrap();
            let (_, recovered) = Journal::open(&scratch.0).unwrap();

            prop_assert!(recovered.records.len() <= records.len());
            prop_assert_eq!(&recovered.records[..], &records[..recovered.records.len()]);
            // The flipped byte corrupts exactly one frame: everything
            // before it survives.
            let ends = frame_ends(&records);
            let intact = ends.iter().filter(|&&e| e <= at).count();
            prop_assert!(recovered.records.len() >= intact);
        }

        /// Arbitrary garbage as the journal: recovery never panics,
        /// yields no phantom records beyond what the CRC admits, and
        /// the dir remains appendable.
        #[test]
        fn garbage_journals_never_panic_and_stay_appendable(
            garbage in collection::vec(any::<u8>(), 0..2048),
        ) {
            let scratch = Scratch::new();
            journal::write_journal_bytes(&scratch.0, &garbage).unwrap();
            let (mut journal, recovered) = Journal::open(&scratch.0).unwrap();
            let survivors = recovered.records.len();

            let appended = JournalRecord::Register {
                name: "after-garbage".to_string(),
                mem_mb: 128,
                warm_us: 1_000,
                cold_us: 10_000,
                tenant: String::new(),
            };
            journal.append(&appended).unwrap();
            drop(journal);
            let (_, reopened) = Journal::open(&scratch.0).unwrap();
            prop_assert_eq!(reopened.records.len(), survivors + 1);
            prop_assert_eq!(reopened.records.last().unwrap(), &appended);
            prop_assert_eq!(reopened.truncated_bytes, 0);
        }

        /// Corrupting a *snapshot* is survivable too: the snapshot scan
        /// keeps its valid prefix and the journal tail still replays on
        /// top of it.
        #[test]
        fn snapshot_corruption_degrades_to_a_prefix(
            snapshot in collection::vec(arb_record(), 1..10),
            tail in collection::vec(arb_record(), 0..6),
            cut_seed in any::<u64>(),
        ) {
            let scratch = Scratch::new();
            {
                let (mut journal, _) = Journal::open(&scratch.0).unwrap();
                journal.compact(&snapshot).unwrap();
                for r in &tail {
                    journal.append(r).unwrap();
                }
            }
            // Truncate the snapshot file at an arbitrary offset.
            let snap_path = scratch.0.join("snapshot.log");
            let full = std::fs::read(&snap_path).unwrap();
            let cut = (cut_seed % (full.len() as u64 + 1)) as usize;
            std::fs::write(&snap_path, &full[..cut]).unwrap();

            let (_, recovered) = Journal::open(&scratch.0).unwrap();
            let ends = frame_ends(&snapshot);
            let survivors = ends.iter().filter(|&&e| e <= cut).count();
            let mut expected = snapshot[..survivors].to_vec();
            expected.extend(tail.iter().cloned());
            prop_assert_eq!(recovered.snapshot_records, survivors);
            prop_assert_eq!(recovered.records, expected);
        }
    }
}
