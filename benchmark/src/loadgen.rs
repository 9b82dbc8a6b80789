//! The open-loop load generator: one process, one connection per lane, a
//! sender and a receiver thread per connection.
//!
//! Every request has an *intended* send time taken from a seeded
//! [`OpenLoopSchedule`]; its latency is timed from that instant, not from
//! when the thread got round to sending it, so a stalled server (or a
//! late generator) cannot hide behind coordinated omission. Senders sleep
//! until shortly before a request is due and busy-wait the rest, which
//! keeps send times within microseconds of the schedule while the
//! generator as a whole stays well under one core.

use crate::spans::{Recorder, ROOT};
use crate::wire::{Call, Conn, Proto, Reply, Target};
use faascache_core::function::FunctionRegistry;
use faascache_platform::sharded::InvokeOutcome;
use faascache_trace::record::{Invocation, Trace};
use faascache_trace::replay::OpenLoopSchedule;
use faascache_util::dist::{Exponential, Zipf};
use faascache_util::rng::Pcg64;
use faascache_util::{MemMb, SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// How a request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ending {
    Warm,
    Cold,
    Dropped,
    Rejected,
    Throttled,
    /// A `Register` mutation was acknowledged.
    Registered,
    /// Transport error, lost or undecodable reply, or a reply of the
    /// wrong kind for the request.
    Failed,
}

impl Ending {
    pub fn of(call: &Call, reply: std::io::Result<Reply>) -> Ending {
        match (call, reply) {
            (Call::Invoke(_), Ok(Reply::Outcome(outcome))) => match outcome {
                InvokeOutcome::Warm => Ending::Warm,
                InvokeOutcome::Cold => Ending::Cold,
                InvokeOutcome::Dropped => Ending::Dropped,
                InvokeOutcome::Rejected => Ending::Rejected,
                InvokeOutcome::Throttled => Ending::Throttled,
            },
            (Call::Register(_), Ok(Reply::Registered { .. })) => Ending::Registered,
            _ => Ending::Failed,
        }
    }

    pub fn is_served(self) -> bool {
        matches!(self, Ending::Warm | Ending::Cold)
    }
}

/// One completed request. Times are nanoseconds from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ending: Ending,
    pub is_invoke: bool,
}

impl Record {
    /// Latency from the intended send time.
    pub fn latency_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }

    pub fn late_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// Outcome tallies; every attempted request lands in exactly one field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub warm: u64,
    pub cold: u64,
    pub dropped: u64,
    pub rejected: u64,
    pub throttled: u64,
    pub registered: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, ending: Ending) {
        *match ending {
            Ending::Warm => &mut self.warm,
            Ending::Cold => &mut self.cold,
            Ending::Dropped => &mut self.dropped,
            Ending::Rejected => &mut self.rejected,
            Ending::Throttled => &mut self.throttled,
            Ending::Registered => &mut self.registered,
            Ending::Failed => &mut self.failed,
        } += 1;
    }

    pub fn merge(&mut self, other: Tally) {
        self.warm += other.warm;
        self.cold += other.cold;
        self.dropped += other.dropped;
        self.rejected += other.rejected;
        self.throttled += other.throttled;
        self.registered += other.registered;
        self.failed += other.failed;
    }

    pub fn of(records: &[Record]) -> Tally {
        let mut t = Tally::default();
        for r in records {
            t.add(r.ending);
        }
        t
    }

    pub fn served(&self) -> u64 {
        self.warm + self.cold
    }

    pub fn total(&self) -> u64 {
        self.served()
            + self.dropped
            + self.rejected
            + self.throttled
            + self.registered
            + self.failed
    }
}

/// A request with its intended send offset from the phase start.
#[derive(Debug, Clone)]
pub struct Planned {
    pub due: Duration,
    pub call: Call,
}

/// A seeded, statistically stationary arrival process: Poisson arrivals
/// over `functions` functions whose popularity is Zipf(`zipf`) by rank,
/// with rank `r` held by function `ranks[r]`. Built as a [`Trace`] and
/// rescaled to `rate` by [`OpenLoopSchedule::from_trace`], so the replay
/// layer paces the harness exactly as it paces `faas-load`.
///
/// Every seed draws from the same distribution: two seeds differ in which
/// arrivals happen, never in how skewed or how bursty the load is, which
/// is what keeps a metric's run-to-run spread a property of the system
/// and not of the input.
pub fn arrivals(
    seed: u64,
    ranks: &[u32],
    zipf: f64,
    rate: f64,
    count: usize,
) -> Vec<(Duration, u32)> {
    let mut registry = FunctionRegistry::new();
    let ids: Vec<_> = (0..ranks.len())
        .map(|i| {
            registry
                .register(
                    format!("f{i}"),
                    MemMb::new(1),
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                )
                .expect("distinct names")
        })
        .collect();
    let mut rng = Pcg64::seed_from_u64(seed);
    let popularity = Zipf::new(ranks.len() as u64, zipf).expect("valid zipf");
    let gap = Exponential::new(1.0).expect("unit rate");
    let mut at = 0.0;
    let invocations = (0..count)
        .map(|_| {
            at += gap.sample(&mut rng);
            let rank = popularity.sample(&mut rng) as usize - 1;
            Invocation {
                time: SimTime::from_micros((at * 1e6) as u64),
                function: ids[rank],
            }
        })
        .collect();
    let trace = Trace::new(registry, invocations);
    OpenLoopSchedule::from_trace(&trace, rate)
        .iter()
        .map(|ev| (ev.offset, ranks[ev.function.index()]))
        .collect()
}

/// Lowers the calling thread's timer slack to 1 µs so `thread::sleep`
/// wakes when asked instead of up to 50 µs later (the kernel default),
/// which lets the pacer sleep almost all the way to a send time.
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: prctl(PR_SET_TIMERSLACK, nanoseconds) takes plain integers,
    // touches no memory of ours and only affects this thread's timers; a
    // failure leaves the default slack and is harmless.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// The CPUs the calling thread may run on, as a bit mask (CPUs beyond
/// the first 64 are ignored); 0 when the kernel will not say.
pub fn allowed_cpus() -> u64 {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }
    let mut set = [0u64; 16];
    // SAFETY: `set` is a live, writable 128-byte buffer and the size
    // passed is its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    if rc == 0 {
        set[0]
    } else {
        0
    }
}

/// Restricts the calling thread, and every thread or process it spawns
/// from now on, to the CPUs whose bit is set in `mask`. Best effort: on
/// failure the thread keeps its affinity.
pub fn pin_to_cpus(mask: u64) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut set = [0u64; 16];
    set[0] = mask;
    // SAFETY: `set` is a live 128-byte buffer, the size passed is its
    // size, and the kernel only reads it; pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr());
    }
}

/// Sleeps until `SPIN` before `due`, then busy-waits the remainder.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(25);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What one generator thread brings back.
pub struct ThreadLog {
    pub records: Vec<Record>,
    pub spans: Recorder,
}

/// A request on the wire: what the lane's sender hands its receiver.
struct InFlight {
    index: usize,
    sent: Instant,
    encoded: Instant,
    written: Instant,
    /// False when the write failed or the lane was already dead; no
    /// reply will come.
    on_wire: bool,
}

/// Sends `lanes[t]` over one fresh connection per lane at the requests'
/// due times measured from `start`, never waiting for a reply before the
/// next send: a sender thread per lane writes on schedule and a receiver
/// thread reads the replies, which every server returns in request order
/// on a connection. A slow reply therefore delays nothing but itself, the
/// offered rate holds whatever the servers do, and a send is late only
/// when the sender thread itself was kept off the CPU. With `traced`,
/// each request also records a root span from its intended send time and
/// one child per client step. Threads pin themselves to `generator_cpus`
/// when given.
///
/// A lane whose connection breaks is dead: that request and every later
/// one on the lane count as failed. Nothing is retried, so tallies are
/// exact: every planned request ends in exactly one record.
pub fn run_open_loop(
    target: &Target,
    proto: Proto,
    lanes: Vec<Vec<Planned>>,
    start: Instant,
    traced: bool,
    generator_cpus: Option<u64>,
) -> Vec<ThreadLog> {
    let lane = |lane: usize, plan: &[Planned]| -> ThreadLog {
        let on_generator_cpu = || {
            tighten_timer_slack();
            if let Some(mask) = generator_cpus {
                pin_to_cpus(mask);
            }
        };
        on_generator_cpu();
        let halves = Conn::connect(target, proto).and_then(|c| Ok((c.try_clone()?, c)));
        let dead = AtomicBool::new(halves.is_err());
        let (mut writer, reader) = match halves {
            Ok((w, r)) => (Some(w), Some(r)),
            Err(_) => (None, None),
        };
        let (tx, rx) = mpsc::channel::<InFlight>();
        thread::scope(|scope| {
            let receiver = scope.spawn(|| {
                on_generator_cpu();
                let mut reader = reader;
                let mut spans = Recorder::new(start);
                let mut records = Vec::with_capacity(plan.len());
                for flight in rx {
                    let planned = &plan[flight.index];
                    let mut arrived = flight.written;
                    let reply = match reader.as_mut() {
                        Some(conn) if flight.on_wire && !dead.load(Ordering::Acquire) => {
                            conn.recv().and_then(|raw| {
                                arrived = Instant::now();
                                conn.decode(&planned.call, &raw)
                            })
                        }
                        _ => Err(std::io::Error::other("lane is dead")),
                    };
                    let done = Instant::now();
                    let ending = Ending::of(&planned.call, reply);
                    if ending == Ending::Failed {
                        dead.store(true, Ordering::Release);
                    }
                    let due = start + planned.due;
                    records.push(Record {
                        due_ns: planned.due.as_nanos() as u64,
                        sent_ns: (flight.sent - start).as_nanos() as u64,
                        done_ns: (done - start).as_nanos() as u64,
                        ending,
                        is_invoke: matches!(planned.call, Call::Invoke(_)),
                    });
                    if traced && ending != Ending::Failed {
                        // Request ids are unique across lanes.
                        let req = ((lane as u64) << 40) | (flight.index as u64 + 1);
                        let from = due.min(flight.sent);
                        let root = spans.record("request", ROOT, req, from, done);
                        spans.record("client.late", root, req, from, flight.sent);
                        spans.record("client.encode", root, req, flight.sent, flight.encoded);
                        spans.record("client.write", root, req, flight.encoded, flight.written);
                        spans.record("client.wait", root, req, flight.written, arrived);
                        spans.record("client.decode", root, req, arrived, done);
                    }
                }
                ThreadLog { records, spans }
            });
            for (index, planned) in plan.iter().enumerate() {
                wait_until(start + planned.due);
                let sent = Instant::now();
                let mut encoded = sent;
                let wrote = match writer.as_mut() {
                    Some(conn) if !dead.load(Ordering::Acquire) => {
                        conn.encode(&planned.call).and_then(|bytes| {
                            encoded = Instant::now();
                            conn.send(&bytes)
                        })
                    }
                    _ => Err(std::io::Error::other("lane is dead")),
                };
                let flight = InFlight {
                    index,
                    sent,
                    encoded,
                    written: Instant::now(),
                    on_wire: wrote.is_ok(),
                };
                if tx.send(flight).is_err() {
                    break;
                }
            }
            drop(tx);
            receiver.join().expect("receiver thread panicked")
        })
    };
    thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .enumerate()
            .map(|(i, plan)| scope.spawn(move || lane(i, plan)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// Closed loop with `depth` requests in flight per connection: the knee
/// a saturated server settles at. Returns replies per second.
pub fn saturate(
    target: &Target,
    proto: Proto,
    functions: &[u32],
    connections: usize,
    depth: usize,
    seconds: f64,
    generator_cpus: Option<u64>,
) -> std::io::Result<(f64, Tally)> {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let per_conn: Vec<std::io::Result<Tally>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|lane| {
                scope.spawn(move || {
                    if let Some(mask) = generator_cpus {
                        pin_to_cpus(mask);
                    }
                    let mut conn = Conn::connect(target, proto)?;
                    let mut tally = Tally::default();
                    let mut next = lane;
                    let mut in_flight = std::collections::VecDeque::new();
                    loop {
                        let open = Instant::now() < stop;
                        while open && in_flight.len() < depth {
                            let call = Call::Invoke(functions[next % functions.len()]);
                            next += connections;
                            let bytes = conn.encode(&call)?;
                            conn.send(&bytes)?;
                            in_flight.push_back(call);
                        }
                        let Some(call) = in_flight.pop_front() else {
                            return Ok(tally);
                        };
                        let raw = conn.recv()?;
                        tally.add(Ending::of(&call, conn.decode(&call, &raw)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("saturation thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut total = Tally::default();
    for t in per_conn {
        total.merge(t?);
    }
    Ok((total.total() as f64 / elapsed, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seeded_and_hit_the_rate() {
        let ranks: Vec<u32> = (100..164).collect();
        let a = arrivals(7, &ranks, 1.0, 1000.0, 5000);
        let b = arrivals(7, &ranks, 1.0, 1000.0, 5000);
        let c = arrivals(8, &ranks, 1.0, 1000.0, 5000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let span = a.last().unwrap().0.as_secs_f64();
        assert!(
            (span - 5.0).abs() < 0.01,
            "5000 sends at 1000/s span {span}s"
        );
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        // Rank 0's function is the most popular.
        let top = a.iter().filter(|(_, f)| *f == 100).count();
        assert!(top > a.len() / 8, "zipf head holds {top} of {}", a.len());
        assert!(a.iter().all(|(_, f)| (100..164).contains(f)));
    }

    #[test]
    fn tallies_conserve() {
        let mut t = Tally::default();
        for e in [
            Ending::Warm,
            Ending::Cold,
            Ending::Dropped,
            Ending::Rejected,
            Ending::Throttled,
            Ending::Registered,
            Ending::Failed,
            Ending::Warm,
        ] {
            t.add(e);
        }
        assert_eq!(t.total(), 8);
        assert_eq!(t.served(), 3);
        let mut sum = t;
        sum.merge(t);
        assert_eq!(sum.total(), 16);
    }

    #[test]
    fn a_reply_of_the_wrong_kind_is_a_failure() {
        let invoke = Call::Invoke(1);
        assert_eq!(Ending::of(&invoke, Ok(Reply::Pong)), Ending::Failed);
        assert_eq!(
            Ending::of(&invoke, Ok(Reply::Outcome(InvokeOutcome::Throttled))),
            Ending::Throttled
        );
        assert_eq!(
            Ending::of(&invoke, Err(std::io::Error::other("reset"))),
            Ending::Failed
        );
    }
}
