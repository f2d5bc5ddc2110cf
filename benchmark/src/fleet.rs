//! The fleet part of each workload: [`SESSIONS`] sessions of the 4×4-core
//! board admitted in-process through `ShardExecutor::admit`, each with
//! one subscription sink, fed a seeded spike schedule through
//! `SessionHandle::injector`.
//!
//! The load is in-process because the server allows one in-flight
//! request per connection and one process may open only `nproc`
//! connections, which would cap a socket-driven fleet far below the
//! executor's capacity.
//!
//! - Phase (a), max speed, closed loop: every session runs batches of
//!   [`BATCH`] ticks, the next one submitted when the previous one's
//!   reply arrives. It reports session-ticks completed per second.
//! - Phase (b), real time, open loop: every session runs a fixed number
//!   of ticks on its own 1 ms grid while a generator thread offers each
//!   tick's spikes [`LEAD`] periods ahead on a fixed schedule. Each
//!   update's lateness is its arrival at the sink behind its due time on
//!   the session's grid. The grid follows the executor's no-debt rule: a
//!   tick that starts whole periods late skips those edges, the next
//!   tick is due on the first edge after them, and each skipped edge
//!   counts once, as a missing update.

use crate::load::{self, Outcome};
use crate::report::Report;
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::{cpu, rss_kb, Ctx};
use std::sync::mpsc::{self, Receiver};
use std::thread;
use std::time::{Duration, Instant};
use tn_compass::ReferenceSim;
use tn_core::CoreId;
use tn_serve::protocol::split_frame;
use tn_serve::{
    Cmd, ExecutorConfig, Outbound, Pace, Response, SessionConfig, SessionHandle, SessionStats,
    ShardExecutor,
};

/// Sessions in each phase: about half of phase (a)'s capacity at a
/// 1 ms period on a 2-vCPU host (measured at 40–47k session-ticks/s).
const SESSIONS: usize = 20;
const PERIOD: Duration = Duration::from_millis(1);
/// Ticks per `RunFor` in phase (a).
const BATCH: u64 = 64;
/// How many periods ahead of a tick the generator offers its spikes: a
/// generator stalled this long would make them stale (and the run fail).
const LEAD: u64 = 90;
/// Events a session's input queue holds. The generator runs on a fixed
/// schedule, so the queue holds the lead plus every grid edge the
/// session has skipped so far; the default (65,536 events, 186 ticks of
/// the schedule) would shed offers, failing the digest gate for load
/// rather than a fault. This holds 2,978 ticks.
const INPUT_CAPACITY: usize = 1 << 20;
/// A reply slower than this fails its request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Sessions whose phase (b) updates are kept as spans.
const SPAN_SESSIONS: usize = 4;
/// Set-ups per run; all but the last fleet are torn down unused.
const SETUPS: usize = 5;

struct Fleet {
    exec: ShardExecutor,
    handles: Vec<SessionHandle>,
    /// Per handle: admitted and subscribed. Refused sessions have none.
    live: Vec<bool>,
    sink: Option<Receiver<Outbound>>,
    setup_s: f64,
    admit_s: f64,
    rss_kb: f64,
}

impl Fleet {
    /// Build the boards, start an executor, admit and subscribe every
    /// session; the subscribe reply confirms admission.
    fn new(seed: u64, pace: Pace) -> Fleet {
        let t0 = Instant::now();
        let rss0 = rss_kb();
        let exec = ShardExecutor::new(ExecutorConfig::default());
        let sims: Vec<ReferenceSim> = (0..SESSIONS)
            .map(|_| ReferenceSim::new(load::board(seed)))
            .collect();
        let cfg = SessionConfig {
            pace,
            tick_period: PERIOD,
            input_capacity: INPUT_CAPACITY,
            ..SessionConfig::default()
        };
        let (sink_tx, sink) = mpsc::channel();
        let a = Instant::now();
        let mut handles = Vec::new();
        let mut subscribed = Vec::new();
        for (i, sim) in sims.into_iter().enumerate() {
            let name = format!("s{i}");
            let Ok(h) = exec.admit(
                name,
                Box::new(sim),
                cfg.clone(),
                SessionStats::default(),
                &[],
                None,
            ) else {
                continue;
            };
            let (tx, rx) = mpsc::channel();
            let sent = h.send(Cmd::Subscribe {
                sink: sink_tx.clone(),
                reply: tx,
            });
            subscribed.push(sent.ok().map(|_| rx));
            handles.push(h);
        }
        let live = subscribed
            .into_iter()
            .map(|rx| {
                rx.is_some_and(|rx| matches!(rx.recv_timeout(REPLY_TIMEOUT), Ok(Response::Ok)))
            })
            .collect();
        let admit_s = a.elapsed().as_secs_f64();
        Fleet {
            exec,
            handles,
            live,
            sink: Some(sink),
            setup_s: t0.elapsed().as_secs_f64(),
            admit_s,
            rss_kb: rss_kb() - rss0,
        }
    }

    fn refused(&self) -> u64 {
        (SESSIONS - self.live.iter().filter(|l| **l).count()) as u64
    }

    /// Every live session's stats (`None` where the request failed).
    fn outcomes(&self) -> Vec<Option<Outcome>> {
        self.handles
            .iter()
            .zip(&self.live)
            .filter(|(_, live)| **live)
            .map(|(h, _)| {
                let (tx, rx) = mpsc::channel();
                h.send(Cmd::Stats { reply: tx }).ok()?;
                match rx.recv_timeout(REPLY_TIMEOUT) {
                    Ok(Response::StatsData(s)) => Some(Outcome {
                        tick: s.tick,
                        digest: s.state_digest,
                        sops: s.sops,
                    }),
                    _ => None,
                }
            })
            .collect()
    }

    /// Per-shard executor counter values, from the public registry.
    fn shard_counter(&self, name: &str) -> Vec<u64> {
        (0..tn_serve::default_shards(0))
            .map(|k| {
                let ks = k.to_string();
                let labels = [("shard", ks.as_str())];
                self.exec
                    .registry()
                    .counter_value(name, &labels)
                    .unwrap_or(0)
            })
            .collect()
    }
}

fn run_for(h: &SessionHandle, ticks: u64) -> Option<Receiver<Response>> {
    let (tx, rx) = mpsc::channel();
    h.send(Cmd::RunFor { ticks, reply: tx }).ok()?;
    Some(rx)
}

/// Offer `events`, then run `ticks` ticks.
fn submit(
    h: &SessionHandle,
    events: &[(u64, CoreId, u16)],
    ticks: u64,
) -> Option<Receiver<Response>> {
    h.injector().offer(events).ok()?;
    run_for(h, ticks)
}

/// Phase (a)'s batches of the spike schedule, each generated once and
/// offered to every session, so that generating the schedule costs the
/// measured loop little. The sessions move in lockstep: at most two
/// batches are live at a time.
struct Batches {
    seed: u64,
    live: Vec<(u64, load::Events)>,
}

impl Batches {
    /// The events of ticks `from..from + BATCH`.
    fn get(&mut self, from: u64) -> &[(u64, CoreId, u16)] {
        let i = match self.live.iter().position(|(f, _)| *f == from) {
            Some(i) => i,
            None => {
                if self.live.len() == 2 {
                    self.live.remove(0);
                }
                let events = load::events_range(self.seed, from, from + BATCH);
                self.live.push((from, events));
                self.live.len() - 1
            }
        };
        &self.live[i].1
    }
}

struct PhaseA {
    /// Session-ticks completed per second of wall-clock time.
    ticks_per_s: f64,
    /// Session-ticks per CPU-second of the shard threads, times the
    /// shard count: the rate with every shard on a CPU of its own.
    cpu_ticks_per_s: f64,
    attempted: u64,
    failed: u64,
    service_us_per_tick: f64,
    /// The tick every live session was topped up to.
    tick: u64,
    /// Tick updates that reached the sink, top-up included.
    updates: u64,
    outcomes: Vec<Option<Outcome>>,
}

/// Phase (a): closed loop at max speed for `budget`, then every session
/// topped up (untimed) to the same tick so the digests compare.
fn phase_a(seed: u64, f: &mut Fleet, budget: Duration, tracer: &Tracer) -> PhaseA {
    // Phase (a) only counts updates; the sink must still be drained.
    let sink = f.sink.take().expect("fresh fleet");
    let drain = thread::spawn(move || sink.iter().count() as u64);
    let n = f.handles.len();
    let mut rounds = vec![0u64; n];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut batches = Batches {
        seed,
        live: Vec::new(),
    };
    let shards = cpu::Threads::named("tn-exec-shard");
    let cpu0 = shards.total();
    let start = Instant::now();
    let mut waiting: Vec<Option<(Receiver<Response>, Instant)>> = (0..n)
        .map(|i| {
            if !f.live[i] {
                return None;
            }
            attempted += BATCH;
            let rx = submit(&f.handles[i], batches.get(0), BATCH);
            failed += BATCH * rx.is_none() as u64;
            rx.map(|r| (r, start))
        })
        .collect();
    let mut done = 0u64;
    let mut last = start;
    let mut req = 0u64;
    while waiting.iter().any(Option::is_some) {
        for i in 0..n {
            let Some((rx, sent)) = waiting[i].take() else {
                continue;
            };
            let ok = matches!(rx.recv_timeout(REPLY_TIMEOUT), Ok(Response::Ok));
            let now = Instant::now();
            tracer.span("runfor", req, None, sent, now);
            req += 1;
            if !ok {
                failed += BATCH;
                continue;
            }
            done += BATCH;
            rounds[i] += 1;
            last = now;
            if now - start < budget {
                attempted += BATCH;
                let from = rounds[i] * BATCH;
                waiting[i] = submit(&f.handles[i], batches.get(from), BATCH).map(|r| (r, now));
                failed += BATCH * waiting[i].is_none() as u64;
            }
        }
    }
    let elapsed = (last - start).as_secs_f64();
    let service_s = (shards.total() - cpu0).as_secs_f64();
    let target = rounds.iter().copied().max().unwrap_or(0) * BATCH;
    for (i, h) in f.handles.iter().enumerate() {
        let at = rounds[i] * BATCH;
        if f.live[i] && at < target {
            if let Some(rx) = submit(h, &load::events_range(seed, at, target), target - at) {
                let _ = rx.recv_timeout(REPLY_TIMEOUT);
            }
        }
    }
    let outcomes = f.outcomes();
    // Sessions refused at admission miss every tick the others ran.
    let refused = f.refused() * target;
    f.exec.shutdown();
    f.handles.clear();
    let updates = drain.join().expect("sink drain thread");
    PhaseA {
        updates,
        ticks_per_s: done as f64 / elapsed,
        cpu_ticks_per_s: done as f64 * shards.len() as f64 / service_s,
        attempted: attempted + refused,
        failed: failed + refused,
        service_us_per_tick: service_s * 1e6 / done.max(1) as f64,
        tick: target,
        outcomes,
    }
}

/// One session's grid as seen from the sink.
#[derive(Clone, Copy, Default)]
struct Grid {
    due: Option<Instant>,
    updates: u64,
    on_time: u64,
    skipped: u64,
}

struct PhaseB {
    late_ms: Samples,
    generator_late_ms: Samples,
    expected: u64,
    on_time: u64,
    failed: u64,
    server_deadline_miss: u64,
    shard_tick_skew: f64,
    outcomes: Vec<Option<Outcome>>,
}

/// Phase (b): open loop at real time, `ticks` ticks per session.
fn phase_b(seed: u64, f: &mut Fleet, ticks: u64, tracer: &Tracer) -> PhaseB {
    let n = f.handles.len();
    let sink = f.sink.take().expect("fresh fleet");
    // Consumer: stamp every update on arrival and place it on its
    // session's grid.
    let consumer = thread::spawn(move || {
        let mut grids = vec![Grid::default(); SESSIONS];
        let mut late = Samples::new("fleet.late_ms");
        let mut spans = Vec::new();
        for msg in sink.iter() {
            let Outbound::Frame(bytes) = msg else {
                continue;
            };
            let now = Instant::now();
            let Ok(Response::TickUpdate(u)) =
                split_frame(&bytes).and_then(|(op, p)| Response::decode(op, p))
            else {
                continue;
            };
            let Some(i) = u
                .session
                .strip_prefix('s')
                .and_then(|s| s.parse::<usize>().ok())
            else {
                continue;
            };
            let Some(g) = grids.get_mut(i) else {
                continue;
            };
            let due = g.due.unwrap_or(now);
            let behind = now.saturating_duration_since(due);
            let whole = (behind.as_nanos() / PERIOD.as_nanos()) as u32;
            g.due = Some(due + PERIOD * (whole + 1));
            g.skipped += whole as u64;
            g.updates += 1;
            g.on_time += (behind <= PERIOD / 2) as u64;
            late.push(behind.as_secs_f64() * 1e3);
            if i < SPAN_SESSIONS {
                spans.push((u.tick, due, now));
            }
        }
        (grids, late, spans)
    });
    // Generator: tick k's spikes go out LEAD periods before k is due,
    // on a fixed schedule whatever the sessions are doing.
    for h in &f.handles {
        let _ = h
            .injector()
            .offer(&load::events_range(seed, 0, LEAD.min(ticks)));
    }
    let injectors: Vec<_> = f.handles.iter().map(|h| h.injector().clone()).collect();
    let start = Instant::now();
    let generator = thread::spawn(move || {
        let mut late = Samples::new("fleet.generator_late_ms");
        let mut offered_failed = 0u64;
        for k in 0..ticks.saturating_sub(LEAD) {
            let due = start + PERIOD * k as u32;
            let now = Instant::now();
            if now < due {
                thread::sleep(due - now);
            }
            late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let ev = load::events(seed, k + LEAD);
            for inj in &injectors {
                match inj.offer(&ev) {
                    Ok(o) if o.dropped == 0 => {}
                    _ => offered_failed += 1,
                }
            }
        }
        (late, offered_failed)
    });
    let replies: Vec<Option<Receiver<Response>>> = (0..n)
        .map(|i| f.live[i].then(|| run_for(&f.handles[i], ticks)).flatten())
        .collect();
    // Wait for every session, sampling the per-shard tick counters.
    let deadline = start + PERIOD * (4 * ticks as u32) + Duration::from_secs(10);
    let mut done: Vec<Option<bool>> = replies
        .iter()
        .map(|r| r.is_none().then_some(false))
        .collect();
    let mut skew = 0f64;
    let per_shard = SESSIONS as f64 / tn_serve::default_shards(0) as f64;
    while done.iter().any(Option::is_none) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(50));
        let t = f.shard_counter("tn_shard_exec_ticks_total");
        let (lo, hi) = (
            t.iter().min().copied().unwrap_or(0),
            t.iter().max().copied().unwrap_or(0),
        );
        skew = skew.max((hi - lo) as f64 / per_shard);
        for (i, r) in replies.iter().enumerate() {
            if done[i].is_none() {
                if let Some(Ok(resp)) = r.as_ref().map(|r| r.try_recv()) {
                    done[i] = Some(matches!(resp, Response::Ok));
                }
            }
        }
    }
    let (generator_late_ms, offer_failed) = generator.join().expect("generator thread");
    let outcomes = f.outcomes();
    let server_deadline_miss = f
        .shard_counter("tn_shard_exec_deadline_miss_total")
        .iter()
        .sum();
    f.exec.shutdown();
    f.handles.clear();
    let (grids, late_ms, spans) = consumer.join().expect("sink consumer thread");
    for (tick, due, arrival) in spans {
        tracer.span("update", tick, None, due, arrival);
    }
    // Expected updates: every tick of every session, plus every grid
    // edge a live session skipped; a failed session misses all its own.
    let failed_sessions =
        (SESSIONS - n) as u64 + done.iter().filter(|d| **d != Some(true)).count() as u64;
    let expected = SESSIONS as u64 * ticks + grids.iter().map(|g| g.skipped).sum::<u64>();
    PhaseB {
        late_ms,
        generator_late_ms,
        expected,
        on_time: grids.iter().map(|g| g.on_time).sum(),
        failed: failed_sessions * ticks + offer_failed,
        server_deadline_miss,
        shard_tick_skew: skew,
        outcomes,
    }
}

/// Every live session ended in the local batch run's outcome.
fn gate(rep: &mut Report, name: &str, got: &[Option<Outcome>], want: Outcome) {
    let bad = got.iter().filter(|o| **o != Some(want)).count();
    rep.gate(
        name,
        bad == 0 && !got.is_empty(),
        format!(
            "{} of {} sessions at tick {} digest {:016x} sops {}",
            got.len() - bad,
            got.len(),
            want.tick,
            want.digest,
            want.sops
        ),
    );
}

/// Measure the fleet part for `seconds`; returns the median set-up time
/// of a fleet, in seconds.
pub fn run(ctx: &Ctx, seconds: f64, rep: &mut Report) -> Result<f64, String> {
    let tracer = Tracer::new(ctx.trace);
    let mut setups = Vec::new();
    // Per-session admission time and memory come from the first fleet:
    // later ones reuse the memory the spares freed.
    let mut first = None;
    for _ in 1..SETUPS {
        let spare = Fleet::new(ctx.seed, Pace::MaxSpeed);
        setups.push(spare.setup_s);
        first.get_or_insert((spare.admit_s, spare.rss_kb));
        spare.exec.shutdown();
    }
    let mut a = Fleet::new(ctx.seed, Pace::MaxSpeed);
    setups.push(a.setup_s);
    let (admit_s, rss_kb) = first.unwrap_or((a.admit_s, a.rss_kb));
    let share = if ctx.trace { 0.4 } else { 1.0 };
    let pa = phase_a(
        ctx.seed,
        &mut a,
        Duration::from_secs_f64(seconds * share),
        &tracer,
    );
    eprintln!(
        "  phase (a): {:.0} session-ticks/s ({:.0} on the shards' CPU time), to tick {}",
        pa.ticks_per_s, pa.cpu_ticks_per_s, pa.tick
    );
    rep.phase("fleet.a.session_ticks", pa.attempted, pa.failed);
    rep.fact("fleet.sessions", SESSIONS);
    rep.fact("fleet.cpu_ticks_per_s", pa.cpu_ticks_per_s);

    // Phase (b)'s lateness and misses track CPU time taken by other
    // tenants of a shared host (30-50% apart between runs), so it runs
    // in the traced run only, where its figures carry no bound.
    let pb = if ctx.trace {
        let ticks = ((seconds * 0.6) / PERIOD.as_secs_f64()).max(LEAD as f64 * 2.0) as u64;
        let mut b = Fleet::new(ctx.seed, Pace::RealTime);
        let pb = phase_b(ctx.seed, &mut b, ticks, &tracer);
        eprintln!(
            "  phase (b): {SESSIONS} sessions x {ticks} ticks at {PERIOD:?}: {} of {} expected updates on time",
            pb.on_time, pb.expected
        );
        rep.phase("fleet.b.session_ticks", pb.expected, pb.failed);
        Some((ticks, pb))
    } else {
        None
    };

    let ticks_b = pb.as_ref().map_or(pa.tick, |(t, _)| *t);
    let (local, kernel_us) = load::local_run(ctx.seed, &[pa.tick, ticks_b]);
    let at = |t: u64| {
        *local
            .iter()
            .find(|o| o.tick == t)
            .expect("local run records each tick asked")
    };
    gate(
        rep,
        "fleet_a_digests_equal_local_batch",
        &pa.outcomes,
        at(pa.tick),
    );
    let due = pa.outcomes.len() as u64 * pa.tick;
    rep.gate(
        "fleet_a_every_update_reached_the_sink",
        pa.updates == due,
        format!("{} updates for {due} session-ticks", pa.updates),
    );

    let q = |s: &Samples, p: f64| s.percentile(p).map(|q| q.value).map_err(|e| e.to_string());
    if let Some((ticks, pb)) = pb {
        gate(
            rep,
            "fleet_b_digests_equal_local_batch",
            &pb.outcomes,
            at(ticks),
        );
        rep.metric(
            "exec.admit_ms_per_session",
            admit_s * 1e3 / SESSIONS as f64,
            "ms",
        );
        rep.metric("exec.rss_kb_per_session", rss_kb / SESSIONS as f64, "kB");
        let kernel = q(&kernel_us, 50.0)?;
        rep.metric("exec.kernel_us_per_session_tick", kernel, "us");
        rep.metric(
            "exec.overhead_us_per_session_tick",
            pa.service_us_per_tick - kernel,
            "us",
        );
        rep.metric(
            "exec.server_deadline_miss",
            pb.server_deadline_miss as f64,
            "count",
        );
        rep.metric("exec.shard_tick_skew", pb.shard_tick_skew, "ticks");
        rep.metric(
            "fleet.generator_late_ms",
            q(&pb.generator_late_ms, 99.0)?,
            "ms",
        );
        rep.quantile("fleet.late_ms_p99", &pb.late_ms, 99.0, "ms")
            .map_err(|e| e.to_string())?;
        rep.metric(
            "fleet.miss_rate",
            1.0 - pb.on_time as f64 / pb.expected as f64,
            "share",
        );
        tracer
            .write_jsonl(&ctx.spans_path(), "fleet")
            .map_err(|e| format!("writing spans: {e}"))?;
    } else {
        rep.metric("fleet.ticks_per_s", pa.ticks_per_s, "1/s");
    }
    Ok(median(&setups))
}
