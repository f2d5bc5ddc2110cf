//! The wire part of each workload: a closed-loop TCP client on one
//! connection to an in-process `tn-serve` server, first against a plain
//! reference session, then against a session created with
//! `CreateShardedSession` over two in-process shard workers.
//!
//! Each cycle is `InjectSpikes` for the next tick and a one-tick
//! `RunFor`; every [`SNAPSHOT_EVERY`]th cycle on the plain session adds
//! a `Snapshot`, a bulk read beside the small requests. The board is
//! small, so socket I/O, the server's poll loop, the codec and the
//! shards' boundary exchange dominate, not the kernel.

use crate::load::{self, Outcome};
use crate::report::Report;
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::Ctx;
use std::time::{Duration, Instant};
use tn_core::{modelfile, NetworkSnapshot};
use tn_serve::protocol::split_frame;
use tn_serve::{
    Client, Engine, ModelSource, Pace, Request, Response, Server, ServerConfig, ServerHandle,
    TickUpdate,
};
use tn_shard::{ShardSpec, ShardedSession};

/// Cycles per `Snapshot`: the cadence at which a sharded session's
/// coordinator takes its own heal snapshots (`ShardSpec::default()`'s
/// `snapshot_every`).
const SNAPSHOT_EVERY: u64 = 32;
/// The sharded cycle runs at least this many times: its p90 needs 100.
const MIN_SHARD_CYCLES: u64 = 110;
/// The plain cycle runs at least this many times: its p99 needs 1000.
const MIN_PLAIN_CYCLES: u64 = 1100;
/// Steps of the sharded session driven without the server: its median
/// needs 20.
const DIRECT_SHARD_TICKS: u64 = 40;
const SHARDS: u16 = 2;
/// Set-ups per run; all but the last server are shut down unused.
const SETUPS: usize = 5;
const PLAIN: &str = "plain";
const SHARDED: &str = "sharded";

struct Served {
    server: ServerHandle,
    client: Client,
    setup_s: f64,
}

/// Start a server, connect, and create both sessions from the board's
/// model file.
fn setup(seed: u64) -> Result<Served, String> {
    let t0 = Instant::now();
    let model = modelfile::save(&load::board(seed));
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: SHARDS as usize,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("starting the server: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connecting: {e}"))?;
    client
        .set_io_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let plain = client.create_session(
        PLAIN,
        Engine::Reference,
        Pace::MaxSpeed,
        ModelSource::Model(model.clone()),
    );
    let sharded = client.create_sharded_session(
        SHARDED,
        Pace::MaxSpeed,
        ModelSource::Model(model),
        "",
        SHARDS,
    );
    for (name, r) in [(PLAIN, plain), (SHARDED, sharded)] {
        match r {
            Ok(Response::Created { .. }) => {}
            other => return Err(format!("creating the {name} session: {other:?}")),
        }
    }
    Ok(Served {
        server,
        client,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// One session's cycles.
struct Cycles {
    cycle_us: Samples,
    inject_us: Samples,
    run_us: Samples,
    snapshot_ms: Samples,
    snapshot: Vec<u8>,
    ticks: u64,
    requests: u64,
    failed: u64,
}

/// Run inject+step cycles for `budget` (and at least `min` cycles).
fn cycles(
    seed: u64,
    c: &mut Client,
    session: &str,
    budget: Duration,
    min: u64,
    snapshots: bool,
    tracer: &Tracer,
) -> Cycles {
    let mut r = Cycles {
        cycle_us: Samples::new(&format!("{session}.cycle_us")),
        inject_us: Samples::new(&format!("{session}.inject_us")),
        run_us: Samples::new(&format!("{session}.run_us")),
        snapshot_ms: Samples::new(&format!("{session}.snapshot_ms")),
        snapshot: Vec::new(),
        ticks: 0,
        requests: 0,
        failed: 0,
    };
    let start = Instant::now();
    while r.ticks < min || start.elapsed() < budget {
        let t = r.ticks;
        let a = Instant::now();
        let inject = c.inject(session, &load::events(seed, t));
        let b = Instant::now();
        let run = c.step(session);
        let e = Instant::now();
        r.requests += 2;
        let cycle = tracer.span("cycle", t, None, a, e);
        tracer.span("inject", t, Some(cycle), a, b);
        tracer.span("run", t, Some(cycle), b, e);
        let inject_ok = matches!(inject, Ok(Response::InjectAck { .. }));
        let run_ok = matches!(run, Ok(Response::Ok));
        if !(inject_ok && run_ok) {
            // A failed cycle misses any latency limit: it sorts last.
            r.failed += !inject_ok as u64 + !run_ok as u64;
            r.cycle_us.push(f64::INFINITY);
            break;
        }
        r.ticks += 1;
        r.cycle_us.push((e - a).as_secs_f64() * 1e6);
        r.inject_us.push((b - a).as_secs_f64() * 1e6);
        r.run_us.push((e - b).as_secs_f64() * 1e6);
        if snapshots && r.ticks.is_multiple_of(SNAPSHOT_EVERY) {
            let a = Instant::now();
            let snap = c.snapshot(session);
            let e = Instant::now();
            r.requests += 1;
            tracer.span("snapshot", t, None, a, e);
            match snap {
                Ok(Response::SnapshotData { bytes }) => {
                    r.snapshot_ms.push((e - a).as_secs_f64() * 1e3);
                    r.snapshot = bytes;
                }
                _ => {
                    r.failed += 1;
                    r.snapshot_ms.push(f64::INFINITY);
                }
            }
        }
    }
    r
}

fn stats(c: &mut Client, session: &str) -> Option<Outcome> {
    match c.stats(session) {
        Ok(Response::StatsData(s)) => Some(Outcome {
            tick: s.tick,
            digest: s.state_digest,
            sops: s.sops,
        }),
        _ => None,
    }
}

/// Nanoseconds per call of `f`, over enough calls to take ~`ms` ms.
fn ns_per_call(ms: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed() < Duration::from_millis(ms) {
        for _ in 0..16 {
            f();
        }
        n += 16;
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

/// The codec's share: encode the cycle's inject request, decode a tick
/// update frame, decode the snapshot the server sent.
fn codec(seed: u64, snapshot: &[u8], rep: &mut Report) -> Result<(), String> {
    let inject = Request::InjectSpikes {
        session: PLAIN.into(),
        events: load::events(seed, 0),
    };
    rep.metric(
        "codec.inject_encode_ns",
        ns_per_call(200, || {
            std::hint::black_box(std::hint::black_box(&inject).encode());
        }),
        "ns",
    );
    let update = Response::TickUpdate(TickUpdate {
        session: PLAIN.into(),
        tick: 1234,
        spikes_out: 80,
        sops: 10_000,
        energy_j: 0.0,
        ports: Vec::new(),
    })
    .encode();
    rep.metric(
        "codec.update_decode_ns",
        ns_per_call(200, || {
            let (op, payload) =
                split_frame(std::hint::black_box(&update)).expect("well-formed frame");
            std::hint::black_box(Response::decode(op, payload).expect("decodes"));
        }),
        "ns",
    );
    NetworkSnapshot::from_bytes(snapshot).map_err(|e| format!("snapshot from the server: {e}"))?;
    rep.metric(
        "codec.snapshot_decode_ms",
        ns_per_call(300, || {
            std::hint::black_box(NetworkSnapshot::from_bytes(std::hint::black_box(snapshot)).ok());
        }) / 1e6,
        "ms",
    );
    rep.metric("wire.snapshot_bytes", snapshot.len() as f64, "count");
    Ok(())
}

/// Drive `tn_shard::ShardedSession` directly (no server in front) for
/// `ticks` steps: the boundary exchange alone.
fn direct_shard(seed: u64, ticks: u64, rep: &mut Report) -> Result<(), String> {
    use tn_compass::KernelSession;
    let spec = ShardSpec {
        shards: SHARDS as usize,
        ..ShardSpec::default()
    };
    let mut s = ShardedSession::launch(load::board(seed), &spec)
        .map_err(|e| format!("launching shards: {e}"))?;
    let mut src = load::Schedule { seed };
    let mut step_us = Samples::new("shard.direct_step_us");
    for _ in 0..ticks {
        let a = Instant::now();
        s.step(&mut src);
        step_us.push(a.elapsed().as_secs_f64() * 1e6);
    }
    let q = step_us.percentile(50.0).map_err(|e| e.to_string())?;
    rep.metric("shard.direct_step_us_p50", q.value, "us");
    rep.metric(
        "shard.boundary_spikes_per_tick",
        s.boundary_spikes() as f64 / ticks as f64,
        "count",
    );
    Ok(())
}

/// Measure the wire part for `seconds`; returns the median set-up time
/// of a server with both sessions, in seconds.
pub fn run(ctx: &Ctx, seconds: f64, rep: &mut Report) -> Result<f64, String> {
    let tracer = Tracer::new(ctx.trace);
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let s = setup(ctx.seed)?;
        setups.push(s.setup_s);
        drop(s.client);
        s.server.shutdown();
    }
    let mut s = setup(ctx.seed)?;
    setups.push(s.setup_s);
    let plain_budget = Duration::from_secs_f64(seconds * 0.25);
    let plain = cycles(
        ctx.seed,
        &mut s.client,
        PLAIN,
        plain_budget,
        MIN_PLAIN_CYCLES,
        true,
        &tracer,
    );
    // The sharded cycle's p90 rests on a few hundred cycles, 44 ms each.
    let shard_budget = Duration::from_secs_f64(seconds * if ctx.trace { 0.3 } else { 0.7 });
    let sharded = cycles(
        ctx.seed,
        &mut s.client,
        SHARDED,
        shard_budget,
        MIN_SHARD_CYCLES,
        false,
        &tracer,
    );
    let got_plain = stats(&mut s.client, PLAIN);
    let got_sharded = stats(&mut s.client, SHARDED);
    drop(s.client);
    s.server.shutdown();
    eprintln!(
        "  plain: {} cycles; sharded: {} cycles",
        plain.ticks, sharded.ticks
    );
    for (name, c) in [("wire.plain", &plain), ("wire.sharded", &sharded)] {
        rep.phase(&format!("{name}.requests"), c.requests, c.failed);
    }

    let (local, kernel_us) = load::local_run(ctx.seed, &[plain.ticks, sharded.ticks]);
    for (name, got, ticks) in [
        (PLAIN, got_plain, plain.ticks),
        (SHARDED, got_sharded, sharded.ticks),
    ] {
        let want = *local
            .iter()
            .find(|o| o.tick == ticks)
            .expect("local run records each tick asked");
        rep.gate(
            &format!("{name}_digest_equals_local_batch"),
            got == Some(want),
            format!("{got:?} vs local {want:?}"),
        );
    }

    let q = |s: &Samples, p: f64| s.percentile(p).map(|q| q.value).map_err(|e| e.to_string());
    if ctx.trace {
        // The cycle's tail tracks CPU time taken by other tenants of a
        // shared host (p99 1.1-3.0 ms over four 20 s runs), so it is a
        // traced-run figure, with no bound.
        rep.quantile("wire.step_us_p99", &plain.cycle_us, 99.0, "us")
            .map_err(|e| e.to_string())?;
        rep.metric("wire.inject_us_p50", q(&plain.inject_us, 50.0)?, "us");
        rep.metric("wire.run_us_p50", q(&plain.run_us, 50.0)?, "us");
        let kernel = q(&kernel_us, 50.0)?;
        rep.metric("wire.kernel_us_per_step", kernel, "us");
        rep.metric(
            "wire.overhead_us_p50",
            q(&plain.cycle_us, 50.0)? - kernel,
            "us",
        );
        codec(ctx.seed, &plain.snapshot, rep)?;
        direct_shard(ctx.seed, DIRECT_SHARD_TICKS, rep)?;
        tracer
            .write_jsonl(&ctx.spans_path(), "wire")
            .map_err(|e| format!("writing spans: {e}"))?;
    } else {
        let e = |e: crate::stats::TooFewSamples| e.to_string();
        rep.quantile("wire.step_us_p50", &plain.cycle_us, 50.0, "us")
            .map_err(e)?;
        rep.quantile("shard.step_us_p50", &sharded.cycle_us, 50.0, "us")
            .map_err(e)?;
        rep.quantile("shard.step_us_p90", &sharded.cycle_us, 90.0, "us")
            .map_err(e)?;
        rep.quantile("wire.snapshot_ms_p50", &plain.snapshot_ms, 50.0, "ms")
            .map_err(e)?;
    }
    rep.fact("wire.step_us_p99", q(&plain.cycle_us, 99.0)?);
    rep.fact("wire.snapshot_every", SNAPSHOT_EVERY);
    rep.fact("wire.snapshot_bytes", plain.snapshot.len());
    Ok(median(&setups))
}
