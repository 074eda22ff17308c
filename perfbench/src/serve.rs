//! The `serve-mixed` workload: the in-process `gasnub serve` under a
//! closed loop of two clients replaying the seeded request mix.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gasnub_core::json::Json;
use gasnub_core::{read_verified, ResilientSweep};
use gasnub_machines::{memo, Machine, MachineRegistry, MeasureLimits, ProbeTier, SpawnEngine};
use gasnub_perfbench::check::Tally;
use gasnub_perfbench::grid::seeded_grid;
use gasnub_perfbench::metrics::SOURCES;
use gasnub_perfbench::mix::{self, Kind, Request};
use gasnub_perfbench::reference::Reference;
use gasnub_perfbench::scratch::Scratch;
use gasnub_perfbench::spans::{self, Span, Spans};
use gasnub_perfbench::stats::{median, percentile};
use gasnub_serve::http::{read_request, write_response, Response};
use gasnub_serve::server::source;
use gasnub_serve::{ServeConfig, Server};

use crate::sweeps::resolve;
use crate::{layers, Args, Outcome};

/// Closed-loop clients: one per CPU of the 2-CPU reference host.
const CLIENTS: u64 = 2;

/// Set-up repetitions (each boots, pre-computes and restarts a server).
const SETUP_REPS: usize = 3;

/// Requests kept per client for the HTTP replay.
const REPLAY_KEEP: usize = 200;

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    thread: JoinHandle<gasnub_machines::CounterSet>,
}

fn boot(state: &Path) -> Result<Running, String> {
    let server = Server::bind(ServeConfig::new("127.0.0.1:0", state))?;
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    Ok(Running { addr, thread })
}

fn stop(running: Running) -> Result<(), String> {
    let mut conn = Conn::open(running.addr).map_err(|e| format!("shutdown connect: {e}"))?;
    conn.send("POST", "/v1/shutdown", "", true)
        .map_err(|e| format!("shutdown: {e}"))?;
    let reply = conn.recv()?;
    if reply.status != 200 {
        return Err(format!("shutdown answered {}", reply.status));
    }
    running
        .thread
        .join()
        .map(|_| ())
        .map_err(|_| "the server thread panicked".to_string())
}

/// One parsed response.
struct Reply {
    status: u16,
    source: Option<&'static str>,
    body: String,
}

/// A client connection with a read buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request; returns its bytes.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> std::io::Result<Vec<u8>> {
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: gasnub\r\nContent-Length: {}\r\n{}\r\n{body}",
            body.len(),
            if close { "Connection: close\r\n" } else { "" }
        )
        .into_bytes();
        self.stream.write_all(&raw)?;
        Ok(raw)
    }

    /// Reads one response.
    fn recv(&mut self) -> Result<Reply, String> {
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed before a response".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or("bad status line")?;
        let (mut len, mut src) = (0usize, None);
        for line in lines {
            if let Some((k, v)) = line.split_once(':') {
                match k.trim().to_ascii_lowercase().as_str() {
                    "content-length" => len = v.trim().parse().map_err(|_| "bad content-length")?,
                    "x-gasnub-source" => {
                        src = SOURCES.iter().copied().find(|s| *s == v.trim());
                    }
                    _ => {}
                }
            }
        }
        let total = head_end + 4 + len;
        while self.buf.len() < total {
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-body".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(self.buf[head_end + 4..total].to_vec())
            .map_err(|_| "non-UTF-8 body")?;
        self.buf.drain(..total);
        Ok(Reply {
            status,
            source: src,
            body,
        })
    }
}

/// One answered request.
struct Sample {
    kind: Kind,
    source: Option<&'static str>,
    ms: f64,
    cells: u64,
}

/// What one client recorded in one phase.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    failed: Vec<String>,
    connect_us: Vec<f64>,
    /// Per request body: the request and the first response body.
    first: HashMap<String, (Request, String)>,
    /// Requests whose response differed from the first for the same body.
    inconsistent: u64,
    /// Requests answered, for the replay sample.
    replay: Vec<(Vec<u8>, u16, Option<&'static str>, String)>,
    wall: f64,
}

/// Root span name of an answered request.
fn root_name(kind: Kind, source: Option<&'static str>) -> &'static str {
    match (kind, source) {
        (Kind::Probe, _) => "serve.probe",
        (_, Some("computed")) => "serve.sweep.computed",
        (_, Some("coalesced")) => "serve.sweep.coalesced",
        (_, Some("memory")) => "serve.sweep.memory",
        (_, Some("disk")) => "serve.sweep.disk",
        _ => "serve.sweep.unknown",
    }
}

/// Replays `stream` against `addr` until `deadline`, one connection of
/// 1–8 keep-alive requests at a time, waiting for every reply.
fn client_phase(
    addr: SocketAddr,
    stream: &mut mix::Client,
    deadline: Instant,
    spans: Option<&Spans>,
    log: &mut ClientLog,
) {
    let start = Instant::now();
    let mut answered = 0usize;
    'conns: while Instant::now() < deadline {
        let requests = stream.next_connection();
        let mut conn: Option<Conn> = None;
        for (j, req) in requests.iter().enumerate() {
            if Instant::now() >= deadline {
                break 'conns;
            }
            let close = j + 1 == requests.len();
            let t0 = Instant::now();
            let root = spans.map(Spans::root);
            if conn.is_none() {
                let open = spans.zip(root.as_ref()).map(|(s, r)| s.child(r));
                let c = Instant::now();
                match Conn::open(addr) {
                    Ok(c) => conn = Some(c),
                    Err(e) => {
                        log.failed.push(format!("connect: {e}"));
                        continue 'conns;
                    }
                }
                log.connect_us.push(c.elapsed().as_secs_f64() * 1e6);
                if let (Some(s), Some(o)) = (spans, open) {
                    s.close(o, "serve.connect", "");
                }
            }
            let c = conn.as_mut().expect("connected above");
            let open = spans.zip(root.as_ref()).map(|(s, r)| s.child(r));
            let sent = c.send("POST", req.path(), &req.body, close);
            if let (Some(s), Some(o)) = (spans, open) {
                s.close(o, "serve.http.send", "");
            }
            let result = sent
                .map_err(|e| format!("send: {e}"))
                .and_then(|raw| Ok((raw, c.recv()?)));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let (raw, reply) = match result {
                Ok(ok) => ok,
                Err(e) => {
                    log.failed.push(format!("{} {}: {e}", req.path(), req.body));
                    continue 'conns;
                }
            };
            if let (Some(s), Some(r)) = (spans, root) {
                s.close(r, root_name(req.kind, reply.source), req.machine);
            }
            if reply.status != 200 || (req.kind != Kind::Probe && reply.source.is_none()) {
                log.failed.push(format!(
                    "{} {} answered {} ({:?})",
                    req.path(),
                    req.body,
                    reply.status,
                    reply.source
                ));
                continue;
            }
            log.samples.push(Sample {
                kind: req.kind,
                source: reply.source,
                ms,
                cells: req.cells(),
            });
            answered += 1;
            if answered % 16 == 1 && log.replay.len() < REPLAY_KEEP {
                log.replay
                    .push((raw, reply.status, reply.source, reply.body.clone()));
            }
            match log.first.get(&req.body) {
                Some((_, first)) if *first != reply.body => log.inconsistent += 1,
                Some(_) => {}
                None => {
                    log.first
                        .insert(req.body.clone(), (req.clone(), reply.body));
                }
            }
        }
    }
    log.wall += start.elapsed().as_secs_f64();
}

/// Runs the clients for `seconds`; returns the phase's wall time (from
/// the start to the last client's finish).
fn phase(
    addr: SocketAddr,
    streams: &mut [mix::Client],
    logs: &mut [ClientLog],
    seconds: f64,
    spans: Option<&Spans>,
) -> f64 {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for (stream, log) in streams.iter_mut().zip(logs.iter_mut()) {
            scope.spawn(move || client_phase(addr, stream, deadline, spans, log));
        }
    });
    start.elapsed().as_secs_f64()
}

/// The server's counters, as a name → value map.
fn metrics(addr: SocketAddr) -> Result<HashMap<String, u64>, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("metrics connect: {e}"))?;
    conn.send("GET", "/metrics", "", true)
        .map_err(|e| format!("metrics: {e}"))?;
    let reply = conn.recv()?;
    let doc = Json::parse(&reply.body).map_err(|e| format!("metrics body: {e}"))?;
    let Json::Object(map) = doc else {
        return Err("metrics body is not an object".into());
    };
    Ok(map
        .into_iter()
        .filter_map(|(k, v)| v.as_u64().map(|v| (k, v)))
        .collect())
}

/// The offline answer to `req`, as `gasnub sweep` / a direct probe gives
/// it; compares it with the served `body`.
fn offline_matches(
    req: &Request,
    body: &str,
    registry: &MachineRegistry,
    path: &Path,
) -> Result<bool, String> {
    let spec = registry
        .resolve(req.machine)
        .map_err(|e| e.to_string())?
        .clone()
        .with_limits(MeasureLimits::fast());
    let mut engine = spec.spawn_engine().map_err(|e| e.to_string())?;
    if req.kind == Kind::Probe {
        let (ws, stride) = req.grid.cell(0);
        let want = req.op.measure(&mut engine, ws, stride).map(f64::to_bits);
        let got = Json::parse(body)
            .ok()
            .and_then(|d| d.get("mb_s_bits").and_then(Json::as_u64));
        return Ok(want == got);
    }
    let title = req
        .op
        .checkpoint_title(&engine.name(), false, ProbeTier::Simulate);
    let _ = std::fs::remove_file(path);
    ResilientSweep::new(path)
        .with_spec_hash(spec.spec_hash())
        .with_fsync(false)
        .run_parallel_op(&title, &req.grid, 1, &spec, req.op)
        .map_err(|e| e.to_string())?;
    let offline = read_verified(path)
        .map_err(|e| e.to_string())?
        .ok_or("offline sweep left no checkpoint")?;
    let _ = std::fs::remove_file(path);
    Ok(offline == body)
}

/// Replays recorded requests and responses over a loopback pair, timing
/// `read_request` and `write_response`; returns median µs of each.
fn http_replay(
    recorded: &[(Vec<u8>, u16, Option<&'static str>, String)],
) -> Result<(f64, f64), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut client = TcpStream::connect(listener.local_addr().map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let (mut server, _) = listener.accept().map_err(|e| e.to_string())?;
    client.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = Conn {
        stream: client.try_clone().map_err(|e| e.to_string())?,
        buf: Vec::new(),
    };
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for (raw, status, src, body) in recorded {
        client.write_all(raw).map_err(|e| e.to_string())?;
        let t = Instant::now();
        read_request(&mut server).map_err(|e| format!("replayed request: {e:?}"))?;
        reads.push(t.elapsed().as_secs_f64() * 1e6);
        let response = Response {
            status: *status,
            body: body.clone(),
            source: src.map(|s| match s {
                "computed" => source::COMPUTED,
                "coalesced" => source::COALESCED,
                "memory" => source::MEMORY,
                _ => source::DISK,
            }),
        };
        let t = Instant::now();
        write_response(&mut server, &response, true).map_err(|e| e.to_string())?;
        writes.push(t.elapsed().as_secs_f64() * 1e6);
        let back = reader.recv()?;
        if back.body != *body {
            return Err("replayed response differs from the recorded one".into());
        }
    }
    Ok((
        median(&reads).unwrap_or(0.0),
        median(&writes).unwrap_or(0.0),
    ))
}

fn ms_of(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples.iter().filter(|s| keep(s)).map(|s| s.ms).collect()
}

fn is_hit(s: &Sample) -> bool {
    matches!(s.source, Some("memory" | "disk" | "coalesced"))
}

/// `serve-mixed`.
pub fn serve_mixed(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut streams: Vec<mix::Client> = (0..CLIENTS)
        .map(|c| mix::Client::new(args.seed, c, CLIENTS))
        .collect();
    let spans = Spans::new();
    let mut plain: Vec<ClientLog> = (0..CLIENTS).map(|_| ClientLog::default()).collect();
    let mut traced: Vec<ClientLog> = (0..CLIENTS).map(|_| ClientLog::default()).collect();
    let (mut plain_wall, mut traced_wall) = (0.0, 0.0);
    let mut server_counts: HashMap<String, u64> = HashMap::new();
    // Each set-up is followed by a third of the measured load on the
    // server it leaves running, so the measurement spans the whole run
    // instead of one window of this host's drifting latency.
    for rep in 0..SETUP_REPS {
        memo::clear();
        let state = scratch.join(format!("state-{rep}"));
        let t = Instant::now();
        let earlier = boot(&state)?;
        let mut conn = Conn::open(earlier.addr).map_err(|e| format!("set-up connect: {e}"))?;
        for req in mix::precomputed(args.seed) {
            conn.send("POST", req.path(), &req.body, false)
                .map_err(|e| format!("set-up send: {e}"))?;
            let reply = conn.recv()?;
            if reply.status != 200 {
                return Err(format!(
                    "set-up sweep {} answered {}",
                    req.body, reply.status
                ));
            }
        }
        drop(conn);
        stop(earlier)?;
        let server = boot(&state)?;
        setup.push(t.elapsed().as_secs_f64());

        let addr = server.addr;
        let before = metrics(addr)?;
        let chunk = args.seconds / SETUP_REPS as f64;
        if args.trace {
            // Half untraced, half traced, the order flipped every chunk,
            // so a drift over the run hits both sides alike.
            for traced_phase in [rep % 2 == 1, rep % 2 == 0] {
                if traced_phase {
                    traced_wall +=
                        phase(addr, &mut streams, &mut traced, chunk / 2.0, Some(&spans));
                } else {
                    plain_wall += phase(addr, &mut streams, &mut plain, chunk / 2.0, None);
                }
            }
        } else {
            plain_wall += phase(addr, &mut streams, &mut plain, chunk, None);
        }
        let after = metrics(addr)?;
        for (name, value) in &after {
            let delta = value.saturating_sub(before.get(name).copied().unwrap_or(0));
            let total = server_counts.entry(name.clone()).or_insert(0);
            *total = match name.as_str() {
                "serve.queue_depth_peak" | "memo.entries" => (*total).max(*value),
                _ => *total + delta,
            };
        }
        stop(server)?;
        let _ = std::fs::remove_dir_all(&state);
    }
    let rss_mb = layers::rss_peak_mb()?;

    // Output checks, outside the timed window.
    let mut tally = Tally::default();
    let registry = MachineRegistry::discover();
    let mut firsts: HashMap<String, (Request, String)> = HashMap::new();
    let mut replay = Vec::new();
    let mut connect_us = Vec::new();
    let mut inconsistent = 0u64;
    for log in plain.iter_mut().chain(traced.iter_mut()) {
        for f in log.failed.drain(..) {
            tally.fail(1, f);
        }
        inconsistent += log.inconsistent;
        for (body, (req, first)) in log.first.drain() {
            match firsts.get(&body) {
                Some((_, seen)) if *seen != first => inconsistent += 1,
                Some(_) => {}
                None => {
                    firsts.insert(body, (req, first));
                }
            }
        }
        replay.append(&mut log.replay);
        connect_us.append(&mut log.connect_us);
    }
    let answered: u64 = plain
        .iter()
        .chain(traced.iter())
        .map(|l| l.samples.len() as u64)
        .sum();
    tally.pass(answered);
    let path = scratch.join("offline.json");
    for (req, body) in firsts.values() {
        if !offline_matches(req, body, &registry, &path)? {
            tally.fail_check(format!(
                "{} {}: served body differs from offline",
                req.path(),
                req.body
            ));
        }
    }
    for _ in 0..inconsistent {
        tally.fail_check("a response differs from the first answer to the same request");
    }

    let surfaces = resolve()?;
    let grid = seeded_grid(args.seed);
    let counter = |name: &str| server_counts.get(name).copied().unwrap_or(0);
    if args.trace {
        let recorded = spans.take();
        let samples: Vec<Sample> = traced
            .iter_mut()
            .flat_map(|l| l.samples.drain(..))
            .collect();
        serve_layers(&recorded, &samples, &mut out);
        let client_wall: f64 = traced.iter().map(|l| l.wall).sum();
        let (worst, accounted) = spans::ledger(&recorded);
        if worst > layers::LEDGER_TOLERANCE {
            tally.fail_check(format!(
                "span ledger: a request's self times miss its wall time by {:.2}%",
                worst * 100.0
            ));
        }
        out.set("trace.ledger_gap_max_pct", worst * 100.0);
        out.set(
            "trace.unaccounted_pct",
            (client_wall * 1e9 - accounted as f64) / (client_wall * 1e9) * 100.0,
        );
        let plain_n: usize = plain.iter().map(|l| l.samples.len()).sum();
        out.set(
            "trace.overhead_pct",
            (plain_n as f64 / plain_wall) / (samples.len() as f64 / traced_wall) * 100.0 - 100.0,
        );
        let hits = counter("memo.hits");
        let misses = counter("memo.misses");
        let ratio = hits as f64 / (hits + misses).max(1) as f64;
        out.set("serve.memo_hit_ratio", ratio);
        out.set("machines.memo.hit_ratio", ratio);
        out.set("machines.memo.entries", counter("memo.entries") as f64);
        out.set(
            "serve.queue_depth_peak",
            counter("serve.queue_depth_peak") as f64,
        );
        out.set("serve.connect_us", median(&connect_us).unwrap_or(0.0));
        let (read_us, write_us) = http_replay(&replay)?;
        out.set("serve.http.read_us", read_us);
        out.set("serve.http.write_us", write_us);
        let payloads: Vec<String> = firsts
            .values()
            .filter(|(r, _)| r.kind == Kind::SharedSweep)
            .map(|(_, b)| b.clone())
            .collect();
        layers::side_layers(&surfaces, &grid, &payloads, scratch, &mut tally, &mut out)?;
        for name in [
            "machines.spawns",
            "machines.probe_share",
            "coherence.pull_probe_ms",
            "interconnect.deposit_probe_ms",
            "interconnect.fetch_probe_ms",
            "core.runner_us_per_cell",
        ] {
            out.set(name, 0.0);
        }
        for m in gasnub_perfbench::grid::MACHINES {
            out.set(format!("machines.sim_probe_ms.{m}"), 0.0);
        }
        out.note(format!(
            "traced {} requests; server memo {hits} hits / {misses} misses",
            samples.len()
        ));
        layers::write_spans(&recorded, args)?;
    } else {
        let samples: Vec<Sample> = plain.iter_mut().flat_map(|l| l.samples.drain(..)).collect();
        let cells: u64 = samples.iter().map(|s| s.cells).sum();
        out.set("setup_s", median(&setup).unwrap_or(0.0));
        out.set("cells_per_s", cells as f64 / plain_wall);
        out.set("req_per_s", samples.len() as f64 / plain_wall);
        let all = ms_of(&samples, |_| true);
        out.set("paper_err_max_pct", layers::paper_err_max_pct(&surfaces)?);
        let models = layers::fresh_models(&surfaces, false)?;
        out.set(
            "residual_max_pct",
            layers::residual_max_pct(&surfaces, &models, &Reference::committed()?, &mut tally),
        );
        let tail = |name: &str, v: &[f64], p: f64| {
            percentile(v, p).map_or(format!("{name} refused (n={})", v.len()), |x| {
                format!("{name} {x:.4} ms (n={})", v.len())
            })
        };
        out.note(format!(
            "{} requests in {plain_wall:.3} s; failed_ratio {}; rss_peak_mb {rss_mb:.2} MB; \
             {}; {}; {}; {}; {}",
            samples.len(),
            tally.failed_ratio(),
            tail("p50_ms", &all, 50.0),
            tail("p99_ms", &all, 99.0),
            tail(
                "probe_p99_ms",
                &ms_of(&samples, |s| s.kind == Kind::Probe),
                99.0
            ),
            tail("sweep_hit_p99_ms", &ms_of(&samples, is_hit), 99.0),
            tail(
                "sweep_miss_p50_ms",
                &ms_of(&samples, |s| s.source == Some("computed")),
                50.0
            ),
        ));
        out.note(format!(
            "server: {} surfaces computed, {} from memory, {} from disk, {} coalesced",
            counter("serve.sweeps_computed"),
            counter("serve.sweep_cache_hits_memory"),
            counter("serve.sweep_cache_hits_disk"),
            counter("serve.sweeps_coalesced"),
        ));
    }
    out.tally = tally;
    Ok(out)
}

/// Per-layer serve metrics from the traced requests.
fn serve_layers(recorded: &[Span], samples: &[Sample], out: &mut Outcome) {
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    for src in SOURCES {
        let v = ms_of(samples, |s| s.source == Some(src));
        out.set(format!("serve.latency_p50_ms.{src}"), p(&v, 50.0));
        out.set(format!("serve.samples.{src}"), v.len() as f64);
    }
    let probes = ms_of(samples, |s| s.kind == Kind::Probe);
    out.set("serve.p50_ms", p(&ms_of(samples, |_| true), 50.0));
    out.set("serve.p99_ms", p(&ms_of(samples, |_| true), 99.0));
    out.set("serve.probe_p99_ms", p(&probes, 99.0));
    out.set("serve.samples.probe", probes.len() as f64);
    out.set("serve.sweep_hit_p99_ms", p(&ms_of(samples, is_hit), 99.0));
    out.set(
        "serve.sweep_miss_p50_ms",
        p(&ms_of(samples, |s| s.source == Some("computed")), 50.0),
    );
    let sweeps = samples.iter().filter(|s| s.kind != Kind::Probe).count();
    let reused = samples.iter().filter(|s| is_hit(s)).count();
    out.set("serve.reuse_ratio", reused as f64 / sweeps.max(1) as f64);
    let shares = spans::layer_self_times(recorded);
    out.note(format!("request self time by layer (ns): {shares:?}"));
}
