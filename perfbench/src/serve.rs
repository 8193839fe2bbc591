//! Workloads `serve-cold` and `serve-edit`: the `repro-serve` daemon
//! with its default settings (two workers), driven over its socket
//! from this one process.

use crate::daemon::{analyze_line, stat, Answer, Daemon};
use crate::gen::{self, Rng, Shape};
use crate::layers::Job;
use crate::report::{frac, set_layer_rows, Report};
use crate::stats::{median, tail, tail_capped};
use crate::{Call, Opts, Oracle};
use obs::json::Json;
use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Daemon start-ups measured per round, beside the measured daemon's
/// own; the median of all is reported.
const SETUPS_PER_ROUND: usize = 4;
/// Idle pings for the round-trip time.
const PINGS: usize = 200;

/// Each serve workload runs in this many rounds, so every metric's
/// samples spread over the whole run: the host's speed drifts within a
/// run, and a metric taken from one end of it would read the drift.
const ROUNDS: usize = 8;
/// serve-cold's reference rate (requests per second), where `p50_ms`
/// and `tail_ms` are taken, and the share of `--seconds` spent there.
const REF_RATE: f64 = 25.0;
const REF_SHARE: f64 = 0.5;
/// Requests kept in flight by a saturating phase: four per daemon
/// worker, so both workers always have requests queued even when the
/// client's threads wait for a core, while the queue, and with it every
/// latency, stays bounded.
const WINDOW: usize = 8;
/// serve-cold's saturated requests per second of `--seconds`. A fixed
/// count, not a time, so every run leaves the same work in the store.
const SAT_PER_SECOND: f64 = 40.0;

/// serve-cold programs: two loops of each kind, trip counts split
/// afresh per program (never repeated within a run) from one total, so
/// every request does about the same work.
const COLD_SHAPE: Shape = Shape {
    loops: 8,
    min_n: 32,
    max_n: 128,
    total: Some(640),
};

/// serve-edit's larger programs, also the base of serve-cold's edit
/// probe.
const EDIT_SHAPE: Shape = Shape {
    loops: 16,
    min_n: 48,
    max_n: 128,
    total: Some(1408),
};

/// serve-edit: a few larger programs, edited in a fixed rhythm of three
/// constant edits to one structural edit. `table3_met_frac` follows
/// which planted loops of these bases the finder misses, so together
/// they plant 72 patterns, enough that one miss moves it by little.
const EDIT_BASES: usize = 6;
const EDIT_RHYTHM: usize = 4;
/// Closed-loop and saturated edits per second of `--seconds`: the
/// session is a fixed number of edits (a little under `--seconds` long
/// on a two-core host), so every run leaves the same amount of new work
/// in the store and the daemon's peak memory does not follow its speed.
const EDITS_PER_SECOND: f64 = 70.0;
const SAT_EDITS_PER_SECOND: f64 = 30.0;
/// The session's length follows the program's speed, so its tail is
/// held at one percentile: p95 sits inside the structural mode, the
/// slowest quarter of edits.
const EDIT_TAIL_CAP: f64 = 95.0;
/// Edits per kind in serve-cold's edit probe, which alternates the two.
const PROBE_EDITS: usize = 200;
/// Programs the traced mode replays through the layer driver.
const REPLAY_MAX: usize = 120;

/// Spawn-to-first-ping times of `n` daemons, each started and shut
/// down in turn beside the measured one. A few are taken every round,
/// so `setup_s` samples the whole run.
fn setup_times(opts: &Opts, cache_dir: Option<&Path>, n: usize) -> Result<Vec<f64>, String> {
    let socket = opts.work_dir.join("s.sock");
    (0..n)
        .map(|_| {
            let (d, s) = Daemon::spawn(&opts.serve_bin, &socket, cache_dir)?;
            d.shutdown()?;
            Ok(s)
        })
        .collect()
}

/// Copies the persisted store (a flat directory of segment files), so
/// the set-up daemons load the same store without sharing the measured
/// daemon's.
fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    let err = |e: std::io::Error| format!("copying the store: {e}");
    std::fs::create_dir_all(to).map_err(err)?;
    for entry in std::fs::read_dir(from).map_err(err)? {
        let entry = entry.map_err(err)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(err)?;
    }
    Ok(())
}

fn rtt_us(d: &Daemon) -> Result<f64, String> {
    let mut conn = d.connect()?;
    let mut samples = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t0 = Instant::now();
        conn.send(r#"{"op":"ping"}"#)?;
        conn.recv()?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&samples).expect("pinged"))
}

/// Distinct cold programs: no two share a trip-count tuple, so no two
/// share source, execution or DDG.
fn cold_programs(seed: u64, count: usize) -> Vec<gen::Program> {
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let p = gen::Program::random(&mut rng, COLD_SHAPE);
        if seen.insert(p.trip_counts()) {
            out.push(p);
        }
    }
    out
}

/// One answered request.
struct Timed {
    /// When the request was due (open loop) or sent (closed loop).
    start: Instant,
    latency_ms: f64,
    lag_ms: f64,
    answer: Answer,
}

impl Timed {
    /// When the answer arrived.
    fn end(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.latency_ms / 1e3)
    }

    /// The request as a span for the traced run.
    fn call(&self, name: &'static str) -> Call {
        (name, self.start, self.end())
    }
}

/// How a pipelined phase paces its requests.
#[derive(Clone, Copy)]
enum Pace {
    /// Open loop: each request is due on a fixed schedule at this rate
    /// per second.
    Rate(f64),
    /// Saturating: this many requests in flight, the next sent as soon
    /// as an answer arrives.
    Window(usize),
}

/// Sends `lines` on one connection, paced by `pace`, while one reader
/// thread collects the answers. An open loop times each request from
/// its due time, so a stalled send counts against every request behind
/// it. Returns the answers and the wall time from the first send to the
/// last answer.
fn pipelined(d: &Daemon, lines: &[String], pace: Pace) -> Result<(Vec<Timed>, f64), String> {
    let mut conn = d.connect()?;
    let mut w = conn.writer()?;
    let n = lines.len();
    let (answered, permits) = std::sync::mpsc::channel::<()>();
    let start = Instant::now() + Duration::from_millis(5);
    let (answers, sends) = std::thread::scope(|s| {
        let reader = s.spawn(move || -> Result<Vec<(Instant, Answer)>, String> {
            (0..n)
                .map(|_| {
                    let doc = conn.recv()?;
                    let at = Instant::now();
                    let _ = answered.send(());
                    Ok((at, Answer::from_json(&doc)))
                })
                .collect()
        });
        let mut sends = Vec::with_capacity(n);
        for (i, line) in lines.iter().enumerate() {
            let due = match pace {
                Pace::Rate(rate) => {
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    due
                }
                Pace::Window(window) => {
                    if i >= window && permits.recv().is_err() {
                        break; // the reader failed; its error is reported
                    }
                    Instant::now()
                }
            };
            let lag = Instant::now().saturating_duration_since(due);
            if let Err(e) = crate::daemon::send_on(&mut w, line) {
                let _ = w.shutdown(std::net::Shutdown::Both);
                return (Err(e), sends);
            }
            sends.push((due, lag));
        }
        (reader.join().expect("reader thread panicked"), sends)
    });
    let answers = answers?;
    let mut out: Vec<Option<Timed>> = (0..n).map(|_| None).collect();
    let first = sends.first().map_or(start, |s| s.0);
    let mut last = first;
    for (at, answer) in answers {
        let i: usize = answer
            .id
            .rsplit('-')
            .next()
            .and_then(|s| s.parse().ok())
            .filter(|&i| i < sends.len())
            .ok_or_else(|| format!("answer with unknown id {:?}", answer.id))?;
        let (due, lag) = sends[i];
        last = last.max(at);
        out[i] = Some(Timed {
            start: due,
            latency_ms: at.saturating_duration_since(due).as_secs_f64() * 1e3,
            lag_ms: lag.as_secs_f64() * 1e3,
            answer,
        });
    }
    let wall = last.saturating_duration_since(first).as_secs_f64();
    out.into_iter()
        .enumerate()
        .map(|(i, t)| t.ok_or_else(|| format!("request {i} unanswered")))
        .collect::<Result<Vec<_>, _>>()
        .map(|v| (v, wall))
}

/// Latencies with failed answers counted as missing every limit.
fn latencies<'a>(timed: impl IntoIterator<Item = &'a Timed>) -> Vec<f64> {
    timed
        .into_iter()
        .map(|t| {
            if t.answer.ok() {
                t.latency_ms
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Compares every answer with the sequential finder, on two threads.
fn check_kinds(
    programs: &[&gen::Program],
    answers: &[&Answer],
    r: &mut Report,
) -> Result<(), String> {
    let half = programs.len().div_ceil(2);
    let results: Vec<Result<Vec<Vec<&'static str>>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = programs
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    let mut oracle = Oracle::default();
                    chunk.iter().map(|p| oracle.kinds_of_source(p)).collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    let mut want = Vec::with_capacity(programs.len());
    for part in results {
        want.extend(part?);
    }
    for (a, w) in answers.iter().zip(&want) {
        if a.ok() && a.kinds != *w {
            r.failed += 1;
            r.fail(format!(
                "{}: daemon kinds {:?}, finder says {w:?}",
                a.id, a.kinds
            ));
        }
    }
    Ok(())
}

/// Counts answers that are not ok as failures.
fn count_answers(answers: &[&Answer], r: &mut Report) {
    for a in answers {
        r.attempted += 1;
        if !a.ok() {
            r.failed += 1;
            r.fail(format!(
                "{}: status {} degraded {}",
                a.id, a.status, a.degraded
            ));
        }
    }
}

/// Table 3's criterion, expected instances found, applied to the
/// generator's planted loops: over every request, the planted patterns
/// the answer reports (each reported instance matches at most one
/// planted loop of its kind), over the planted patterns.
fn planted_found_frac<'a>(
    requests: impl IntoIterator<Item = (&'a gen::Program, &'a Answer)>,
) -> f64 {
    let (mut found, mut planted) = (0usize, 0usize);
    for (p, a) in requests {
        let want = p.planted();
        planted += want.len();
        if !a.ok() {
            continue;
        }
        for kind in ["m", "r", "mr"] {
            let have = a.kinds.iter().filter(|k| *k == kind).count();
            found += have.min(want.iter().filter(|k| **k == kind).count());
        }
    }
    frac(found as f64, planted as f64)
}

/// An edit and how it should be answered.
struct Edit {
    program: gen::Program,
    constant: bool,
}

/// Closed loop, one client: sends each edit after the previous answer.
fn closed_loop(d: &Daemon, edits: &[Edit], tag: &str) -> Result<Vec<Timed>, String> {
    let mut conn = d.connect()?;
    let mut out = Vec::with_capacity(edits.len());
    for (i, e) in edits.iter().enumerate() {
        let line = analyze_line(
            &format!("{tag}-{i}"),
            &e.program.source(),
            &e.program.inputs(),
        );
        let start = Instant::now();
        conn.send(&line)?;
        let doc = conn.recv()?;
        out.push(Timed {
            start,
            latency_ms: start.elapsed().as_secs_f64() * 1e3,
            lag_ms: 0.0,
            answer: Answer::from_json(&doc),
        });
    }
    Ok(out)
}

/// Workload validity of the edit path: a constant edit replays from
/// the store, a structural edit never does.
fn check_edit_answers(edits: &[Edit], answers: &[Timed], r: &mut Report) {
    for (e, a) in edits.iter().zip(answers.iter().map(|t| &t.answer)) {
        if a.ok() && a.query_hit != e.constant {
            r.fail(format!(
                "{}: {} edit answered with query_hit={}",
                a.id,
                if e.constant { "constant" } else { "structural" },
                a.query_hit
            ));
        }
    }
}

/// Per-kind median edit latencies.
fn edit_medians(edits: &[Edit], answers: &[Timed]) -> (f64, f64) {
    let pick = |constant: bool| -> Vec<f64> {
        edits
            .iter()
            .zip(answers)
            .filter(|(e, _)| e.constant == constant)
            .map(|(_, t)| t.latency_ms)
            .collect()
    };
    (
        median(&pick(true)).unwrap_or(0.0),
        median(&pick(false)).unwrap_or(0.0),
    )
}

/// An endless, seeded edit session over `bases`: in each rhythm of
/// `rhythm` edits per base, the last is structural. Constant
/// edits never repeat a `(slot, value)` and structural edits never
/// repeat a variant, so no edit is ever answered by an exact replay.
struct Session<'a> {
    bases: &'a [gen::Program],
    rhythm: usize,
    rng: Rng,
    used_consts: Vec<HashSet<(usize, u32)>>,
    variants: Vec<Vec<usize>>,
    step: usize,
}

impl<'a> Session<'a> {
    fn new(bases: &'a [gen::Program], rhythm: usize, seed: u64) -> Session<'a> {
        let mut rng = Rng::new(seed ^ 0xed17);
        let variants = bases
            .iter()
            .map(|b| {
                let mut v: Vec<usize> = (0..b.struct_variants()).collect();
                for i in (1..v.len()).rev() {
                    v.swap(i, rng.range(0, i + 1));
                }
                v
            })
            .collect();
        Session {
            bases,
            rhythm,
            rng,
            used_consts: bases.iter().map(|_| HashSet::new()).collect(),
            variants,
            step: 0,
        }
    }

    fn next_edit(&mut self) -> Option<Edit> {
        let b = self.step % self.bases.len();
        let constant = (self.step / self.bases.len()) % self.rhythm != self.rhythm - 1;
        self.step += 1;
        let base = &self.bases[b];
        let program = if constant {
            let slots = base.const_slots();
            loop {
                let slot = self.rng.range(0, slots);
                let value = self.rng.range(5000, 10_000) as u32;
                let edited = base.const_edit(slot, value);
                if edited != *base && self.used_consts[b].insert((slot, value)) {
                    break edited;
                }
            }
        } else {
            base.struct_edit(self.variants[b].pop()?)
        };
        Some(Edit { program, constant })
    }
}

/// Median time to load the persisted store at `dir` into a fresh
/// query DB, in-process.
fn load_ms(dir: &std::path::Path) -> Result<f64, String> {
    let mut loads = Vec::new();
    for _ in 0..5 {
        let db = repro_query::QueryDb::full(repro_query::QueryConfig::default());
        let t0 = Instant::now();
        let report = repro_query::load_dir(&db, dir);
        loads.push(t0.elapsed().as_secs_f64() * 1e3);
        if report.records_loaded == 0 {
            return Err("the persisted store loaded no records".into());
        }
    }
    Ok(median(&loads).expect("loaded"))
}

/// The edited programs' bases.
fn edit_bases(seed: u64) -> Vec<gen::Program> {
    let mut rng = Rng::new(seed);
    (0..EDIT_BASES)
        .map(|_| gen::Program::random(&mut rng, EDIT_SHAPE))
        .collect()
}

/// Plain (unedited) requests for `programs`.
fn as_requests(programs: &[gen::Program]) -> Vec<Edit> {
    programs
        .iter()
        .map(|p| Edit {
            program: p.clone(),
            constant: false,
        })
        .collect()
}

/// Query stages as the `stats` document names them, with their rows.
const STAGES: [(&str, &str); 7] = [
    ("programs", "query.program.hit_frac"),
    ("fnir", "query.fnir.hit_frac"),
    ("trace", "query.trace.hit_frac"),
    ("exec", "query.exec.hit_frac"),
    ("subddg", "query.subddg.hit_frac"),
    ("find", "query.find.hit_frac"),
    ("match_cache", "query.match.hit_frac"),
];

/// Hits and misses per query stage, summed over measured windows.
#[derive(Default)]
struct StageTraffic([(f64, f64); STAGES.len()]);

impl StageTraffic {
    /// Adds the traffic between two `stats` documents.
    fn add(&mut self, before: &Json, after: &Json) {
        for (slot, (stage, _)) in self.0.iter_mut().zip(STAGES) {
            let d =
                |k: &str| stat(after, &["query", stage, k]) - stat(before, &["query", stage, k]);
            slot.0 += d("hits");
            slot.1 += d("misses");
        }
    }
}

/// The query and engine rows: hit fractions over the measured traffic,
/// sizes and scheduler counters from the last `stats` document.
fn set_query_rows(r: &mut Report, traffic: &StageTraffic, last: &Json) {
    let (mut bytes, mut entries) = (0.0, 0.0);
    for (&(hits, misses), (stage, name)) in traffic.0.iter().zip(STAGES) {
        r.set(name, frac(hits, hits + misses));
        bytes += stat(last, &["query", stage, "approx_bytes"]);
        entries += stat(last, &["query", stage, "entries"]);
    }
    r.set("query.bytes", bytes);
    r.set("query.entries", entries);
    let jobs = stat(last, &["engine", "jobs_executed"]);
    r.set(
        "engine.steal_frac",
        frac(stat(last, &["engine", "jobs_stolen"]), jobs),
    );
    r.set(
        "engine.peak_queue_depth",
        stat(last, &["engine", "peak_queue_depth"]),
    );
}

/// Replays `programs` through the layer driver, checking each against
/// the daemon's answer.
fn replay(
    opts: &Opts,
    workload: &str,
    programs: &[&gen::Program],
    answers: &[&Answer],
    calls: &[Call],
    r: &mut Report,
) -> Result<(), String> {
    let sources: Vec<String> = programs.iter().map(|p| p.source()).collect();
    let jobs: Vec<Job> = programs
        .iter()
        .zip(&sources)
        .map(|(p, s)| Job {
            name: "inline",
            files: vec![("inline", s.as_str())],
            input: p.run_config(),
        })
        .collect();
    let (off, on) = crate::layer_passes(&jobs, calls, opts, workload, |i, out| {
        if answers[i].ok() && answers[i].kinds != out.kinds {
            return Err(format!(
                "kinds {:?}, daemon said {:?}",
                out.kinds, answers[i].kinds
            ));
        }
        Ok(())
    })?;
    set_layer_rows(r, &on.totals);
    r.set(
        "obs.trace_overhead_frac",
        frac(on.totals.wall_ns as f64, off.totals.wall_ns as f64) - 1.0,
    );
    Ok(())
}

/// `analyze` lines for `programs`, with ids `{tag}-{index}`.
fn lines_for<'a>(tag: &str, programs: impl IntoIterator<Item = &'a gen::Program>) -> Vec<String> {
    programs
        .into_iter()
        .enumerate()
        .map(|(i, p)| analyze_line(&format!("{tag}-{i}"), &p.source(), &p.inputs()))
        .collect()
}

/// Answers, DDG nodes and wall time summed over a run's saturating
/// phases. The daemon slows as its store fills, so the phases' rates
/// fall over the run; a median of them would read one phase in the
/// middle, while the sums cover the whole run.
#[derive(Default)]
struct Saturation {
    answers: f64,
    nodes: f64,
    wall: f64,
}

impl Saturation {
    /// Runs one saturating phase, adds it, logs it and returns its
    /// answers.
    fn run(&mut self, d: &Daemon, workload: &str, lines: &[String]) -> Result<Vec<Timed>, String> {
        let (timed, wall) = pipelined(d, lines, Pace::Window(WINDOW))?;
        let nodes: f64 = timed
            .iter()
            .filter(|t| t.answer.ok())
            .map(|t| t.answer.ddg_size)
            .sum();
        self.answers += timed.len() as f64;
        self.nodes += nodes;
        self.wall += wall;
        eprintln!(
            "{workload} saturated: {} requests, {:.1} answers/s, {:.0} nodes/s, p50 {:.1} ms",
            timed.len(),
            timed.len() as f64 / wall,
            nodes / wall,
            median(&latencies(&timed)).unwrap_or(0.0)
        );
        Ok(timed)
    }

    /// `max_rps` and `nodes_per_s`.
    fn set_rows(&self, r: &mut Report) {
        r.set("max_rps", frac(self.answers, self.wall));
        r.set("nodes_per_s", frac(self.nodes, self.wall));
    }
}

pub fn run_cold(opts: &Opts) -> Result<Report, String> {
    let mut r = Report::default();
    let (d, setup) = Daemon::spawn(&opts.serve_bin, &opts.work_dir.join("d.sock"), None)?;
    let mut setups = vec![setup];
    let rtt = rtt_us(&d)?;

    // The reference stretches' programs lead the list, the saturating
    // phases' follow; every round takes the next share of each.
    let rounds = ROUNDS as f64;
    let ref_n = (REF_RATE * opts.seconds * REF_SHARE / rounds).round().max(10.0) as usize;
    let sat_n = (SAT_PER_SECOND * opts.seconds / rounds).round().max(20.0) as usize;
    let programs = cold_programs(opts.seed, ROUNDS * (ref_n + sat_n));
    let (ref_programs, sat_programs) = programs.split_at(ROUNDS * ref_n);

    // The edit probe runs on a daemon of its own, so the measured
    // daemon's store, match cache and memory see only distinct cold
    // programs: six fixed-size programs analyzed untimed, then edited
    // in chunks, one per round.
    let (pd, _) = Daemon::spawn(&opts.serve_bin, &opts.work_dir.join("p.sock"), None)?;
    let probe_bases = edit_bases(opts.seed ^ 0x9e0b);
    let based = closed_loop(&pd, &as_requests(&probe_bases), "probe-base")?;
    let mut session = Session::new(&probe_bases, 2, opts.seed);
    let probe: Vec<Edit> = (0..2 * PROBE_EDITS)
        .map_while(|_| session.next_edit())
        .collect();
    let mut probe_chunks = probe.chunks(probe.len().div_ceil(ROUNDS).max(1));

    let mut traffic = StageTraffic::default();
    let mut overloaded = 0.0;
    let (mut reference, mut saturated) = (Vec::new(), Vec::new());
    let (mut sat, mut probe_answers) = (Saturation::default(), Vec::new());
    for k in 0..ROUNDS {
        let phases = [
            (ref_programs[k * ref_n..(k + 1) * ref_n].iter(), "r"),
            (sat_programs[k * sat_n..(k + 1) * sat_n].iter(), "s"),
        ];
        for (progs, tag) in phases {
            let lines = lines_for(&format!("{tag}{k}"), progs);
            let before = d.stats()?;
            if tag == "r" {
                reference.extend(pipelined(&d, &lines, Pace::Rate(REF_RATE))?.0);
            } else {
                saturated.extend(sat.run(&d, "serve-cold", &lines)?);
            }
            let after = d.stats()?;
            traffic.add(&before, &after);
            overloaded +=
                stat(&after, &["serve", "overloaded"]) - stat(&before, &["serve", "overloaded"]);
        }
        if let Some(chunk) = probe_chunks.next() {
            probe_answers.extend(closed_loop(&pd, chunk, &format!("probe{k}"))?);
        }
        setups.extend(setup_times(opts, None, SETUPS_PER_ROUND)?);
    }
    let last = d.stats()?;
    let rss = d.shutdown()?;
    pd.shutdown()?;

    // Answers in the order of `programs`.
    let all: Vec<&Timed> = reference.iter().chain(&saturated).collect();
    let answers: Vec<&Answer> = all.iter().map(|t| &t.answer).collect();
    count_answers(&answers, &mut r);
    // Workload validity: every request was distinct, so nothing may be
    // replayed or coalesced, and no stored trace, execution or find
    // result may be read.
    let hits = answers.iter().filter(|a| a.query_hit).count();
    let coalesced = answers.iter().filter(|a| a.coalesced).count();
    if hits + coalesced > 0 {
        r.fail(format!(
            "serve-cold saw {hits} query_hit and {coalesced} coalesced answers"
        ));
    }
    set_query_rows(&mut r, &traffic, &last);
    for row in [
        "query.trace.hit_frac",
        "query.exec.hit_frac",
        "query.find.hit_frac",
    ] {
        if r.get(row) != Some(0.0) {
            r.fail(format!("serve-cold reads {row} = {:?}, not 0", r.get(row)));
        }
    }
    let program_refs: Vec<&gen::Program> = programs.iter().collect();
    check_kinds(&program_refs, &answers, &mut r)?;
    let probe_refs: Vec<&Answer> = based
        .iter()
        .chain(&probe_answers)
        .map(|t| &t.answer)
        .collect();
    count_answers(&probe_refs, &mut r);
    check_edit_answers(&probe, &probe_answers, &mut r);
    let probe_programs: Vec<&gen::Program> = probe_bases
        .iter()
        .chain(probe.iter().map(|e| &e.program))
        .collect();
    check_kinds(&probe_programs, &probe_refs, &mut r)?;

    let l = latencies(&reference);
    r.set("p50_ms", median(&l).expect("reference rate ran"));
    let (p, t) = tail(&l).expect("reference rate ran");
    eprintln!(
        "serve-cold reference rate {REF_RATE}/s: {} requests, tail is p{p}",
        l.len()
    );
    r.set("tail_ms", t);
    sat.set_rows(&mut r);
    r.set("setup_s", median(&setups).expect("spawned"));
    let (c, s) = edit_medians(&probe, &probe_answers);
    r.set("edit_const_ms", c);
    r.set("edit_struct_ms", s);
    r.set("peak_rss_mb", rss);
    r.set(
        "ok_frac",
        frac((r.attempted - r.failed) as f64, r.attempted as f64),
    );
    r.set(
        "table3_met_frac",
        planted_found_frac(programs.iter().zip(answers.iter().copied())),
    );

    if opts.trace {
        r.set("serve.rtt_us", rtt);
        let waits: Vec<f64> = reference
            .iter()
            .map(|t| t.latency_ms - t.answer.compute_ms)
            .collect();
        r.set(
            "serve.queue_wait_ms",
            median(&waits).expect("reference rate ran"),
        );
        let lags: Vec<f64> = reference.iter().map(|t| t.lag_ms).collect();
        r.set(
            "serve.gen_lag_ms",
            median(&lags).expect("reference rate ran"),
        );
        r.set("serve.overloaded_frac", frac(overloaded, all.len() as f64));
        // The first reference stretch's programs, which lead the list.
        let n = ref_n.min(REPLAY_MAX);
        let calls: Vec<Call> = all
            .iter()
            .map(|t| t.call("serve.analyze"))
            .chain(probe_answers.iter().map(|t| t.call("serve.edit")))
            .collect();
        replay(
            opts,
            "serve-cold",
            &program_refs[..n],
            &answers[..n],
            &calls,
            &mut r,
        )?;
    }
    Ok(r)
}

pub fn run_edit(opts: &Opts) -> Result<Report, String> {
    let mut r = Report::default();
    let bases = edit_bases(opts.seed);

    // The untimed earlier session that persists the store.
    let store = opts.work_dir.join("store");
    let socket = opts.work_dir.join("d.sock");
    let (seeder, _) = Daemon::spawn(&opts.serve_bin, &socket, Some(&store))?;
    let seeded = closed_loop(&seeder, &as_requests(&bases), "base")?;
    seeder.shutdown()?;
    if let Some(t) = seeded.iter().find(|t| !t.answer.ok()) {
        return Err(format!(
            "seeding session: {} answered {}",
            t.answer.id, t.answer.status
        ));
    }

    if opts.trace {
        // The store exactly as the measured daemon will load it.
        r.set("query.load_ms", load_ms(&store)?);
    }

    let setup_store = opts.work_dir.join("store-setup");
    copy_store(&store, &setup_store)?;
    let (d, setup) = Daemon::spawn(&opts.serve_bin, &socket, Some(&store))?;
    let mut setups = vec![setup];
    let rtt = rtt_us(&d)?;

    // The measured session, in rounds of a closed-loop chunk and a
    // saturating chunk: a fixed number of edits, so every run leaves the
    // same amount of new work in the store.
    let rounds = ROUNDS as f64;
    let closed_n = (EDITS_PER_SECOND * opts.seconds / rounds).round().max(8.0) as usize;
    let sat_n = (SAT_EDITS_PER_SECOND * opts.seconds / rounds).round().max(8.0) as usize;
    let mut session = Session::new(&bases, EDIT_RHYTHM, opts.seed);
    let (mut edits, mut answers) = (Vec::new(), Vec::new());
    let (mut sat_edits, mut saturated, mut sat) = (Vec::new(), Vec::new(), Saturation::default());
    let s0 = d.stats()?;
    let t0 = Instant::now();
    for k in 0..ROUNDS {
        let chunk: Vec<Edit> = (0..closed_n).map_while(|_| session.next_edit()).collect();
        answers.extend(closed_loop(&d, &chunk, &format!("e{k}"))?);
        edits.extend(chunk);
        let chunk: Vec<Edit> = (0..sat_n).map_while(|_| session.next_edit()).collect();
        let lines = lines_for(&format!("s{k}"), chunk.iter().map(|e| &e.program));
        saturated.extend(sat.run(&d, "serve-edit", &lines)?);
        sat_edits.extend(chunk);
        setups.extend(setup_times(opts, Some(&setup_store), SETUPS_PER_ROUND)?);
    }
    let wall = t0.elapsed().as_secs_f64();
    let s1 = d.stats()?;
    let rss = d.shutdown()?;

    let all_edits: Vec<&Edit> = edits.iter().chain(&sat_edits).collect();
    let all: Vec<&Timed> = answers.iter().chain(&saturated).collect();
    let refs: Vec<&Answer> = all.iter().map(|t| &t.answer).collect();
    count_answers(&refs, &mut r);
    check_edit_answers(&edits, &answers, &mut r);
    check_edit_answers(&sat_edits, &saturated, &mut r);
    let programs: Vec<&gen::Program> = all_edits.iter().map(|e| &e.program).collect();
    check_kinds(&programs, &refs, &mut r)?;

    let l = latencies(&answers);
    r.set("p50_ms", median(&l).unwrap_or(0.0));
    let (p, t) = tail_capped(&l, EDIT_TAIL_CAP).unwrap_or((0.0, 0.0));
    r.set("tail_ms", t);
    let (c, s) = edit_medians(&edits, &answers);
    let n_const = edits.iter().filter(|e| e.constant).count();
    eprintln!(
        "serve-edit: {} closed-loop edits ({n_const} constant) and {} saturated in {wall:.2}s; \
         tail is p{p}",
        edits.len(),
        sat_edits.len()
    );
    r.set("edit_const_ms", c);
    r.set("edit_struct_ms", s);
    sat.set_rows(&mut r);
    r.set("setup_s", median(&setups).expect("spawned"));
    r.set("peak_rss_mb", rss);
    r.set(
        "ok_frac",
        frac((r.attempted - r.failed) as f64, r.attempted as f64),
    );
    r.set(
        "table3_met_frac",
        planted_found_frac(programs.iter().copied().zip(refs.iter().copied())),
    );

    if opts.trace {
        let mut traffic = StageTraffic::default();
        traffic.add(&s0, &s1);
        set_query_rows(&mut r, &traffic, &s1);
        r.set("serve.rtt_us", rtt);
        let waits: Vec<f64> = answers
            .iter()
            .map(|t| t.latency_ms - t.answer.compute_ms)
            .collect();
        r.set("serve.queue_wait_ms", median(&waits).unwrap_or(0.0));
        let overloaded =
            stat(&s1, &["serve", "overloaded"]) - stat(&s0, &["serve", "overloaded"]);
        r.set("serve.overloaded_frac", frac(overloaded, refs.len() as f64));
        let n = edits.len().min(REPLAY_MAX);
        let calls: Vec<Call> = all.iter().map(|t| t.call("serve.edit")).collect();
        replay(opts, "serve-edit", &programs[..n], &refs[..n], &calls, &mut r)?;
    }
    Ok(r)
}
