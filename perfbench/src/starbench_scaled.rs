//! Workload `starbench-scaled`: the paper's own evaluation at the Fig. 7
//! sizes. All eight Starbench benchmarks × {seq, pthreads} × scale
//! factors {1, 4, 16}, submitted in a fixed order as one batch to an
//! in-process match-only engine with two workers. Each timed batch
//! gets a fresh engine, so every batch does the same work.

use crate::layers::Job;
use crate::report::{frac, set_layer_rows, Report};
use crate::stats::{median, tail_capped};
use crate::{Call, Opts};
use repro_engine::{AnalysisRequest, Engine, EngineConfig};
use starbench::{all_benchmarks, Benchmark, Version};
use std::time::{Duration, Instant};

const FACTORS: [usize; 3] = [1, 4, 16];
/// The tail percentile: what one batch of 48 analyses supports (12
/// beyond it), held fixed however many batches the run fits.
const TAIL_CAP: f64 = 75.0;
/// Set-ups measured before each batch, which runs on the last one's
/// corpus and engine; the median over the run is reported.
const SETUPS_PER_BATCH: usize = 2;
/// The program the edit rows follow: ray-rot at ×4, the program the
/// `repro-incr` bench edits. Without a store an edit of either kind
/// costs one full analysis, so the edit rows are the batch latencies of
/// its two versions.
const EDIT_BENCH: &str = "ray-rot";
const EDIT_FACTOR: usize = 4;

struct Entry {
    bench: &'static Benchmark,
    version: Version,
    factor: usize,
    program: repro_ir::Program,
    input: trace::RunConfig,
}

/// The corpus, compiled, with its inputs built.
fn build_corpus() -> Vec<Entry> {
    let mut corpus = Vec::new();
    for bench in all_benchmarks() {
        for version in Version::BOTH {
            let program = bench.program(version);
            for factor in FACTORS {
                corpus.push(Entry {
                    bench,
                    version,
                    factor,
                    program: program.clone(),
                    input: (bench.scaled_input)(factor),
                });
            }
        }
    }
    corpus
}

/// c-ray's check first compares the image with its oracle, then
/// asserts that the scene covers every pixel — a property of the
/// analysis-size view only. Wider scaled views leave edge pixels empty,
/// so past the oracle comparison that one assertion is not an output
/// error at factors above 1.
const CRAY_COVERAGE: &str = "a pixel hit nothing; the background sphere must cover the view";

fn verify(e: &Entry, run: &trace::RunResult) -> Result<(), String> {
    match (e.bench.verify)(run) {
        Err(msg) if e.factor > 1 && e.bench.name == "c-ray" && msg == CRAY_COVERAGE => Ok(()),
        other => other,
    }
}

/// Counts one analysis: it must succeed, not be degraded, and pass its
/// benchmark's check.
fn checked<'a>(
    e: &Entry,
    res: &'a repro_engine::AnalysisResult,
    r: &mut Report,
) -> Option<&'a repro_engine::Analysis> {
    r.attempted += 1;
    let analysis = match &res.outcome {
        Ok(a) => a,
        Err(err) => {
            r.failed += 1;
            r.fail(format!("{}: {err}", res.id));
            return None;
        }
    };
    let verified = verify(e, &analysis.run);
    if analysis.result.degraded || verified.is_err() {
        r.failed += 1;
        r.fail(format!(
            "{}: degraded={} verify={verified:?}",
            res.id, analysis.result.degraded
        ));
    }
    Some(analysis)
}

/// Workload validity: the match-only engine consults no pipeline stage
/// of the query layer.
fn check_match_only(eng: &Engine, r: &mut Report) {
    let q = eng.query_db().stats();
    for (stage, m) in [
        ("program", q.programs),
        ("fnir", q.fnir),
        ("trace", q.trace),
        ("exec", q.exec),
        ("subddg", q.subddg),
        ("find", q.find),
    ] {
        if m.hits + m.misses > 0 {
            r.fail(format!("query stage {stage} consulted on starbench-scaled"));
        }
    }
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    })
}

fn requests(corpus: &[Entry]) -> Vec<AnalysisRequest> {
    corpus
        .iter()
        .map(|e| AnalysisRequest {
            id: format!("{}-{}-x{}", e.bench.name, e.version.name(), e.factor),
            program: e.program.clone(),
            input: e.input.clone(),
            config: discovery::FinderConfig::default(),
        })
        .collect()
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut r = Report::default();
    // First, while this process is still small: a child's reported peak
    // includes the memory of the process it was spawned from.
    r.set("peak_rss_mb", peak_rss_mb(opts)?);

    // Timed batches. An analysis's latency depends on which analysis
    // the other coordinator runs beside it, so latencies are pooled over
    // every batch of the run before the median and tail are taken.
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let (mut rates, mut analyses_per_s) = (Vec::new(), Vec::new());
    let mut latencies_ms = Vec::new();
    let (mut met, mut expected) = (0usize, 0usize);
    let mut last_engine = None;
    let mut calls: Vec<Call> = Vec::new();
    let (mut edit_seq, mut edit_pthreads) = (Vec::new(), Vec::new());
    let (mut setups, mut corpus) = (Vec::new(), Vec::new());
    while rates.len() < 3 || Instant::now() < deadline {
        // Set-up: compile the corpus, build its inputs, construct the
        // engine.
        let mut eng = None;
        for _ in 0..SETUPS_PER_BATCH {
            drop(eng.take());
            let t0 = Instant::now();
            corpus = build_corpus();
            eng = Some(engine());
            setups.push(t0.elapsed().as_secs_f64());
        }
        let eng = eng.expect("set up");
        let reqs = requests(&corpus);
        let t0 = Instant::now();
        let results = eng.analyze_all(reqs);
        calls.push(("engine.analyze_all", t0, Instant::now()));
        let wall = t0.elapsed().as_secs_f64();
        let mut nodes = 0usize;
        for (e, res) in corpus.iter().zip(&results) {
            let Some(analysis) = checked(e, res, &mut r) else {
                continue;
            };
            nodes += analysis.result.ddg_size;
            let ms = (res.metrics.trace_time + res.metrics.find_time).as_secs_f64() * 1e3;
            latencies_ms.push(ms);
            if e.bench.name == EDIT_BENCH && e.factor == EDIT_FACTOR {
                match e.version {
                    Version::Seq => edit_seq.push(ms),
                    Version::Pthreads => edit_pthreads.push(ms),
                }
            }
            if rates.is_empty() {
                let ev = starbench::evaluate(e.bench.name, e.version, &analysis.result);
                met += ev.found_count();
                expected += ev.expected_count();
            }
        }
        check_match_only(&eng, &mut r);
        rates.push(nodes as f64 / wall);
        analyses_per_s.push(corpus.len() as f64 / wall);
        last_engine = Some(eng);
    }
    let eng = last_engine.expect("at least one batch ran");
    r.set("setup_s", median(&setups).expect("set-up measured"));
    r.set("nodes_per_s", median(&rates).expect("batches ran"));
    r.set("max_rps", median(&analyses_per_s).expect("batches ran"));
    r.set("p50_ms", median(&latencies_ms).expect("batches ran"));
    let (p, t) = tail_capped(&latencies_ms, TAIL_CAP).expect("batches ran");
    r.set("tail_ms", t);
    r.set("table3_met_frac", frac(met as f64, expected as f64));
    eprintln!(
        "starbench-scaled: {} batches of {} analyses; tail is p{p}",
        rates.len(),
        corpus.len(),
    );

    r.set("edit_const_ms", median(&edit_seq).expect("batches ran"));
    r.set("edit_struct_ms", median(&edit_pthreads).expect("batches ran"));
    r.set(
        "ok_frac",
        frac((r.attempted - r.failed) as f64, r.attempted as f64),
    );

    if opts.trace {
        traced(opts, &corpus, &eng, &calls, &mut r)?;
    }
    Ok(r)
}

/// Child processes that each analyze one batch; the median of their
/// peak resident memory is reported.
const RSS_PROBES: usize = 3;

/// Peak memory of one batch, measured in fresh child processes: this
/// process's own high-water mark keeps rising over the run as new
/// worker threads pick up new allocator arenas, so it would grow with
/// the number of batches that fit in the measured time.
fn peak_rss_mb(opts: &Opts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut peaks = Vec::new();
    for _ in 0..RSS_PROBES {
        let child = std::process::Command::new(&exe)
            .args([
                "--workload",
                "starbench-scaled",
                "--rss-probe",
                "1",
                "--seed",
            ])
            .arg(opts.seed.to_string())
            .arg("--serve-bin")
            .arg(&opts.serve_bin)
            .stdout(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("starting the memory probe: {e}"))?;
        let (status, peak) = crate::sys::wait_peak_rss_mb(child.id())
            .map_err(|e| format!("waiting for the memory probe: {e}"))?;
        if status != 0 {
            return Err(format!("memory probe exited with wait status {status}"));
        }
        peaks.push(peak);
    }
    Ok(median(&peaks).expect("probed"))
}

/// The memory probe's body: set up and analyze the corpus one request
/// at a time (match jobs still spread over both workers), so the peak
/// is that of the largest analysis, not of whichever two happened to
/// overlap.
pub fn rss_probe() -> Result<(), String> {
    let corpus = build_corpus();
    let eng = Engine::new(EngineConfig {
        workers: 2,
        max_concurrent_requests: 1,
        ..EngineConfig::default()
    });
    for res in eng.analyze_all(requests(&corpus)) {
        res.outcome.map_err(|e| format!("{}: {e}", res.id))?;
    }
    Ok(())
}

/// Per-layer rows: the corpus through the layer driver, the batch
/// engine's scheduler and cache counters, and the sharded tracer.
fn traced(
    opts: &Opts,
    corpus: &[Entry],
    eng: &Engine,
    calls: &[Call],
    r: &mut Report,
) -> Result<(), String> {
    let names: Vec<String> = corpus
        .iter()
        .map(|e| format!("{}-{}", e.bench.name, e.version.name()))
        .collect();
    let jobs: Vec<Job> = corpus
        .iter()
        .zip(&names)
        .map(|(e, name)| Job {
            name,
            files: e.bench.files(e.version).to_vec(),
            input: e.input.clone(),
        })
        .collect();
    let (off, on) = crate::layer_passes(&jobs, calls, opts, "starbench-scaled", |i, out| {
        verify(&corpus[i], &out.run)
    })?;
    set_layer_rows(r, &on.totals);
    r.set(
        "obs.trace_overhead_frac",
        frac(on.totals.wall_ns as f64, off.totals.wall_ns as f64) - 1.0,
    );

    let m = eng.metrics();
    r.set(
        "engine.steal_frac",
        frac(m.jobs_stolen as f64, m.jobs_executed as f64),
    );
    r.set("engine.peak_queue_depth", m.peak_queue_depth as f64);
    let q = eng.query_db().stats();
    r.set(
        "query.match.hit_frac",
        frac(
            q.match_cache.hits as f64,
            (q.match_cache.hits + q.match_cache.misses) as f64,
        ),
    );

    // ×16 Pthreads traces: one trace worker versus two.
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let (mut one, mut two) = (0.0, 0.0);
        for e in corpus
            .iter()
            .filter(|e| e.factor == 16 && e.version == Version::Pthreads)
        {
            for (workers, total) in [(1usize, &mut one), (2, &mut two)] {
                let cfg = e.input.clone().with_trace_workers(workers);
                let t0 = Instant::now();
                trace::run(&e.program, &cfg).map_err(|err| format!("{}: {err}", e.bench.name))?;
                *total += t0.elapsed().as_secs_f64();
            }
        }
        ratios.push(one / two);
    }
    r.set("trace.sharded_speedup", median(&ratios).expect("measured"));
    Ok(())
}
