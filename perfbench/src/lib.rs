//! The repository's benchmark: three workloads over the analysis
//! pipeline and the serving daemon, each reporting the end-to-end
//! metrics, plus a traced mode that reports a per-layer table. See
//! `README.md` beside this package for the design.

pub mod daemon;
pub mod gen;
pub mod layers;
pub mod report;
pub mod serve;
pub mod spans;
pub mod starbench_scaled;
pub mod stats;
pub mod sys;

use layers::{Driver, Job, Outcome};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["starbench-scaled", "serve-cold", "serve-edit"];

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: analyze one starbench-scaled batch and exit, so the
    /// parent can read this process's peak memory.
    pub rss_probe: bool,
    /// The `repro-serve` executable.
    pub serve_bin: PathBuf,
    /// Scratch space for sockets and the persisted store, removed at
    /// exit.
    pub work_dir: PathBuf,
    /// Where traced runs leave their spans.
    pub out_dir: PathBuf,
}

/// Pattern kinds of the sequential finder, memoized by DDG content:
/// the reference every answer under test is compared with.
#[derive(Default)]
pub struct Oracle {
    by_ddg: HashMap<u128, Vec<&'static str>>,
}

impl Oracle {
    pub fn kinds(
        &mut self,
        program: &repro_ir::Program,
        input: &trace::RunConfig,
    ) -> Result<Vec<&'static str>, String> {
        let mut cfg = input.clone();
        cfg.trace = trace::TraceMode::Full;
        cfg.trace_workers = 1;
        let run = trace::run(program, &cfg).map_err(|e| format!("oracle trace: {e}"))?;
        let ddg = run.ddg.expect("full trace mode builds a DDG");
        let key = repro_query::fingerprint_ddg(&ddg).0;
        if let Some(k) = self.by_ddg.get(&key) {
            return Ok(k.clone());
        }
        let kinds = layers::reported_kinds(&discovery::find_patterns(
            &ddg,
            &discovery::FinderConfig::default(),
        ));
        self.by_ddg.insert(key, kinds.clone());
        Ok(kinds)
    }

    /// [`Self::kinds`] for inline source, compiled as the daemon does.
    pub fn kinds_of_source(&mut self, p: &gen::Program) -> Result<Vec<&'static str>, String> {
        let program = minc::compile_files("inline", &[("inline", &p.source())])
            .map_err(|e| format!("oracle compile: {e}"))?;
        self.kinds(&program, &p.run_config())
    }
}

/// A call the workload timed itself (an engine batch, a daemon
/// request): its span name, start and end.
pub type Call = (&'static str, Instant, Instant);

/// Runs `jobs` through the layer driver twice — spans off, then spans
/// on, each with a fresh match cache, after a short warm-up — checks
/// every outcome of the traced pass with `check`, prints the layers'
/// self-time table, and writes the spans — with the workload's own
/// timed `calls` added — to the output directory. Returns the untraced
/// and the traced driver.
pub fn layer_passes(
    jobs: &[Job],
    calls: &[Call],
    opts: &Opts,
    workload: &str,
    check: impl Fn(usize, &Outcome) -> Result<(), String>,
) -> Result<(Driver, Driver), String> {
    Driver::new(false).run_all(&jobs[..jobs.len().min(4)])?;
    let mut off = Driver::new(false);
    off.run_all(jobs)?;
    let mut on = Driver::new(true);
    let outcomes = on.run_all(jobs)?;
    for (i, out) in outcomes.iter().enumerate() {
        check(i, out).map_err(|e| format!("layer driver, {}: {e}", jobs[i].name))?;
    }
    println!("{}", on.rec.render_table(workload));
    for &(name, start, end) in calls {
        on.rec.record(name, start, end);
    }
    let path = opts
        .out_dir
        .join(format!("spans-{workload}-{}.json", opts.seed));
    on.rec
        .write_json(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("(spans written to {})", path.display());
    Ok((off, on))
}
