//! The in-process layer driver: runs one analysis through each layer's
//! public functions in turn — compile, trace, simplify, decompose,
//! match (through the query layer's match cache), combine, finish —
//! with a span around every call. It computes exactly what
//! `discovery::find_patterns` computes, so its pattern kinds double as
//! a cross-check of the answers under test.

use crate::spans::Recorder;
use discovery::{decompose, FinderConfig, FrontEnd, MatchOutcome};
use repro_query::{MatchCache, Probe};

/// Work and time summed over every analysis the driver ran.
#[derive(Default, Clone, Copy, Debug)]
pub struct Totals {
    pub analyses: u64,
    pub compile_ns: u64,
    pub source_lines: u64,
    pub trace_ns: u64,
    pub off_ns: u64,
    pub fp_ns: u64,
    pub steps: u64,
    pub raw_nodes: u64,
    pub simplified_nodes: u64,
    pub simplify_ns: u64,
    pub decompose_ns: u64,
    pub subddgs: u64,
    pub match_jobs: u64,
    pub searches: u64,
    pub search_ns: u64,
    pub searches_found: u64,
    pub exhausted: u64,
    pub iterations: u64,
    pub combine_ns: u64,
    pub reach_queries: u64,
    pub reach_visited: u64,
    pub wall_ns: u64,
}

/// One program to analyze: its translation units and input.
pub struct Job<'a> {
    pub name: &'a str,
    pub files: Vec<(&'a str, &'a str)>,
    pub input: trace::RunConfig,
}

/// What one analysis produced.
pub struct Outcome {
    pub kinds: Vec<&'static str>,
    pub run: trace::RunResult,
}

pub struct Driver {
    pub rec: Recorder,
    cache: MatchCache,
    config: FinderConfig,
    pub totals: Totals,
}

impl Driver {
    /// A driver with a fresh match cache; `spans` turns span recording
    /// on.
    pub fn new(spans: bool) -> Driver {
        Driver {
            rec: Recorder::new(spans),
            cache: MatchCache::new(true),
            config: FinderConfig::default(),
            totals: Totals::default(),
        }
    }

    /// Analyzes every job in order, returning each outcome. The
    /// quotient reachability counters are read around the whole pass.
    pub fn run_all(&mut self, jobs: &[Job]) -> Result<Vec<Outcome>, String> {
        let queries = obs::counter("quotient.reach_queries");
        let visited = obs::counter("quotient.reach_nodes_visited");
        let (q0, v0) = (queries.get(), visited.get());
        let t0 = std::time::Instant::now();
        let out = jobs
            .iter()
            .map(|j| self.analyze(j))
            .collect::<Result<Vec<_>, _>>();
        self.totals.wall_ns += t0.elapsed().as_nanos() as u64;
        self.totals.reach_queries += queries.get() - q0;
        self.totals.reach_visited += visited.get() - v0;
        out
    }

    fn analyze(&mut self, job: &Job) -> Result<Outcome, String> {
        let Driver {
            rec,
            cache,
            config,
            totals: t,
        } = self;
        rec.next_request();
        let (out, _) = rec.time("request", |rec| -> Result<Outcome, String> {
            let (program, ns) = rec.time("minc.compile", |_| {
                minc::compile_files(job.name, &job.files)
            });
            let program = program.map_err(|e| format!("{}: minc: {e}", job.name))?;
            t.compile_ns += ns;
            t.source_lines += job
                .files
                .iter()
                .map(|(_, s)| s.lines().count() as u64)
                .sum::<u64>();

            let mut full = job.input.clone();
            full.trace = trace::TraceMode::Full;
            full.trace_workers = 1;
            let mut off = full.clone();
            off.trace = trace::TraceMode::Off;
            let mut fp = off.clone();
            fp.exec_fingerprint = true;
            let (run, ns) = rec.time("trace.run", |_| trace::run(&program, &full));
            let mut run = run.map_err(|e| format!("{}: trace: {e}", job.name))?;
            t.trace_ns += ns;
            t.steps += run.steps;
            let (r, ns) = rec.time("trace.run_off", |_| trace::run(&program, &off));
            r.map_err(|e| format!("{}: untraced run: {e}", job.name))?;
            t.off_ns += ns;
            let (r, ns) = rec.time("trace.exec_fp", |_| trace::run(&program, &fp));
            r.map_err(|e| format!("{}: fingerprint run: {e}", job.name))?;
            t.fp_ns += ns;

            let raw = run.ddg.take().expect("full trace mode builds a DDG");
            let ((g, _, _), ns) = rec.time("simplify", |_| discovery::simplify(&raw));
            t.simplify_ns += ns;
            t.raw_nodes += raw.len() as u64;
            t.simplified_nodes += g.len() as u64;

            let (tasks, ns) = rec.time("decompose.plan", |_| decompose::plan(&g));
            t.decompose_ns += ns;
            let mut extracted = Vec::with_capacity(tasks.len());
            for task in &tasks {
                let (subs, ns) = rec.time("decompose.extract", |_| decompose::extract(&g, task));
                t.decompose_ns += ns;
                t.subddgs += subs.len() as u64;
                extracted.push(subs);
            }
            // The graph is already simplified: seed the finder's pool
            // from the extraction above without simplifying again.
            let unsimplified = FinderConfig {
                enable_simplify: false,
                ..config.clone()
            };
            let mut front = FrontEnd::new(&g, &unsimplified, cp::CancelToken::new());
            front.take_tasks();
            let mut state = front.assemble(extracted);

            while !state.is_done() {
                let budget = state.budget();
                let mut outcomes = Vec::new();
                for job in state.active_jobs() {
                    t.match_jobs += 1;
                    let graph = state.graph();
                    let (probe, _) = rec.time("query.match_probe", |_| {
                        cache.probe(graph, &job.sub, &budget)
                    });
                    let pending = match probe {
                        Probe::Hit(pattern) => {
                            outcomes.push((job.pool_index, MatchOutcome::definitive(pattern)));
                            continue;
                        }
                        Probe::Miss(pending) => Some(pending),
                        Probe::Uncacheable => None,
                    };
                    let (outcome, ns) = rec.time("match.search", |_| {
                        discovery::match_subddg_full(graph, &job.sub, &budget)
                    });
                    t.searches += 1;
                    t.search_ns += ns;
                    t.searches_found += outcome.pattern.is_some() as u64;
                    t.exhausted += outcome.exhausted as u64;
                    if let (Some(pending), false) = (pending, outcome.exhausted) {
                        cache.fulfil(pending, &job.sub, &outcome.pattern);
                    }
                    outcomes.push((job.pool_index, outcome));
                }
                let (_, ns) = rec.time("finder.combine", |_| state.apply_matches(outcomes));
                t.combine_ns += ns;
            }
            let (result, ns) = rec.time("finder.finish", |_| state.finish());
            t.combine_ns += ns;
            t.iterations += result.iterations as u64;
            t.analyses += 1;
            Ok(Outcome {
                kinds: reported_kinds(&result),
                run,
            })
        });
        out
    }
}

/// The short kinds of the reported patterns, in report order — the
/// daemon's `kinds` field.
pub fn reported_kinds(result: &discovery::FinderResult) -> Vec<&'static str> {
    result.reported().map(|f| f.pattern.kind.short()).collect()
}
