//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --serve-bin <path>`: runs one workload and prints its metrics, the
//! last line being one JSON object. Exits 1 when an output or
//! workload-validity check fails, 2 on a usage error.

use perfbench::{serve, starbench_scaled, Opts, WORKLOADS};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         --serve-bin <path>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut serve_bin) = (0u64, 10.0f64, false, None);
    let mut rss_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("invalid value for {flag}: {value:?}")) };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| bad()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(&value)),
            "--rss-probe" => rss_probe = value == "1",
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let root = PathBuf::from(".perfbench");
    Opts {
        work_dir: root.join(format!("work-{}", std::process::id())),
        out_dir: root.join("out"),
        workload,
        seed,
        seconds,
        trace,
        rss_probe,
        serve_bin: serve_bin.unwrap_or_else(|| usage("--serve-bin is required")),
    }
}

fn main() {
    let opts = parse_opts();
    if opts.rss_probe {
        if let Err(e) = starbench_scaled::rss_probe() {
            eprintln!("memory probe: {e}");
            std::process::exit(1);
        }
        return;
    }
    for dir in [&opts.work_dir, &opts.out_dir] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let result = match opts.workload.as_str() {
        "starbench-scaled" => starbench_scaled::run(&opts),
        "serve-cold" => serve::run_cold(&opts),
        _ => serve::run_edit(&opts),
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    match result {
        Ok(report) => {
            if !report.print(&opts.workload, opts.trace) {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", opts.workload);
            std::process::exit(1);
        }
    }
}
