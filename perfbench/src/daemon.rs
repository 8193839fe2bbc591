//! The daemon under test: spawning `repro-serve`, talking its
//! newline-delimited JSON protocol, and shutting it down with its peak
//! memory recorded.

use obs::json::{parse, Json};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single answer may take before the benchmark gives up.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon with its default settings (plus `cache_dir`
    /// when given) and waits for its first `ping` answer. Returns the
    /// daemon and the seconds from spawn to that answer.
    pub fn spawn(
        bin: &Path,
        socket: &Path,
        cache_dir: Option<&Path>,
    ) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_file(socket);
        let mut cmd = Command::new(bin);
        cmd.arg("--socket").arg(socket);
        if let Some(dir) = cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let t0 = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        loop {
            if let Ok(mut conn) = Conn::open(&daemon.socket) {
                conn.send(r#"{"op":"ping"}"#)?;
                conn.recv()?;
                return Ok((daemon, t0.elapsed().as_secs_f64()));
            }
            if t0.elapsed() > IO_TIMEOUT {
                return Err("daemon did not answer ping".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.socket)
    }

    /// Fetches the `stats` document.
    pub fn stats(&self) -> Result<Json, String> {
        let mut conn = self.connect()?;
        conn.send(r#"{"op":"stats"}"#)?;
        conn.recv()
    }

    /// Asks the daemon to drain and exit, then reaps it. Returns its
    /// peak resident memory in MB.
    // The child is reaped by `wait4`, which also reports its peak memory.
    #[allow(clippy::zombie_processes)]
    pub fn shutdown(mut self) -> Result<f64, String> {
        let mut conn = self.connect()?;
        conn.send(r#"{"op":"shutdown"}"#)?;
        conn.recv()?;
        let child = self.child.take().expect("daemon not yet reaped");
        let (status, rss) = crate::sys::wait_peak_rss_mb(child.id())
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if status != 0 {
            return Err(format!("daemon exited with wait status {status}"));
        }
        Ok(rss)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// A second handle for writing from another thread.
    pub fn writer(&self) -> Result<UnixStream, String> {
        self.writer.try_clone().map_err(|e| e.to_string())
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        send_on(&mut self.writer, line)
    }

    pub fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => parse(line.trim_end()).map_err(|e| format!("bad answer {line:?}: {e}")),
            Err(e) => Err(format!("reading an answer: {e}")),
        }
    }
}

pub fn send_on(w: &mut UnixStream, line: &str) -> Result<(), String> {
    w.write_all(line.as_bytes())
        .and_then(|_| w.write_all(b"\n"))
        .map_err(|e| format!("sending a request: {e}"))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An `analyze` request line for inline source and float inputs.
pub fn analyze_line(id: &str, source: &str, inputs: &[(String, Vec<f64>)]) -> String {
    let inputs: Vec<String> = inputs
        .iter()
        .map(|(name, data)| {
            let vals: Vec<String> = data.iter().map(|v| format!("{v}")).collect();
            format!("{}:[{}]", json_str(name), vals.join(","))
        })
        .collect();
    format!(
        "{{\"op\":\"analyze\",\"id\":{},\"source\":{},\"inputs\":{{{}}}}}",
        json_str(id),
        json_str(source),
        inputs.join(",")
    )
}

/// The fields of an analyze answer the benchmark checks.
#[derive(Clone, Debug)]
pub struct Answer {
    pub id: String,
    pub status: String,
    pub kinds: Vec<String>,
    pub degraded: bool,
    pub query_hit: bool,
    pub coalesced: bool,
    pub ddg_size: f64,
    pub compute_ms: f64,
}

impl Answer {
    pub fn from_json(doc: &Json) -> Answer {
        let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let flag = |k: &str| matches!(doc.get(k), Some(Json::Bool(true)));
        Answer {
            id: doc
                .get("id")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            status: doc
                .get("status")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            kinds: doc
                .get("kinds")
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|k| k.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default(),
            degraded: flag("degraded"),
            query_hit: flag("query_hit"),
            coalesced: flag("coalesced"),
            ddg_size: num("ddg_size"),
            compute_ms: num("trace_ms") + num("find_ms"),
        }
    }

    /// Answered, complete and not degraded.
    pub fn ok(&self) -> bool {
        self.status == "ok" && !self.degraded
    }
}

/// A number inside the `stats` document, by path (0 when absent).
pub fn stat(doc: &Json, path: &[&str]) -> f64 {
    let mut cur = doc;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}
