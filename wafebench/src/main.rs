//! wafebench: the end-to-end and per-layer benchmark of `waferd`.
//!
//! ```text
//! wafebench --waferd PATH --workload stream|interact|churn --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` starts `waferd --workers 1` as a child process, drives it
//! over loopback TCP from this single-threaded generator and prints the
//! end-to-end metrics. `--trace 1` hosts the server in-process on one
//! thread, drives the same traffic from one generator thread, times the
//! calls into each layer and prints the per-layer metrics. Either way
//! the last line of standard output is one JSON object. See README.md.

mod layers;
mod load;
mod span;
mod stats;
mod sys;
mod trace;

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use load::{ChurnLane, Interact, Rng, StreamLane, Tally, Window};
use span::Rec;

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// Throughput and latency are printed above the result line instead:
/// on the 2-vCPU test host their ten-run spread reached 0.17-0.37 on each
/// workload (README.md, "Measured spread"), too much for a bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wire_bytes_per_op", "bytes"),
    ("rss_kb_per_session", "KiB"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Untimed traffic before the measured window.
const WARMUP: Duration = Duration::from_secs(1);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Stream,
    Interact,
    Churn,
}

pub struct Args {
    waferd: Option<PathBuf>,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        waferd: None,
        workload: Workload::Stream,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--waferd" => a.waferd = Some(PathBuf::from(v)),
            "--workload" => {
                workload = Some(match v.as_str() {
                    "stream" => Workload::Stream,
                    "interact" => Workload::Interact,
                    "churn" => Workload::Churn,
                    _ => return Err(format!("unknown workload {v:?}")),
                })
            }
            "--seed" => a.seed = num(&v)?,
            "--seconds" => a.seconds = num(&v)?.max(1) as f64,
            "--trace" => a.trace = num(&v)? != 0,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    if !a.trace && a.waferd.is_none() {
        return Err("--waferd is required without --trace 1".into());
    }
    Ok(a)
}

/// The thread and connection budget. The server and the generator share
/// the first allowed CPU: handing work between two threads on one CPU
/// costs a context switch, while waking a thread on another virtual CPU
/// costs an inter-processor interrupt whose price varies from run to
/// run. A workload opens at most one connection per CPU, and never more
/// than two.
pub struct Placement {
    pub server_cpu: usize,
    pub client_cpu: usize,
    pub conns: usize,
}

impl Placement {
    fn detect() -> Placement {
        let cpus = sys::allowed_cpus();
        Placement {
            server_cpu: cpus[0],
            client_cpu: cpus[0],
            conns: cpus.len().clamp(1, 2),
        }
    }
}

/// What one run prints as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A workload's open connections, ready for traffic.
pub enum State {
    Stream(Vec<StreamLane>),
    Interact(Interact),
    Churn(Vec<ChurnLane>),
}

impl State {
    pub fn run(&mut self, win: Window, rec: &mut Rec, tally: &mut Tally) -> Result<(), String> {
        match self {
            State::Stream(lanes) => load::run_stream(lanes, win, rec, tally),
            State::Interact(i) => i.run(win, rec, tally),
            State::Churn(lanes) => load::run_churn(lanes, win, rec, tally),
        }
    }
}

/// Opens the workload's connections and builds their sessions. With a
/// server pid, also returns the server's RSS growth per session built.
pub fn setup(
    w: Workload,
    addr: SocketAddr,
    seed: u64,
    conns: usize,
    server_pid: Option<u32>,
    rec: &mut Rec,
) -> Result<(State, f64), String> {
    let rss = || {
        server_pid
            .map_or(Ok(0), sys::rss_kb)
            .map_err(|e| format!("VmRSS: {e}"))
    };
    let mut seeds = Rng::new(seed);
    let before = rss()?;
    let (state, sessions) = match w {
        Workload::Stream => {
            let lanes = (0..conns)
                .map(|_| StreamLane::open(addr, seeds.next_u64(), rec))
                .collect::<Result<Vec<_>, _>>()?;
            (State::Stream(lanes), conns)
        }
        Workload::Interact => (State::Interact(Interact::open(addr, seed, rec)?), 1),
        Workload::Churn => {
            let probe = load::open_churn_sessions(addr, conns, seed, rec)?;
            let after = rss()?;
            drop(probe);
            let lanes = (0..conns)
                .map(|i| ChurnLane::new(addr, seeds.next_u64(), i as u64))
                .collect();
            let per = after.saturating_sub(before) as f64 / conns as f64;
            return Ok((State::Churn(lanes), per));
        }
    };
    let per = rss()?.saturating_sub(before) as f64 / sessions as f64;
    Ok((state, per))
}

/// A `waferd` child process; killed and reaped on drop.
struct Waferd {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Waferd {
    /// Starts `waferd --workers 1` on the server CPU. The generator is
    /// single-threaded, so pinning this thread, spawning and pinning
    /// back places the child without a race.
    fn spawn(exe: &PathBuf, pl: &Placement) -> Result<Waferd, String> {
        sys::pin_current_thread(pl.server_cpu).map_err(|e| format!("pin: {e}"))?;
        let child = Command::new(exe)
            .args(["--listen", "127.0.0.1:0", "--workers", "1", "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn();
        sys::pin_current_thread(pl.client_cpu).map_err(|e| format!("pin: {e}"))?;
        let mut child = child.map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = out.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("waferd listening tcp ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("waferd did not start: {line:?}"));
        };
        Ok(Waferd {
            child,
            _stdout: out,
            addr,
        })
    }
}

impl Drop for Waferd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn end_to_end(args: &Args, pl: &Placement) -> Result<Outcome, String> {
    let exe = args.waferd.as_ref().expect("checked in parse_args");
    let mut rec = Rec::new(Instant::now());
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let mut live: Option<(Waferd, State)> = None;
    for _ in 0..SETUPS {
        drop(live.take());
        let t = Instant::now();
        let srv = Waferd::spawn(exe, pl)?;
        let (state, per) = setup(
            args.workload,
            srv.addr,
            args.seed,
            pl.conns,
            Some(srv.child.id()),
            &mut rec,
        )?;
        setups.push(t.elapsed().as_secs_f64());
        rss.push(per);
        live = Some((srv, state));
    }
    let (srv, mut state) = live.expect("at least one set-up");
    let mut warm = Tally::default();
    let mut tally = Tally::default();
    let now = Instant::now();
    let r = state.run(
        Window {
            from: now + WARMUP,
            until: now + WARMUP,
        },
        &mut rec,
        &mut warm,
    );
    let start = Instant::now();
    let win = Window {
        from: start,
        until: start + Duration::from_secs_f64(args.seconds),
    };
    let cpu0 = sys::cpu_seconds(srv.child.id()).unwrap_or(0.0);
    let r = r.and_then(|_| state.run(win, &mut rec, &mut tally));
    let cpu1 = sys::cpu_seconds(srv.child.id()).unwrap_or(0.0);
    let attempted = warm.attempted + tally.attempted;
    let failed = attempted - (warm.completed + tally.completed);
    if let Err(e) = r {
        eprintln!("wafebench: {e}");
        return Ok(Outcome {
            correct: false,
            attempted,
            failed: failed.max(1),
            metrics: Vec::new(),
        });
    }
    let lat = match stats::summarize(std::mem::take(&mut tally.lat_us)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("wafebench: latency: {e}");
            return Ok(Outcome {
                correct: false,
                attempted,
                failed,
                metrics: Vec::new(),
            });
        }
    };
    // Throughput is the median of the window's one-second rates, so a
    // second in which the host stalled the virtual CPU does not move it.
    let rates: Vec<f64> = tally.per_second.iter().map(|&n| n as f64).collect();
    println!(
        "info ops_per_s={} latency_us_p50={} latency_us_p99={} n={} beyond_p99={} \
         server_cpu_us_per_op={:.3}",
        stats::median(rates),
        lat.p50,
        lat.p99,
        lat.n,
        lat.beyond_tail,
        (cpu1 - cpu0) * 1e6 / tally.done as f64
    );
    println!(
        "ops completed per second of the window: {:?}",
        tally.per_second
    );
    println!("setup_s samples: {setups:?}; rss_kb_per_session samples: {rss:?}");
    let values = [
        stats::median(setups),
        tally.wire_bytes as f64 / tally.done as f64,
        stats::median(rss),
    ];
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), v, u))
            .collect(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wafebench: {e}");
            std::process::exit(2);
        }
    };
    let pl = Placement::detect();
    println!(
        "workload {:?} seed {} seconds {}: server on cpu {}, generator on cpu {}, {} connection(s)",
        args.workload, args.seed, args.seconds, pl.server_cpu, pl.client_cpu, pl.conns
    );
    let result = if args.trace {
        trace::run(&args, &pl)
    } else {
        end_to_end(&args, &pl)
    };
    match result {
        Ok(out) => println!("{}", out.json()),
        Err(e) => {
            eprintln!("wafebench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s listed in one array section of BENCHMARK.json.
    fn listed(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(listed(&json, "end_to_end"), names(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), names(trace::PER_LAYER));
        assert_eq!(listed(&json, "workloads"), ["stream", "interact", "churn"]);
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s".into(), 0.25, "s")],
        };
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
