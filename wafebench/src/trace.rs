//! The traced run: the server hosted in-process on one thread — a
//! `Registry`, a `Scheduler` and an `EventLoop` over real loopback
//! `TcpStream`s — driven by the workload's generator on a second thread.
//! Calls into `EventLoop::{attach, poll_io, run_turn, flush_and_reap}`
//! and the sockets' `read`/`write` are timed from outside the program.
//!
//! The run alternates untraced slices, with the loop shaped like
//! `waferd`'s worker, and traced ones. The traced loop waits for
//! readiness itself and then calls `poll_io` without blocking, so
//! `poll_io` time is work, not idle waiting. The two throughputs give
//! `trace.overhead_frac`.
//!
//! Reconciliation: the generator records when it writes and when it
//! waits. The server's intervals that fall inside the generator's waits
//! are the server work the generator was blocked on, split by layer
//! (self time: a socket call is subtracted from the call it is nested
//! in). What remains of the wait is `unattributed.us_per_op`: loopback
//! transit, wake-ups and scheduling. Per operation,
//! `client.write + Σ path.* + unattributed = client.observed`.

use std::cell::{Cell, RefCell};
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use wafe_core::Flavor;
use wafe_ipc::SysPoller;
use wafe_serve::{ConnAssign, ConnIo, EventLoop, Limits, Mailbox, OutQueue, Registry, Scheduler};

use crate::load::{Tally, Window};
use crate::span::{overlap, Kind, Rec, Span};
use crate::{layers, setup, sys, Args, Outcome, Placement};

/// Per-layer metrics, printed by every workload with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("codec.push.ns_per_line", "ns"),
    ("event_loop.attach.us", "us"),
    ("event_loop.poll_io.us_per_call", "us"),
    ("event_loop.lines_per_wakeup", "lines"),
    ("event_loop.flush_and_reap.us_per_call", "us"),
    ("client.bytes_per_read", "bytes"),
    ("scheduler.run_turn.us_per_call", "us"),
    ("scheduler.lines_per_turn", "lines"),
    ("scheduler.lines_per_session_visited", "ratio"),
    ("mailbox.depth_per_turn", "lines"),
    ("registry.admit.us", "us"),
    ("registry.park.us", "us"),
    ("session.new.us", "us"),
    ("session.rss_kb", "KiB"),
    ("session.eval.us_per_line", "us"),
    ("snapshot.capture_encode.us", "us"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.decode_restore.us", "us"),
    ("tcl.callback.us", "us"),
    ("xt.pump.us_per_event", "us"),
    ("xaw.build_ui.us", "us"),
    ("xproto.flush.us_per_frame", "us"),
    ("xproto.damage.rects_per_frame", "rects"),
    ("xproto.damage.px_per_frame", "px"),
    ("display.frame_build.us", "us"),
    ("display.frame_encode.us", "us"),
    ("display.hex.us", "us"),
    ("display.encoded_bytes_per_frame", "bytes"),
    ("display.hex_bytes_per_frame", "bytes"),
    ("display.pump_frame.us", "us"),
    ("client.write.us_per_op", "us"),
    ("client.wait.us_per_op", "us"),
    ("client.observed.us_per_op", "us"),
    ("path.attach.us_per_op", "us"),
    ("path.poll_io.us_per_op", "us"),
    ("path.socket_read.us_per_op", "us"),
    ("path.run_turn.us_per_op", "us"),
    ("path.flush_and_reap.us_per_op", "us"),
    ("path.socket_write.us_per_op", "us"),
    ("unattributed.us_per_op", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// Untraced/traced slice pairs in a traced run.
const SLICES: usize = 10;

thread_local! {
    /// The server thread's recorder; socket calls push into it.
    static SERVER_REC: RefCell<Option<Rec>> = const { RefCell::new(None) };
    /// The event-loop call currently running on the server thread.
    static PHASE: Cell<Option<Kind>> = const { Cell::new(None) };
}

fn server_push(kind: Kind, parent: Option<Kind>, start: u64) {
    SERVER_REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.push(kind, parent, start);
        }
    });
}

fn server_now() -> u64 {
    SERVER_REC.with(|r| r.borrow().as_ref().map_or(0, Rec::now))
}

/// A loopback connection whose socket calls are timed. It flags itself
/// dead on drop, before its descriptor closes, so the traced loop never
/// polls a stale descriptor.
struct TracedConn {
    s: TcpStream,
    alive: Arc<AtomicBool>,
}

impl ConnIo for TracedConn {
    fn fd(&self) -> RawFd {
        self.s.as_raw_fd()
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let t = server_now();
        let r = io::Read::read(&mut self.s, buf);
        server_push(Kind::SockRead, PHASE.get(), t);
        r
    }
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t = server_now();
        let r = io::Write::write(&mut self.s, buf);
        server_push(Kind::SockWrite, PHASE.get(), t);
        r
    }
    fn shutdown(&mut self) {
        let _ = self.s.shutdown(Shutdown::Both);
    }
}

impl Drop for TracedConn {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct ServerOut {
    spans: Vec<Span>,
    attach_ns: u64,
    attaches: u64,
    polls: u64,
    poll_lines: u64,
    turns: u64,
    turn_lines: u64,
    visited: u64,
    depth: u64,
}

struct Ctl {
    stop: AtomicBool,
    traced: AtomicBool,
}

/// The server thread: accept, attach, then `poll_io`, `run_turn`,
/// `flush_and_reap` per iteration, like `waferd`'s worker.
fn serve(listener: TcpListener, ctl: Arc<Ctl>, base: Instant, cpu: usize) -> io::Result<ServerOut> {
    sys::pin_current_thread(cpu)?;
    listener.set_nonblocking(true)?;
    SERVER_REC.with(|r| *r.borrow_mut() = Some(Rec::new(base)));
    let registry = Arc::new(Registry::new(Limits::default()));
    let sched = Scheduler::new(registry.clone(), Flavor::Athena, false);
    let mut el = EventLoop::new(sched, 0, Box::new(SysPoller::new()));
    let mut conns: Vec<(RawFd, Arc<AtomicBool>)> = Vec::new();
    let mut out = ServerOut::default();
    let mut last = Instant::now();
    while !ctl.stop.load(Ordering::Relaxed) {
        let traced = ctl.traced.load(Ordering::Relaxed);
        SERVER_REC.with(|r| r.borrow_mut().as_mut().expect("set above").on = traced);
        if traced && !el.has_pending_work() {
            conns.retain(|(_, alive)| alive.load(Ordering::Relaxed));
            let mut fds = vec![listener.as_raw_fd()];
            fds.extend(conns.iter().map(|(fd, _)| *fd));
            sys::wait_readable(&fds, 1)?;
        }
        loop {
            let (s, peer) = match listener.accept() {
                Ok(a) => a,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            };
            s.set_nonblocking(true)?;
            let id = registry
                .admit(&format!("tcp/{peer}"), 0)
                .map_err(|r| io::Error::other(format!("admission refused: {r}")))?;
            let alive = Arc::new(AtomicBool::new(true));
            conns.push((s.as_raw_fd(), alive.clone()));
            let assign = ConnAssign {
                id,
                io: Box::new(TracedConn { s, alive }),
                mailbox: Mailbox::new(registry.limits().queue_depth),
                out: OutQueue::new(),
            };
            let t = Instant::now();
            let ts = server_now();
            el.attach(assign);
            out.attach_ns += t.elapsed().as_nanos() as u64;
            out.attaches += 1;
            server_push(Kind::Attach, None, ts);
        }
        let timeout = if traced || el.has_pending_work() {
            0
        } else {
            1
        };
        PHASE.set(Some(Kind::PollIo));
        let t = server_now();
        let lines = el.poll_io(timeout);
        server_push(Kind::PollIo, None, t);
        let depth = el.scheduler().queued_lines();
        let sessions = el.scheduler().session_count();
        PHASE.set(Some(Kind::RunTurn));
        let t = server_now();
        let dispatched = el.run_turn();
        server_push(Kind::RunTurn, None, t);
        PHASE.set(Some(Kind::Flush));
        let t = server_now();
        el.flush_and_reap();
        server_push(Kind::Flush, None, t);
        PHASE.set(None);
        let _ = el.take_passthrough();
        if traced {
            out.polls += 1;
            out.poll_lines += lines as u64;
            out.turns += 1;
            out.turn_lines += dispatched as u64;
            out.visited += sessions as u64;
            out.depth += depth as u64;
        }
        let elapsed = last.elapsed().as_millis() as u64;
        if elapsed > 0 {
            el.advance(elapsed);
            last = Instant::now();
        }
    }
    out.spans =
        SERVER_REC.with(|r| std::mem::take(&mut r.borrow_mut().as_mut().expect("set").spans));
    Ok(out)
}

/// Sum of `kind` spans' overlap with the client's waits, in ns.
fn on_path(server: &[Span], waits: &[Span], pick: impl Fn(&Span) -> bool) -> u64 {
    server
        .iter()
        .filter(|s| pick(s))
        .map(|s| overlap(s, waits))
        .sum()
}

/// The blocking-path rows: client write, server self time per layer
/// inside the client's waits, and the unattributed rest, per operation.
fn reconcile(client: &Rec, server: &[Span], ops: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let waits: Vec<Span> = client
        .spans
        .iter()
        .filter(|s| s.kind == Kind::ClientWait)
        .copied()
        .collect();
    let per_op = |ns: u64| ns as f64 / 1e3 / ops as f64;
    let of = |k: Kind| on_path(server, &waits, |s| s.kind == k && s.parent.is_none());
    let nested_in = |p: Kind| on_path(server, &waits, |s| s.parent == Some(p));
    let sock = |k: Kind| on_path(server, &waits, |s| s.kind == k);
    let path = [
        ("path.attach.us_per_op", of(Kind::Attach)),
        (
            "path.poll_io.us_per_op",
            of(Kind::PollIo) - nested_in(Kind::PollIo),
        ),
        ("path.socket_read.us_per_op", sock(Kind::SockRead)),
        (
            "path.run_turn.us_per_op",
            of(Kind::RunTurn) - nested_in(Kind::RunTurn),
        ),
        (
            "path.flush_and_reap.us_per_op",
            of(Kind::Flush) - nested_in(Kind::Flush),
        ),
        ("path.socket_write.us_per_op", sock(Kind::SockWrite)),
    ];
    let write = client.total(Kind::ClientWrite);
    let wait = client.total(Kind::ClientWait);
    let attributed: u64 = path.iter().map(|(_, ns)| ns).sum();
    if attributed > wait {
        return Err(format!(
            "attributed {attributed} ns exceeds the client's wait {wait} ns"
        ));
    }
    // With attributed ≤ wait, the rows add up by construction:
    // client.write + Σ path.* + unattributed = client.observed.
    let mut rows: Vec<(&'static str, f64)> = path.iter().map(|&(n, ns)| (n, per_op(ns))).collect();
    rows.push(("client.write.us_per_op", per_op(write)));
    rows.push(("client.wait.us_per_op", per_op(wait)));
    rows.push(("client.observed.us_per_op", per_op(write + wait)));
    rows.push(("unattributed.us_per_op", per_op(wait - attributed)));
    println!(
        "reconciled over {ops} ops: client observed {:.3} us/op = write {:.3} + server path {:.3} + unattributed {:.3}",
        per_op(write + wait),
        per_op(write),
        per_op(attributed),
        per_op(wait - attributed)
    );
    Ok(rows)
}

fn mean_ns_us(server: &[Span], kind: Kind) -> f64 {
    let (n, ns) = server
        .iter()
        .filter(|s| s.kind == kind)
        .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.end - s.start));
    ns as f64 / 1e3 / n.max(1) as f64
}

pub fn run(args: &Args, pl: &Placement) -> Result<Outcome, String> {
    let session_rss = layers::session_rss_kb()?;
    let base = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
    let ctl = Arc::new(Ctl {
        stop: AtomicBool::new(false),
        traced: AtomicBool::new(false),
    });
    let server = {
        let ctl = ctl.clone();
        let cpu = pl.server_cpu;
        thread::spawn(move || serve(listener, ctl, base, cpu))
    };
    sys::pin_current_thread(pl.client_cpu).map_err(|e| format!("pin: {e}"))?;
    let mut rec = Rec::new(base);
    let slice = Duration::from_secs_f64(args.seconds / (2 * SLICES) as f64);
    let mut warm = Tally::default();
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let traffic = (|| {
        let (mut state, _) = setup(args.workload, addr, args.seed, pl.conns, None, &mut rec)?;
        let now = Instant::now();
        let w = Window {
            from: now + crate::WARMUP,
            until: now + crate::WARMUP,
        };
        state.run(w, &mut rec, &mut warm)?;
        rec.reads = 0;
        rec.read_bytes = 0;
        // Untraced and traced slices alternate, so drift in the host's
        // speed falls on both sides of `trace.overhead_frac` alike.
        for _ in 0..SLICES {
            for (on, tally) in [(false, &mut plain), (true, &mut traced)] {
                ctl.traced.store(on, Ordering::Relaxed);
                rec.on = on;
                let start = Instant::now();
                let w = Window {
                    from: start,
                    until: start + slice,
                };
                state.run(w, &mut rec, tally)?;
                rec.on = false;
            }
        }
        Ok::<_, String>(())
    })();
    ctl.stop.store(true, Ordering::Relaxed);
    let server = server
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    let attempted = warm.attempted + plain.attempted + traced.attempted;
    let failed = attempted - (warm.completed + plain.completed + traced.completed);
    if let Err(e) = traffic {
        eprintln!("wafebench: {e}");
        return Ok(Outcome {
            correct: false,
            attempted,
            failed: failed.max(1),
            metrics: Vec::new(),
        });
    }
    if plain.done == 0 || traced.done == 0 {
        return Err("a traced-run window completed no operation".into());
    }
    let window_s = slice.as_secs_f64() * SLICES as f64;
    let plain_rate = plain.done as f64 / window_s;
    let traced_rate = traced.done as f64 / window_s;
    println!("throughput: untraced {plain_rate:.1} ops/s, traced {traced_rate:.1} ops/s");

    let mut rows: Vec<(&'static str, f64)> = reconcile(&rec, &server.spans, traced.completed)?;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    rows.extend([
        (
            "event_loop.attach.us",
            server.attach_ns as f64 / 1e3 / server.attaches.max(1) as f64,
        ),
        (
            "event_loop.poll_io.us_per_call",
            mean_ns_us(&server.spans, Kind::PollIo),
        ),
        (
            "event_loop.lines_per_wakeup",
            ratio(server.poll_lines, server.polls),
        ),
        (
            "event_loop.flush_and_reap.us_per_call",
            mean_ns_us(&server.spans, Kind::Flush),
        ),
        ("client.bytes_per_read", ratio(rec.read_bytes, rec.reads)),
        (
            "scheduler.run_turn.us_per_call",
            mean_ns_us(&server.spans, Kind::RunTurn),
        ),
        (
            "scheduler.lines_per_turn",
            ratio(server.turn_lines, server.turns),
        ),
        (
            "scheduler.lines_per_session_visited",
            ratio(server.turn_lines, server.visited),
        ),
        ("mailbox.depth_per_turn", ratio(server.depth, server.turns)),
        ("trace.overhead_frac", 1.0 - traced_rate / plain_rate),
    ]);
    rows.push(("session.rss_kb", session_rss));
    rows.extend(layers::measure(args.workload, args.seed)?);

    let mut metrics = Vec::new();
    for &(name, unit) in PER_LAYER {
        let v = rows
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push((name.to_string(), v, unit));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}
