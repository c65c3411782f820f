//! Direct calls into each layer's public functions, timed one by one on
//! the generator thread after the traced traffic has stopped.
//!
//! `codec.push.ns_per_line` and `session.eval.us_per_line` run on the
//! current workload's own line class. The other rows run on fixed
//! seeded inputs — the interact dashboard for the Tcl, Xt, xproto and
//! display rows, the churn form for the session, registry, Xaw and
//! snapshot rows — and are printed by every workload so the traced
//! output has one schema.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use wafe_core::{Flavor, SessionSnapshot, WafeSession};
use wafe_display::{modifiers_from_mask, to_hex, Frame, InputEvent};
use wafe_ipc::{LineCodec, ProtocolEngine, DEFAULT_MAX_LINE};
use wafe_serve::display::pump_frame;
use wafe_serve::{install_display_control, DisplayCtl, Limits, Registry, SessionSink};

use crate::load::{self, FactorInputs, Rng};
use crate::stats::median;
use crate::{sys, Workload};

/// Repetitions behind each median.
const REPS: usize = 200;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The current workload's `%`-lines, as its generator would send them.
fn workload_lines(w: Workload, seed: u64, (x, y): (i32, i32)) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let mut lines = Vec::new();
    match w {
        Workload::Stream => {
            let mut buf = Vec::new();
            for seq in 1..=2000 {
                load::stream_group(&mut rng, seq, &mut buf);
            }
            lines.extend(
                String::from_utf8(buf)
                    .expect("ascii")
                    .lines()
                    .map(String::from),
            );
        }
        Workload::Interact => {
            let inputs = FactorInputs::new();
            for _ in 0..REPS {
                lines.push(format!("%set n {}", inputs.next(&mut rng)));
                for ev in load::action_events(&mut rng, x, y) {
                    lines.push(format!("%display event {}", to_hex(&ev.encode())));
                }
            }
        }
        Workload::Churn => {
            for k in 0..20 {
                lines.extend(
                    load::churn_form(&mut rng)
                        .into_iter()
                        .map(|l| format!("%{l}")),
                );
                lines.push(format!("%echo built {k}"));
                let v = format!("v{k}");
                lines.extend(
                    load::churn_updates(&mut rng, &v)
                        .into_iter()
                        .map(|l| format!("%{l}")),
                );
                lines.push(format!("%echo pending {k}"));
            }
        }
    }
    lines
}

/// `LineCodec::push` over the workload's bytes in 8 KiB reads, as the
/// event loop's read sweep feeds it.
fn codec_ns_per_line(lines: &[String]) -> f64 {
    let bytes: Vec<u8> = lines.iter().flat_map(|l| LineCodec::encode(l)).collect();
    let samples = (0..50)
        .map(|_| {
            let mut codec = LineCodec::new(DEFAULT_MAX_LINE);
            let t = Instant::now();
            let n: usize = bytes
                .chunks(8192)
                .map(|c| black_box(codec.push(c)).len())
                .sum();
            assert_eq!(n, lines.len(), "the codec must frame every line");
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(samples)
}

type Dashboard = (WafeSession, Rc<DisplayCtl>, (i32, i32));

/// A session holding the interact dashboard, display attached and the
/// pointer over the button; returns it with its display control and
/// the button's centre.
fn dashboard(seed: u64) -> Result<Dashboard, String> {
    let mut s = WafeSession::new(Flavor::Athena);
    let ctl = Rc::new(DisplayCtl::default());
    install_display_control(&ctl, &mut s);
    for l in load::dashboard_script(&mut Rng::new(seed)) {
        s.eval(&l)
            .map_err(|e| format!("dashboard: {}", e.message()))?;
    }
    s.eval("display attach").map_err(|e| e.message())?;
    let centre = point_at_button(&mut s)?;
    take_frame(&mut s);
    Ok((s, ctl, centre))
}

/// Moves the pointer over the dashboard's button, as the generator does,
/// and returns the point.
fn point_at_button(s: &mut WafeSession) -> Result<(i32, i32), String> {
    let geom = s
        .eval("concat [gV go x] [gV go y] [gV go width] [gV go height]")
        .map_err(|e| e.message())?
        .to_string();
    let g: Vec<i32> = geom.split(' ').filter_map(|w| w.parse().ok()).collect();
    if g.len() != 4 {
        return Err(format!("bad geometry {geom:?}"));
    }
    let (x, y) = (g[0] + g[2] / 2, g[1] + g[3] / 2);
    s.app.borrow_mut().displays[0].inject_pointer_move(x, y);
    s.pump();
    Ok((x, y))
}

/// Drains pending damage into a frame, returning its encoded size.
fn take_frame(s: &mut WafeSession) -> usize {
    let mut app = s.app.borrow_mut();
    let d = &mut app.displays[0];
    d.flush();
    let damage = d.take_frame_damage();
    let seq = d.next_frame_seq();
    Frame::build(d.framebuffer(), &damage, seq).encoded_len()
}

/// Sets the next number and injects one action without dispatching it.
fn inject_action(s: &mut WafeSession, rng: &mut Rng, inputs: &FactorInputs) -> Result<(), String> {
    s.eval(&format!("set n {}", inputs.next(rng)))
        .map_err(|e| e.message())?;
    let mut app = s.app.borrow_mut();
    let d = &mut app.displays[0];
    // The pointer already rests on the button, so the events' own
    // coordinates are not used.
    for ev in load::action_events(rng, 0, 0) {
        match ev {
            InputEvent::Button { button, press, .. } => d.inject_button(button, press),
            InputEvent::Key { name, modifiers } => {
                d.inject_key_named(&name, modifiers_from_mask(modifiers))
            }
            _ => unreachable!("actions are clicks and keys"),
        }
    }
    Ok(())
}

/// The keystroke-to-pixel path, one stage at a time.
fn interact_rows(seed: u64, rows: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let inputs = FactorInputs::new();
    let mut rng = Rng::new(seed ^ 0x1a7e);
    let (mut s, ctl, _) = dashboard(seed)?;

    let mut callback = Vec::new();
    for _ in 0..REPS {
        s.eval(&format!("set n {}", inputs.next(&mut rng)))
            .map_err(|e| e.message())?;
        let t = Instant::now();
        s.eval("go").map_err(|e| e.message())?;
        callback.push(us_since(t));
        take_frame(&mut s);
        let _ = s.take_output();
    }
    rows.push(("tcl.callback.us", median(callback)));

    let (mut pump, mut flush, mut build, mut encode, mut hex) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut rects, mut px, mut enc_bytes, mut hex_bytes) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..REPS {
        inject_action(&mut s, &mut rng, &inputs)?;
        let t = Instant::now();
        s.pump();
        pump.push(us_since(t));
        if !s.take_output().starts_with("f ") {
            return Err("an injected action did not run the callback".into());
        }
        let mut app = s.app.borrow_mut();
        let d = &mut app.displays[0];
        let t = Instant::now();
        d.flush();
        flush.push(us_since(t));
        let damage = d.take_frame_damage();
        rects += damage.rects.len() as u64;
        px += damage.rects.iter().map(|r| r.area()).sum::<u64>();
        let seq = d.next_frame_seq();
        let t = Instant::now();
        let frame = Frame::build(d.framebuffer(), &damage, seq);
        build.push(us_since(t));
        let t = Instant::now();
        let bytes = frame.encode();
        encode.push(us_since(t));
        let t = Instant::now();
        let h = black_box(to_hex(&bytes));
        hex.push(us_since(t));
        enc_bytes += bytes.len() as u64;
        hex_bytes += h.len() as u64;
    }
    let n = REPS as f64;
    rows.extend([
        ("xt.pump.us_per_event", median(pump)),
        ("xproto.flush.us_per_frame", median(flush)),
        ("xproto.damage.rects_per_frame", rects as f64 / n),
        ("xproto.damage.px_per_frame", px as f64 / n),
        ("display.frame_build.us", median(build)),
        ("display.frame_encode.us", median(encode)),
        ("display.hex.us", median(hex)),
        ("display.encoded_bytes_per_frame", enc_bytes as f64 / n),
        ("display.hex_bytes_per_frame", hex_bytes as f64 / n),
    ]);

    let (sink, buf) = SessionSink::buffer();
    let mut pumped = Vec::new();
    for _ in 0..REPS {
        inject_action(&mut s, &mut rng, &inputs)?;
        s.pump();
        let _ = s.take_output();
        let t = Instant::now();
        pump_frame(&s, &ctl, &sink, &mut None);
        pumped.push(us_since(t));
        let sent = std::mem::take(&mut *buf.lock().expect("buffer sink lock"));
        if sent.len() != 1 || !sent[0].starts_with("!display frame ") {
            return Err("pump_frame did not ship exactly one frame".into());
        }
    }
    rows.push(("display.pump_frame.us", median(pumped)));
    Ok(())
}

/// A session holding the churn form with its pre-park updates applied.
fn churn_session(rng: &mut Rng) -> Result<WafeSession, String> {
    let mut s = WafeSession::new(Flavor::Athena);
    for l in load::churn_form(rng)
        .iter()
        .chain(&load::churn_updates(rng, "vcheck"))
    {
        s.eval(l)
            .map_err(|e| format!("churn form: {}", e.message()))?;
    }
    Ok(s)
}

/// Session construction, UI build, snapshot and registry rows.
fn session_rows(seed: u64, rows: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let mut rng = Rng::new(seed ^ 0xc4e7);

    let mut new = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        let s = black_box(WafeSession::new(Flavor::Athena));
        new.push(us_since(t));
        drop(s);
    }
    rows.push(("session.new.us", median(new)));

    let mut build = Vec::new();
    for _ in 0..50 {
        let form = load::churn_form(&mut rng);
        let mut s = WafeSession::new(Flavor::Athena);
        let t = Instant::now();
        for l in &form {
            s.eval(l).map_err(|e| e.message())?;
        }
        build.push(us_since(t));
    }
    rows.push(("xaw.build_ui.us", median(build)));

    let s = churn_session(&mut rng)?;
    let outbound = vec!["pending 1".to_string()];
    let bytes = SessionSnapshot::capture(&s, outbound.clone()).encode();
    let mut capture = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        black_box(SessionSnapshot::capture(&s, outbound.clone()).encode());
        capture.push(us_since(t));
    }
    let mut restore = Vec::new();
    for _ in 0..50 {
        let mut fresh = WafeSession::new(Flavor::Athena);
        let t = Instant::now();
        let snap = SessionSnapshot::decode(&bytes)?;
        let report = snap.restore_into(&mut fresh);
        restore.push(us_since(t));
        if report.widgets_skipped > 0 {
            return Err(format!("restore skipped widgets: {report:?}"));
        }
        let got = fresh
            .eval("gV status label")
            .map_err(|e| e.message())?
            .to_string();
        if got != "vcheck" {
            return Err(format!("restored status label reads {got:?}"));
        }
    }
    rows.extend([
        ("snapshot.capture_encode.us", median(capture)),
        ("snapshot.bytes", bytes.len() as f64),
        ("snapshot.decode_restore.us", median(restore)),
    ]);

    let registry = Registry::new(Limits::default());
    let (mut admit, mut park) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        let id = registry
            .admit("tcp/bench", 0)
            .map_err(|r| format!("admit: {r}"))?;
        admit.push(us_since(t));
        let b = bytes.clone();
        let t = Instant::now();
        registry.park(id, b, 0)?;
        park.push(us_since(t));
        registry.release(id);
        if registry.take_parked(id).is_none() {
            return Err("a parked snapshot went missing".into());
        }
    }
    rows.push(("registry.admit.us", median(admit)));
    rows.push(("registry.park.us", median(park)));
    Ok(())
}

/// This process's RSS growth per `WafeSession::new` over a batch kept
/// alive. Call it before anything else allocates: later, sessions reuse
/// memory freed by earlier work and the growth reads low.
pub fn session_rss_kb() -> Result<f64, String> {
    const BATCH: usize = 64;
    let rss = || sys::rss_kb(0).map_err(|e| format!("VmRSS: {e}"));
    let before = rss()?;
    let held: Vec<WafeSession> = (0..BATCH)
        .map(|_| WafeSession::new(Flavor::Athena))
        .collect();
    let after = rss()?;
    drop(held);
    Ok(after.saturating_sub(before) as f64 / BATCH as f64)
}

/// `ProtocolEngine::handle_line` per line of the workload's traffic.
fn eval_us_per_line(w: Workload, seed: u64, lines: &[String]) -> Result<f64, String> {
    let fresh = || {
        let mut e = ProtocolEngine::new(Flavor::Athena);
        let ctl = Rc::new(DisplayCtl::default());
        install_display_control(&ctl, &mut e.session);
        e
    };
    let mut engine = fresh();
    if w == Workload::Interact {
        for l in load::dashboard_script(&mut Rng::new(seed)) {
            engine.handle_line(&format!("%{l}"))?;
        }
        engine.handle_line("%display attach")?;
        point_at_button(&mut engine.session)?;
    }
    let mut samples = Vec::new();
    for _ in 0..5 {
        let mut total = 0.0;
        for l in lines {
            if w == Workload::Churn && l.starts_with("%form ") {
                engine = fresh();
            }
            let t = Instant::now();
            engine.handle_line(l)?;
            total += us_since(t);
            if engine.app_lines_pending() > 64 {
                let _ = engine.take_app_lines();
            }
        }
        samples.push(total / lines.len() as f64);
    }
    Ok(median(samples))
}

pub fn measure(w: Workload, seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let lines = workload_lines(w, seed, dashboard(seed)?.2);
    let mut rows = vec![
        ("codec.push.ns_per_line", codec_ns_per_line(&lines)),
        (
            "session.eval.us_per_line",
            eval_us_per_line(w, seed, &lines)?,
        ),
    ];
    interact_rows(seed, &mut rows)?;
    session_rows(seed, &mut rows)?;
    Ok(rows)
}
