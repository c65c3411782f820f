//! E28 — display frame cost: does damage tracking actually pay?
//!
//! The display subsystem's claim is that a typical widget update (a
//! label changing text while the rest of the screen sits still) ships
//! orders of magnitude fewer bytes as a damage-tracked frame than as a
//! full-screen repaint. The workload is the steady state of a remote
//! frontend: one realized label updated once per frame, everything
//! else unchanged.
//!
//! The screen is a populated dashboard — a form grid of labels with
//! text — because the baseline's cost is content-dependent: frames are
//! RLE-compressed, so a full repaint of an *empty* screen is nearly
//! free and would flatter neither side. We measure, over the same
//! update sequence:
//!
//! * **damage-tracked** — flush the display, take the pending damage,
//!   build the frame from just those rects (the scheduler's pump path);
//! * **full-frame** — force full damage before every flush, the
//!   resync/no-tracking baseline.
//!
//! Bytes per frame for both, the tracked frame's `!display frame`
//! line as sent (hex plus newline), frames/s for both paths and the
//! bytes-saved ratio go to `BENCH_e28.json`. Byte counts come from one
//! untimed pass. Frames/s are the medians of `ROUNDS` timed passes that
//! alternate tracked and full, so a machine-wide slowdown hits both
//! sides of a round instead of whichever one ran while it lasted. The
//! acceptance gate is ratio ≥ 5×: below that, tracking damage per
//! mutation would not be worth the bookkeeping and the protocol could
//! just ship screens.

use std::time::{Duration, Instant};

use bench::{criterion_group, criterion_main, workspace_root, Criterion};
use wafe_core::{Flavor, WafeSession};
use wafe_display::{to_hex, Frame};

const FRAMES: usize = 200;
const ROUNDS: usize = 7;
const ROWS: usize = 6;
const COLS: usize = 4;

fn session_with_ticker() -> WafeSession {
    let mut s = WafeSession::new(Flavor::Athena);
    s.eval("form grid topLevel").unwrap();
    for r in 0..ROWS {
        for c in 0..COLS {
            let mut cmd = format!(
                "label r{r}c{c} grid label {{cell {r}:{c} status ok {}}} width 200 height 28",
                r * 31 + c * 17
            );
            if c > 0 {
                cmd.push_str(&format!(" fromHoriz r{r}c{}", c - 1));
            }
            if r > 0 {
                cmd.push_str(&format!(" fromVert r{}c{c}", r - 1));
            }
            s.eval(&cmd).unwrap();
        }
    }
    s.eval(&format!(
        "label ticker grid label {{frame 000000}} width 200 height 28 fromVert r{}c0",
        ROWS - 1
    ))
    .unwrap();
    s.eval("realize").unwrap();
    {
        let mut app = s.app.borrow_mut();
        let d = &mut app.displays[0];
        d.set_compositing(true);
        // Consume the attach-time full frame; the loops below measure
        // steady state only.
        d.flush();
        let _ = d.take_frame_damage();
        let _ = d.next_frame_seq();
    }
    s
}

fn update(s: &mut WafeSession, i: usize) {
    s.eval(&format!("setValues ticker label {{frame {i:06}}}"))
        .unwrap();
}

/// One pumped frame, exactly as the scheduler builds it. `full` forces
/// a whole-screen repaint first (the no-tracking baseline).
fn one_frame(s: &mut WafeSession, full: bool) -> Frame {
    let mut app = s.app.borrow_mut();
    let d = &mut app.displays[0];
    if full {
        d.request_full_frame();
    }
    d.flush();
    let damage = d.take_frame_damage();
    let seq = d.next_frame_seq();
    Frame::build(d.framebuffer(), &damage, seq)
}

/// Frames per second of one timed pass of `FRAMES` updates.
fn timed_pass(s: &mut WafeSession, full: bool) -> f64 {
    let t = Instant::now();
    for i in 0..FRAMES {
        update(s, i + 1);
        std::hint::black_box(one_frame(s, full).encoded_len());
    }
    FRAMES as f64 / t.elapsed().as_secs_f64()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn bench(c: &mut Criterion) {
    bench::banner("E28", "display frames: damage-tracked vs full repaint");

    // Correctness before cost: the tracked frame must exist, be
    // incremental, and decode to the same bytes it encoded.
    let mut s = session_with_ticker();
    update(&mut s, 1);
    {
        let mut app = s.app.borrow_mut();
        let d = &mut app.displays[0];
        d.flush();
        let damage = d.take_frame_damage();
        assert!(!damage.full, "a label update must stay incremental");
        assert!(!damage.rects.is_empty());
        let frame = Frame::build(d.framebuffer(), &damage, 1);
        let bytes = frame.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
    }

    // Bytes: one untimed pass per path over the same update sequence.
    let mut s = session_with_ticker();
    let (mut damage_bytes, mut damage_wire) = (0usize, 0usize);
    for i in 0..FRAMES {
        update(&mut s, i + 1);
        let bytes = one_frame(&mut s, false).encode();
        damage_bytes += bytes.len();
        // The notice line as the server queues it, plus its newline.
        damage_wire += format!("!display frame {}", to_hex(&bytes)).len() + 1;
    }
    let mut s = session_with_ticker();
    let mut full_bytes = 0usize;
    for i in 0..FRAMES {
        update(&mut s, i + 1);
        full_bytes += one_frame(&mut s, true).encoded_len();
    }

    // Speed: alternating timed passes, one session per path.
    let mut tracked = session_with_ticker();
    let mut repainted = session_with_ticker();
    let (mut damage_fps, mut full_fps) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        damage_fps.push(timed_pass(&mut tracked, false));
        full_fps.push(timed_pass(&mut repainted, true));
    }

    let damage_per_frame = damage_bytes as f64 / FRAMES as f64;
    let full_per_frame = full_bytes as f64 / FRAMES as f64;
    let wire_per_frame = damage_wire as f64 / FRAMES as f64;
    let ratio = full_per_frame / damage_per_frame;
    let fps = median(damage_fps);
    let full_fps = median(full_fps);

    bench::row(
        "damage-tracked",
        format!(
            "{damage_per_frame:.0} bytes/frame, {wire_per_frame:.0} on the wire  \
             ({fps:.0} frames/s incl. eval)"
        ),
    );
    bench::row(
        "full repaint",
        format!("{full_per_frame:.0} bytes/frame  ({full_fps:.0} frames/s incl. eval)"),
    );
    bench::row("bytes saved", format!("{ratio:.1}x"));

    let out = format!(
        "{{\n  \"experiment\": \"e28_display\",\n  \"workload\": \"label_update_per_frame\",\n  \
         \"frames\": {FRAMES},\n  \
         \"rounds\": {ROUNDS},\n  \
         \"damage_bytes_per_frame\": {damage_per_frame:.1},\n  \
         \"full_bytes_per_frame\": {full_per_frame:.1},\n  \
         \"bytes_saved_ratio\": {ratio:.1},\n  \
         \"damage_wire_bytes_per_frame\": {wire_per_frame:.1},\n  \
         \"damage_frames_per_sec\": {fps:.1},\n  \
         \"full_frames_per_sec\": {full_fps:.1}\n}}\n"
    );
    let path = workspace_root().join("BENCH_e28.json");
    std::fs::write(&path, out).expect("write BENCH_e28.json");
    println!("  wrote {}", path.display());

    assert!(
        ratio >= 5.0,
        "acceptance: damage tracking must save >=5x bytes per frame, got {ratio:.1}x"
    );

    let mut group = c.benchmark_group("e28_display");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    group.sample_size(11);
    let mut s = session_with_ticker();
    let mut i = 0usize;
    group.bench_function("damage_tracked_frame", |b| {
        b.iter(|| {
            i += 1;
            update(&mut s, i);
            one_frame(&mut s, false).encoded_len()
        });
    });
    group.bench_function("full_repaint_frame", |b| {
        b.iter(|| {
            i += 1;
            update(&mut s, i);
            one_frame(&mut s, true).encoded_len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
