//! What an attached display costs in memory. The framebuffer stores
//! 16×16 tiles and keeps pixels only for tiles that are not one colour,
//! and full frames are built from its runs rather than from a copy of
//! the screen. So materializing, painting and shipping the first full
//! frame of a busy dashboard never asks for a screen-sized buffer
//! (1024×768×4 bytes = 3 MiB), and a blank screen stores no pixels.
//!
//! A counting global allocator records the largest single request made
//! while the first frame is produced. This file holds one test, so no
//! other test thread allocates concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wafe::core::{Flavor, WafeSession};
use wafe::xproto::display::Display;
use wafe_display::{to_hex, Frame};

struct TrackLargest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every request is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed atomic statistic that publishes no other data.
unsafe impl GlobalAlloc for TrackLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`; the caller upholds the size obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: TrackLargest = TrackLargest;

const KIB: usize = 1024;

/// The E28 dashboard: a 6×4 form grid of text labels plus a ticker.
fn dashboard() -> WafeSession {
    let mut s = WafeSession::new(Flavor::Athena);
    s.eval("form grid topLevel").unwrap();
    for r in 0..6 {
        for c in 0..4 {
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
    s.eval("label ticker grid label {frame 000000} width 200 height 28 fromVert r5c0")
        .unwrap();
    s.eval("realize").unwrap();
    s
}

#[test]
fn first_full_frame_needs_no_screen_sized_buffer() {
    let s = dashboard();
    let mut app = s.app.borrow_mut();
    let d = &mut app.displays[0];
    assert!(!d.is_materialized(), "a headless session holds no pixels");

    LARGEST.store(0, Ordering::Relaxed);
    d.set_compositing(true);
    d.flush();
    let damage = d.take_frame_damage();
    let seq = d.next_frame_seq();
    let frame = Frame::build(d.framebuffer(), &damage, seq);
    let line = format!("!display frame {}", to_hex(&frame.encode()));
    let largest = LARGEST.load(Ordering::Relaxed);

    assert!(frame.full && d.is_materialized());
    assert!(line.len() > 1000, "the dashboard frame carries content");
    assert!(
        largest <= 256 * KIB,
        "producing the first full frame requested a {largest}-byte allocation"
    );
    let resident = d.framebuffer().resident_bytes();
    assert!(
        resident <= 768 * KIB,
        "the dashboard keeps {resident} bytes of tile pixels"
    );

    // A blank screen — the root window alone — stores no pixels at all.
    let mut blank = Display::open(":0");
    blank.set_compositing(true);
    blank.flush();
    assert_eq!(blank.framebuffer().resident_bytes(), 0);
}
