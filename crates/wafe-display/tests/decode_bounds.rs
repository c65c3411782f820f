//! Decode-time allocation bounds. FNV-1a is a checksum, not a MAC, so a
//! frame of a few dozen bytes can carry a valid trailer and still claim
//! a 16384×16384 rect or 2^28 runs. The decoder must fail such a frame
//! as truncated without first reserving what the counts ask for.
//!
//! A counting global allocator records the largest single request made
//! while each hostile frame decodes. This file holds one test, so no
//! other test thread allocates concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wafe_display::wire::{DecodeError, Writer};
use wafe_display::{Frame, FRAME_MAGIC, PROTOCOL_VERSION};

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

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: TrackLargest = TrackLargest;

const SIDE: u32 = 16_384;

/// A checksummed frame with one screen-sized rect of `encoding` whose
/// payload is `payload` — far too short for what the rect claims.
fn hostile_frame(encoding: u8, payload: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(&FRAME_MAGIC);
    w.put_u32(PROTOCOL_VERSION);
    w.put_u64(1);
    w.put_u32(SIDE);
    w.put_u32(SIDE);
    w.put_u8(1);
    w.put_u32(1);
    w.put_i32(0);
    w.put_i32(0);
    w.put_u32(SIDE);
    w.put_u32(SIDE);
    w.put_u8(encoding);
    payload(&mut w);
    w.finish()
}

#[test]
fn oversized_claims_fail_truncated_without_preallocating() {
    let frames = [
        // A raw rect of 2^28 pixels (1 GiB) with no pixels at all.
        ("raw rect", hostile_frame(0, |_| {})),
        // A palette of 2^28 colours with no colours.
        (
            "palette",
            hostile_frame(1, |w| w.put_varint(SIDE as u64 * SIDE as u64)),
        ),
        // One colour, then 2^28 runs with no runs.
        (
            "runs",
            hostile_frame(1, |w| {
                w.put_varint(1);
                w.put_u32(0);
                w.put_varint(SIDE as u64 * SIDE as u64);
            }),
        ),
    ];
    for (what, bytes) in frames {
        LARGEST.store(0, Ordering::Relaxed);
        assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            DecodeError::Truncated,
            "{what}"
        );
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            largest < 64 * 1024,
            "{what}: decoding a {}-byte frame reserved {largest} bytes",
            bytes.len()
        );
    }
}
