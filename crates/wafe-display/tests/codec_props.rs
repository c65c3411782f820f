//! Property suite for the display protocol, pinning the three claims
//! the subsystem rests on:
//!
//! * the codec is canonical — `encode ∘ decode` is the identity in both
//!   directions, for arbitrary frames, built frames and input events;
//! * damage coalescing never loses a dirty pixel — every rect ever
//!   added to a [`DamageTracker`] is covered by what `take()` returns,
//!   however the tracker merged, capped or fell back to full;
//! * corruption fails loudly — every truncation and every single-bit
//!   flip of a valid message is rejected, never decoded best-effort;
//! * only the canonical form decodes — hand-assembled palette-run
//!   payloads the encoder would never write (overlong varints,
//!   duplicate, unused or out-of-order palette entries, an index past
//!   the palette, runs past or short of the area) are rejected by name.

use wafe_display::wire::{DecodeError, Writer};
use wafe_display::{Frame, FrameRect, InputEvent, PaletteRuns, PixelData, FRAME_MAGIC};
use wafe_prop::{cases, Rng};
use wafe_xproto::framebuffer::Framebuffer;
use wafe_xproto::{Damage, DamageTracker, Rect};

fn arbitrary_rect(rng: &mut Rng, max_w: u32, max_h: u32) -> Rect {
    Rect::new(
        rng.range_i64(-20, 60) as i32,
        rng.range_i64(-20, 60) as i32,
        rng.range_u32(1, max_w),
        rng.range_u32(1, max_h),
    )
}

/// A structurally valid frame with arbitrary (not necessarily
/// canonical) encoding choices — decode must accept every valid
/// message, not just the ones the builder emits.
fn arbitrary_frame(rng: &mut Rng) -> Frame {
    let rects = rng.vec(0, 4, |rng| {
        let rect = arbitrary_rect(rng, 8, 8);
        let area = rect.area();
        let data = if rng.chance() {
            PixelData::Raw((0..area).map(|_| rng.next_u64() as u32).collect())
        } else {
            let mut runs = Vec::new();
            let mut left = area;
            while left > 0 {
                let n = rng.range(1, left as usize + 1) as u32;
                runs.push((n, rng.next_u64() as u32));
                left -= n as u64;
            }
            PixelData::Rle(PaletteRuns::from_runs(runs))
        };
        FrameRect { rect, data }
    });
    Frame {
        seq: rng.next_u64(),
        width: rng.range_u32(1, 2048),
        height: rng.range_u32(1, 2048),
        full: rng.chance(),
        rects,
    }
}

fn arbitrary_event(rng: &mut Rng) -> InputEvent {
    match rng.below(5) {
        0 => InputEvent::Key {
            name: rng.ascii_string(12),
            modifiers: rng.below(8) as u8,
        },
        1 => InputEvent::Button {
            button: rng.range_u32(1, 5) as u8,
            press: rng.chance(),
            x: rng.range_i64(-100, 2000) as i32,
            y: rng.range_i64(-100, 2000) as i32,
        },
        2 => InputEvent::Motion {
            x: rng.range_i64(-100, 2000) as i32,
            y: rng.range_i64(-100, 2000) as i32,
        },
        3 => InputEvent::Resize {
            width: rng.range_u32(1, 4096),
            height: rng.range_u32(1, 4096),
        },
        _ => InputEvent::Text {
            text: rng.unicode_string(0, 8),
        },
    }
}

#[test]
fn frame_codec_round_trips_arbitrary_frames() {
    cases(300, |rng| {
        let f = arbitrary_frame(rng);
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.encode(), bytes, "re-encode reproduces the bytes");
    });
}

#[test]
fn built_frames_round_trip_and_carry_the_framebuffer_pixels() {
    cases(200, |rng| {
        let (w, h) = (rng.range_u32(4, 64), rng.range_u32(4, 64));
        let mut fb = Framebuffer::new(w, h, 0xbebebe);
        for _ in 0..rng.below(200) {
            fb.put(
                rng.below(w as u64) as i32,
                rng.below(h as u64) as i32,
                rng.next_u64() as u32,
            );
        }
        let mut tracker = DamageTracker::new(w, h);
        for _ in 0..rng.range(1, 6) {
            tracker.add(arbitrary_rect(rng, w, h));
        }
        let damage = tracker.take();
        let frame = Frame::build(&fb, &damage, rng.next_u64());
        let back = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(back, frame);
        for fr in &back.rects {
            assert_eq!(
                fr.data.expand(),
                fb.rect_pixels(fr.rect),
                "decoded pixels must match the framebuffer at {:?}",
                fr.rect
            );
        }
    });
}

/// `Frame::build` as it was before frames were built from the
/// framebuffer's runs: copy each rect's pixels, run-length them, and
/// keep raw when the palette-run payload is not strictly smaller.
fn reference_build(fb: &Framebuffer, damage: &Damage, seq: u64) -> Frame {
    let screen = Rect::new(0, 0, fb.width, fb.height);
    let rects: Vec<Rect> = if damage.full {
        vec![screen]
    } else {
        damage
            .rects
            .iter()
            .filter_map(|r| r.intersect(&screen))
            .collect()
    };
    let payload = |data: PixelData, rect: Rect| {
        let one = Frame {
            seq,
            width: fb.width,
            height: fb.height,
            full: false,
            rects: vec![FrameRect { rect, data }],
        };
        (
            one.encoded_len(),
            one.rects.into_iter().next().unwrap().data,
        )
    };
    let rects = rects
        .into_iter()
        .map(|rect| {
            let raw = fb.rect_pixels(rect);
            let (rle_len, rle) = payload(PixelData::Rle(PaletteRuns::from_pixels(&raw)), rect);
            let (raw_len, raw) = payload(PixelData::Raw(raw), rect);
            let data = if rle_len < raw_len { rle } else { raw };
            FrameRect { rect, data }
        })
        .collect();
    Frame {
        seq,
        width: fb.width,
        height: fb.height,
        full: damage.full,
        rects,
    }
}

#[test]
fn built_frames_equal_the_copying_reference() {
    // A tie: [a, a, b] costs 12 bytes either way, and raw wins ties.
    let mut fb = Framebuffer::new(3, 1, 5);
    fb.put(2, 0, 6);
    let tie = Frame::build(&fb, &Damage::full(), 1);
    assert!(matches!(tie.rects[0].data, PixelData::Raw(_)));
    assert_eq!(tie, reference_build(&fb, &Damage::full(), 1));

    cases(200, |rng| {
        let (w, h) = (rng.range_u32(2, 120), rng.range_u32(2, 90));
        let screen = Rect::new(0, 0, w, h);
        let colours: Vec<u32> = (0..rng.range(1, 40))
            .map(|_| rng.next_u64() as u32)
            .collect();
        let mut fb = Framebuffer::new(w, h, colours[0]);
        for _ in 0..rng.below(30) {
            // Fills large and small, so some tiles go solid again.
            let r = arbitrary_rect(rng, w + 20, h + 20);
            fb.fill_rect(r, screen, *rng.pick(&colours));
        }
        for _ in 0..rng.below(300) {
            let (x, y) = (rng.below(w as u64) as i32, rng.below(h as u64) as i32);
            fb.put(x, y, *rng.pick(&colours));
        }
        if rng.chance() {
            fb.collapse(arbitrary_rect(rng, w + 20, h + 20));
        }
        let damage = if rng.below(4) == 0 {
            Damage::full()
        } else {
            let mut tracker = DamageTracker::new(w, h);
            for _ in 0..rng.range(1, 6) {
                tracker.add(arbitrary_rect(rng, w, h));
            }
            tracker.take()
        };
        let seq = rng.next_u64();
        let built = Frame::build(&fb, &damage, seq);
        let want = reference_build(&fb, &damage, seq);
        assert_eq!(built, want);
        assert_eq!(built.encode(), want.encode());
    });
}

#[test]
fn coalescing_never_loses_a_dirty_pixel() {
    cases(400, |rng| {
        let (w, h) = (rng.range_u32(16, 200), rng.range_u32(16, 200));
        let bounds = Rect::new(0, 0, w, h);
        let mut tracker = DamageTracker::new(w, h);
        let mut added = Vec::new();
        for _ in 0..rng.range(1, 40) {
            let r = arbitrary_rect(rng, w, h);
            tracker.add(r);
            if let Some(clipped) = r.intersect(&bounds) {
                added.push(clipped);
            }
        }
        let damage = tracker.take();
        for r in &added {
            assert!(
                damage.covers(r),
                "dirty rect {r:?} lost by coalescing into {damage:?}"
            );
        }
        assert!(tracker.take().is_empty(), "take drains the tracker");
    });
}

#[test]
fn event_codec_round_trips_arbitrary_events() {
    cases(400, |rng| {
        let ev = arbitrary_event(rng);
        let bytes = ev.encode();
        let back = InputEvent::decode(&bytes).unwrap();
        assert_eq!(back, ev);
        assert_eq!(back.encode(), bytes);
    });
}

#[test]
fn every_truncation_of_a_valid_message_fails_loudly() {
    cases(40, |rng| {
        let bytes = arbitrary_frame(rng).encode();
        for n in 0..bytes.len() {
            assert!(
                Frame::decode(&bytes[..n]).is_err(),
                "frame truncated to {n} of {} bytes decoded",
                bytes.len()
            );
        }
        let bytes = arbitrary_event(rng).encode();
        for n in 0..bytes.len() {
            assert!(
                InputEvent::decode(&bytes[..n]).is_err(),
                "event truncated to {n} of {} bytes decoded",
                bytes.len()
            );
        }
    });
}

#[test]
fn every_single_bit_flip_fails_loudly() {
    cases(15, |rng| {
        let bytes = arbitrary_frame(rng).encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert!(
                    Frame::decode(&flipped).is_err(),
                    "bit {bit} of byte {i} flipped and the frame still decoded"
                );
            }
        }
    });
}

/// One item of a hand-assembled encoding-1 payload.
#[derive(Clone, Copy)]
enum Field {
    Varint(u64),
    Colour(u32),
}

/// `⌈log2 npal⌉`, the run-code index width.
fn index_bits(npal: usize) -> u32 {
    usize::BITS - npal.saturating_sub(1).leading_zeros()
}

/// The payload fields for a palette and `(count, index)` runs, laid out
/// as the encoder lays them out — but from values a test may have bent.
fn fields(palette: &[u32], runs: &[(u64, u64)]) -> Vec<Field> {
    let bits = index_bits(palette.len());
    let mut out = vec![Field::Varint(palette.len() as u64)];
    out.extend(palette.iter().map(|&c| Field::Colour(c)));
    out.push(Field::Varint(runs.len() as u64));
    out.extend(
        runs.iter()
            .map(|&(n, i)| Field::Varint(((n - 1) << bits) | i)),
    );
    out
}

/// A checksummed one-rect frame carrying `fields` as its encoding-1
/// payload. `overlong` names a field index written as a varint with a
/// redundant trailing zero group.
fn assemble(rect: Rect, fields: &[Field], overlong: Option<usize>) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(&FRAME_MAGIC);
    w.put_u32(wafe_display::PROTOCOL_VERSION);
    w.put_u64(1);
    w.put_u32(256);
    w.put_u32(256);
    w.put_u8(0);
    w.put_u32(1);
    w.put_i32(rect.x);
    w.put_i32(rect.y);
    w.put_u32(rect.w);
    w.put_u32(rect.h);
    w.put_u8(1);
    for (k, f) in fields.iter().enumerate() {
        match *f {
            Field::Colour(c) => w.put_u32(c),
            Field::Varint(v) if overlong == Some(k) => {
                let mut v = v;
                while v >= 0x80 {
                    w.put_u8(v as u8 | 0x80);
                    v >>= 7;
                }
                w.put_u8(v as u8 | 0x80);
                w.put_u8(0);
            }
            Field::Varint(v) => w.put_varint(v),
        }
    }
    w.finish()
}

/// A rect, its pixels drawn from a few colours, and the canonical
/// palette and runs the encoder derives from them.
fn arbitrary_runs(rng: &mut Rng) -> (Rect, Vec<u32>, Vec<(u64, u64)>) {
    let rect = Rect::new(0, 0, rng.range_u32(1, 12), rng.range_u32(1, 12));
    let colours: Vec<u32> = (0..rng.range(1, 8))
        .map(|_| rng.next_u64() as u32)
        .collect();
    let pixels: Vec<u32> = (0..rect.area()).map(|_| *rng.pick(&colours)).collect();
    let runs = PaletteRuns::from_pixels(&pixels);
    let palette = runs.palette().to_vec();
    let runs = runs
        .runs()
        .iter()
        .map(|&(n, i)| (n as u64, i as u64))
        .collect();
    (rect, palette, runs)
}

fn rejects(bytes: &[u8], why: &'static str) {
    assert_eq!(
        Frame::decode(bytes).map(|_| ()),
        Err(DecodeError::BadValue(why)),
        "non-canonical payload was not rejected as {why:?}"
    );
}

#[test]
fn hand_assembled_canonical_payloads_decode() {
    // The control for the rejection properties below: the assembler
    // itself writes what the encoder writes.
    cases(200, |rng| {
        let (rect, palette, runs) = arbitrary_runs(rng);
        let bytes = assemble(rect, &fields(&palette, &runs), None);
        let frame = Frame::decode(&bytes).unwrap();
        assert_eq!(frame.encode(), bytes);
    });
}

#[test]
fn overlong_varints_are_rejected() {
    cases(200, |rng| {
        let (rect, palette, runs) = arbitrary_runs(rng);
        let fields = fields(&palette, &runs);
        let varints: Vec<usize> = (0..fields.len())
            .filter(|&k| matches!(fields[k], Field::Varint(_)))
            .collect();
        let k = *rng.pick(&varints);
        rejects(&assemble(rect, &fields, Some(k)), "overlong varint");
    });
}

#[test]
fn duplicate_palette_entries_are_rejected() {
    cases(200, |rng| {
        let (rect, mut palette, mut runs) = arbitrary_runs(rng);
        if runs.len() < 2 {
            return;
        }
        // Point one run at a second copy of its own colour: the pixels
        // are unchanged but the palette now repeats itself.
        let k = rng.range(1, runs.len());
        let fresh = palette.len() as u64;
        if runs[..k].iter().map(|r| r.1).max().unwrap() + 1 < fresh {
            // Keep first-use order: the copy must be the next new entry.
            return;
        }
        palette.push(palette[runs[k].1 as usize]);
        runs[k].1 = fresh;
        rejects(
            &assemble(rect, &fields(&palette, &runs), None),
            "duplicate palette entry",
        );
    });
}

#[test]
fn unused_palette_entries_are_rejected() {
    cases(200, |rng| {
        let (rect, mut palette, runs) = arbitrary_runs(rng);
        let extra = loop {
            let c = rng.next_u64() as u32;
            if !palette.contains(&c) {
                break c;
            }
        };
        palette.push(extra);
        rejects(
            &assemble(rect, &fields(&palette, &runs), None),
            "unused palette entry",
        );
    });
}

#[test]
fn out_of_order_palette_entries_are_rejected() {
    cases(200, |rng| {
        let (rect, mut palette, mut runs) = arbitrary_runs(rng);
        if palette.len() < 2 {
            return;
        }
        // Swap two entries and remap the runs: same pixels, but the
        // runs now reach a later entry before an earlier one.
        let a = rng.below(palette.len() as u64 - 1);
        let b = rng.range(a as usize + 1, palette.len()) as u64;
        palette.swap(a as usize, b as usize);
        for run in &mut runs {
            run.1 = if run.1 == a {
                b
            } else if run.1 == b {
                a
            } else {
                run.1
            };
        }
        rejects(
            &assemble(rect, &fields(&palette, &runs), None),
            "palette order",
        );
    });
}

#[test]
fn indices_past_the_palette_are_rejected() {
    cases(200, |rng| {
        let (rect, palette, mut runs) = arbitrary_runs(rng);
        let room = 1u64 << index_bits(palette.len());
        if room == palette.len() as u64 {
            // Every index the code width can carry is in range.
            return;
        }
        let k = rng.below(runs.len() as u64) as usize;
        runs[k].1 = rng.range(palette.len(), room as usize) as u64;
        rejects(
            &assemble(rect, &fields(&palette, &runs), None),
            "palette index",
        );
    });
}

#[test]
fn runs_past_or_short_of_the_area_are_rejected() {
    cases(200, |rng| {
        let (rect, palette, mut runs) = arbitrary_runs(rng);
        let k = rng.below(runs.len() as u64) as usize;
        let mut long = runs.clone();
        long[k].0 += rng.range(1, 50) as u64;
        rejects(
            &assemble(rect, &fields(&palette, &long), None),
            "run past area",
        );
        let last = runs.len() - 1;
        if runs[last].0 > 1 {
            runs[last].0 -= rng.range(1, runs[last].0 as usize) as u64;
            rejects(
                &assemble(rect, &fields(&palette, &runs), None),
                "run coverage",
            );
        }
    });
}
