//! Display frames from the Rust encoder, printed next to the pixels
//! they carry — reference data for checking another frame decoder
//! against this one.
//!
//! Prints one JSON object per line:
//!
//! ```text
//! {"name": …, "hex": <frame as sent in `!display frame`>,
//!  "rects": [{"x", "y", "w", "h", "encoding", "pixels": <hex of u32 BE>}]}
//! {"name": …, "hex": …, "reject": <the error the decoder must raise>}
//! ```
//!
//! The valid frames are a full first frame of a small dashboard
//! session, the incremental frame after one label changes, and a
//! synthetic frame with one rect that stays raw and one 32-colour
//! palette-run rect. The rejected ones are checksum-valid frames whose
//! palette-run payload breaks one canonical-form rule each; the Rust
//! decoder's error for each is checked here, before printing.
//! `scripts/display_decoder_check.js` decodes them all with the browser
//! client's `decodeFrame`, compares the pixels and requires each
//! rejection by name.
//!
//! Run with `cargo run --example display_frames`.

use wafe::core::{Flavor, WafeSession};
use wafe::xproto::framebuffer::Framebuffer;
use wafe::xproto::{Damage, Rect};
use wafe_display::wire::{DecodeError, Writer};
use wafe_display::{to_hex, Frame, PixelData, FRAME_MAGIC, PROTOCOL_VERSION};

/// Builds the pending frame of the session's display.
fn pump(s: &WafeSession) -> Frame {
    let mut app = s.app.borrow_mut();
    let d = &mut app.displays[0];
    d.flush();
    let damage = d.take_frame_damage();
    let seq = d.next_frame_seq();
    Frame::build(d.framebuffer(), &damage, seq)
}

fn print_frame(name: &str, frame: &Frame) {
    let rects: Vec<String> = frame
        .rects
        .iter()
        .map(|fr| {
            let encoding = match fr.data {
                PixelData::Raw(_) => 0,
                PixelData::Rle(_) => 1,
            };
            let pixels: Vec<u8> = fr
                .data
                .expand()
                .iter()
                .flat_map(|p| p.to_be_bytes())
                .collect();
            format!(
                "{{\"x\": {}, \"y\": {}, \"w\": {}, \"h\": {}, \"encoding\": {encoding}, \"pixels\": \"{}\"}}",
                fr.rect.x,
                fr.rect.y,
                fr.rect.w,
                fr.rect.h,
                to_hex(&pixels)
            )
        })
        .collect();
    println!(
        "{{\"name\": \"{name}\", \"hex\": \"{}\", \"rects\": [{}]}}",
        to_hex(&frame.encode()),
        rects.join(", ")
    );
}

/// Prints a checksum-valid frame with one 4×1 palette-run rect whose
/// payload `payload` writes, after checking the Rust decoder rejects it
/// as `reject`.
fn print_rejected(name: &str, reject: &'static str, payload: impl FnOnce(&mut Writer)) {
    let mut w = Writer::new();
    w.put_bytes(&FRAME_MAGIC);
    w.put_u32(PROTOCOL_VERSION);
    w.put_u64(1);
    w.put_u32(16);
    w.put_u32(16);
    w.put_u8(0);
    w.put_u32(1);
    w.put_i32(0);
    w.put_i32(0);
    w.put_u32(4);
    w.put_u32(1);
    w.put_u8(1);
    payload(&mut w);
    let bytes = w.finish();
    assert_eq!(
        Frame::decode(&bytes).map(|_| ()),
        Err(DecodeError::BadValue(reject)),
        "{name}"
    );
    println!(
        "{{\"name\": \"{name}\", \"hex\": \"{}\", \"reject\": \"{reject}\"}}",
        to_hex(&bytes)
    );
}

/// A palette followed by `(count, index)` runs, as the encoder lays
/// them out but from values it would never choose.
fn palette_runs(w: &mut Writer, palette: &[u32], runs: &[(u64, u64)]) {
    let bits = usize::BITS - palette.len().saturating_sub(1).leading_zeros();
    w.put_varint(palette.len() as u64);
    for &c in palette {
        w.put_u32(c);
    }
    w.put_varint(runs.len() as u64);
    for &(n, i) in runs {
        w.put_varint(((n - 1) << bits) | i);
    }
}

/// One frame per canonical-form rule the decoders enforce.
fn print_non_canonical() {
    let (a, b, c) = (0x111111, 0x222222, 0x333333);
    print_rejected("duplicate entry", "duplicate palette entry", |w| {
        palette_runs(w, &[a, a], &[(2, 0), (2, 1)])
    });
    print_rejected("palette order", "palette order", |w| {
        palette_runs(w, &[a, b], &[(2, 1), (2, 0)])
    });
    print_rejected("unused entry", "unused palette entry", |w| {
        palette_runs(w, &[a, b], &[(4, 0)])
    });
    print_rejected("index past palette", "palette index", |w| {
        palette_runs(w, &[a, b, c], &[(1, 0), (1, 1), (1, 2), (1, 3)])
    });
    print_rejected("overlong varint", "overlong varint", |w| {
        // npal = 1 with a redundant zero group.
        w.put_u8(0x81);
        w.put_u8(0x00);
        w.put_u32(a);
        // One run of all 4 pixels: code (4 - 1) << 0 | 0.
        w.put_varint(1);
        w.put_varint(3);
    });
    print_rejected("run past area", "run past area", |w| {
        palette_runs(w, &[a], &[(5, 0)])
    });
    print_rejected("coverage shortfall", "run coverage", |w| {
        palette_runs(w, &[a], &[(3, 0)])
    });
}

fn main() {
    let mut s = WafeSession::new(Flavor::Athena);
    s.eval("form grid topLevel").unwrap();
    s.eval("label a grid label {status ok} width 160 height 28")
        .unwrap();
    s.eval("command b grid label {Quit} fromHoriz a").unwrap();
    s.eval("label c grid label {0} width 160 height 28 fromVert a")
        .unwrap();
    s.eval("realize").unwrap();
    s.app.borrow_mut().displays[0].set_compositing(true);
    let full = pump(&s);
    assert!(full.full, "the first composited frame repaints the screen");
    print_frame("full", &full);

    s.eval("setValues c label {12345}").unwrap();
    let incremental = pump(&s);
    assert!(!incremental.full && !incremental.rects.is_empty());
    print_frame("incremental", &incremental);

    let mut fb = Framebuffer::new(64, 32, 0xbebebe);
    for i in 0..16 {
        for j in 0..2 {
            fb.put(i, j, 0x010101 * (2 * i as u32 + j as u32 + 1));
        }
    }
    for x in 0..64 {
        for y in 8..10 {
            fb.put(x, y, 0x0a0b0c * (x as u32 / 2 + 1));
        }
    }
    let damage = Damage {
        full: false,
        rects: vec![Rect::new(0, 0, 16, 2), Rect::new(0, 8, 64, 2)],
    };
    let mixed = Frame::build(&fb, &damage, 7);
    assert!(matches!(mixed.rects[0].data, PixelData::Raw(_)));
    assert!(matches!(mixed.rects[1].data, PixelData::Rle(_)));
    print_frame("mixed", &mixed);

    print_non_canonical();
}
