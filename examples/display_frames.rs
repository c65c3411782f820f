//! Display frames from the Rust encoder, printed next to the pixels
//! they carry — reference data for checking another frame decoder
//! against this one.
//!
//! Prints one JSON object per line:
//!
//! ```text
//! {"name": …, "hex": <frame as sent in `!display frame`>,
//!  "rects": [{"x", "y", "w", "h", "encoding", "pixels": <hex of u32 BE>}]}
//! ```
//!
//! The frames are a full first frame of a small dashboard session, the
//! incremental frame after one label changes, and a synthetic frame
//! with one rect that stays raw and one 32-colour palette-run rect. `scripts/display_decoder_check.js` decodes them with the
//! browser client's `decodeFrame` and compares the pixels.
//!
//! Run with `cargo run --example display_frames`.

use wafe::core::{Flavor, WafeSession};
use wafe::xproto::framebuffer::Framebuffer;
use wafe::xproto::{Damage, Rect};
use wafe_display::{to_hex, Frame, PixelData};

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
}
