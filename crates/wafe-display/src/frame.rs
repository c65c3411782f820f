//! Display frames: damage rectangles plus their pixels.
//!
//! Wire layout, protocol version 2 (big-endian, checksum trailer — see
//! [`crate::wire`]):
//!
//! ```text
//! "WFRM"  u32 version  u64 seq  u32 width  u32 height  u8 full
//! u32 nrects
//!   nrects × { i32 x  i32 y  u32 w  u32 h  u8 encoding  payload }
//! u32 fnv1a-checksum
//! ```
//!
//! `encoding` 0 carries `w*h` raw `u32` pixels. Encoding 1 carries
//! palette-indexed runs:
//!
//! ```text
//! varint npal    npal × u32 colour            (first-use order)
//! varint nruns   nruns × varint(((count-1) << bits) | index)
//! ```
//!
//! where `bits = ⌈log2 npal⌉` and the counts sum to exactly `w*h`.
//! Widget rects hold a handful of colours (background, border, text),
//! so a run usually costs one or two bytes instead of eight. Varints are
//! unsigned LEB128 (see [`Writer::put_varint`]).
//!
//! The builder keeps whichever encoding is strictly smaller (raw wins
//! ties), and the decoder accepts only the one form the encoder
//! writes: shortest varints, palette entries distinct, each used, and
//! introduced in the order the runs first use them. So the same
//! framebuffer and damage always produce the same bytes, and
//! `encode ∘ decode` is the identity in both directions — the
//! canonical-codec property the test suite pins.

use std::collections::{HashMap, HashSet};

use wafe_xproto::damage::Damage;
use wafe_xproto::framebuffer::Framebuffer;
use wafe_xproto::geometry::Rect;
use wafe_xproto::Pixel;

use crate::wire::{DecodeError, Reader, Writer};

/// Leading tag of a frame message.
pub const FRAME_MAGIC: [u8; 4] = *b"WFRM";
/// The protocol version this codec speaks.
pub const PROTOCOL_VERSION: u32 = 2;

/// Largest screen side a frame may describe.
const MAX_SIDE: u32 = 16_384;

/// How a rectangle's pixels are carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PixelData {
    /// Row-major pixels, one `u32` each.
    Raw(Vec<Pixel>),
    /// Palette-indexed runs; counts sum to the rect area.
    Rle(PaletteRuns),
}

impl PixelData {
    /// Number of pixels carried.
    pub fn pixel_count(&self) -> u64 {
        match self {
            PixelData::Raw(p) => p.len() as u64,
            PixelData::Rle(runs) => runs.runs.iter().map(|&(n, _)| n as u64).sum(),
        }
    }

    /// Expands to the flat row-major pixel vector.
    pub fn expand(&self) -> Vec<Pixel> {
        match self {
            PixelData::Raw(p) => p.clone(),
            PixelData::Rle(runs) => {
                let mut out = Vec::with_capacity(self.pixel_count() as usize);
                for &(n, i) in &runs.runs {
                    out.extend(std::iter::repeat_n(runs.palette[i as usize], n as usize));
                }
                out
            }
        }
    }

    /// Encoded payload size in bytes (excluding the rect header).
    fn encoded_len(&self) -> usize {
        match self {
            PixelData::Raw(p) => 4 * p.len(),
            PixelData::Rle(runs) => runs.len,
        }
    }
}

/// A rect's pixels as runs over a palette of its distinct colours.
///
/// The fields are private: every value comes from [`from_pixels`],
/// [`from_runs`] or the decoder, all of which build the palette in
/// first-use order, so every value encodes canonically.
///
/// [`from_pixels`]: PaletteRuns::from_pixels
/// [`from_runs`]: PaletteRuns::from_runs
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaletteRuns {
    /// Distinct colours, in the order the runs first use them.
    palette: Vec<Pixel>,
    /// `(count, palette index)` per run; every count is at least 1.
    runs: Vec<(u32, u32)>,
    /// Encoded payload size, computed once at construction.
    len: usize,
}

impl PaletteRuns {
    /// Maximal runs over a row-major pixel sequence.
    pub fn from_pixels(pixels: &[Pixel]) -> PaletteRuns {
        PaletteRuns::from_runs(
            pixels
                .chunk_by(|a, b| a == b)
                .map(|c| (c.len() as u32, c[0])),
        )
    }

    /// Runs as given, `(count, pixel)` each, with the palette built in
    /// the same pass. Adjacent runs of one colour are kept apart.
    ///
    /// # Panics
    ///
    /// On a zero count, which the encoding cannot express.
    pub fn from_runs(runs: impl IntoIterator<Item = (u32, Pixel)>) -> PaletteRuns {
        let mut b = RunsBuilder::default();
        runs.into_iter().for_each(|(n, p)| b.push(n, p));
        b.finish()
    }

    /// The distinct colours, in first-use order.
    pub fn palette(&self) -> &[Pixel] {
        &self.palette
    }

    /// `(count, palette index)` per run.
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.palette.len() as u64);
        for &p in &self.palette {
            w.put_u32(p);
        }
        let bits = index_bits(self.palette.len());
        w.put_varint(self.runs.len() as u64);
        for &(n, i) in &self.runs {
            w.put_varint(run_code(n, i, bits));
        }
    }

    /// Reads an encoding-1 payload for a rect of `area` pixels,
    /// rejecting every form the encoder would not have written.
    fn decode(r: &mut Reader<'_>, area: u64) -> Result<PaletteRuns, DecodeError> {
        let npal = r.varint()?;
        let cap = (npal as usize).min(r.remaining() / 4);
        let mut palette = Vec::with_capacity(cap);
        let mut seen = HashSet::with_capacity(cap);
        for _ in 0..npal {
            let c = r.u32()?;
            if !seen.insert(c) {
                return Err(DecodeError::BadValue("duplicate palette entry"));
            }
            palette.push(c);
        }
        let nruns = r.varint()?;
        let bits = index_bits(palette.len());
        let mut runs = Vec::with_capacity((nruns as usize).min(r.remaining()));
        let mut used: u32 = 0;
        let mut covered: u64 = 0;
        for _ in 0..nruns {
            let code = r.varint()?;
            let i = (code & ((1u64 << bits) - 1)) as u32;
            if i as u64 >= npal {
                return Err(DecodeError::BadValue("palette index"));
            }
            if i > used {
                return Err(DecodeError::BadValue("palette order"));
            }
            if i == used {
                used += 1;
            }
            let more = code >> bits;
            if more >= area - covered {
                return Err(DecodeError::BadValue("run past area"));
            }
            covered += more + 1;
            runs.push((more as u32 + 1, i));
        }
        if covered != area {
            return Err(DecodeError::BadValue("run coverage"));
        }
        if used as u64 != npal {
            return Err(DecodeError::BadValue("unused palette entry"));
        }
        let len = payload_len(&palette, &runs);
        Ok(PaletteRuns { palette, runs, len })
    }
}

/// Index width for a palette of `npal` colours: `⌈log2 npal⌉`.
fn index_bits(npal: usize) -> u32 {
    usize::BITS - npal.saturating_sub(1).leading_zeros()
}

/// One run's varint value: the count above one, then the index.
fn run_code(n: u32, i: u32, bits: u32) -> u64 {
    ((n as u64 - 1) << bits) | i as u64
}

fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Builds a [`PaletteRuns`] one `(count, pixel)` run at a time, with
/// the palette in first-use order.
#[derive(Default)]
struct RunsBuilder {
    palette: Vec<Pixel>,
    index: HashMap<Pixel, u32>,
    runs: Vec<(u32, u32)>,
}

impl RunsBuilder {
    fn push(&mut self, n: u32, p: Pixel) {
        assert!(n > 0, "a run covers at least one pixel");
        let next = self.palette.len() as u32;
        let i = *self.index.entry(p).or_insert(next);
        if i == next {
            self.palette.push(p);
        }
        self.runs.push((n, i));
    }

    fn finish(self) -> PaletteRuns {
        let len = payload_len(&self.palette, &self.runs);
        PaletteRuns {
            palette: self.palette,
            runs: self.runs,
            len,
        }
    }
}

fn payload_len(palette: &[Pixel], runs: &[(u32, u32)]) -> usize {
    let bits = index_bits(palette.len());
    varint_len(palette.len() as u64)
        + 4 * palette.len()
        + varint_len(runs.len() as u64)
        + runs
            .iter()
            .map(|&(n, i)| varint_len(run_code(n, i, bits)))
            .sum::<usize>()
}

/// One damaged rectangle and its pixels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRect {
    /// Screen area this patch covers.
    pub rect: Rect,
    /// The pixels, raw or as palette-indexed runs.
    pub data: PixelData,
}

/// One display frame: everything that changed since the previous one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Monotonic frame sequence number.
    pub seq: u64,
    /// Screen width.
    pub width: u32,
    /// Screen height.
    pub height: u32,
    /// True when this frame repaints the whole screen (resync).
    pub full: bool,
    /// Damage patches, in the tracker's canonical order.
    pub rects: Vec<FrameRect>,
}

impl Frame {
    /// Builds the frame for `damage` from a composited framebuffer.
    /// Full damage becomes a single screen-sized rect; each rect's
    /// pixels go as palette-indexed runs iff that is strictly smaller
    /// than raw. The runs come straight from the framebuffer's tiles,
    /// so a rect's pixels are copied out only when raw wins.
    pub fn build(fb: &Framebuffer, damage: &Damage, seq: u64) -> Frame {
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
        let rects = rects
            .into_iter()
            .map(|rect| {
                let mut b = RunsBuilder::default();
                fb.runs(rect, |n, p| b.push(n, p));
                let runs = b.finish();
                let data = if (runs.len as u64) < 4 * rect.area() {
                    PixelData::Rle(runs)
                } else {
                    PixelData::Raw(fb.rect_pixels(rect))
                };
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

    /// Serializes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(&FRAME_MAGIC);
        w.put_u32(PROTOCOL_VERSION);
        w.put_u64(self.seq);
        w.put_u32(self.width);
        w.put_u32(self.height);
        w.put_u8(self.full as u8);
        w.put_u32(self.rects.len() as u32);
        for fr in &self.rects {
            w.put_i32(fr.rect.x);
            w.put_i32(fr.rect.y);
            w.put_u32(fr.rect.w);
            w.put_u32(fr.rect.h);
            match &fr.data {
                PixelData::Raw(pixels) => {
                    w.put_u8(0);
                    for p in pixels {
                        w.put_u32(*p);
                    }
                }
                PixelData::Rle(runs) => {
                    w.put_u8(1);
                    runs.encode(&mut w);
                }
            }
        }
        w.finish()
    }

    /// Encoded size in bytes, without serializing.
    pub fn encoded_len(&self) -> usize {
        // magic + version + seq + w + h + full + nrects + trailer.
        let mut n = 4 + 4 + 8 + 4 + 4 + 1 + 4 + 4;
        for fr in &self.rects {
            n += 16 + 1 + fr.data.encoded_len();
        }
        n
    }

    /// Decodes and validates a frame. Every corruption mode —
    /// truncation, bit flip, wrong magic or version, payload/area
    /// mismatch, non-canonical runs, trailing bytes — fails loudly.
    pub fn decode(bytes: &[u8]) -> Result<Frame, DecodeError> {
        let mut r = Reader::checked(bytes)?;
        r.expect_magic(&FRAME_MAGIC)?;
        let version = r.u32()?;
        if version != PROTOCOL_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let seq = r.u64()?;
        let width = r.u32()?;
        let height = r.u32()?;
        if width > MAX_SIDE || height > MAX_SIDE {
            return Err(DecodeError::BadValue("screen size"));
        }
        let full = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(DecodeError::BadValue("full flag")),
        };
        let nrects = r.u32()?;
        let mut rects = Vec::new();
        for _ in 0..nrects {
            let x = r.i32()?;
            let y = r.i32()?;
            let w = r.u32()?;
            let h = r.u32()?;
            let rect = Rect::new(x, y, w, h);
            let area = rect.area();
            if area == 0 || area > MAX_SIDE as u64 * MAX_SIDE as u64 {
                return Err(DecodeError::BadValue("rect area"));
            }
            let data = match r.u8()? {
                0 => {
                    let mut pixels = Vec::with_capacity((area as usize).min(r.remaining() / 4));
                    for _ in 0..area {
                        pixels.push(r.u32()?);
                    }
                    PixelData::Raw(pixels)
                }
                1 => PixelData::Rle(PaletteRuns::decode(&mut r, area)?),
                _ => return Err(DecodeError::BadValue("pixel encoding")),
            };
            rects.push(FrameRect { rect, data });
        }
        r.done()?;
        Ok(Frame {
            seq,
            width,
            height,
            full,
            rects,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Frame {
        Frame {
            seq: 9,
            width: 64,
            height: 48,
            full: false,
            rects: vec![
                FrameRect {
                    rect: Rect::new(2, 3, 2, 2),
                    data: PixelData::Raw(vec![1, 2, 3, 4]),
                },
                FrameRect {
                    rect: Rect::new(10, 10, 8, 4),
                    data: PixelData::Rle(PaletteRuns::from_runs([(30, 0xffffff), (2, 0)])),
                },
            ],
        }
    }

    #[test]
    fn encode_decode_is_identity() {
        let f = sample_frame();
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn build_picks_smaller_encoding() {
        let mut fb = Framebuffer::new(32, 32, 0xaaaaaa);
        // A flat region compresses; a noisy one stays raw. With one
        // colour per pixel the palette alone is as large as raw.
        for i in 0..16 {
            fb.put(i, 0, (i as u32) * 7919 + 1);
            fb.put(i, 1, (i as u32) * 7919 + 2);
        }
        let damage = Damage {
            full: false,
            rects: vec![Rect::new(0, 8, 16, 2), Rect::new(0, 0, 16, 2)],
        };
        let f = Frame::build(&fb, &damage, 1);
        assert!(matches!(f.rects[0].data, PixelData::Rle(_)), "flat → RLE");
        assert!(matches!(f.rects[1].data, PixelData::Raw(_)), "noisy → raw");
        for fr in &f.rects {
            assert_eq!(fr.data.pixel_count(), fr.rect.area());
            assert_eq!(fr.data.expand(), fb.rect_pixels(fr.rect));
        }
    }

    #[test]
    fn build_full_damage_is_one_screen_rect() {
        let fb = Framebuffer::new(16, 8, 0x123456);
        let f = Frame::build(&fb, &Damage::full(), 3);
        assert!(f.full);
        assert_eq!(f.rects.len(), 1);
        assert_eq!(f.rects[0].rect, Rect::new(0, 0, 16, 8));
        assert_eq!(f.rects[0].data.expand(), vec![0x123456; 16 * 8]);
    }

    #[test]
    fn corrupt_frames_fail_loudly() {
        let bytes = sample_frame().encode();
        assert_eq!(
            Frame::decode(&bytes[..bytes.len() - 1]).unwrap_err(),
            DecodeError::BadChecksum
        );
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(Frame::decode(&wrong_magic).is_err());
        // A frame claiming runs that do not cover its rect.
        let mut f = sample_frame();
        f.rects[1].data = PixelData::Rle(PaletteRuns::from_runs([(5, 0)]));
        assert_eq!(
            Frame::decode(&f.encode()).unwrap_err(),
            DecodeError::BadValue("run coverage")
        );
    }

    #[test]
    fn future_version_is_rejected() {
        let mut f = sample_frame();
        f.rects.clear();
        let mut bytes = f.encode();
        // Patch the version field (offset 4) and re-checksum.
        bytes[7] = 3;
        reseal(&mut bytes);
        assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            DecodeError::BadVersion(3)
        );
    }

    /// Recomputes the checksum trailer after a test patches the body.
    fn reseal(bytes: &mut [u8]) {
        let body_len = bytes.len() - 4;
        let sum = crate::wire::fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_be_bytes());
    }

    #[test]
    fn palette_runs_cost_a_byte_or_two_per_run() {
        // Two colours: a 1-bit index, so runs up to 64 px take one byte.
        let runs = PaletteRuns::from_runs([(64, 7), (3, 9), (200, 7)]);
        assert_eq!(runs.palette(), &[7, 9]);
        assert_eq!(runs.runs(), &[(64, 0), (3, 1), (200, 0)]);
        // npal + 2 colours + nruns + 1 + 1 + 2 byte codes.
        assert_eq!(PixelData::Rle(runs.clone()).encoded_len(), 1 + 8 + 1 + 4);
        let rect = Rect::new(0, 0, 267, 1);
        let f = Frame {
            seq: 1,
            width: 300,
            height: 10,
            full: false,
            rects: vec![FrameRect {
                rect,
                data: PixelData::Rle(runs),
            }],
        };
        let back = Frame::decode(&f.encode()).unwrap();
        assert_eq!(back, f);
        let want: Vec<Pixel> = [vec![7; 64], vec![9; 3], vec![7; 200]].concat();
        assert_eq!(back.rects[0].data.expand(), want);
    }
}
