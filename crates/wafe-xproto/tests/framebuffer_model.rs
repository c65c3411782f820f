//! The tiled [`Framebuffer`] against a flat reference model.
//!
//! The framebuffer stores 16×16 tiles, solid ones without pixels. The
//! model here is the plain row-major `Vec<Pixel>` it replaced, with every
//! drawing operation written pixel by pixel. Random sequences of fills,
//! outlines, lines, text, images and single puts — under random clips,
//! many of them partly or wholly off-screen — must leave both reading
//! the same through every accessor: `get`, `rect_pixels`, `runs`,
//! `count_pixels` and `write_ppm`. Sizes are deliberately not tile
//! multiples, so edge tiles overhang the buffer.

use wafe_prop::{cases, Rng};
use wafe_xproto::font5x7::lit_pixels;
use wafe_xproto::framebuffer::Framebuffer;
use wafe_xproto::geometry::{Point, Rect};
use wafe_xproto::Pixel;

/// The framebuffer's (private) tile side.
const TILE: u32 = 16;

/// The flat reference: one `Pixel` per screen pixel.
struct Flat {
    w: u32,
    h: u32,
    px: Vec<Pixel>,
}

impl Flat {
    fn new(w: u32, h: u32, clear: Pixel) -> Flat {
        Flat {
            w,
            h,
            px: vec![clear; (w * h) as usize],
        }
    }

    fn get(&self, x: i32, y: i32) -> Pixel {
        if x < 0 || y < 0 || x as u32 >= self.w || y as u32 >= self.h {
            return 0;
        }
        self.px[(y as u32 * self.w + x as u32) as usize]
    }

    fn put(&mut self, x: i32, y: i32, p: Pixel) {
        if x < 0 || y < 0 || x as u32 >= self.w || y as u32 >= self.h {
            return;
        }
        self.px[(y as u32 * self.w + x as u32) as usize] = p;
    }

    /// Puts `p` at `(x, y)` if `clip` holds the point.
    fn put_clipped(&mut self, x: i32, y: i32, clip: Rect, p: Pixel) {
        if clip.contains(Point::new(x, y)) {
            self.put(x, y, p);
        }
    }

    fn fill_rect(&mut self, rect: Rect, clip: Rect, p: Pixel) {
        for y in rect.y..rect.y + rect.h as i32 {
            for x in rect.x..rect.x + rect.w as i32 {
                self.put_clipped(x, y, clip, p);
            }
        }
    }

    fn draw_line(&mut self, x1: i32, y1: i32, x2: i32, y2: i32, clip: Rect, p: Pixel) {
        let (mut x, mut y) = (x1, y1);
        let (dx, dy) = ((x2 - x1).abs(), -(y2 - y1).abs());
        let (sx, sy) = ((x2 - x1).signum(), (y2 - y1).signum());
        let mut err = dx + dy;
        loop {
            self.put_clipped(x, y, clip, p);
            if (x, y) == (x2, y2) {
                return;
            }
            let e2 = 2 * err;
            if e2 >= dy {
                err += dy;
                x += sx;
            }
            if e2 <= dx {
                err += dx;
                y += sy;
            }
        }
    }

    fn draw_rect(&mut self, r: Rect, clip: Rect, p: Pixel) {
        let (x2, y2) = (r.x + r.w as i32 - 1, r.y + r.h as i32 - 1);
        self.draw_line(r.x, r.y, x2, r.y, clip, p);
        self.draw_line(r.x, y2, x2, y2, clip, p);
        self.draw_line(r.x, r.y, r.x, y2, clip, p);
        self.draw_line(x2, r.y, x2, y2, clip, p);
    }

    fn draw_text_blocks(
        &mut self,
        x: i32,
        baseline: i32,
        text: &str,
        clip: Rect,
        p: Pixel,
        cw: u32,
    ) {
        let pad = (cw.saturating_sub(5) / 2) as i32;
        for (i, c) in text.chars().enumerate() {
            let gx = x + (i as u32 * cw) as i32 + pad;
            for (col, row) in lit_pixels(c) {
                self.put_clipped(gx + col as i32, baseline - 7 + row as i32, clip, p);
            }
        }
    }

    fn put_image(&mut self, x: i32, y: i32, w: u32, h: u32, data: &[Pixel], clip: Rect) {
        for row in 0..h {
            for col in 0..w {
                let p = data[(row * w + col) as usize];
                self.put_clipped(x + col as i32, y + row as i32, clip, p);
            }
        }
    }

    fn rect_pixels(&self, rect: Rect) -> Vec<Pixel> {
        let mut out = Vec::new();
        if let Some(r) = rect.intersect(&Rect::new(0, 0, self.w, self.h)) {
            for y in r.y..r.y + r.h as i32 {
                for x in r.x..r.x + r.w as i32 {
                    out.push(self.get(x, y));
                }
            }
        }
        out
    }

    fn ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.w, self.h).into_bytes();
        for p in &self.px {
            out.extend_from_slice(&[(p >> 16) as u8, (p >> 8) as u8, *p as u8]);
        }
        out
    }

    /// Tiles (clipped to the buffer) holding more than one colour.
    fn mixed_tiles(&self) -> usize {
        let mut n = 0;
        for ty in (0..self.h).step_by(TILE as usize) {
            for tx in (0..self.w).step_by(TILE as usize) {
                let tile = Rect::new(tx as i32, ty as i32, TILE, TILE);
                let px = self.rect_pixels(tile);
                n += px.iter().any(|&p| p != px[0]) as usize;
            }
        }
        n
    }
}

/// Mostly a few recurring colours, so fills often repeat a solid
/// tile's own colour; sometimes anything.
fn colour(rng: &mut Rng) -> Pixel {
    if rng.below(4) == 0 {
        rng.next_u64() as u32
    } else {
        *rng.pick(&[0xbebebe, 0xffffff, 0x000000, 0x3366cc])
    }
}

/// A rect that may reach, overhang or miss the `w`×`h` buffer.
fn rect(rng: &mut Rng, w: u32, h: u32) -> Rect {
    let x = rng.range_i64(-40, w as i64 + 40) as i32;
    let y = rng.range_i64(-40, h as i64 + 40) as i32;
    Rect::new(x, y, rng.range_u32(1, w + 40), rng.range_u32(1, h + 40))
}

/// A clip: the whole screen, a random rect, or one off-screen.
fn clip(rng: &mut Rng, w: u32, h: u32) -> Rect {
    match rng.below(4) {
        0 => Rect::new(0, 0, w, h),
        1 => Rect::new(-(w as i32) - 50, 0, w, h),
        _ => rect(rng, w, h),
    }
}

/// Applies one random operation to both buffers.
fn step(rng: &mut Rng, fb: &mut Framebuffer, m: &mut Flat) {
    let (w, h) = (m.w, m.h);
    let c = clip(rng, w, h);
    let p = colour(rng);
    let coord = |rng: &mut Rng, side: u32| rng.range_i64(-40, side as i64 + 40) as i32;
    match rng.below(7) {
        0 | 1 => {
            let r = rect(rng, w, h);
            fb.fill_rect(r, c, p);
            m.fill_rect(r, c, p);
        }
        2 => {
            let r = rect(rng, w, h);
            fb.draw_rect(r, c, p);
            m.draw_rect(r, c, p);
        }
        3 => {
            let (x1, y1, x2, y2) = (coord(rng, w), coord(rng, h), coord(rng, w), coord(rng, h));
            fb.draw_line(x1, y1, x2, y2, c, p);
            m.draw_line(x1, y1, x2, y2, c, p);
        }
        4 => {
            let text = rng.ascii_string(12);
            let (x, y) = (coord(rng, w), coord(rng, h));
            let cw = rng.range_u32(5, 10);
            fb.draw_text_blocks(x, y, &text, c, p, cw);
            m.draw_text_blocks(x, y, &text, c, p, cw);
        }
        5 => {
            let (iw, ih) = (rng.range_u32(1, 48), rng.range_u32(1, 48));
            let data: Vec<Pixel> = (0..iw * ih).map(|_| colour(rng)).collect();
            let (x, y) = (coord(rng, w), coord(rng, h));
            fb.put_image(x, y, iw, ih, &data, c);
            m.put_image(x, y, iw, ih, &data, c);
        }
        _ => {
            for _ in 0..rng.range(1, 20) {
                let (x, y) = (coord(rng, w), coord(rng, h));
                fb.put(x, y, p);
                m.put(x, y, p);
            }
        }
    }
    if rng.below(8) == 0 {
        // Collapsing uniform tiles changes storage, never pixels.
        fb.collapse(rect(rng, w, h));
    }
}

/// Both buffers read the same through every accessor.
fn assert_same(rng: &mut Rng, fb: &Framebuffer, m: &Flat) {
    let (w, h) = (m.w, m.h);
    assert_eq!((fb.width, fb.height), (w, h));
    for y in -1..=h as i32 {
        for x in -1..=w as i32 {
            assert_eq!(fb.get(x, y), m.get(x, y), "pixel ({x}, {y})");
        }
    }
    for _ in 0..8 {
        let r = rect(rng, w, h);
        let want = m.rect_pixels(r);
        assert_eq!(fb.rect_pixels(r), want, "rect_pixels {r:?}");
        let runs: Vec<(u32, Pixel)> = want
            .chunk_by(|a, b| a == b)
            .map(|run| (run.len() as u32, run[0]))
            .collect();
        let mut got = Vec::new();
        fb.runs(r, |n, p| got.push((n, p)));
        assert_eq!(got, runs, "runs {r:?}");
    }
    for p in [0xbebebe, 0xffffff, 0x000000, 0x3366cc, m.px[0]] {
        assert_eq!(fb.count_pixels(p), m.px.iter().filter(|&&v| v == p).count());
    }
    let mut ppm = Vec::new();
    fb.write_ppm(&mut ppm).unwrap();
    assert!(ppm == m.ppm(), "write_ppm output differs");
}

fn run_model(n: u64, w: u32, h: u32, steps: usize) {
    cases(n, |rng| {
        let clear = colour(rng);
        let mut fb = Framebuffer::new(w, h, clear);
        let mut m = Flat::new(w, h, clear);
        for _ in 0..rng.range(1, steps) {
            step(rng, &mut fb, &mut m);
        }
        assert_same(rng, &fb, &m);
        // Collapsing everything leaves storage for exactly the tiles
        // that hold more than one colour.
        fb.collapse(Rect::new(0, 0, w, h));
        assert_eq!(
            fb.resident_bytes(),
            m.mixed_tiles() * (TILE * TILE * 4) as usize
        );
        assert_same(rng, &fb, &m);
    });
}

#[test]
fn tiny_buffer_matches_the_flat_model() {
    run_model(300, 20, 10, 40);
}

#[test]
fn odd_sized_buffer_matches_the_flat_model() {
    run_model(200, 37, 53, 40);
}

#[test]
fn screen_sized_buffer_matches_the_flat_model() {
    run_model(6, 1024, 768, 60);
}

#[test]
fn covering_fills_hold_no_pixels() {
    let mut fb = Framebuffer::new(100, 70, 0xbebebe);
    assert_eq!(fb.resident_bytes(), 0, "a blank buffer stores no pixels");
    let screen = Rect::new(0, 0, 100, 70);
    // Writing a solid tile's own colour stores nothing.
    fb.put(5, 5, 0xbebebe);
    fb.fill_rect(Rect::new(3, 3, 10, 10), screen, 0xbebebe);
    assert_eq!(fb.resident_bytes(), 0);
    fb.put(40, 40, 0);
    assert_eq!(fb.resident_bytes(), (TILE * TILE * 4) as usize);
    // A fill covering the tile (clipped at the buffer edge) makes it
    // solid again; so does one covering the overhanging edge tile.
    fb.fill_rect(Rect::new(32, 32, 32, 32), screen, 0xffffff);
    fb.put(99, 69, 0);
    fb.fill_rect(Rect::new(96, 64, 50, 50), screen, 0xffffff);
    assert_eq!(fb.resident_bytes(), 0);
    assert_eq!(fb.get(40, 40), 0xffffff);
    assert_eq!(fb.get(99, 69), 0xffffff);

    // An edge tile painted one colour piece by piece collapses, though
    // its overhang past the buffer still holds the old colour.
    let mut fb = Framebuffer::new(20, 10, 0);
    let screen = Rect::new(0, 0, 20, 10);
    fb.fill_rect(Rect::new(16, 0, 4, 5), screen, 7);
    fb.fill_rect(Rect::new(16, 5, 4, 5), screen, 7);
    assert_eq!(fb.resident_bytes(), (TILE * TILE * 4) as usize);
    fb.collapse(screen);
    assert_eq!(fb.resident_bytes(), 0);
    assert_eq!(fb.count_pixels(7), 40);
}
