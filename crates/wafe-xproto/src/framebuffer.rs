//! The screen framebuffer and drawing operations.
//!
//! Widgets draw through a display list per window (retained mode, so
//! exposes can replay) and the display flushes display lists into a real
//! RGB framebuffer. For golden tests an ASCII snapshot renders the same
//! display lists into a character grid — the reproduction's stand-in for
//! the paper's screenshots (Figures 2, 3 and 6).

use crate::color::Pixel;
use crate::font::FontId;
use crate::geometry::Rect;

/// One retained drawing operation, in window-relative coordinates.
#[derive(Debug, Clone, PartialEq)]
pub enum DrawOp {
    /// Fill a rectangle with a colour.
    FillRect {
        /// Target area.
        rect: Rect,
        /// Fill colour.
        pixel: Pixel,
    },
    /// Outline a rectangle.
    DrawRect {
        /// Target area.
        rect: Rect,
        /// Line colour.
        pixel: Pixel,
    },
    /// Draw a horizontal or vertical (or general) line.
    DrawLine {
        /// Start x.
        x1: i32,
        /// Start y.
        y1: i32,
        /// End x.
        x2: i32,
        /// End y.
        y2: i32,
        /// Line colour.
        pixel: Pixel,
    },
    /// Draw a string; `y` is the baseline, as in X.
    DrawText {
        /// Left edge of the first glyph.
        x: i32,
        /// Baseline.
        y: i32,
        /// Text to draw.
        text: String,
        /// Ink colour.
        pixel: Pixel,
        /// Font to use.
        font: FontId,
    },
    /// Copy a bitmap/pixmap image; pixels carry their own colours.
    PutImage {
        /// Destination x.
        x: i32,
        /// Destination y.
        y: i32,
        /// Image width.
        w: u32,
        /// Image height.
        h: u32,
        /// Row-major pixels (len == w*h).
        data: std::rc::Rc<Vec<Pixel>>,
    },
}

/// Side of a square framebuffer tile, in pixels. Smaller tiles hug
/// text and borders more tightly — E28's 25-label dashboard stores
/// 716 KiB of pixels at 16, 832 KiB at 32 — for a larger grid (48 KiB
/// of tile slots at 1024×768).
const TILE: u32 = 16;
/// Pixels in one tile.
const TILE_PX: usize = (TILE * TILE) as usize;

/// One `TILE`×`TILE` block of a [`Framebuffer`].
#[derive(Debug, Clone)]
enum Tile {
    /// Every pixel has this colour; nothing is stored.
    Solid(Pixel),
    /// Row-major pixels, `TILE` per row. An edge tile overhangs the
    /// buffer; its pixels past the right or bottom edge are never read.
    Pixels(Box<[Pixel; TILE_PX]>),
}

/// A stretch of one row: part of one stored tile, or solid tiles of one
/// colour.
enum Span<'a> {
    /// `n` pixels of one colour.
    Solid(u32, Pixel),
    /// The pixels themselves.
    Pixels(&'a [Pixel]),
}

impl Span<'_> {
    fn len(&self) -> u32 {
        match self {
            Span::Solid(n, _) => *n,
            Span::Pixels(s) => s.len() as u32,
        }
    }
}

/// An RGB framebuffer, stored as a grid of 16×16 tiles.
///
/// A tile of one colour holds no pixels: a screen is mostly flat
/// backgrounds, so only the tiles under borders, text and images pay
/// for storage. Filling a whole tile makes it solid again, writing a
/// solid tile's own colour is free, and [`Self::collapse`] folds a
/// repainted tile that came out uniform back to solid.
#[derive(Debug, Clone)]
pub struct Framebuffer {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Tiles per row of tiles.
    cols: u32,
    /// Row-major tile grid covering the buffer.
    tiles: Vec<Tile>,
}

impl Framebuffer {
    /// Creates a framebuffer cleared to the given colour.
    pub fn new(width: u32, height: u32, clear: Pixel) -> Self {
        let cols = width.div_ceil(TILE);
        let rows = height.div_ceil(TILE);
        Framebuffer {
            width,
            height,
            cols,
            tiles: vec![Tile::Solid(clear); (cols * rows) as usize],
        }
    }

    /// True for the zero-sized placeholder a headless display holds
    /// before its pixel buffer is materialized.
    pub fn is_empty(&self) -> bool {
        self.width == 0 || self.height == 0
    }

    /// Bytes of pixel storage held: only tiles that are not one colour
    /// have any.
    pub fn resident_bytes(&self) -> usize {
        let stored = self
            .tiles
            .iter()
            .filter(|t| matches!(t, Tile::Pixels(_)))
            .count();
        stored * TILE_PX * std::mem::size_of::<Pixel>()
    }

    /// `rect` clipped to the buffer.
    fn clip(&self, rect: Rect) -> Option<Rect> {
        rect.intersect(&Rect::new(0, 0, self.width, self.height))
    }

    fn tile_index(&self, x: u32, y: u32) -> usize {
        ((y / TILE) * self.cols + x / TILE) as usize
    }

    /// The part of tile `i` that lies inside the buffer.
    fn tile_rect(&self, i: usize) -> Rect {
        let (tx, ty) = ((i as u32 % self.cols) * TILE, (i as u32 / self.cols) * TILE);
        Rect::new(
            tx as i32,
            ty as i32,
            TILE.min(self.width - tx),
            TILE.min(self.height - ty),
        )
    }

    /// Indices of the tiles a clipped rect touches, in a grid `cols`
    /// tiles wide.
    fn tiles_under(cols: u32, r: Rect) -> impl Iterator<Item = usize> {
        let (x0, x1) = (r.x as u32 / TILE, (r.x as u32 + r.w - 1) / TILE);
        let (y0, y1) = (r.y as u32 / TILE, (r.y as u32 + r.h - 1) / TILE);
        (y0..=y1).flat_map(move |ty| (x0..=x1).map(move |tx| (ty * cols + tx) as usize))
    }

    /// Row `y` from `x` to the end of `x`'s tile or to `x_end`,
    /// whichever comes first; a solid span also takes in the solid
    /// tiles of its colour that follow. `x < x_end <= width` and
    /// `y < height`.
    fn span(&self, x: u32, y: u32, x_end: u32) -> Span<'_> {
        let mut end = x_end.min((x / TILE + 1) * TILE);
        let i = self.tile_index(x, y);
        match &self.tiles[i] {
            Tile::Solid(p) => {
                let mut next = i + 1;
                while end < x_end && matches!(self.tiles[next], Tile::Solid(q) if q == *p) {
                    end = x_end.min(end + TILE);
                    next += 1;
                }
                Span::Solid(end - x, *p)
            }
            Tile::Pixels(px) => {
                let at = ((y % TILE) * TILE + x % TILE) as usize;
                Span::Pixels(&px[at..at + (end - x) as usize])
            }
        }
    }

    /// Calls `f` on every span of a clipped rect, row-major.
    fn for_each_span(&self, r: Rect, mut f: impl FnMut(Span<'_>)) {
        let (x0, x1) = (r.x as u32, r.x as u32 + r.w);
        for y in r.y as u32..r.y as u32 + r.h {
            let mut x = x0;
            while x < x1 {
                let s = self.span(x, y, x1);
                x += s.len();
                f(s);
            }
        }
    }

    /// Copies the pixels of a rectangle (clipped to the buffer),
    /// row-major — the payload of a display-protocol damage rect.
    pub fn rect_pixels(&self, rect: Rect) -> Vec<Pixel> {
        let Some(r) = self.clip(rect) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity((r.w * r.h) as usize);
        self.for_each_span(r, |s| match s {
            Span::Solid(n, p) => out.extend(std::iter::repeat_n(p, n as usize)),
            Span::Pixels(px) => out.extend_from_slice(px),
        });
        out
    }

    /// Calls `f` on each maximal row-major `(count, pixel)` run of a
    /// rectangle (clipped to the buffer): what `rect_pixels` would
    /// return, run-length coded without copying it. A solid stretch of
    /// a row is one step, and runs continue across tiles and rows.
    pub fn runs(&self, rect: Rect, mut f: impl FnMut(u32, Pixel)) {
        let Some(r) = self.clip(rect) else {
            return;
        };
        let mut run: Option<(u32, Pixel)> = None;
        let mut push = |n: u32, p: Pixel| match &mut run {
            Some((m, q)) if *q == p => *m += n,
            _ => {
                if let Some((m, q)) = run.replace((n, p)) {
                    f(m, q);
                }
            }
        };
        self.for_each_span(r, |s| match s {
            Span::Solid(n, p) => push(n, p),
            Span::Pixels(px) => px
                .chunk_by(|a, b| a == b)
                .for_each(|c| push(c.len() as u32, c[0])),
        });
        if let Some((m, q)) = run {
            f(m, q);
        }
    }

    /// Reads one pixel; out-of-bounds reads return black.
    pub fn get(&self, x: i32, y: i32) -> Pixel {
        if x < 0 || y < 0 || x as u32 >= self.width || y as u32 >= self.height {
            return 0;
        }
        match &self.tiles[self.tile_index(x as u32, y as u32)] {
            Tile::Solid(p) => *p,
            Tile::Pixels(px) => px[((y as u32 % TILE) * TILE + x as u32 % TILE) as usize],
        }
    }

    /// The pixels of tile `i`, materializing a solid tile.
    fn tile_pixels(&mut self, i: usize) -> &mut [Pixel; TILE_PX] {
        let tile = &mut self.tiles[i];
        if let Tile::Solid(p) = *tile {
            *tile = Tile::Pixels(Box::new([p; TILE_PX]));
        }
        match tile {
            Tile::Pixels(px) => px,
            Tile::Solid(_) => unreachable!("materialized above"),
        }
    }

    /// Writes one pixel; out-of-bounds writes are clipped.
    pub fn put(&mut self, x: i32, y: i32, p: Pixel) {
        if x < 0 || y < 0 || x as u32 >= self.width || y as u32 >= self.height {
            return;
        }
        let (x, y) = (x as u32, y as u32);
        let i = self.tile_index(x, y);
        if matches!(self.tiles[i], Tile::Solid(q) if q == p) {
            return;
        }
        self.tile_pixels(i)[((y % TILE) * TILE + x % TILE) as usize] = p;
    }

    /// Fills a rectangle, clipped to the buffer and to `clip`. A tile
    /// the fill covers becomes solid.
    pub fn fill_rect(&mut self, rect: Rect, clip: Rect, p: Pixel) {
        let Some(target) = rect.intersect(&clip).and_then(|r| self.clip(r)) else {
            return;
        };
        for i in Self::tiles_under(self.cols, target) {
            let tile = self.tile_rect(i);
            let part = target.intersect(&tile).expect("tile lies under target");
            if part == tile {
                self.tiles[i] = Tile::Solid(p);
                continue;
            }
            if matches!(self.tiles[i], Tile::Solid(q) if q == p) {
                continue;
            }
            let px = self.tile_pixels(i);
            let (x0, x1) = (part.x as u32 % TILE, part.x as u32 % TILE + part.w);
            for y in part.y as u32 % TILE..part.y as u32 % TILE + part.h {
                let row = (y * TILE) as usize;
                px[row + x0 as usize..row + x1 as usize].fill(p);
            }
        }
    }

    /// Folds every tile under `rect` whose pixels inside the buffer are
    /// all one colour back to a solid tile. The pixels read the same
    /// before and after; only the storage goes.
    pub fn collapse(&mut self, rect: Rect) {
        let Some(r) = self.clip(rect) else {
            return;
        };
        for i in Self::tiles_under(self.cols, r) {
            let Tile::Pixels(px) = &self.tiles[i] else {
                continue;
            };
            let tile = self.tile_rect(i);
            let first = px[0];
            let uniform = (0..tile.h as usize).all(|y| {
                px[y * TILE as usize..y * TILE as usize + tile.w as usize]
                    .iter()
                    .all(|&v| v == first)
            });
            if uniform {
                self.tiles[i] = Tile::Solid(first);
            }
        }
    }

    /// Outlines a rectangle, clipped.
    pub fn draw_rect(&mut self, rect: Rect, clip: Rect, p: Pixel) {
        let (x2, y2) = (rect.x + rect.w as i32 - 1, rect.y + rect.h as i32 - 1);
        self.draw_line(rect.x, rect.y, x2, rect.y, clip, p);
        self.draw_line(rect.x, y2, x2, y2, clip, p);
        self.draw_line(rect.x, rect.y, rect.x, y2, clip, p);
        self.draw_line(x2, rect.y, x2, y2, clip, p);
    }

    /// Draws a line (Bresenham), clipped.
    pub fn draw_line(&mut self, x1: i32, y1: i32, x2: i32, y2: i32, clip: Rect, p: Pixel) {
        let (mut x, mut y) = (x1, y1);
        let dx = (x2 - x1).abs();
        let dy = -(y2 - y1).abs();
        let sx = if x1 < x2 { 1 } else { -1 };
        let sy = if y1 < y2 { 1 } else { -1 };
        let mut err = dx + dy;
        loop {
            if clip.contains(crate::geometry::Point::new(x, y)) {
                self.put(x, y, p);
            }
            if x == x2 && y == y2 {
                break;
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

    /// Renders text with the 5×7 bitmap font, one glyph per cell. The
    /// glyph top sits a fixed 7 rows above the baseline (the bitmap's
    /// height), whatever the nominal font ascent; wide cells centre it.
    pub fn draw_text_blocks(
        &mut self,
        x: i32,
        baseline: i32,
        text: &str,
        clip: Rect,
        p: Pixel,
        char_width: u32,
    ) {
        let top = baseline - 7;
        let pad = (char_width.saturating_sub(5) / 2) as i32;
        for (i, c) in text.chars().enumerate() {
            let gx = x + (i as u32 * char_width) as i32 + pad;
            for (col, row) in crate::font5x7::lit_pixels(c) {
                let px = gx + col as i32;
                let py = top + row as i32;
                if clip.contains(crate::geometry::Point::new(px, py)) {
                    self.put(px, py, p);
                }
            }
        }
    }

    /// Copies an image, clipped.
    pub fn put_image(&mut self, x: i32, y: i32, w: u32, h: u32, data: &[Pixel], clip: Rect) {
        for row in 0..h {
            for col in 0..w {
                let px = x + col as i32;
                let py = y + row as i32;
                if clip.contains(crate::geometry::Point::new(px, py)) {
                    self.put(px, py, data[(row * w + col) as usize]);
                }
            }
        }
    }

    /// Counts pixels with exactly the given value (test helper).
    pub fn count_pixels(&self, p: Pixel) -> usize {
        let mut n = 0;
        self.for_each_span(Rect::new(0, 0, self.width, self.height), |s| match s {
            Span::Solid(k, q) => n += if q == p { k as usize } else { 0 },
            Span::Pixels(px) => n += px.iter().filter(|&&v| v == p).count(),
        });
        n
    }

    /// Writes the framebuffer as a binary PPM (P6) image — the
    /// reproduction's way of producing real screenshot files for the
    /// paper's figures.
    pub fn write_ppm<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        writeln!(out, "P6\n{} {}\n255", self.width, self.height)?;
        let mut bytes = Vec::with_capacity(self.width as usize * self.height as usize * 3);
        let mut rgb =
            |p: Pixel| bytes.extend_from_slice(&[(p >> 16) as u8, (p >> 8) as u8, p as u8]);
        self.for_each_span(Rect::new(0, 0, self.width, self.height), |s| match s {
            Span::Solid(n, p) => (0..n).for_each(|_| rgb(p)),
            Span::Pixels(px) => px.iter().for_each(|&p| rgb(p)),
        });
        out.write_all(&bytes)
    }
}

/// A character-cell canvas for ASCII screenshots.
///
/// Cells are 8x16 pixels: window-relative pixel coordinates divide down
/// to cells. Text lands as itself; fills as background shading; borders
/// as box-drawing strokes.
#[derive(Debug, Clone)]
pub struct AsciiCanvas {
    /// Width in character cells.
    pub cols: usize,
    /// Height in character cells.
    pub rows: usize,
    cells: Vec<char>,
}

/// Pixel width of one ASCII cell.
pub const CELL_W: i32 = 8;
/// Pixel height of one ASCII cell.
pub const CELL_H: i32 = 16;

impl AsciiCanvas {
    /// Creates a blank canvas covering `width`x`height` pixels.
    pub fn new(width: u32, height: u32) -> Self {
        let cols = (width as i32 / CELL_W).max(1) as usize;
        let rows = (height as i32 / CELL_H).max(1) as usize;
        AsciiCanvas {
            cols,
            rows,
            cells: vec![' '; cols * rows],
        }
    }

    /// Puts a character at a cell position.
    pub fn put(&mut self, col: i32, row: i32, c: char) {
        if col < 0 || row < 0 || col as usize >= self.cols || row as usize >= self.rows {
            return;
        }
        self.cells[row as usize * self.cols + col as usize] = c;
    }

    /// Writes text starting at a pixel position.
    pub fn text_at_pixel(&mut self, x: i32, y: i32, text: &str) {
        let col0 = x / CELL_W;
        let row = y / CELL_H;
        for (i, c) in text.chars().enumerate() {
            self.put(col0 + i as i32, row, c);
        }
    }

    /// Draws a box outline for a pixel rectangle.
    pub fn box_at_pixel(&mut self, rect: Rect) {
        let c0 = rect.x / CELL_W;
        let r0 = rect.y / CELL_H;
        let c1 = (rect.x + rect.w as i32 - 1) / CELL_W;
        let r1 = (rect.y + rect.h as i32 - 1) / CELL_H;
        if c1 <= c0 || r1 <= r0 {
            return;
        }
        for c in c0..=c1 {
            self.put(c, r0, '-');
            self.put(c, r1, '-');
        }
        for r in r0..=r1 {
            self.put(c0, r, '|');
            self.put(c1, r, '|');
        }
        self.put(c0, r0, '+');
        self.put(c1, r0, '+');
        self.put(c0, r1, '+');
        self.put(c1, r1, '+');
    }

    /// Renders the canvas as lines, right-trimmed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in 0..self.rows {
            let line: String = self.cells[r * self.cols..(r + 1) * self.cols]
                .iter()
                .collect();
            out.push_str(line.trim_end());
            out.push('\n');
        }
        // Drop trailing blank lines.
        while out.ends_with("\n\n") {
            out.pop();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_read() {
        let mut fb = Framebuffer::new(20, 10, 0xffffff);
        let clip = Rect::new(0, 0, 20, 10);
        fb.fill_rect(Rect::new(2, 2, 3, 3), clip, 0xff0000);
        assert_eq!(fb.get(2, 2), 0xff0000);
        assert_eq!(fb.get(4, 4), 0xff0000);
        assert_eq!(fb.get(5, 5), 0xffffff);
        assert_eq!(fb.count_pixels(0xff0000), 9);
    }

    #[test]
    fn clipping() {
        let mut fb = Framebuffer::new(10, 10, 0);
        let clip = Rect::new(0, 0, 5, 5);
        fb.fill_rect(Rect::new(0, 0, 10, 10), clip, 7);
        assert_eq!(fb.count_pixels(7), 25);
        // Out-of-bounds put/get are safe.
        fb.put(-1, -1, 9);
        assert_eq!(fb.get(-1, -1), 0);
        assert_eq!(fb.get(100, 100), 0);
    }

    #[test]
    fn lines_and_rect_outline() {
        let mut fb = Framebuffer::new(10, 10, 0);
        let clip = Rect::new(0, 0, 10, 10);
        fb.draw_line(0, 0, 9, 0, clip, 1);
        assert_eq!(fb.count_pixels(1), 10);
        let mut fb2 = Framebuffer::new(10, 10, 0);
        fb2.draw_rect(Rect::new(0, 0, 4, 4), clip, 2);
        // 4x4 outline = 12 pixels.
        assert_eq!(fb2.count_pixels(2), 12);
    }

    #[test]
    fn diagonal_line() {
        let mut fb = Framebuffer::new(10, 10, 0);
        let clip = Rect::new(0, 0, 10, 10);
        fb.draw_line(0, 0, 9, 9, clip, 3);
        for i in 0..10 {
            assert_eq!(fb.get(i, i), 3);
        }
    }

    #[test]
    fn text_blocks_ink() {
        let mut fb = Framebuffer::new(60, 20, 0xffffff);
        let clip = Rect::new(0, 0, 60, 20);
        fb.draw_text_blocks(0, 13, "ab", clip, 0, 6);
        assert!(fb.count_pixels(0) > 0);
    }

    #[test]
    fn ascii_canvas_text_and_box() {
        let mut c = AsciiCanvas::new(160, 64);
        c.text_at_pixel(16, 16, "hello");
        c.box_at_pixel(Rect::new(0, 0, 160, 64));
        let out = c.render();
        assert!(out.contains("hello"));
        assert!(out.contains('+'));
        assert!(out.lines().next().unwrap().starts_with('+'));
    }

    #[test]
    fn ascii_canvas_clips() {
        let mut c = AsciiCanvas::new(80, 32);
        c.text_at_pixel(1000, 1000, "off");
        c.put(-1, -1, 'x');
        assert!(!c.render().contains("off"));
    }

    #[test]
    fn put_image() {
        let mut fb = Framebuffer::new(4, 4, 0);
        let clip = Rect::new(0, 0, 4, 4);
        fb.put_image(1, 1, 2, 2, &[1, 2, 3, 4], clip);
        assert_eq!(fb.get(1, 1), 1);
        assert_eq!(fb.get(2, 2), 4);
    }
}
