//! The three workloads: their seeded inputs and their closed-loop,
//! single-threaded clients. The same client code drives a `waferd`
//! child process (end-to-end run) and the in-process server of the
//! traced run.
//!
//! Every reply is checked. A missing, unexpected or wrong line, a
//! `!`-notice such as `!shed`, or a timeout ends the run with an error;
//! the caller counts the operations still outstanding as failed.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::Instant;

use wafe_display::{to_hex, Frame, InputEvent};

use crate::span::{Kind, Rec};
use crate::sys;

/// Longest the client waits for any reply before the run fails.
const REPLY_TIMEOUT_MS: i32 = 10_000;

/// `%echo` lines each stream connection keeps in flight. With at most
/// two `%set` lines per echo a mailbox never holds more than 3 × 16 = 48
/// lines, so one scheduler turn (32 lines per session) drains most of it
/// and nothing is ever shed. Deeper windows (48 per connection) made
/// the latency distribution swing between runs.
pub const STREAM_WINDOW: usize = 16;

/// splitmix64: the workloads' only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A short lowercase word, for label texts.
    pub fn word(&mut self) -> String {
        let len = 4 + self.below(5) as usize;
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }
}

/// The results of one timed window of a workload.
#[derive(Default)]
pub struct Tally {
    /// Operations started (warm-up and drain included).
    pub attempted: u64,
    /// Operations checked and complete (warm-up and drain included).
    pub completed: u64,
    /// Operations started and completed inside the window.
    pub done: u64,
    /// Per-operation latency in µs, for operations inside the window.
    pub lat_us: Vec<f64>,
    /// Socket bytes both ways for operations inside the window.
    pub wire_bytes: u64,
    /// Operations completed inside the window, per elapsed second.
    pub per_second: Vec<u64>,
}

impl Tally {
    /// Counts one operation that started and ended inside `win`.
    fn count(&mut self, win: &Window, ended: Instant, lat_us: f64, bytes: u64) {
        self.done += 1;
        self.lat_us.push(lat_us);
        self.wire_bytes += bytes;
        let last = ((win.until - win.from).as_secs() as usize).max(1) - 1;
        let sec = ((ended - win.from).as_secs() as usize).min(last);
        if self.per_second.len() <= last {
            self.per_second.resize(last + 1, 0);
        }
        self.per_second[sec] += 1;
    }
}

/// The measured interval: operations count when they start at or after
/// `from` and complete by `until`; none start after `until`.
#[derive(Clone, Copy)]
pub struct Window {
    pub from: Instant,
    pub until: Instant,
}

impl Window {
    pub fn counts(&self, started: Instant, ended: Instant) -> bool {
        started >= self.from && ended <= self.until
    }
}

/// One client connection with a line buffer.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
            pos: 0,
        })
    }

    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    pub fn send(&mut self, bytes: &[u8], rec: &mut Rec) -> Result<(), String> {
        let t = rec.now();
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))?;
        rec.push(Kind::ClientWrite, None, t);
        Ok(())
    }

    /// One `read(2)` into the line buffer; call after the socket polled
    /// readable. End of stream is an error: no workload expects one.
    pub fn read_some(&mut self, rec: &mut Rec) -> Result<usize, String> {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > (1 << 15) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let old = self.buf.len();
        self.buf.resize(old + (1 << 16), 0);
        let t = rec.now();
        let r = self.stream.read(&mut self.buf[old..]);
        rec.push(Kind::ClientWait, None, t);
        let n = match r {
            Ok(n) => n,
            Err(e) => {
                self.buf.truncate(old);
                return Err(format!("read: {e}"));
            }
        };
        self.buf.truncate(old + n);
        if n == 0 {
            return Err("server closed the connection".into());
        }
        rec.reads += 1;
        rec.read_bytes += n as u64;
        Ok(n)
    }

    /// The next complete line in the buffer, without its newline.
    pub fn line(&mut self) -> Option<String> {
        let nl = self.buf[self.pos..].iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[self.pos..self.pos + nl]).into_owned();
        self.pos += nl + 1;
        Some(line)
    }

    /// Blocks until a whole line arrives.
    pub fn read_line(&mut self, rec: &mut Rec) -> Result<String, String> {
        loop {
            if let Some(l) = self.line() {
                return Ok(l);
            }
            wait_any(&[self.fd()], rec)?;
            self.read_some(rec)?;
        }
    }

    /// Reads one line and requires it to be `want`.
    pub fn expect(&mut self, want: &str, rec: &mut Rec) -> Result<(), String> {
        let got = self.read_line(rec)?;
        if got == want {
            Ok(())
        } else {
            Err(format!("expected {want:?}, got {:?}", clip(&got)))
        }
    }
}

/// Polls the given sockets; a timeout is an error.
fn wait_any(fds: &[RawFd], rec: &mut Rec) -> Result<Vec<bool>, String> {
    let t = rec.now();
    let ready = sys::wait_readable(fds, REPLY_TIMEOUT_MS).map_err(|e| format!("poll: {e}"))?;
    rec.push(Kind::ClientWait, None, t);
    if ready.iter().any(|&r| r) {
        Ok(ready)
    } else {
        Err(format!("no reply within {REPLY_TIMEOUT_MS} ms"))
    }
}

fn clip(s: &str) -> &str {
    s.char_indices().nth(80).map_or(s, |(i, _)| &s[..i])
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

// ---------------------------------------------------------------- stream

/// Appends one stream operation: zero to two one-way `%set` lines, then
/// the `%echo` whose reply completes it.
pub fn stream_group(rng: &mut Rng, seq: u64, out: &mut Vec<u8>) {
    for _ in 0..rng.below(3) {
        let (var, val) = (rng.below(16), rng.below(1_000_000));
        writeln!(out, "%set v{var} {val}").expect("write to a Vec");
    }
    // Fixed-width sequence numbers keep reply sizes independent of how
    // many lines a run gets through.
    writeln!(out, "%echo {seq:010}").expect("write to a Vec");
}

/// One pipelined stream connection.
pub struct StreamLane {
    c: Client,
    rng: Rng,
    seq: u64,
    /// Echo lines in flight: sequence number, send time, line bytes.
    pending: VecDeque<(u64, Instant, u64)>,
    batch: Vec<u8>,
}

impl StreamLane {
    pub fn open(addr: SocketAddr, seed: u64, rec: &mut Rec) -> Result<StreamLane, String> {
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.send(b"%echo ready\n", rec)?;
        c.expect("ready", rec)?;
        Ok(StreamLane {
            c,
            rng: Rng::new(seed),
            seq: 0,
            pending: VecDeque::new(),
            batch: Vec::new(),
        })
    }

    /// Refills the window: each echo is preceded by zero to two one-way
    /// `%set` lines. Sent as one write.
    fn top_up(&mut self, tally: &mut Tally, rec: &mut Rec) -> Result<(), String> {
        self.batch.clear();
        let now = Instant::now();
        while self.pending.len() < STREAM_WINDOW {
            let start = self.batch.len();
            self.seq += 1;
            stream_group(&mut self.rng, self.seq, &mut self.batch);
            let sent = (self.batch.len() - start) as u64;
            self.pending.push_back((self.seq, now, sent));
            tally.attempted += 1;
        }
        if self.batch.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.batch);
        let r = self.c.send(&batch, rec);
        self.batch = batch;
        r
    }
}

/// Runs the stream lanes until `win.until`, then drains what is in
/// flight. Latency: from writing an echo line to reading its reply.
pub fn run_stream(
    lanes: &mut [StreamLane],
    win: Window,
    rec: &mut Rec,
    tally: &mut Tally,
) -> Result<(), String> {
    for l in lanes.iter_mut() {
        l.top_up(tally, rec)?;
    }
    loop {
        let sending = Instant::now() < win.until;
        if !sending && lanes.iter().all(|l| l.pending.is_empty()) {
            return Ok(());
        }
        let fds: Vec<RawFd> = lanes.iter().map(|l| l.c.fd()).collect();
        let ready = wait_any(&fds, rec)?;
        for (l, r) in lanes.iter_mut().zip(ready) {
            if !r {
                continue;
            }
            l.c.read_some(rec)?;
            let now = Instant::now();
            while let Some(line) = l.c.line() {
                let (seq, sent, sent_bytes) = l
                    .pending
                    .pop_front()
                    .ok_or_else(|| format!("unexpected line {:?}", clip(&line)))?;
                if line.len() != 10 || line.parse::<u64>() != Ok(seq) {
                    return Err(format!("echo {seq}: got {:?}", clip(&line)));
                }
                tally.completed += 1;
                if win.counts(sent, now) {
                    tally.count(
                        &win,
                        now,
                        us(now - sent),
                        sent_bytes + line.len() as u64 + 1,
                    );
                }
            }
            if now < win.until {
                l.top_up(tally, rec)?;
            }
        }
    }
}

// -------------------------------------------------------------- interact

/// The Fig. 5 factoring proc: trial division, factors prepended, so the
/// result lists them largest first.
const FACTOR_TCL: &str = "proc factor {n} {
    set result {}
    for {set d 2} {$d <= $n} {incr d} {
        while {$n % $d == 0} {
            set result [linsert $result 0 $d]
            set n [expr {$n / $d}]
        }
    }
    return [join $result *]
}";

/// The callback: factor the number the client set, show it in the
/// result label and in one dashboard cell, and answer the client.
const GO_TCL: &str = "proc go {} {
    global n count
    incr count
    set r [factor $n]
    sV result label \"$count: $n = $r\"
    sV r[expr {$n % 6}]c[expr {$n / 6 % 4}] label \"n=$n\"
    echo \"f $count $n $r\"
}";

/// Rows and columns of the dashboard's label grid.
const ROWS: usize = 6;
const COLS: usize = 4;

/// The dashboard: 24 labels in a form, a command button whose callback
/// and key translation both run `go`, and a result label.
pub fn dashboard_script(rng: &mut Rng) -> Vec<String> {
    let mut lines = vec!["form grid topLevel".to_string()];
    for r in 0..ROWS {
        for c in 0..COLS {
            let mut l = format!(
                "label r{r}c{c} grid label {{{} {r}:{c}}} width 150 height 24",
                rng.word()
            );
            if c > 0 {
                l += &format!(" fromHoriz r{r}c{}", c - 1);
            }
            if r > 0 {
                l += &format!(" fromVert r{}c{c}", r - 1);
            }
            lines.push(l);
        }
    }
    lines.push(format!(
        "command go grid label Go width 60 height 24 fromVert r{}c0 callback go",
        ROWS - 1
    ));
    lines.push(format!(
        "label result grid label {{result pending}} width 400 height 24 fromVert r{}c0 fromHoriz go",
        ROWS - 1
    ));
    lines.push("action go override {<KeyPress>: exec(go)}".into());
    lines.push(FACTOR_TCL.replace('\n', ";").replace(";;", ";"));
    lines.push(GO_TCL.replace('\n', ";"));
    lines.push("set count 0".into());
    lines.push("realize".into());
    lines
}

/// Primes with a similar trial-division cost, so every callback does
/// about the same Tcl work whatever the seed.
fn cost_band_primes() -> Vec<u64> {
    (1009..1200u64)
        .filter(|&p| (2..p).take_while(|d| d * d <= p).all(|d| p % d != 0))
        .collect()
}

/// Prime factors, largest first, joined like the Tcl proc joins them.
pub fn factor_string(mut n: u64) -> String {
    let mut f = Vec::new();
    let mut d = 2;
    while d <= n {
        while n.is_multiple_of(d) {
            f.push(d);
            n /= d;
        }
        d += 1;
    }
    f.reverse();
    f.iter().map(u64::to_string).collect::<Vec<_>>().join("*")
}

/// The numbers factored: a cost-band prime times a small cofactor.
pub struct FactorInputs {
    primes: Vec<u64>,
}

impl FactorInputs {
    pub fn new() -> FactorInputs {
        FactorInputs {
            primes: cost_band_primes(),
        }
    }

    pub fn next(&self, rng: &mut Rng) -> u64 {
        const COFACTORS: [u64; 8] = [1, 2, 3, 4, 6, 8, 9, 12];
        let p = self.primes[rng.below(self.primes.len() as u64) as usize];
        p * COFACTORS[rng.below(COFACTORS.len() as u64) as usize]
    }
}

/// One user action: a click (press and release) at `(x, y)`, the
/// button's centre, or a key with the pointer resting there.
pub fn action_events(rng: &mut Rng, x: i32, y: i32) -> Vec<InputEvent> {
    if rng.below(2) == 0 {
        vec![
            InputEvent::Button {
                button: 1,
                press: true,
                x,
                y,
            },
            InputEvent::Button {
                button: 1,
                press: false,
                x,
                y,
            },
        ]
    } else {
        vec![InputEvent::Key {
            name: "Return".into(),
            modifiers: 0,
        }]
    }
}

/// Checks a `!display frame <hex>` line: hex, FNV-1a trailer, decode,
/// and a sequence number above the previous one. Returns the seq.
pub fn check_frame(line: &str, last_seq: u64) -> Result<u64, String> {
    let hex = line
        .strip_prefix("!display frame ")
        .ok_or_else(|| format!("not a frame: {:?}", clip(line)))?;
    let bytes = decode_hex(hex).ok_or("frame: bad hex")?;
    if bytes.len() < 8 {
        return Err("frame: too short".into());
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    let want = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if fnv1a(payload) != want {
        return Err("frame: FNV-1a trailer mismatch".into());
    }
    let frame = Frame::decode(&bytes).map_err(|e| format!("frame: {e:?}"))?;
    if frame.seq <= last_seq {
        return Err(format!("frame seq {} after {last_seq}", frame.seq));
    }
    Ok(frame.seq)
}

fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5u32, |h, &b| {
        (h ^ b as u32).wrapping_mul(0x0100_0193)
    })
}

fn decode_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digit = |c: u8| (c as char).to_digit(16).map(|d| d as u8);
    s.as_bytes()
        .chunks(2)
        .map(|p| Some(digit(p[0])? << 4 | digit(p[1])?))
        .collect()
}

/// The interact session: one connection with a display attached.
pub struct Interact {
    c: Client,
    rng: Rng,
    inputs: FactorInputs,
    count: u64,
    last_seq: u64,
    /// The button's centre.
    x: i32,
    y: i32,
}

impl Interact {
    /// Builds the dashboard, attaches the display, takes the first full
    /// frame and moves the pointer over the button.
    pub fn open(addr: SocketAddr, seed: u64, rec: &mut Rec) -> Result<Interact, String> {
        let mut rng = Rng::new(seed);
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut script = String::new();
        for l in dashboard_script(&mut rng) {
            script += &format!("%{l}\n");
        }
        script += "%display attach\n%echo geom [gV go x] [gV go y] [gV go width] [gV go height]\n";
        c.send(script.as_bytes(), rec)?;
        let geom = c.read_line(rec)?;
        let g: Vec<i32> = geom
            .strip_prefix("geom ")
            .map(|s| s.split(' ').filter_map(|w| w.parse().ok()).collect())
            .unwrap_or_default();
        if g.len() != 4 {
            return Err(format!("bad geometry reply {:?}", clip(&geom)));
        }
        let first = c.read_line(rec)?;
        let last_seq = check_frame(&first, 0)?;
        let (x, y) = (g[0] + g[2] / 2, g[1] + g[3] / 2);
        let motion = InputEvent::Motion { x, y };
        c.send(
            format!("%display event {}\n%echo over\n", to_hex(&motion.encode())).as_bytes(),
            rec,
        )?;
        let mut me = Interact {
            c,
            rng,
            inputs: FactorInputs::new(),
            count: 0,
            last_seq,
            x,
            y,
        };
        // A frame follows the lines of its turn, so a hover repaint comes
        // after `over` and the first action takes it; accept one before
        // `over` too, in case the lines were split across turns.
        loop {
            let l = me.c.read_line(rec)?;
            if l == "over" {
                break;
            }
            me.last_seq = check_frame(&l, me.last_seq)?;
        }
        Ok(me)
    }

    /// One action at a time until `win.until`. Latency: from writing the
    /// action to the last byte of the first frame after its reply.
    pub fn run(&mut self, win: Window, rec: &mut Rec, tally: &mut Tally) -> Result<(), String> {
        while Instant::now() < win.until {
            let n = self.inputs.next(&mut self.rng);
            self.count += 1;
            let mut req = format!("%set n {n}\n");
            for ev in action_events(&mut self.rng, self.x, self.y) {
                req += &format!("%display event {}\n", to_hex(&ev.encode()));
            }
            let want = format!("f {} {n} {}", self.count, factor_string(n));
            tally.attempted += 1;
            let start = Instant::now();
            self.c.send(req.as_bytes(), rec)?;
            let mut bytes = req.len() as u64;
            let mut replied = false;
            loop {
                let l = self.c.read_line(rec)?;
                bytes += l.len() as u64 + 1;
                if l.starts_with("!display frame ") {
                    self.last_seq = check_frame(&l, self.last_seq)?;
                    if replied {
                        break;
                    }
                } else if l == want && !replied {
                    replied = true;
                } else {
                    return Err(format!("expected {want:?}, got {:?}", clip(&l)));
                }
            }
            let end = Instant::now();
            tally.completed += 1;
            if win.counts(start, end) {
                tally.count(&win, end, us(end - start), bytes);
            }
        }
        Ok(())
    }
}

// ----------------------------------------------------------------- churn

/// Labels in the churn form; with the form, a command, a toggle and a
/// status label the session holds 13 widgets.
const CHURN_LABELS: usize = 9;

/// The churn form: built, realized and acknowledged with `built <k>`.
pub fn churn_form(rng: &mut Rng) -> Vec<String> {
    let mut lines = vec!["form f topLevel".to_string()];
    for i in 0..CHURN_LABELS {
        let mut l = format!("label l{i} f label {{{}}} width 120", rng.word());
        if i > 0 {
            l += &format!(" fromVert l{}", i - 1);
        }
        lines.push(l);
    }
    let last = CHURN_LABELS - 1;
    lines.push(format!(
        "command ok f label OK fromVert l{last} callback {{echo ok}}"
    ));
    lines.push(format!(
        "toggle tg f label Toggle fromVert l{last} fromHoriz ok"
    ));
    lines.push("label status f label idle width 120 fromVert ok".into());
    lines.push("realize".into());
    lines
}

/// The updates made before park; the last sets the value checked after
/// restore.
pub fn churn_updates(rng: &mut Rng, value: &str) -> Vec<String> {
    let mut lines: Vec<String> = (0..2)
        .map(|_| {
            format!(
                "sV l{} label {{{}}}",
                rng.below(CHURN_LABELS as u64),
                rng.word()
            )
        })
        .collect();
    lines.push(format!("sV status label {value}"));
    lines
}

enum Phase {
    Idle,
    Open,
    Park,
    Restore { restored: bool, replayed: bool },
}

/// One lifecycle lane: at most one connection open at a time.
pub struct ChurnLane {
    addr: SocketAddr,
    rng: Rng,
    c: Option<Client>,
    phase: Phase,
    /// Lifecycles started on this lane; names the `built`/`pending` acks.
    k: u64,
    lane: u64,
    value: String,
    id: String,
    started: Instant,
    t_open: Instant,
    t_restore: Instant,
    open_us: f64,
    restore_us: f64,
    bytes: u64,
    replayed_early: bool,
}

impl ChurnLane {
    pub fn new(addr: SocketAddr, seed: u64, lane: u64) -> ChurnLane {
        let now = Instant::now();
        ChurnLane {
            addr,
            rng: Rng::new(seed),
            c: None,
            phase: Phase::Idle,
            k: 0,
            lane,
            value: String::new(),
            id: String::new(),
            started: now,
            t_open: now,
            t_restore: now,
            open_us: 0.0,
            restore_us: 0.0,
            bytes: 0,
            replayed_early: false,
        }
    }

    fn send(&mut self, s: &str, rec: &mut Rec) -> Result<(), String> {
        self.bytes += s.len() as u64;
        self.c
            .as_mut()
            .expect("lane is connected")
            .send(s.as_bytes(), rec)
    }

    fn start(&mut self, tally: &mut Tally, rec: &mut Rec) -> Result<(), String> {
        self.k += 1;
        tally.attempted += 1;
        self.started = Instant::now();
        self.t_open = self.started;
        self.bytes = 0;
        self.replayed_early = false;
        self.c = Some(Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?);
        let mut s = String::new();
        for l in churn_form(&mut self.rng) {
            s += &format!("%{l}\n");
        }
        s += &format!("%echo built {}.{}\n", self.lane, self.k);
        self.send(&s, rec)?;
        self.phase = Phase::Open;
        Ok(())
    }

    /// Handles one reply line; returns true when the lifecycle finished.
    fn on_line(&mut self, line: &str, rec: &mut Rec) -> Result<bool, String> {
        self.bytes += line.len() as u64 + 1;
        let pending = format!("pending {}.{}", self.lane, self.k);
        match &mut self.phase {
            Phase::Open if line == format!("built {}.{}", self.lane, self.k) => {
                self.open_us = us(self.t_open.elapsed());
                self.value = format!("v{:x}", self.rng.next_u64() >> 16);
                let mut s = String::new();
                for l in churn_updates(&mut self.rng, &self.value.clone()) {
                    s += &format!("%{l}\n");
                }
                s += &format!("%echo {pending}\n%session park\n");
                self.send(&s, rec)?;
                self.phase = Phase::Park;
                Ok(false)
            }
            Phase::Park if line == pending => {
                // The echo ran in an earlier quantum than the park and was
                // delivered directly instead of riding the snapshot.
                self.replayed_early = true;
                Ok(false)
            }
            Phase::Park if line.starts_with("!parked ") => {
                self.id = line["!parked ".len()..].to_string();
                self.c = None;
                self.t_restore = Instant::now();
                self.c = Some(Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?);
                let s = format!(
                    "%session restore {}\n%echo check [gV status label]\n",
                    self.id
                );
                self.send(&s, rec)?;
                self.phase = Phase::Restore {
                    restored: false,
                    replayed: self.replayed_early,
                };
                Ok(false)
            }
            Phase::Restore { restored, replayed } => {
                if !*restored && line == format!("!restored {}", self.id) {
                    *restored = true;
                    if *replayed {
                        self.restore_us = us(self.t_restore.elapsed());
                    }
                    Ok(false)
                } else if *restored && !*replayed && line == pending {
                    *replayed = true;
                    self.restore_us = us(self.t_restore.elapsed());
                    Ok(false)
                } else if *restored && *replayed && line == format!("check {}", self.value) {
                    self.c = None;
                    self.phase = Phase::Idle;
                    Ok(true)
                } else {
                    Err(format!(
                        "restore of {}: unexpected {:?}",
                        self.id,
                        clip(line)
                    ))
                }
            }
            _ => Err(format!(
                "churn lane {}: unexpected {:?}",
                self.lane,
                clip(line)
            )),
        }
    }

    pub fn busy(&self) -> bool {
        !matches!(self.phase, Phase::Idle)
    }
}

/// Runs the lifecycle lanes until `win.until`, then lets the started
/// lifecycles finish. Latency: connect-to-`built` plus
/// connect-to-replayed-`pending`, the two handshakes a lifecycle waits
/// on.
pub fn run_churn(
    lanes: &mut [ChurnLane],
    win: Window,
    rec: &mut Rec,
    tally: &mut Tally,
) -> Result<(), String> {
    for l in lanes.iter_mut() {
        l.start(tally, rec)?;
    }
    loop {
        let busy: Vec<usize> = (0..lanes.len()).filter(|&i| lanes[i].busy()).collect();
        if busy.is_empty() {
            return Ok(());
        }
        let fds: Vec<RawFd> = busy
            .iter()
            .map(|&i| lanes[i].c.as_ref().expect("busy lanes are connected").fd())
            .collect();
        let ready = wait_any(&fds, rec)?;
        for (&i, r) in busy.iter().zip(ready) {
            if !r {
                continue;
            }
            let lane = &mut lanes[i];
            lane.c.as_mut().expect("busy").read_some(rec)?;
            while let Some(line) = lane.c.as_mut().and_then(Client::line) {
                if !lane.on_line(&line, rec)? {
                    continue;
                }
                let now = Instant::now();
                tally.completed += 1;
                if win.counts(lane.started, now) {
                    tally.count(&win, now, lane.open_us + lane.restore_us, lane.bytes);
                }
                if now < win.until {
                    lane.start(tally, rec)?;
                }
                break;
            }
        }
    }
}

/// Opens `n` sessions holding the churn form and waits until each is
/// built (the per-session memory probe of the churn set-up).
pub fn open_churn_sessions(
    addr: SocketAddr,
    n: usize,
    seed: u64,
    rec: &mut Rec,
) -> Result<Vec<Client>, String> {
    let mut rng = Rng::new(seed ^ 0x5e55);
    let mut out = Vec::new();
    for i in 0..n {
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut s = String::new();
        for l in churn_form(&mut rng) {
            s += &format!("%{l}\n");
        }
        s += &format!("%echo built {i}\n");
        c.send(s.as_bytes(), rec)?;
        out.push(c);
    }
    for (i, c) in out.iter_mut().enumerate() {
        c.expect(&format!("built {i}"), rec)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_string_matches_the_tcl_order() {
        assert_eq!(factor_string(12 * 1009), "1009*3*2*2");
        assert_eq!(factor_string(1013), "1013");
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        let f = FactorInputs::new();
        let a: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(7);
                move |_| f.next(&mut r)
            })
            .collect();
        let f = FactorInputs::new();
        let mut r = Rng::new(7);
        let b: Vec<u64> = (0..5).map(|_| f.next(&mut r)).collect();
        assert_eq!(a, b);
        assert!(a
            .iter()
            .all(|n| factor_string(*n).starts_with(|c: char| c.is_ascii_digit())));
    }

    #[test]
    fn hex_and_checksum_agree_with_the_codec() {
        let bytes = InputEvent::Motion { x: 3, y: 4 }.encode();
        assert_eq!(decode_hex(&to_hex(&bytes)).unwrap(), bytes);
        let (payload, trailer) = bytes.split_at(bytes.len() - 4);
        assert_eq!(fnv1a(payload).to_be_bytes(), trailer);
    }
}
