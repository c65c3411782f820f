//! Timed intervals recorded around calls into the program, kept in
//! memory and reduced when the run ends.
//!
//! Client and server threads each keep their own [`Rec`]; both stamp
//! nanoseconds since one shared base instant, so their intervals can be
//! intersected afterwards to find which server work a waiting client was
//! blocked on.

use std::time::Instant;

/// What an interval covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The generator inside `write(2)`.
    ClientWrite,
    /// The generator blocked in `poll(2)` or inside `read(2)`.
    ClientWait,
    /// `EventLoop::attach` (session construction for a new connection).
    Attach,
    /// `EventLoop::poll_io`, non-blocking: the read sweep and framing.
    PollIo,
    /// `EventLoop::run_turn`: one scheduler sweep.
    RunTurn,
    /// `EventLoop::flush_and_reap`: replies into the sockets.
    Flush,
    /// A server-side socket `read(2)`, inside [`Kind::PollIo`].
    SockRead,
    /// A server-side socket `write(2)`, inside its parent call.
    SockWrite,
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    /// The call this interval is nested in, for socket calls.
    pub parent: Option<Kind>,
    pub start: u64,
    pub end: u64,
}

/// One thread's interval recorder plus its always-on I/O counters.
pub struct Rec {
    base: Instant,
    pub on: bool,
    pub spans: Vec<Span>,
    pub reads: u64,
    pub read_bytes: u64,
}

impl Rec {
    pub fn new(base: Instant) -> Rec {
        Rec {
            base,
            on: false,
            spans: Vec::new(),
            reads: 0,
            read_bytes: 0,
        }
    }

    /// Nanoseconds since the shared base.
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Closes an interval opened at `start` (a [`Rec::now`] reading).
    pub fn push(&mut self, kind: Kind, parent: Option<Kind>, start: u64) {
        if self.on {
            let end = self.now();
            self.spans.push(Span {
                kind,
                parent,
                start,
                end,
            });
        }
    }

    /// Total length of this recorder's intervals of one kind, in ns.
    pub fn total(&self, kind: Kind) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.end - s.start)
            .sum()
    }
}

/// How much of `span` lies inside the sorted, disjoint `windows`, in ns.
pub fn overlap(span: &Span, windows: &[Span]) -> u64 {
    let first = windows.partition_point(|w| w.end <= span.start);
    windows[first..]
        .iter()
        .take_while(|w| w.start < span.end)
        .map(|w| w.end.min(span.end).saturating_sub(w.start.max(span.start)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(start: u64, end: u64) -> Span {
        Span {
            kind: Kind::ClientWait,
            parent: None,
            start,
            end,
        }
    }

    #[test]
    fn overlap_counts_only_the_covered_part() {
        let waits = [sp(0, 10), sp(20, 30), sp(40, 50)];
        assert_eq!(overlap(&sp(5, 25), &waits), 5 + 5);
        assert_eq!(overlap(&sp(10, 20), &waits), 0);
        assert_eq!(overlap(&sp(0, 100), &waits), 30);
        assert_eq!(overlap(&sp(60, 70), &waits), 0);
    }
}
