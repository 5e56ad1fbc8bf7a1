//! Spans the benchmark records around its own calls into the program.
//!
//! Tracing is off unless the run asks for it (`--trace 1`); a disabled
//! [`span`] is one thread-local flag test around the call. When on,
//! every span is timed, its self time (duration minus the part of its
//! interval covered by child spans) is accumulated per name, and the
//! first [`KEEP`] spans are kept whole (name, start, end, parent) to be
//! written out when the phase ends. Later spans still count toward the
//! per-name figures; only their individual records are dropped, and the
//! drop count is reported.
//!
//! [`Traced`] is the benchmark's own [`ProcTransport`]: every `/proc`
//! request a [`tools::ProcHandle`] makes through it gets its own span,
//! named after the face (`procfs` for the local mount, `wire` for the
//! remote one) and the request.

use crate::common::Reservoir;
use ksim::{Pid, SysResult, System};
use procfs::ioctl::{PIOCGREG, PIOCPSINFO, PIOCRUN, PIOCSTATUS, PIOCSTOP, PIOCWSTOP};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;
use tools::proc_io::ProcTransport;
use vfs::{OFlags, PollStatus};

/// Whole span records kept per phase.
pub const KEEP: usize = 50_000;

/// One finished span. `parent` indexes the kept spans; `u32::MAX` marks
/// a root or a parent that was not kept.
#[derive(Clone, Copy)]
struct Span {
    name: u16,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    name: u16,
    kept: u32,
    start_ns: u64,
    child_ns: u64,
}

/// Per-name aggregate: durations (summed, and a reservoir for
/// percentiles) and the summed self time.
#[derive(Default)]
pub struct Agg {
    pub durs: Reservoir,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    aggs: Vec<Agg>,
    spans: Vec<Span>,
    dropped: u64,
    stack: Vec<Open>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        names: Vec::new(),
        aggs: Vec::new(),
        spans: Vec::new(),
        dropped: 0,
        stack: Vec::new(),
    });
}

/// Switches span recording on or off for this thread.
pub fn set_on(on: bool) {
    ON.with(|c| c.set(on));
}

fn on() -> bool {
    ON.with(|c| c.get())
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        // Each call site passes the same literal, so comparing addresses
        // almost always finds it.
        let found = self.names.iter().position(|n| std::ptr::eq(*n, name));
        if let Some(i) = found.or_else(|| self.names.iter().position(|n| *n == name)) {
            return i as u16;
        }
        self.names.push(name);
        self.aggs.push(Agg::default());
        (self.names.len() - 1) as u16
    }

    fn begin(&mut self, name: &'static str) {
        let name = self.name_id(name);
        let kept = if self.spans.len() < KEEP {
            let parent = self.stack.last().map_or(u32::MAX, |o| o.kept);
            self.spans.push(Span {
                name,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            u32::MAX
        };
        self.stack.push(Open {
            name,
            kept,
            start_ns: 0,
            child_ns: 0,
        });
        // Last, so that the bookkeeping above is outside the span.
        let start_ns = self.now_ns();
        if let Some(s) = self.spans.get_mut(kept as usize) {
            s.start_ns = start_ns;
        }
        if let Some(o) = self.stack.last_mut() {
            o.start_ns = start_ns;
        }
    }

    fn end(&mut self) {
        let end_ns = self.now_ns();
        let Some(o) = self.stack.pop() else { return };
        let dur = end_ns.saturating_sub(o.start_ns);
        if let Some(s) = self.spans.get_mut(o.kept as usize) {
            s.end_ns = end_ns;
        }
        let agg = &mut self.aggs[o.name as usize];
        agg.durs.push(dur);
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(o.child_ns);
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
        }
    }
}

/// Runs `f` inside a span named `name` (a plain call when tracing is
/// off).
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !on() {
        return f();
    }
    TRACER.with(|t| t.borrow_mut().begin(name));
    let r = f();
    TRACER.with(|t| t.borrow_mut().end());
    r
}

/// What one phase's spans add up to.
pub struct Summary {
    /// Per span name: durations and self time.
    pub aggs: BTreeMap<&'static str, Agg>,
    /// Span records not kept whole.
    pub dropped: u64,
}

impl Summary {
    /// Durations of the spans called `name`, if there were any.
    pub fn durs(&self, name: &str) -> Option<&Reservoir> {
        self.aggs.get(name).map(|a| &a.durs)
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.aggs.get(name).map_or(0, |a| a.total_ns)
    }

    /// Self time of every span called `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.aggs.get(name).map_or(0, |a| a.self_ns)
    }
}

/// Ends tracing for this phase: writes the kept spans to `out` (one
/// tab-separated line per span: index, name, start ns, end ns, parent
/// index or -1) and returns the per-name figures, leaving the tracer
/// empty.
pub fn finish(out: Option<&std::path::Path>) -> std::io::Result<Summary> {
    set_on(false);
    let t = TRACER.with(|t| {
        std::mem::replace(
            &mut *t.borrow_mut(),
            Tracer {
                epoch: Instant::now(),
                names: Vec::new(),
                aggs: Vec::new(),
                spans: Vec::new(),
                dropped: 0,
                stack: Vec::new(),
            },
        )
    });
    if let Some(path) = out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}",
                t.names[s.name as usize], s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
    }
    let aggs = t.names.into_iter().zip(t.aggs).collect();
    Ok(Summary {
        aggs,
        dropped: t.dropped,
    })
}

/// Operations counted for `error_rate`: every call into the program the
/// benchmark makes, and those that failed. A `/proc` open of a pid that
/// exited after it was listed is neither a success nor a failure for a
/// `ps`-style reader; it is counted as vanished.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acct {
    pub attempted: u64,
    pub failed: u64,
    pub vanished: u64,
}

impl Acct {
    /// Counts one call and passes its result through.
    pub fn count<T, E>(&mut self, r: Result<T, E>) -> Result<T, E> {
        self.attempted += 1;
        if r.is_err() {
            self.failed += 1;
        }
        r
    }

    /// Reclassifies the last counted failure as a vanished pid.
    pub fn vanished(&mut self) {
        self.failed -= 1;
        self.vanished += 1;
    }
}

/// Which `/proc` face a [`Traced`] adapter drives; it prefixes the span
/// names.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Face {
    Local,
    Remote,
}

macro_rules! face_name {
    ($face:expr, $op:literal) => {
        match $face {
            Face::Local => concat!("procfs.", $op),
            Face::Remote => concat!("wire.", $op),
        }
    };
}

fn ioctl_name(face: Face, req: u32) -> &'static str {
    match req {
        PIOCSTATUS => face_name!(face, "PIOCSTATUS"),
        PIOCRUN => face_name!(face, "PIOCRUN"),
        PIOCSTOP => face_name!(face, "PIOCSTOP"),
        PIOCWSTOP => face_name!(face, "PIOCWSTOP"),
        PIOCGREG => face_name!(face, "PIOCGREG"),
        PIOCPSINFO => face_name!(face, "PIOCPSINFO"),
        _ => face_name!(face, "ioctl"),
    }
}

/// The benchmark's `/proc` transport: forwards to [`System`]'s host
/// calls, spanning and counting each one.
pub struct Traced<'a> {
    pub sys: &'a mut System,
    pub acct: &'a mut Acct,
    pub face: Face,
}

impl Traced<'_> {
    fn call<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut System) -> SysResult<T>,
    ) -> SysResult<T> {
        let sys = &mut *self.sys;
        crate::common::call(self.acct, name, || f(sys))
    }
}

impl ProcTransport for Traced<'_> {
    fn pt_open(&mut self, ctl: Pid, path: &str, flags: OFlags) -> SysResult<usize> {
        self.call(face_name!(self.face, "open"), |s| {
            s.host_open(ctl, path, flags)
        })
    }
    fn pt_close(&mut self, ctl: Pid, fd: usize) -> SysResult<()> {
        self.call(face_name!(self.face, "close"), |s| s.host_close(ctl, fd))
    }
    fn pt_ioctl(&mut self, ctl: Pid, fd: usize, req: u32, arg: &[u8]) -> SysResult<Vec<u8>> {
        self.call(ioctl_name(self.face, req), |s| {
            s.host_ioctl(ctl, fd, req, arg)
        })
    }
    fn pt_lseek(&mut self, ctl: Pid, fd: usize, off: i64, whence: u32) -> SysResult<u64> {
        self.call(face_name!(self.face, "lseek"), |s| {
            s.host_lseek(ctl, fd, off, whence)
        })
    }
    fn pt_read(&mut self, ctl: Pid, fd: usize, buf: &mut [u8]) -> SysResult<usize> {
        self.call(face_name!(self.face, "read"), |s| s.host_read(ctl, fd, buf))
    }
    fn pt_write(&mut self, ctl: Pid, fd: usize, data: &[u8]) -> SysResult<usize> {
        self.call(face_name!(self.face, "write"), |s| {
            s.host_write(ctl, fd, data)
        })
    }
    fn pt_poll_fd(&mut self, ctl: Pid, fd: usize) -> SysResult<PollStatus> {
        self.call(face_name!(self.face, "poll"), |s| s.poll_fd(ctl, fd))
    }
    fn pt_poll(&mut self, ctl: Pid, fds: &[usize]) -> SysResult<Vec<PollStatus>> {
        self.call(face_name!(self.face, "poll"), |s| s.host_poll_in(ctl, fds))
    }
}
