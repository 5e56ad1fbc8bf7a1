//! `debug` and `timetravel`: one hosted controller fielding a
//! conditional breakpoint on `/bin/cruncher`'s `tick` through the local
//! flat `/proc`, interleaved with truss-style tracing of every system
//! call entry and exit of a `/bin/burst`.
//!
//! Every fielding is the debugger's dance: `PIOCSTATUS`, lift the
//! breakpoint, single-step, replant, run, wait for the next stop at
//! `tick`. Each `ProcHandle` call gets a `tools.*` span (request
//! encoding and reply decoding) around the `procfs.*` span of the
//! request itself. The seeded condition on `a0` decides which fieldings are
//! reported (one more `PIOCGREG` and a memory read); most are not.
//!
//! `timetravel` runs the same loop on a recording machine until the
//! kernel event log has reached its cap and a few snapshots have been
//! taken with a full log, then jumps with `procfs::goto_tick` to seeded
//! earlier positions anywhere in the recording; each landing must show
//! the clock and registers captured live at that position. Its recorded
//! schedule is the same for every seed ([`RECORDED_SCHEDULE`]); the seed
//! chooses the jump targets. Which snapshots `goto_tick` can resume from
//! depends on the schedule, and with a seeded schedule the share of
//! jumps that fall back to a full rebuild (and with it the p90) moved by
//! a third from seed to seed.

use crate::common::{
    self, call, check, exec_layers, guest_insns, pct, ratio, time_s, xstats_sum, Phase, Rng,
    Samples,
};
use crate::trace::{self, Acct, Face, Traced};
use crate::{Args, Loop};
use isa::{GregSet, REG_A0};
use ksim::fault::FltSet;
use ksim::ptrace::{decode_status, WaitStatus};
use ksim::{Cred, Errno, Fault, Pid, SimConfig, SysResult, SysSet, System};
use procfs::{PrRun, PrStatus, PrWhy, PRRUN_CFAULT, PRRUN_STEP, PR_ISTOP};
use std::time::Instant;
use tools::ProcHandle;

const GETPID: u16 = 20;
const EXIT: u16 = 1;
/// `getpid` calls one `/bin/burst` makes before it exits.
const BURST_CALLS: u64 = 1000;
/// Fieldings and traced call pairs made however fast the host is.
const MIN_FIELDINGS: u64 = 2000;
/// Records between recorder snapshots on the `timetravel` machine.
const SNAPSHOT_EVERY: usize = 4096;
/// Snapshots taken after the event log is full, before the jumps.
const FULL_LOG_SNAPSHOTS: usize = 4;
/// The seed of `timetravel`'s recorded schedule.
const RECORDED_SCHEDULE: u64 = 0;
/// Jumps made however fast the host is (p90 then has ten beyond it).
const MIN_GOTOS: u64 = 100;

struct Burst {
    h: ProcHandle,
    calls: u64,
}

/// A live position `goto_tick` must reproduce.
struct Mark {
    pos: usize,
    clock: u64,
    regs: GregSet,
}

struct Dbg {
    sys: System,
    ctl: Pid,
    cr: ProcHandle,
    tick: u64,
    saved: [u8; 8],
    a0: u64,
    /// Reported when `a0 % modulus == residue`.
    modulus: u64,
    residue: u64,
    burst: Burst,
    rng: Rng,
    fieldings: u64,
    reported: u64,
    pairs: u64,
    bursts: u64,
    bp_ns: Samples,
    pair_ns: Samples,
    marks: Vec<Mark>,
    errors: Vec<String>,
}

fn local<'a>(sys: &'a mut System, acct: &'a mut Acct) -> Traced<'a> {
    Traced {
        sys,
        acct,
        face: Face::Local,
    }
}

fn start_burst(sys: &mut System, acct: &mut Acct, ctl: Pid) -> SysResult<Burst> {
    let pid = call(acct, "ksim.spawn_program", || {
        sys.spawn_program(ctl, "/bin/burst", &["burst"])
    })?;
    let t = &mut local(sys, acct);
    let mut h = ProcHandle::open_rw(t, ctl, pid)?;
    h.stop(t)?;
    h.set_entry_trace(t, SysSet::full())?;
    h.set_exit_trace(t, SysSet::full())?;
    h.resume(t)?;
    Ok(Burst { h, calls: 0 })
}

impl Dbg {
    fn boot(cfg: SimConfig, seed: u64, acct: &mut Acct) -> SysResult<Dbg> {
        let mut sys = tools::boot_demo_cfg(cfg);
        let ctl = sys.spawn_hosted("dbg-ctl", Cred::new(100, 10));
        let mut rng = Rng::new(seed, 2);
        let modulus = rng.range(4, 16);
        let residue = rng.range(0, modulus - 1);
        let pid = call(acct, "ksim.spawn_program", || {
            sys.spawn_program(ctl, "/bin/cruncher", &["cruncher"])
        })?;
        let t = &mut local(&mut sys, acct);
        let mut cr = ProcHandle::open_rw(t, ctl, pid)?;
        cr.stop(t)?;
        let mut flt = FltSet::empty();
        flt.add(Fault::Bpt.number());
        flt.add(Fault::Trace.number());
        cr.set_flt_trace(t, flt)?;
        let tick = cr.read_aout(t)?.sym("tick").ok_or(Errno::ENOENT)?;
        let mut saved = [0u8; 8];
        cr.read_mem(t, tick, &mut saved)?;
        cr.write_mem(t, tick, &isa::insn::breakpoint_bytes())?;
        cr.run(
            t,
            PrRun {
                flags: PRRUN_CFAULT,
                vaddr: 0,
            },
        )?;
        let st = cr.wstop(t)?;
        let burst = start_burst(&mut sys, acct, ctl)?;
        let mut d = Dbg {
            sys,
            ctl,
            cr,
            tick,
            saved,
            a0: st.reg.arg(0),
            modulus,
            residue,
            burst,
            rng,
            fieldings: 0,
            reported: 0,
            pairs: 0,
            bursts: 0,
            bp_ns: Samples::default(),
            pair_ns: Samples::default(),
            marks: Vec::new(),
            errors: Vec::new(),
        };
        d.check_at_tick(&st);
        Ok(d)
    }

    fn check_at_tick(&mut self, st: &PrStatus) {
        let ok = st.why == PrWhy::Faulted
            && st.what == Fault::Bpt.number() as u16
            && st.reg.pc == self.tick;
        check(&mut self.errors, ok, || {
            format!(
                "stop {:?}/{} at {:#x}, not at tick",
                st.why, st.what, st.reg.pc
            )
        });
    }

    /// One fielding: from the stop at `tick` to the next stop there.
    fn field(&mut self, acct: &mut Acct) -> SysResult<()> {
        let t0 = Instant::now();
        let (tick, saved) = (self.tick, self.saved);
        let t = &mut local(&mut self.sys, acct);
        let cr = &mut self.cr;
        let st = trace::span("tools.status", || cr.status(t))?;
        let at_tick = st.flags & PR_ISTOP != 0 && st.reg.pc == tick;
        trace::span("procfs.write_mem", || cr.write_mem(t, tick, &saved))?;
        trace::span("tools.run", || {
            cr.run(
                t,
                PrRun {
                    flags: PRRUN_STEP | PRRUN_CFAULT,
                    vaddr: 0,
                },
            )
        })?;
        let stepped = trace::span("tools.wstop", || cr.wstop(t))?;
        trace::span("procfs.write_mem", || {
            cr.write_mem(t, tick, &isa::insn::breakpoint_bytes())
        })?;
        trace::span("tools.run", || {
            cr.run(
                t,
                PrRun {
                    flags: PRRUN_CFAULT,
                    vaddr: 0,
                },
            )
        })?;
        let st2 = trace::span("tools.wstop", || cr.wstop(t))?;
        let a0 = st2.reg.arg(0);
        if a0 % self.modulus == self.residue {
            let regs = trace::span("tools.gregs", || cr.gregs(t))?;
            let mut word = [0u8; 8];
            trace::span("procfs.read_mem", || cr.read_mem(t, tick, &mut word))?;
            self.reported += 1;
            check(
                &mut self.errors,
                regs.r[REG_A0] == a0 && word == isa::insn::breakpoint_bytes(),
                || {
                    format!(
                        "reported hit a0={a0}: PIOCGREG a0={} text {word:?}",
                        regs.r[REG_A0]
                    )
                },
            );
        }
        self.bp_ns.push(t0.elapsed().as_nanos() as u64);
        self.fieldings += 1;
        check(&mut self.errors, at_tick, || {
            format!("fielding began at {:#x}, not at tick", st.reg.pc)
        });
        check(
            &mut self.errors,
            stepped.why == PrWhy::Faulted && stepped.what == Fault::Trace.number() as u16,
            || {
                format!(
                    "single-step stopped with {:?}/{}",
                    stepped.why, stepped.what
                )
            },
        );
        check(&mut self.errors, a0 == self.a0 + 1, || {
            format!("a0 went from {} to {a0}", self.a0)
        });
        self.check_at_tick(&st2);
        self.a0 = a0;
        if let Some(r) = self.sys.kernel.recorder.as_ref() {
            if self.rng.range(0, 7) == 0 {
                self.marks.push(Mark {
                    pos: r.records.len(),
                    clock: self.sys.kernel.clock,
                    regs: st2.reg,
                });
            }
        }
        Ok(())
    }

    /// One traced `getpid` (entry and exit stops), or the burst's final
    /// `exit`, after which it is reaped and the next burst started.
    fn traced_call(&mut self, acct: &mut Acct) -> SysResult<()> {
        let t0 = Instant::now();
        let t = &mut local(&mut self.sys, acct);
        let b = &mut self.burst;
        let entry = trace::span("tools.wstop", || b.h.wstop(t))?;
        if entry.why == PrWhy::SyscallEntry && entry.what == EXIT {
            check(&mut self.errors, b.calls == BURST_CALLS, || {
                format!("burst exited after {} calls", b.calls)
            });
            b.h.resume(t)?;
            return self.next_burst(acct);
        }
        trace::span("tools.run", || b.h.resume(t))?;
        let exit = trace::span("tools.wstop", || b.h.wstop(t))?;
        trace::span("tools.run", || b.h.resume(t))?;
        self.pair_ns.push(t0.elapsed().as_nanos() as u64);
        b.calls += 1;
        self.pairs += 1;
        let ok = (entry.why, entry.what, exit.why, exit.what)
            == (PrWhy::SyscallEntry, GETPID, PrWhy::SyscallExit, GETPID);
        check(&mut self.errors, ok, || {
            format!(
                "call {} traced as {:?}/{} then {:?}/{}",
                b.calls, entry.why, entry.what, exit.why, exit.what
            )
        });
        Ok(())
    }

    fn next_burst(&mut self, acct: &mut Acct) -> SysResult<()> {
        let pid = self.burst.h.pid;
        let (ctl, sys) = (self.ctl, &mut self.sys);
        let (wpid, status) = call(acct, "ksim.host_wait", || sys.host_wait(ctl))?;
        let h = std::mem::replace(&mut self.burst, start_burst(sys, acct, ctl)?).h;
        h.close(&mut local(sys, acct))?;
        check(
            &mut self.errors,
            wpid == pid && decode_status(status) == WaitStatus::Exited(0),
            || {
                format!(
                    "waited for burst {}: got {} {:?}",
                    pid.0,
                    wpid.0,
                    decode_status(status)
                )
            },
        );
        // The reaped burst has left /proc; its successor is listed.
        let listed = call(acct, "procfs.readdir", || sys.list_dir(ctl, "/proc"))?;
        let has = |p: Pid| listed.iter().any(|e| e.name.parse::<u32>() == Ok(p.0));
        check(&mut self.errors, !has(pid) && has(self.burst.h.pid), || {
            format!("/proc listing after burst {}", pid.0)
        });
        self.bursts += 1;
        Ok(())
    }

    /// One round: a seeded run of fieldings, then of traced calls.
    fn round(&mut self, acct: &mut Acct) -> SysResult<()> {
        let fieldings = self.rng.range(8, 32);
        let calls = self.rng.range(8, 64);
        self.fixed_round(acct, fieldings, calls)
    }

    fn fixed_round(&mut self, acct: &mut Acct, fieldings: u64, calls: u64) -> SysResult<()> {
        for _ in 0..fieldings {
            self.field(acct)?;
        }
        for _ in 0..calls {
            self.traced_call(acct)?;
        }
        Ok(())
    }

    fn cache_stats(&mut self, acct: &mut Acct) -> SysResult<procfs::PrCacheStats> {
        self.cr.cache_stats(&mut local(&mut self.sys, acct))
    }
}

pub struct DbgLoop {
    d: Dbg,
    seed: u64,
    timetravel: bool,
    f0: u64,
    reported0: u64,
    cache0: SysResult<procfs::PrCacheStats>,
    x0: procfs::PrXStats,
    rec0: Option<(usize, ksim::RecStats)>,
    /// `timetravel`: the record index at which the event log filled.
    full_at: Option<usize>,
    recorded: bool,
    /// Chooses the jump targets.
    targets: Rng,
    goto_ns: Vec<u64>,
    replayed: u64,
    rebuilds: u64,
}

/// Set-up: boot, attach to cruncher and plant the breakpoint, start the
/// first burst, run one round of the mean size. A seeded round made the
/// set-up time depend on the seed.
fn build(seed: u64, timetravel: bool) -> (SysResult<Dbg>, Acct) {
    let cfg = if timetravel {
        SimConfig::standard()
            .record(true)
            .snapshot_every(SNAPSHOT_EVERY)
    } else {
        SimConfig::standard()
    };
    let schedule = if timetravel { RECORDED_SCHEDULE } else { seed };
    let mut acct = Acct::default();
    let d = Dbg::boot(cfg, schedule, &mut acct)
        .and_then(|mut d| d.fixed_round(&mut acct, 20, 36).map(|()| d));
    (d, acct)
}

pub fn setup(args: &Args, p: &mut Phase, timetravel: bool) -> Option<Box<dyn Loop>> {
    p.name = if timetravel { "timetravel" } else { "debug" };
    let ((built, acct), secs) = time_s(|| build(args.seed, timetravel));
    p.setups.push(secs);
    p.acct = acct;
    let mut d = match built {
        Ok(d) => d,
        Err(e) => {
            p.check(false, || format!("set-up failed: {e:?}"));
            return None;
        }
    };
    d.bp_ns = Samples::default();
    d.pair_ns = Samples::default();
    d.marks.clear();
    Some(Box::new(DbgLoop {
        f0: d.fieldings,
        reported0: d.reported,
        cache0: d.cache_stats(&mut Acct::default()),
        x0: xstats_sum(&d.sys),
        rec0: d
            .sys
            .kernel
            .recorder
            .as_ref()
            .map(|r| (r.records.len(), r.stats)),
        seed: args.seed,
        d,
        timetravel,
        full_at: None,
        recorded: false,
        targets: Rng::new(args.seed, 4),
        goto_ns: Vec::new(),
        replayed: 0,
        rebuilds: 0,
    }))
}

impl DbgLoop {
    /// `timetravel`'s recording, for up to `seconds` (in the last
    /// segment, to the end): rounds until the event log is full and
    /// snapshots have been taken with a full log. Returns the seconds it
    /// ran.
    fn record(&mut self, p: &mut Phase, seconds: f64, last: bool) -> SysResult<f64> {
        let t0 = Instant::now();
        while !self.recorded && (last || t0.elapsed().as_secs_f64() < seconds) {
            self.d.round(&mut p.acct)?;
            let log = &self.d.sys.kernel.log;
            let records = self
                .d
                .sys
                .kernel
                .recorder
                .as_ref()
                .map_or(0, |r| r.records.len());
            match self.full_at {
                None if log.dropped > 0 => self.full_at = Some(records),
                Some(at) if records >= at + FULL_LOG_SNAPSHOTS * SNAPSHOT_EVERY => {
                    self.recorded = true
                }
                _ => {}
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    /// One `goto_tick` to a seeded earlier position, checked against
    /// what was captured live there.
    fn jump(&mut self, p: &mut Phase) {
        let d = &mut self.d;
        let i = self.targets.range(0, d.marks.len() as u64 - 1) as usize;
        let mark = &d.marks[i];
        let t = Instant::now();
        let landed = trace::span("procfs.goto_tick", || procfs::goto_tick(&d.sys, mark.pos));
        self.goto_ns.push(t.elapsed().as_nanos() as u64);
        p.acct.attempted += 1;
        let Ok(sys) = landed else {
            p.acct.failed += 1;
            return;
        };
        let regs = PrStatus::capture(&sys.kernel, d.cr.pid, None).map(|s| s.reg);
        check(
            &mut d.errors,
            sys.kernel.clock == mark.clock && regs.as_ref() == Ok(&mark.regs),
            || {
                format!(
                    "goto {} landed at clock {} (want {})",
                    mark.pos, sys.kernel.clock, mark.clock
                )
            },
        );
        if let Some(r) = sys.kernel.recorder.as_ref() {
            self.replayed += r.stats.replays;
            self.rebuilds += u64::from(r.stats.restores == 0);
        }
    }
}

impl Loop for DbgLoop {
    fn set_up_again(&self) -> f64 {
        time_s(|| build(self.seed, self.timetravel)).1
    }

    fn segment(&mut self, p: &mut Phase, seconds: f64, left: u64) -> SysResult<()> {
        let t0 = Instant::now();
        let insns0 = guest_insns(&self.d.sys);
        // Guests run only while the controller fields and traces; the
        // jumps run none on the live machine.
        let guest_s = if self.timetravel {
            // The recording comes first; the jumps fill the rest of the
            // window.
            let secs = self.record(p, seconds, left == 1)?;
            let need = common::share(MIN_GOTOS.saturating_sub(self.goto_ns.len() as u64), left);
            let gotos0 = self.goto_ns.len() as u64;
            while self.recorded
                && (t0.elapsed().as_secs_f64() < seconds
                    || (self.goto_ns.len() as u64) - gotos0 < need)
            {
                self.jump(p);
            }
            secs
        } else {
            let f0 = self.d.fieldings;
            let need = common::share(MIN_FIELDINGS.saturating_sub(f0 - self.f0), left);
            while t0.elapsed().as_secs_f64() < seconds || self.d.fieldings - f0 < need {
                self.d.round(&mut p.acct)?;
            }
            t0.elapsed().as_secs_f64()
        };
        let seg = &mut p.segments;
        let insns = guest_insns(&self.d.sys) - insns0;
        if insns > 0 {
            seg.add("guest_insns_per_s", insns as f64 / guest_s);
        }
        seg.add_samples(
            self.d.bp_ns.end_segment(),
            ["bp_per_s", "bp_p50_us", "bp_p90_us", "bp_p99_us"],
        );
        seg.add_samples(
            self.d.pair_ns.end_segment(),
            ["traced_syscalls_per_s", "", "", ""],
        );
        Ok(())
    }

    fn report(mut self: Box<Self>, p: &mut Phase, spans: Option<&trace::Summary>) {
        let d = &mut self.d;
        let fieldings = d.fieldings - self.f0;
        p.headline = d.bp_ns.rate();
        if self.timetravel {
            // Too few jumps per segment for per-segment figures: these
            // pool the whole window.
            let total_ns: u64 = self.goto_ns.iter().sum();
            p.e2e.push((
                "gotos_per_s",
                ratio(self.goto_ns.len() as f64 * 1e9, total_ns as f64),
            ));
            p.e2e.push(("goto_p50_us", pct(&self.goto_ns, 0.5) / 1e3));
            p.e2e.push(("goto_p90_us", pct(&self.goto_ns, 0.9) / 1e3));
        }
        let reported = d.reported - self.reported0;
        p.check(reported > 0 && reported < fieldings, || {
            format!("{reported} of {fieldings} fieldings reported")
        });
        p.check(d.bursts > 0, || {
            "no burst was traced to its exit".to_string()
        });
        for e in std::mem::take(&mut d.errors) {
            p.check(false, || e);
        }

        let Some(s) = spans else { return };
        let x = xstats_sum(&d.sys);
        exec_layers(p, &x);
        let bumps = x.page_epoch_bumps.saturating_sub(self.x0.page_epoch_bumps);
        p.layer.push((
            "vm.page_epoch_bumps_per_bp",
            ratio(bumps as f64, fieldings as f64),
        ));
        if let (Ok(c0), Ok(c1)) = (self.cache0, d.cache_stats(&mut Acct::default())) {
            let (hits, misses) = (c1.hits - c0.hits, c1.misses - c0.misses);
            p.layer.push((
                "procfs.snap_hit_rate",
                ratio(hits as f64, (hits + misses) as f64),
            ));
            p.layer.push((
                "procfs.snap_invalidations",
                (c1.invalidations - c0.invalidations) as f64,
            ));
        }
        if let (Some(r), Some((len0, st0))) = (d.sys.kernel.recorder.as_ref(), self.rec0) {
            let bp = fieldings as f64;
            let gotos = self.goto_ns.len() as f64;
            p.layer.push((
                "record.records_per_bp",
                (r.records.len() - len0) as f64 / bp,
            ));
            p.layer.push((
                "record.snapshots_per_kbp",
                (r.stats.snapshots - st0.snapshots) as f64 * 1e3 / bp,
            ));
            p.layer.push((
                "record.bytes_per_bp",
                (r.stats.bytes_logged - st0.bytes_logged) as f64 / bp,
            ));
            p.layer.push((
                "record.goto_records_replayed",
                ratio(self.replayed as f64, gotos),
            ));
            p.layer.push((
                "record.goto_rebuild_rate",
                ratio(self.rebuilds as f64, gotos),
            ));
        }
        p.span_layers(s);
    }
}
