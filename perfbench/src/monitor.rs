//! `monitor`: a `ps`-style reader of the remote `/proc` mount `/procr`
//! on a machine of about 32 processes, run on the default engine.
//!
//! Each pass is the paper's recipe over the wire: one readdir, then
//! open, `PIOCPSINFO` and close per pid. Between passes the machine
//! advances [`INTERVAL`] ticks; short-lived guests (`burst`, `forker`,
//! `piper`, chosen by the seed) that exited are reaped and replaced.
//! Each pass's pid list must equal the kernel's process table at that
//! instant, and each `fname` the program behind the pid. A pid that
//! exits between readdir and open is counted as vanished, as `ps`
//! skips it.

use crate::common::{
    self, call, check, exec_layers, guest_insns, ratio, run_until, time_s, xstats_sum, Phase, Rng,
    Samples,
};
use crate::trace::{self, Acct, Face, Traced};
use crate::{Args, Loop};
use ksim::ptrace::{decode_status, WaitStatus};
use ksim::{Cred, Errno, MountPlan, Pid, SimConfig, SysResult, System};
use std::collections::BTreeMap;
use std::time::Instant;
use tools::ProcHandle;
use vfs::remote::WireConfig;
use vfs::OFlags;

const MOUNT: &str = "/procr";
/// Simulated ticks between passes.
const INTERVAL: u64 = 20_000;
/// Passes made however fast the host is (p99 then has ten beyond it).
const MIN_PASSES: u64 = 1000;
const LONG_LIVED: [(&str, usize); 6] = [
    ("sleeper", 12),
    ("ticker", 3),
    ("sigloop", 3),
    ("cruncher", 2),
    ("spin", 2),
    ("watched", 2),
];
const CHURN: [&str; 3] = ["burst", "forker", "piper"];
const CHURN_SLOTS: usize = 8;

/// Exit code of each short-lived program.
fn exit_code(prog: &str) -> u8 {
    match prog {
        "piper" => 5,
        _ => 0,
    }
}

struct Mon {
    sys: System,
    root: Pid,
    spawner: Pid,
    /// The program behind each pid this loop spawned, and the names of
    /// the processes that existed at boot.
    names: BTreeMap<u32, String>,
    churn: Vec<Option<Pid>>,
    rng: Rng,
    passes: u64,
    psinfos: u64,
    pass_ns: Samples,
    errors: Vec<String>,
}

impl Mon {
    fn boot(seed: u64, acct: &mut Acct) -> SysResult<Mon> {
        let cfg = SimConfig::standard().mount(MOUNT, MountPlan::RemoteProc(WireConfig::clean()));
        let mut sys = tools::boot_demo_cfg(cfg);
        let root = sys.spawn_hosted("ps", Cred::superuser());
        let spawner = sys.spawn_hosted("spawner", Cred::new(100, 10));
        let names = sys
            .kernel
            .procs
            .values()
            .map(|p| (p.pid.0, p.fname.clone()))
            .collect();
        let mut m = Mon {
            sys,
            root,
            spawner,
            names,
            churn: vec![None; CHURN_SLOTS],
            rng: Rng::new(seed, 3),
            passes: 0,
            psinfos: 0,
            pass_ns: Samples::default(),
            errors: Vec::new(),
        };
        let mut long: Vec<&str> = LONG_LIVED
            .iter()
            .flat_map(|&(p, n)| std::iter::repeat_n(p, n))
            .collect();
        m.rng.shuffle(&mut long);
        for prog in long {
            m.spawn(acct, prog)?;
        }
        for slot in 0..CHURN_SLOTS {
            m.churn[slot] = Some(m.spawn_churn(acct)?);
        }
        Ok(m)
    }

    fn spawn(&mut self, acct: &mut Acct, prog: &str) -> SysResult<Pid> {
        let (sys, spawner, path) = (&mut self.sys, self.spawner, format!("/bin/{prog}"));
        let pid = call(acct, "ksim.spawn_program", || {
            sys.spawn_program(spawner, &path, &[prog])
        })?;
        self.names.insert(pid.0, prog.to_string());
        Ok(pid)
    }

    fn spawn_churn(&mut self, acct: &mut Acct) -> SysResult<Pid> {
        let prog = CHURN[self.rng.range(0, CHURN.len() as u64 - 1) as usize];
        self.spawn(acct, prog)
    }

    /// One `ps` pass over the remote mount.
    fn pass(&mut self, acct: &mut Acct) -> SysResult<()> {
        let t0 = Instant::now();
        let (sys, root) = (&mut self.sys, self.root);
        let listed = call(acct, "wire.readdir", || sys.list_dir(root, MOUNT))?;
        let live: Vec<u32> = sys.kernel.procs.keys().copied().collect();
        let pids: Vec<u32> = listed.iter().filter_map(|e| e.name.parse().ok()).collect();
        check(&mut self.errors, pids == live, || {
            format!("pass {}: listed {pids:?}, table {live:?}", self.passes)
        });
        let t = &mut Traced {
            sys,
            acct,
            face: Face::Remote,
        };
        for pid in pids {
            let opened = trace::span("tools.open", || {
                ProcHandle::open_at(t, root, Pid(pid), MOUNT, OFlags::rdonly())
            });
            let mut h = match opened {
                Ok(h) => h,
                Err(Errno::ENOENT | Errno::ESRCH) => {
                    t.acct.vanished();
                    continue;
                }
                Err(e) => return Err(e),
            };
            let info = trace::span("tools.psinfo", || h.psinfo(t));
            trace::span("tools.close", || h.close(t))?;
            let info = info?;
            self.psinfos += 1;
            // A fork child carries its parent's name.
            let want = self
                .names
                .get(&pid)
                .or_else(|| self.names.get(&info.ppid))
                .map(String::as_str);
            check(&mut self.errors, want == Some(info.fname.as_str()), || {
                format!("pid {pid} ps name {:?}, expected {want:?}", info.fname)
            });
        }
        self.pass_ns.push(t0.elapsed().as_nanos() as u64);
        self.passes += 1;
        Ok(())
    }

    /// Advances the machine, then reaps and replaces exited guests.
    fn advance(&mut self, acct: &mut Acct) -> SysResult<()> {
        let target = self.sys.kernel.clock + INTERVAL;
        run_until(&mut self.sys, |s| s.kernel.clock >= target);
        let spawner = self.spawner;
        let exited = self
            .sys
            .kernel
            .procs
            .values()
            .filter(|p| p.ppid == spawner && p.zombie)
            .count();
        for _ in 0..exited {
            let sys = &mut self.sys;
            let (pid, status) = call(acct, "ksim.host_wait", || sys.host_wait(spawner))?;
            let prog = self.names.remove(&pid.0).unwrap_or_default();
            let want = WaitStatus::Exited(exit_code(&prog));
            check(&mut self.errors, decode_status(status) == want, || {
                format!(
                    "{prog} pid {} ended with {:?}",
                    pid.0,
                    decode_status(status)
                )
            });
            let Some(slot) = self.churn.iter().position(|&p| p == Some(pid)) else {
                check(&mut self.errors, false, || {
                    format!("long-lived {prog} pid {} exited", pid.0)
                });
                continue;
            };
            self.churn[slot] = Some(self.spawn_churn(acct)?);
        }
        Ok(())
    }

    fn stats_handle<T>(
        &mut self,
        mount: &str,
        f: impl FnOnce(&mut Traced, &mut ProcHandle) -> SysResult<T>,
    ) -> SysResult<T> {
        let mut acct = Acct::default();
        let t = &mut Traced {
            sys: &mut self.sys,
            acct: &mut acct,
            face: Face::Local,
        };
        ProcHandle::scoped_at(t, self.root, Pid(1), mount, OFlags::rdonly(), f)
    }
}

pub struct MonLoop {
    m: Mon,
    seed: u64,
    passes0: u64,
    psinfo0: u64,
    cache0: SysResult<procfs::PrCacheStats>,
    wire0: SysResult<vfs::remote::WireStats>,
}

/// Set-up: boot, spawn the guests, one pass and one advance.
fn build(seed: u64) -> (SysResult<Mon>, Acct) {
    let mut acct = Acct::default();
    let m = Mon::boot(seed, &mut acct).and_then(|mut m| {
        m.pass(&mut acct)?;
        m.advance(&mut acct)?;
        Ok(m)
    });
    (m, acct)
}

pub fn setup(args: &Args, p: &mut Phase) -> Option<Box<dyn Loop>> {
    p.name = "monitor";
    let ((built, acct), secs) = time_s(|| build(args.seed));
    p.setups.push(secs);
    p.acct = acct;
    let mut m = match built {
        Ok(m) => m,
        Err(e) => {
            p.check(false, || format!("set-up failed: {e:?}"));
            return None;
        }
    };
    m.pass_ns = Samples::default();
    Some(Box::new(MonLoop {
        passes0: m.passes,
        psinfo0: m.psinfos,
        cache0: m.stats_handle("/proc", |t, h| h.cache_stats(t)),
        wire0: m.stats_handle(MOUNT, |t, h| h.wire_stats(t)),
        seed: args.seed,
        m,
    }))
}

impl Loop for MonLoop {
    fn set_up_again(&self) -> f64 {
        time_s(|| build(self.seed)).1
    }

    fn segment(&mut self, p: &mut Phase, seconds: f64, left: u64) -> SysResult<()> {
        let t0 = Instant::now();
        let m = &mut self.m;
        let (passes0, psinfo0, insns0) = (m.passes, m.psinfos, guest_insns(&m.sys));
        let need = common::share(MIN_PASSES.saturating_sub(passes0 - self.passes0), left);
        while t0.elapsed().as_secs_f64() < seconds || m.passes - passes0 < need {
            m.pass(&mut p.acct)?;
            m.advance(&mut p.acct)?;
        }
        let wall = t0.elapsed().as_secs_f64();
        let seg = &mut p.segments;
        seg.add("psinfo_per_s", (m.psinfos - psinfo0) as f64 / wall);
        seg.add(
            "guest_insns_per_s",
            (guest_insns(&m.sys) - insns0) as f64 / wall,
        );
        seg.add_samples(
            m.pass_ns.end_segment(),
            [
                "ps_passes_per_s",
                "ps_pass_p50_us",
                "ps_pass_p90_us",
                "ps_pass_p99_us",
            ],
        );
        Ok(())
    }

    fn report(mut self: Box<Self>, p: &mut Phase, spans: Option<&trace::Summary>) {
        let m = &mut self.m;
        let psinfos = m.psinfos - self.psinfo0;
        p.headline = psinfos as f64 / p.wall_s;
        for e in std::mem::take(&mut m.errors) {
            p.check(false, || e);
        }

        let Some(s) = spans else { return };
        exec_layers(p, &xstats_sum(&m.sys));
        let cache1 = m.stats_handle("/proc", |t, h| h.cache_stats(t));
        if let (Ok(c0), Ok(c1)) = (&self.cache0, cache1) {
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
        let wire1 = m.stats_handle(MOUNT, |t, h| h.wire_stats(t));
        if let (Ok(w0), Ok(w1)) = (&self.wire0, wire1) {
            let ops = (w1.ops - w0.ops) as f64;
            p.layer.push((
                "wire.frames_per_op",
                ratio((w1.frames_sent - w0.frames_sent) as f64, ops),
            ));
            let bytes = (w1.bytes_sent + w1.bytes_received) - (w0.bytes_sent + w0.bytes_received);
            p.layer
                .push(("wire.bytes_per_op", ratio(bytes as f64, ops)));
            p.layer
                .push(("wire.retries", (w1.retries - w0.retries) as f64));
        }
        p.layer.push(("ps.vanished", p.acct.vanished as f64));
        p.span_layers(s);
    }
}
