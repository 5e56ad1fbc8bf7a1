//! `farm`: eight guests and no `/proc` controller on the gang-round
//! engine at one shard ([`MEASURED_SHARDS`]), so the work sits in `isa`
//! dispatch, `vm` translation and the `ksim` round scheduler.
//!
//! Work is counted in retired guest instructions: the loop advances the
//! machine in chunks of [`CHUNK`] instructions until the time budget is
//! spent. Each `/bin/burst` is reaped when it exits and respawned either
//! at once or at the next chunk boundary, as the seed chooses. The
//! output check replays the first [`CHECK_CHUNKS`] chunks on a
//! `shards(2)` machine with the same seed: the guest-visible fingerprint
//! (clock, instructions retired per guest slot, burst exits) at that
//! point must be identical, and every burst must exit 0.

use crate::common::{self, call, guest_insns, ratio, run_until, time_s, Phase, Rng, Samples};
use crate::trace::{self, Acct};
use crate::{Args, Loop};
use ksim::ptrace::{decode_status, WaitStatus};
use ksim::{Cred, Pid, SimConfig, SysResult, System};
use std::time::Instant;

/// Fixed so that the seed changes only the workload, never the
/// engine's commit order.
const INTERLEAVE_SEED: u64 = 0xFA53_5EED;
/// Guest instructions per chunk.
const CHUNK: u64 = 1_000_000;
/// Chunks measured however fast the host is.
const MIN_CHUNKS: u64 = 100;
/// Chunks after which the fingerprint is taken and checked against a
/// `shards(2)` replay.
const CHECK_CHUNKS: u64 = 64;
/// The measured machine runs the gang-round engine on one shard. At
/// `shards(2)` its two workers share the 2-core test host with the rest
/// of the machine, and the same seeds ran at 18–51 chunks/s from run to
/// run (58–64 at one shard); two shards run only in the check.
const MEASURED_SHARDS: u32 = 1;
const PROGRAMS: [&str; 8] = [
    "spin", "spin", "cruncher", "cruncher", "watched", "watched", "burst", "burst",
];

struct Slot {
    prog: &'static str,
    pid: Option<Pid>,
    /// Instructions retired by earlier, reaped incarnations.
    retired: u64,
}

struct Farm {
    sys: System,
    ctl: Pid,
    slots: Vec<Slot>,
    rng: Rng,
    chunks: u64,
    deferred: Vec<usize>,
    burst_exits: u64,
    bad_exits: Vec<String>,
    /// The fingerprint after [`CHECK_CHUNKS`] chunks.
    checked: Option<Fingerprint>,
}

/// What two runs of the same seed must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    clock: u64,
    per_slot: Vec<u64>,
    burst_exits: u64,
}

fn spawn(sys: &mut System, acct: &mut Acct, ctl: Pid, prog: &str) -> SysResult<Pid> {
    let path = format!("/bin/{prog}");
    call(acct, "ksim.spawn_program", || {
        sys.spawn_program(ctl, &path, &[prog])
    })
}

impl Farm {
    fn boot(seed: u64, shards: u32, acct: &mut Acct) -> SysResult<Farm> {
        let cfg = SimConfig::standard()
            .shards(shards)
            .interleave_seed(INTERLEAVE_SEED)
            .shard_batch(8);
        let mut sys = tools::boot_demo_cfg(cfg);
        let ctl = sys.spawn_hosted("farm-ctl", Cred::new(100, 10));
        let mut rng = Rng::new(seed, 1);
        let mut progs = PROGRAMS;
        rng.shuffle(&mut progs);
        let mut slots = Vec::new();
        for prog in progs {
            let pid = spawn(&mut sys, acct, ctl, prog)?;
            slots.push(Slot {
                prog,
                pid: Some(pid),
                retired: 0,
            });
        }
        Ok(Farm {
            sys,
            ctl,
            slots,
            rng,
            chunks: 0,
            deferred: Vec::new(),
            burst_exits: 0,
            bad_exits: Vec::new(),
            checked: None,
        })
    }

    fn per_slot(&self, sys: &System) -> Vec<u64> {
        self.slots
            .iter()
            .map(|s| {
                s.retired
                    + s.pid
                        .and_then(|p| sys.kernel.procs.get(&p.0))
                        .map_or(0, |p| p.cpu_time)
            })
            .collect()
    }

    fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            clock: self.sys.kernel.clock,
            per_slot: self.per_slot(&self.sys),
            burst_exits: self.burst_exits,
        }
    }

    /// Advances the machine by one chunk of guest instructions.
    fn chunk(&mut self, acct: &mut Acct) -> SysResult<()> {
        self.run_chunk(acct)?;
        if self.chunks == CHECK_CHUNKS {
            self.checked = Some(self.fingerprint());
        }
        Ok(())
    }

    /// Runs chunks until the fingerprint is taken; returns it.
    fn checked_fingerprint(&mut self, acct: &mut Acct) -> SysResult<Fingerprint> {
        loop {
            if let Some(f) = self.checked.take() {
                return Ok(f);
            }
            self.chunk(acct)?;
        }
    }

    fn run_chunk(&mut self, acct: &mut Acct) -> SysResult<()> {
        self.chunks += 1;
        let target = self.chunks * CHUNK;
        for i in std::mem::take(&mut self.deferred) {
            self.slots[i].pid = Some(spawn(&mut self.sys, acct, self.ctl, self.slots[i].prog)?);
        }
        loop {
            let retired: u64 = self.slots.iter().map(|s| s.retired).sum();
            let live: Vec<Pid> = self.slots.iter().filter_map(|s| s.pid).collect();
            let total = |s: &System| -> u64 {
                retired
                    + live
                        .iter()
                        .filter_map(|p| s.kernel.procs.get(&p.0))
                        .map(|p| p.cpu_time)
                        .sum::<u64>()
            };
            let exited = |s: &System| {
                live.iter()
                    .any(|p| s.kernel.procs.get(&p.0).is_some_and(|p| p.zombie))
            };
            run_until(&mut self.sys, |s| total(s) >= target || exited(s));
            // A reaped process leaves the table: note what each zombie
            // retired before waiting for it.
            let zombies: Vec<(Pid, u64)> = live
                .iter()
                .filter_map(|p| self.sys.kernel.procs.get(&p.0))
                .filter(|p| p.zombie)
                .map(|p| (p.pid, p.cpu_time))
                .collect();
            if zombies.is_empty() {
                return Ok(());
            }
            for _ in &zombies {
                let (pid, status) = call(acct, "ksim.host_wait", || self.sys.host_wait(self.ctl))?;
                let (Some(i), Some(&(_, cpu))) = (
                    self.slots.iter().position(|s| s.pid == Some(pid)),
                    zombies.iter().find(|z| z.0 == pid),
                ) else {
                    self.bad_exits
                        .push(format!("reaped unexpected pid {}", pid.0));
                    continue;
                };
                self.slots[i].retired += cpu;
                self.slots[i].pid = None;
                self.burst_exits += 1;
                if decode_status(status) != WaitStatus::Exited(0) || self.slots[i].prog != "burst" {
                    self.bad_exits.push(format!(
                        "{} pid {} ended with {:?}",
                        self.slots[i].prog,
                        pid.0,
                        decode_status(status)
                    ));
                }
                if self.rng.range(0, 1) == 0 {
                    self.slots[i].pid =
                        Some(spawn(&mut self.sys, acct, self.ctl, self.slots[i].prog)?);
                } else {
                    self.deferred.push(i);
                }
            }
        }
    }
}

pub struct FarmLoop {
    farm: Farm,
    seed: u64,
    insns0: u64,
    rounds0: u64,
    chunks0: u64,
    chunk_ns: Samples,
}

/// Set-up: boot, spawn the guests, run one chunk.
fn build(seed: u64) -> (SysResult<Farm>, Acct) {
    let mut acct = Acct::default();
    let farm = Farm::boot(seed, MEASURED_SHARDS, &mut acct)
        .and_then(|mut f| f.chunk(&mut acct).map(|()| f));
    (farm, acct)
}

pub fn setup(args: &Args, p: &mut Phase) -> Option<Box<dyn Loop>> {
    p.name = "farm";
    let ((built, acct), secs) = time_s(|| build(args.seed));
    p.setups.push(secs);
    p.acct = acct;
    match built {
        Ok(farm) => Some(Box::new(FarmLoop {
            insns0: guest_insns_all(&farm),
            rounds0: farm.sys.kernel.sched_rounds,
            chunks0: farm.chunks,
            chunk_ns: Samples::default(),
            seed: args.seed,
            farm,
        })),
        Err(e) => {
            p.check(false, || format!("farm set-up failed: {e:?}"));
            None
        }
    }
}

impl Loop for FarmLoop {
    fn set_up_again(&self) -> f64 {
        time_s(|| build(self.seed)).1
    }

    fn segment(&mut self, p: &mut Phase, seconds: f64, left: u64) -> SysResult<()> {
        let t0 = Instant::now();
        let (chunks0, insns0) = (self.farm.chunks, guest_insns_all(&self.farm));
        let need = common::share(MIN_CHUNKS.saturating_sub(chunks0 - self.chunks0), left);
        while t0.elapsed().as_secs_f64() < seconds || self.farm.chunks - chunks0 < need {
            let t = Instant::now();
            self.farm.chunk(&mut p.acct)?;
            self.chunk_ns.push(t.elapsed().as_nanos() as u64);
        }
        let insns = guest_insns_all(&self.farm) - insns0;
        p.segments.add(
            "guest_insns_per_s",
            insns as f64 / t0.elapsed().as_secs_f64(),
        );
        p.segments.add_samples(
            self.chunk_ns.end_segment(),
            [
                "chunks_per_s",
                "chunk_p50_us",
                "chunk_p90_us",
                "chunk_p99_us",
            ],
        );
        Ok(())
    }

    fn report(mut self: Box<Self>, p: &mut Phase, spans: Option<&trace::Summary>) {
        let farm = &mut self.farm;
        let insns = guest_insns_all(farm) - self.insns0;
        let rounds = farm.sys.kernel.sched_rounds - self.rounds0;
        p.headline = insns as f64 / p.wall_s;

        // Output check: the first chunks at shards=2 give the same
        // fingerprint.
        let mut acct = Acct::default();
        let got = match farm.checked_fingerprint(&mut acct) {
            Ok(f) => f,
            Err(e) => {
                p.check(false, || format!("farm failed: {e:?}"));
                return;
            }
        };
        let reference = Farm::boot(self.seed, 2, &mut acct)
            .and_then(|mut f| Ok((f.checked_fingerprint(&mut acct)?, f)));
        match reference {
            Ok((want, r)) => {
                p.check(got == want, || {
                    format!("shards=1 fingerprint {got:?} differs from shards=2 {want:?}")
                });
                p.check(r.bad_exits.is_empty(), || {
                    format!("reference run: {:?}", r.bad_exits)
                });
            }
            Err(e) => p.check(false, || format!("reference run failed: {e:?}")),
        }
        p.check(farm.burst_exits > 0, || "no burst exited".to_string());
        for e in std::mem::take(&mut farm.bad_exits) {
            p.check(false, || e);
        }

        if let Some(s) = spans {
            common::exec_layers(p, &common::xstats_sum(&farm.sys));
            p.layer.push(("ksim.rounds", rounds as f64));
            let busy = s.total_ns("ksim.run_until") as f64;
            p.layer
                .push(("ksim.host_ns_per_round", ratio(busy, rounds as f64)));
            p.layer
                .push(("ksim.insns_per_round", ratio(insns as f64, rounds as f64)));
            p.span_layers(s);
        }
    }
}

/// Guest instructions retired so far, reaped incarnations included.
fn guest_insns_all(f: &Farm) -> u64 {
    f.slots.iter().map(|s| s.retired).sum::<u64>() + guest_insns(&f.sys)
}
