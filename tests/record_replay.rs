//! The PR 8 determinism gate: a run *is* its input history.
//!
//! Every nondeterministic input to a simulation — construction config,
//! installs, spawns, host system calls, step batches — lands in the
//! [`ksim::Recording`] with a digest folding the input, its result and
//! the post-call clock. Replaying the log through the public host API
//! must therefore reproduce the run byte-for-byte, *including* under
//! active kernel-fault and wire-fault plans: the fault draws are
//! functions of recorded seeds and recorded call order, nothing else.
//!
//! The gates:
//!  * a 32-seed record-then-replay oracle with kernel faults and an
//!    adversarial remote `/proc` mount both live — replayed logs must
//!    equal the originals record-for-record;
//!  * a corruption detector — flip one digest bit mid-log and replay
//!    must report a typed divergence at exactly that tick;
//!  * a `PIOCCKPT`/`PIOCRESTORE` round-trip over the faulted remote
//!    mount — restore rewinds the guest's register file to the
//!    checkpointed state even though every wire frame in between was
//!    subject to the fault plan;
//!  * `goto_tick` navigation — over a remote mount it takes the
//!    snapshot fast path, and every landing past the first snapshot
//!    resumes from it and equals a full replay LWP by LWP (digests
//!    alone cannot show a snapshot is complete).

use ksim::{Cred, KernelFaultRates, MountPlan, Pid, SimConfig, SysResult, System};
use tools::proc_io::ProcHandle;
use vfs::remote::{AdversaryRates, FaultRates, WireConfig};
use vfs::OFlags;

const REMOTE_MOUNT: &str = "/procr";

/// The standard mounts plus an adversarial remote `/proc`, kernel
/// faults, and the recorder — everything the oracle wants live at once.
fn faulted_recorded_config(seed: u64) -> SimConfig {
    let wire = WireConfig::faulty(seed ^ 0x51DE, FaultRates::uniform(25))
        .adversarial(AdversaryRates::uniform(40));
    SimConfig::standard()
        .mount(REMOTE_MOUNT, MountPlan::RemoteProc(wire))
        .kernel_faults(seed, KernelFaultRates::uniform(20))
        .record(true)
        .snapshot_every(8)
}

/// Drives a modest but varied workload across every surface the
/// recorder covers: spawns, local and remote `/proc` traffic, stepping,
/// signals and reaping. Individual calls are allowed to fail — under
/// the fault plans many will — but each failure is itself a recorded,
/// reproducible result.
fn drive(sys: &mut System, ctl: Pid) {
    let ticker = sys.spawn_program(ctl, "/bin/ticker", &["ticker"]);
    let forker = sys.spawn_program(ctl, "/bin/forker", &["forker"]);
    sys.run_idle(60);

    if let Ok(pid) = ticker {
        // Local flat mount: status read.
        if let Ok(fd) = sys.host_open(ctl, &format!("/proc/{:05}", pid.0), OFlags::rdonly()) {
            let mut buf = [0u8; 128];
            let _ = sys.host_read(ctl, fd, &mut buf);
            let _ = sys.host_close(ctl, fd);
        }
        // Hierarchical mount: psinfo read.
        if let Ok(fd) =
            sys.host_open(ctl, &format!("/proc2/{}/psinfo", pid.0), OFlags::rdonly())
        {
            let mut buf = [0u8; 128];
            let _ = sys.host_read(ctl, fd, &mut buf);
            let _ = sys.host_close(ctl, fd);
        }
        // Remote mount: a handle's stop/gregs/resume cycle plus stats,
        // every frame subject to the wire fault plan.
        if let Ok(mut h) = ProcHandle::open_at(sys, ctl, pid, REMOTE_MOUNT, OFlags::rdwr()) {
            let _ = h.stop(sys);
            let _ = h.gregs(sys);
            let _ = h.wire_stats(sys);
            let _ = h.resume(sys);
            let _ = h.close(sys);
        }
        let _ = sys.host_kill(ctl, pid, 9);
    }
    sys.run_idle(80);
    if let Ok(pid) = forker {
        let _ = sys.host_kill(ctl, pid, 9);
    }
    sys.run_idle(40);
    let _ = sys.host_wait(ctl);
}

fn recorded_run(seed: u64) -> System {
    let mut sys = tools::boot_demo_cfg(faulted_recorded_config(seed));
    let ctl = sys.spawn_hosted("rr-oracle", Cred::superuser());
    drive(&mut sys, ctl);
    sys
}

/// The tentpole acceptance gate: 32 seeds, kernel faults and an
/// adversarial wire both active, replay byte-identical every time.
#[test]
fn replay_matrix_32_seeds_byte_identical() {
    let mut total = 0usize;
    for i in 0..32u64 {
        let seed = 0x00DE_7EC7 + i * 0x9E37;
        let sys = recorded_run(seed);
        let rec = sys.recording().expect("recording on");
        // Fault draws legitimately shrink a seed's log (a failed spawn
        // skips its whole branch), but the fault-free boot prefix alone
        // guarantees a floor, and across seeds the workload must be
        // substantial.
        assert!(rec.len() > 15, "seed {seed:#x}: workload too small ({} records)", rec.len());
        total += rec.len();
        let replayed = match procfs::replay(&rec) {
            Ok(s) => s,
            Err(d) => panic!(
                "seed {seed:#x}: replay diverged at tick {} (expected {:#018x}, got {:#018x})",
                d.tick, d.expected, d.got
            ),
        };
        let rlog = replayed.recording().expect("recording on after replay");
        assert_eq!(
            rlog.records, rec.records,
            "seed {seed:#x}: replay produced a different log"
        );
    }
    assert!(total > 32 * 20, "matrix workload too small ({total} records across seeds)");
}

/// PR 10: the replay matrix with the sharded gang-round engine in the
/// loop. Every seed records at `shards ∈ {1, 2, 4}` with the kernel
/// fault plan and the adversarial wire both live; the three logs must
/// be record-for-record identical — the shard count shapes host
/// parallelism, never recorded work — and each seed's `shards=4` log
/// must replay byte-identically (the recorded config carries the shard
/// dimension, so the replay re-executes through the sharded engine).
#[test]
fn replay_matrix_holds_at_every_shard_count() {
    for i in 0..32u64 {
        let seed = 0x5AD0_C0DE + i * 0x9E37;
        let at = |shards: u32| {
            let mut sys = tools::boot_demo_cfg(
                faulted_recorded_config(seed).shards(shards).interleave_seed(seed ^ 0x1EAF),
            );
            let ctl = sys.spawn_hosted("rr-oracle", Cred::superuser());
            drive(&mut sys, ctl);
            sys
        };
        let base = at(1).recording().expect("recording on");
        assert!(base.len() > 15, "seed {seed:#x}: workload too small ({} records)", base.len());
        for shards in [2u32, 4] {
            let got = at(shards).recording().expect("recording on");
            assert_eq!(
                base.records, got.records,
                "seed {seed:#x}: log diverged between shards=1 and shards={shards}"
            );
            if shards == 4 {
                let replayed = match procfs::replay(&got) {
                    Ok(s) => s,
                    Err(d) => panic!(
                        "seed {seed:#x}: shards=4 replay diverged at tick {} \
                         (expected {:#018x}, got {:#018x})",
                        d.tick, d.expected, d.got
                    ),
                };
                assert_eq!(
                    replayed.recording().expect("recording on after replay").records,
                    got.records,
                    "seed {seed:#x}: shards=4 replay produced a different log"
                );
            }
        }
    }
}

/// Corrupt one recorded digest and the replay must fail *typed* and
/// *located*: a `ReplayDivergence` whose tick is exactly the corrupted
/// index, not a later cascade or a panic.
#[test]
fn corrupted_frame_reports_divergence_at_exact_tick() {
    let sys = recorded_run(0xBADF_00D1);
    let mut rec = sys.recording().expect("recording on");
    let tick = rec.len() / 3;
    rec.records[tick].digest ^= 0x80;
    match procfs::replay(&rec) {
        Ok(_) => panic!("replay accepted a corrupted log"),
        Err(d) => {
            assert_eq!(d.tick, tick, "divergence reported at the wrong tick");
            assert_ne!(d.expected, d.got);
        }
    }
}

/// Retries an operation under the fault plan: any individual frame may
/// draw a fault, but the plans here are sub-certain, so a bounded retry
/// always lands.
fn eventually<T>(what: &str, mut f: impl FnMut() -> SysResult<T>) -> T {
    let mut last = None;
    for _ in 0..400 {
        match f() {
            Ok(v) => return v,
            Err(e) => last = Some(e),
        }
    }
    panic!("{what} failed 400 straight times under the fault plan: {last:?}");
}

/// `PIOCCKPT`/`PIOCRESTORE` over the adversarial remote mount: capture
/// a stopped guest's image, let it run on, then rewind it — the
/// register file must come back exactly, with every frame of the
/// checkpoint and restore subject to wire faults.
#[test]
fn checkpoint_restore_round_trips_over_faulted_remote_mount() {
    let mut sys = tools::boot_demo_cfg(faulted_recorded_config(0x00C4_9701));
    let ctl = sys.spawn_hosted("rr-ckpt", Cred::superuser());
    let pid = sys.spawn_program(ctl, "/bin/ticker", &["ticker"]).expect("spawn ticker");
    sys.run_idle(120);

    let mut h = eventually("open", || {
        ProcHandle::open_at(&mut sys, ctl, pid, REMOTE_MOUNT, OFlags::rdwr())
    });
    eventually("stop", || h.stop(&mut sys));
    let at_ckpt = eventually("gregs", || h.gregs(&mut sys));
    let image = eventually("checkpoint", || h.checkpoint(&mut sys));
    assert!(!image.is_empty(), "checkpoint produced an empty image");

    // Run on so the register file provably moves.
    eventually("resume", || h.resume(&mut sys));
    sys.run_idle(150);
    eventually("stop again", || h.stop(&mut sys));
    let moved = eventually("gregs after run", || h.gregs(&mut sys));
    assert_ne!(at_ckpt, moved, "target never advanced between checkpoint and restore");

    // Restore is idempotent, so it is safe to retry wholesale.
    eventually("restore", || h.restore(&mut sys, &image));
    let back = eventually("gregs after restore", || h.gregs(&mut sys));
    assert_eq!(at_ckpt, back, "restore did not rewind the register file");
    let _ = h.close(&mut sys);

    // The whole dance — faults included — replays byte-identically.
    let rec = sys.recording().expect("recording on");
    let replayed = procfs::replay(&rec).expect("ckpt/restore run must replay cleanly");
    assert_eq!(replayed.recording().expect("recording").records, rec.records);
}

/// PR 9: a remote-mount configuration no longer forces `goto_tick` down
/// the full-rebuild path. Wire-session state is banked into each `Snap`
/// alongside the kernel, so navigation lands on the nearest snapshot
/// (`restores == 1`) and re-applies only the tail of the log
/// (`replays < k`) — and the restored system is still byte-faithful to
/// the recording.
#[test]
fn goto_tick_over_remote_mount_takes_the_snapshot_fast_path() {
    let sys = recorded_run(0x0FA5_7F00);
    let len = sys.recording().expect("recording on").len();
    assert!(len > 24, "workload too small to exercise navigation ({len} records)");
    let k = len * 3 / 4;
    let restored = procfs::goto_tick(&sys, k).expect("goto_tick over the remote mount");
    let stats = restored.kernel.recorder.as_ref().expect("recorder survives").stats;
    assert_eq!(
        stats.restores, 1,
        "remote-mount navigation fell back to a full rebuild: {stats:?}"
    );
    assert!(
        (stats.replays as usize) < k,
        "snapshot fast path replayed the whole log: {} >= {k}",
        stats.replays
    );
    assert_eq!(
        restored.recording().expect("recording on").records[..],
        sys.recording().expect("recording on").records[..k],
        "fast-path navigation diverged from the log prefix"
    );
}

/// What a landing must reproduce: the clock, plus every LWP's retired
/// instruction count and register file, per process. A `Steps` digest
/// folds only the progress bit and the clock, so it cannot tell which
/// LWP ran; this is the state that can.
type Landing = (u64, Vec<(u32, Vec<(u32, u64, isa::GregSet)>)>);

fn landing(sys: &System) -> Landing {
    let procs = sys
        .kernel
        .procs
        .values()
        .map(|p| (p.pid.0, p.lwps.iter().map(|l| (l.tid.0, l.insns, l.gregs.clone())).collect()))
        .collect();
    (sys.kernel.clock, procs)
}

/// The landing oracle: with two spinning guests, a cruncher and a
/// two-LWP guest all runnable, every `goto_tick` past the first snapshot must resume from
/// a snapshot (`restores == 1`, no divergence) and land exactly where a
/// full replay of the same prefix lands. The scheduler's own cursors
/// (`sched_rounds` for the gang round, `run_cursor` for the legacy
/// engine) decide which LWP runs next, so a snapshot that missed one
/// would either diverge and rebuild or — when the clock happens to
/// match — land on the wrong LWP with every digest intact. Checked at
/// the legacy engine and at two gang-round shard counts.
#[test]
fn goto_tick_lands_where_a_full_replay_lands() {
    const SNAP_EVERY: usize = 16;
    for shards in [0u32, 1, 2] {
        let mut sys = tools::boot_demo_cfg(
            SimConfig::standard().record(true).snapshot_every(SNAP_EVERY).shards(shards),
        );
        let ctl = sys.spawn_hosted("rr-landing", Cred::superuser());
        let mut guests = Vec::new();
        for path in ["/bin/spin", "/bin/spin", "/bin/cruncher", "/bin/threaded"] {
            guests.push(sys.spawn_program(ctl, path, &["guest"]).expect("spawn guest"));
        }
        // Steps broken up by host reads, so that snapshots fall between
        // runs of steps with the guests mid-rotation.
        for i in 0..24u64 {
            sys.run_idle(5 + (i * 7) % 11);
            let pid = guests[i as usize % guests.len()];
            let fd = sys
                .host_open(ctl, &format!("/proc/{:05}", pid.0), OFlags::rdonly())
                .expect("open guest");
            let mut buf = [0u8; 64];
            let _ = sys.host_read(ctl, fd, &mut buf);
            sys.host_close(ctl, fd).expect("close guest");
        }
        let rec = sys.recording().expect("recording on");
        assert!(rec.len() > 6 * SNAP_EVERY, "shards={shards}: log too short ({})", rec.len());
        let mut jumps = 0;
        for k in (SNAP_EVERY..=rec.len()).step_by(3) {
            let landed = procfs::goto_tick(&sys, k).expect("goto_tick");
            let stats = landed.kernel.rec_stats();
            assert_eq!(
                (stats.restores, stats.divergences),
                (1, 0),
                "shards={shards} k={k}: did not resume from its snapshot: {stats:?}"
            );
            let want = procfs::replay_to(&rec, k).expect("full replay");
            assert!(
                landing(&landed) == landing(&want),
                "shards={shards} k={k}: snapshot resume landed on another state than a full \
                 replay"
            );
            jumps += 1;
        }
        assert!(jumps > 30, "shards={shards}: only {jumps} jumps sampled");
    }
}
