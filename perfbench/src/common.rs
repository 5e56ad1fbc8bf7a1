//! What every loop shares: the seeded generator, percentiles, the
//! per-phase result, and spanned, counted calls into `ksim`.

use crate::trace::{self, Acct, Summary};
use ksim::{Pid, SysResult, System};
use std::collections::BTreeMap;
use std::time::Instant;

/// xorshift64* — the same seed gives the same workload inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut s = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if s == 0 {
            s = 0x2545_F491_4F6C_DD1D;
        }
        Rng(s)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Up to `cap` values, then a uniform sample of all values seen, so
/// memory does not grow with run length.
pub struct Reservoir {
    kept: Vec<u64>,
    seen: u64,
    cap: usize,
    rng: Rng,
}

impl Default for Reservoir {
    fn default() -> Reservoir {
        Reservoir::new(1 << 16)
    }
}

impl Reservoir {
    fn new(cap: usize) -> Reservoir {
        Reservoir {
            kept: Vec::new(),
            seen: 0,
            cap,
            rng: Rng::new(0x05A3_F1E5, cap as u64),
        }
    }

    /// Values pushed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Percentile `q` in `[0, 1]` of the values pushed.
    pub fn pct(&self, q: f64) -> f64 {
        pct(&self.kept, q)
    }

    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push(v);
        } else {
            // Uniform in 0..seen, by multiply and shift rather than a
            // division: this runs once per traced span.
            let j = (u128::from(self.rng.next_u64()) * u128::from(self.seen)) >> 64;
            if let Some(slot) = self.kept.get_mut(j as usize) {
                *slot = v;
            }
        }
    }
}

/// Latency samples in nanoseconds, taken one segment at a time, with
/// running totals over the whole window.
#[derive(Default)]
pub struct Samples {
    segment: Reservoir,
    segment_ns: u64,
    count: u64,
    total_ns: u64,
}

/// What one segment's samples add up to.
pub struct SegmentStats {
    /// Samples per second of sampled time.
    pub rate: f64,
    pub p50_ns: f64,
    pub p90_ns: f64,
    pub p99_ns: f64,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.segment.push(ns);
        self.segment_ns += ns;
        self.count += 1;
        self.total_ns += ns;
    }

    /// Closes the current segment; `None` if it took no samples.
    pub fn end_segment(&mut self) -> Option<SegmentStats> {
        let seg = std::mem::take(&mut self.segment);
        let ns = std::mem::take(&mut self.segment_ns);
        (seg.seen > 0).then(|| SegmentStats {
            rate: seg.seen as f64 * 1e9 / ns.max(1) as f64,
            p50_ns: seg.pct(0.5),
            p90_ns: seg.pct(0.9),
            p99_ns: seg.pct(0.99),
        })
    }

    /// Samples per second of sampled time, over the whole window.
    pub fn rate(&self) -> f64 {
        ratio(self.count as f64 * 1e9, self.total_ns as f64)
    }
}

/// Per-segment values of a loop's end-to-end metrics. Each metric is
/// reported as the mean of its segments with the highest and the lowest
/// fifth dropped: on a host whose speed changes for seconds at a time,
/// pooling the whole window lets a few slow stretches set a percentile
/// (a median can jump between the two speeds), while this mean moves
/// smoothly with the share of time spent slow.
#[derive(Default)]
pub struct Segmented(BTreeMap<&'static str, Vec<f64>>);

impl Segmented {
    pub fn add(&mut self, name: &'static str, v: f64) {
        if v.is_finite() {
            self.0.entry(name).or_default().push(v);
        }
    }

    /// Adds the rate and the p50, p90 and p99 in µs of one segment's
    /// samples under the given names, in that order (an empty name is
    /// skipped).
    pub fn add_samples(&mut self, s: Option<SegmentStats>, names: [&'static str; 4]) {
        let Some(s) = s else { return };
        let values = [s.rate, s.p50_ns / 1e3, s.p90_ns / 1e3, s.p99_ns / 1e3];
        for (name, v) in names.into_iter().zip(values) {
            if !name.is_empty() {
                self.add(name, v);
            }
        }
    }

    pub fn report(&self, e2e: &mut Vec<(&'static str, f64)>) {
        for (name, v) in &self.0 {
            let mut s = v.clone();
            s.sort_by(f64::total_cmp);
            let cut = s.len() / 5;
            let mid = &s[cut..s.len() - cut];
            e2e.push((name, mid.iter().sum::<f64>() / mid.len() as f64));
        }
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of unsorted samples.
pub fn pct(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1] as f64
}

/// Median of `f64` values.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What one loop reports.
#[derive(Default)]
pub struct Phase {
    pub name: &'static str,
    /// Seconds each set-up took; the median is reported.
    pub setups: Vec<f64>,
    pub acct: Acct,
    /// Host time spent in the measured segments.
    pub wall_s: f64,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// End-to-end metrics this loop measures.
    pub e2e: Vec<(&'static str, f64)>,
    /// Their values per segment, folded into `e2e` at the end.
    pub segments: Segmented,
    /// Per-layer metrics (traced runs only).
    pub layer: Vec<(&'static str, f64)>,
    /// The loop's main rate, compared traced against untraced to state
    /// the tracing overhead.
    pub headline: f64,
}

/// Records a failed output check (the first sixteen are kept).
pub fn check(errors: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok && errors.len() < 16 {
        errors.push(what());
    }
}

impl Phase {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        check(&mut self.errors, ok, what);
    }

    /// Per-layer figures every loop derives the same way from its spans:
    /// p50 and count per request, plus how much of the measured window
    /// (the `loop` spans) the program's own spans cover.
    pub fn span_layers(&mut self, s: &Summary) {
        const OPS: [(&str, &str, &str); 15] = [
            ("procfs.open", "procfs.open_p50_us", "procfs.open_count"),
            ("procfs.close", "procfs.close_p50_us", "procfs.close_count"),
            (
                "procfs.read_mem",
                "procfs.read_mem_p50_us",
                "procfs.read_mem_count",
            ),
            (
                "procfs.write_mem",
                "procfs.write_mem_p50_us",
                "procfs.write_mem_count",
            ),
            (
                "procfs.PIOCSTATUS",
                "procfs.PIOCSTATUS_p50_us",
                "procfs.PIOCSTATUS_count",
            ),
            (
                "procfs.PIOCRUN",
                "procfs.PIOCRUN_p50_us",
                "procfs.PIOCRUN_count",
            ),
            (
                "procfs.PIOCSTOP",
                "procfs.PIOCSTOP_p50_us",
                "procfs.PIOCSTOP_count",
            ),
            (
                "procfs.readdir",
                "procfs.readdir_p50_us",
                "procfs.readdir_count",
            ),
            (
                "procfs.PIOCWSTOP",
                "procfs.wstop_wait_p50_us",
                "procfs.wstop_wait_count",
            ),
            (
                "ksim.spawn_program",
                "ksim.spawn_p50_us",
                "ksim.spawn_count",
            ),
            ("ksim.host_wait", "ksim.wait_p50_us", "ksim.wait_count"),
            ("wire.open", "wire.open_p50_us", "wire.open_count"),
            (
                "wire.PIOCPSINFO",
                "wire.PIOCPSINFO_p50_us",
                "wire.PIOCPSINFO_count",
            ),
            ("wire.close", "wire.close_p50_us", "wire.close_count"),
            ("wire.readdir", "wire.readdir_p50_us", "wire.readdir_count"),
        ];
        for (span, p50, count) in OPS {
            if let Some(d) = s.durs(span) {
                self.layer.push((p50, d.pct(0.5) / 1e3));
                self.layer.push((count, d.seen() as f64));
            }
        }
        if let Some(d) = s.durs("procfs.goto_tick") {
            self.layer.push(("procfs.goto_p50_ms", d.pct(0.5) / 1e6));
        }
        let busy = s.total_ns("ksim.run_until") + s.total_ns("ksim.run_idle");
        if busy > 0 {
            self.layer.push(("ksim.run_busy_s", busy as f64 / 1e9));
        }
        let wall = s.total_ns("loop");
        self.layer.push((
            "trace.coverage",
            1.0 - ratio(s.self_ns("loop") as f64, wall as f64),
        ));
        self.layer.push(("trace.spans_dropped", s.dropped as f64));
        let a = self.acct;
        self.layer
            .push(("error_rate", ratio(a.failed as f64, a.attempted as f64)));
    }

    /// One JSON object on one line.
    pub fn to_json(&self, peak_rss_mb: f64) -> String {
        let obj = |kv: &[(&str, f64)]| {
            let items: Vec<String> = kv
                .iter()
                .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
                .collect();
            format!("{{{}}}", items.join(", "))
        };
        let errors: Vec<String> = self
            .errors
            .iter()
            .map(|e| format!("\"{}\"", e.replace(['"', '\\'], "'")))
            .collect();
        format!(
            "{{\"loop\": \"{}\", \"peak_rss_mb\": {}, \"setup_s\": {}, \"attempted\": {}, \"failed\": {}, \"vanished\": {}, \"errors\": [{}], \"headline\": {}, \"e2e\": {}, \"layer\": {}}}",
            self.name,
            json_num(peak_rss_mb),
            json_num(median(&self.setups)),
            self.acct.attempted,
            self.acct.failed,
            self.acct.vanished,
            errors.join(", "),
            json_num(self.headline),
            obj(&self.e2e),
            obj(&self.layer),
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// Runs `f` inside a span and counts it.
pub fn call<T>(
    acct: &mut Acct,
    name: &'static str,
    f: impl FnOnce() -> SysResult<T>,
) -> SysResult<T> {
    acct.count(trace::span(name, f))
}

/// `run_until` inside a span: steps until `cond` holds. Work is bounded
/// by the condition, not by a step budget.
pub fn run_until(sys: &mut System, cond: impl FnMut(&System) -> bool) -> bool {
    trace::span("ksim.run_until", || sys.run_until(u64::MAX, cond))
}

/// Sum of retired instructions over the non-hosted processes in the
/// table (live and zombie).
pub fn guest_insns(sys: &System) -> u64 {
    sys.kernel
        .procs
        .values()
        .filter(|p| !p.hosted)
        .map(|p| p.cpu_time)
        .sum()
}

/// Fast-path counters summed over the live guests.
pub fn xstats_sum(sys: &System) -> procfs::PrXStats {
    let mut t = procfs::PrXStats::default();
    let pids: Vec<Pid> = sys
        .kernel
        .procs
        .values()
        .filter(|p| !p.hosted && !p.zombie)
        .map(|p| p.pid)
        .collect();
    for pid in pids {
        if let Ok(x) = procfs::PrXStats::capture(&sys.kernel, pid) {
            t.tlb_hits += x.tlb_hits;
            t.tlb_misses += x.tlb_misses;
            t.icache_hits += x.icache_hits;
            t.icache_misses += x.icache_misses;
            t.insns += x.insns;
            t.page_epoch_bumps += x.page_epoch_bumps;
            t.sblock_built += x.sblock_built;
            t.sblock_dispatched += x.sblock_dispatched;
            t.sblock_insns += x.sblock_insns;
            t.sblock_stale += x.sblock_stale;
        }
    }
    t
}

/// The `isa` and `vm` per-layer figures from summed fast-path counters.
pub fn exec_layers(p: &mut Phase, x: &procfs::PrXStats) {
    let insns = x.insns as f64;
    p.layer
        .push(("isa.sblock_coverage", ratio(x.sblock_insns as f64, insns)));
    p.layer.push((
        "isa.icache_hit_rate",
        ratio(
            x.icache_hits as f64,
            (x.icache_hits + x.icache_misses) as f64,
        ),
    ));
    p.layer.push((
        "isa.sblock_builds_per_kinsn",
        ratio(x.sblock_built as f64 * 1e3, insns),
    ));
    p.layer.push((
        "isa.sblock_stale_rate",
        ratio(x.sblock_stale as f64, x.sblock_dispatched as f64),
    ));
    p.layer.push((
        "vm.tlb_hit_rate",
        ratio(x.tlb_hits as f64, (x.tlb_hits + x.tlb_misses) as f64),
    ));
}

/// Of `still_needed` samples spread over `left` segments, this
/// segment's share.
pub fn share(still_needed: u64, left: u64) -> u64 {
    still_needed.div_ceil(left.max(1))
}

/// Runs `f`, returning its result and the seconds it took.
pub fn time_s<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}
