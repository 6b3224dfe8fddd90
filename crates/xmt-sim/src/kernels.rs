//! Calibration micro-kernels.
//!
//! Each kernel isolates one mechanism of the machine so that the analytic
//! model in `xmt-model` can be fitted against simulated ground truth:
//!
//! * [`stream_saturation`] — issue rate as a function of active streams
//!   (how many streams hide the memory latency);
//! * [`pointer_chase`] — serialized dependent loads (exposed latency λ);
//! * [`hotspot_fetch_add`] — all streams hammering one (or `width`) words
//!   (the single-queue message-counter pathology of §VII);
//! * [`barrier_cost`] — a centralized fetch-add + flag barrier;
//! * [`parallel_loop`] — the canonical self-scheduled XMT loop
//!   (fetch-add trip counter, then per-iteration work).

use crate::op::{FnTasklet, Op};
use crate::{Machine, MachineConfig, RunStats};

/// Base address for kernel scratch data, clear of control words.
const DATA_BASE: u64 = 1 << 20;

/// `active` streams on one processor each perform `loads_each` independent
/// loads to private addresses. Returns the run stats; IPC climbs toward
/// 1.0 as `active` approaches the exposed memory latency.
pub fn stream_saturation(cfg: &MachineConfig, active: usize, loads_each: usize) -> RunStats {
    let mut m = Machine::new(MachineConfig {
        processors: 1,
        streams_per_proc: active.max(1),
        ..*cfg
    });
    m.spawn_n(active, |i| {
        let mut j = 0usize;
        let base = DATA_BASE + (i * loads_each) as u64 * 8;
        Box::new(FnTasklet(move |_| {
            if j < loads_each {
                let a = base + j as u64 * 8;
                j += 1;
                Some(Op::Load(a))
            } else {
                None
            }
        }))
    });
    m.run(cycle_budget(active * loads_each, cfg))
}

/// One stream chases a `len`-node linked list: fully dependent loads.
/// `cycles / len` is the exposed per-reference latency.
pub fn pointer_chase(cfg: &MachineConfig, len: usize) -> RunStats {
    let mut m = Machine::new(MachineConfig {
        processors: 1,
        streams_per_proc: 1,
        ..*cfg
    });
    // Build the list: node i at DATA_BASE + 8i points to node i+1.
    for i in 0..len as u64 {
        m.memory_mut()
            .poke(DATA_BASE + 8 * i, DATA_BASE + 8 * (i + 1));
    }
    let mut remaining = len;
    let mut cursor = DATA_BASE;
    m.spawn(Box::new(FnTasklet(move |last| {
        if let Some(v) = last {
            cursor = v;
        }
        if remaining == 0 {
            return None;
        }
        remaining -= 1;
        Some(Op::Load(cursor))
    })));
    m.run(cycle_budget(len * 4, cfg))
}

/// `streams` streams (spread over the whole machine) each perform
/// `ops_each` fetch-adds striped over `width` words. With `width == 1`
/// this is the §VII pathology: total time ≈ total ops × hotspot interval
/// regardless of processor count.
pub fn hotspot_fetch_add(
    cfg: &MachineConfig,
    streams: usize,
    ops_each: usize,
    width: usize,
) -> RunStats {
    assert!(width >= 1);
    let mut m = Machine::new(*cfg);
    m.spawn_n(streams, |i| {
        let addr = DATA_BASE + ((i % width) as u64) * 8;
        let mut j = 0usize;
        Box::new(FnTasklet(move |_| {
            if j < ops_each {
                j += 1;
                Some(Op::FetchAdd(addr, 1))
            } else {
                None
            }
        }))
    });
    let stats = m.run(cycle_budget(streams * ops_each * 2, cfg));
    // Sanity: fetch-adds must all have landed.
    let mut sum = 0u64;
    for w in 0..width as u64 {
        sum += m.memory().peek(DATA_BASE + w * 8);
    }
    assert_eq!(sum as usize, streams * ops_each, "lost fetch-adds");
    stats
}

/// One episode of a centralized barrier at *processor* granularity: one
/// representative stream per processor arrives (hardware tracks stream
/// quiescence within a processor), fetch-adds an arrival counter, the
/// last arrival raises a flag, all others spin on it.
pub fn barrier_cost(cfg: &MachineConfig) -> RunStats {
    let parties = cfg.processors;
    let ctr = DATA_BASE;
    let flag = DATA_BASE + 8;
    let mut m = Machine::new(*cfg);
    m.spawn_n(parties, |_| {
        let mut state = 0u8; // 0: arrive, 1: saw result, 2: spinning
        Box::new(FnTasklet(move |last| match state {
            0 => {
                state = 1;
                Some(Op::FetchAdd(ctr, 1))
            }
            1 => {
                if last == Some(parties as u64 - 1) {
                    state = 3;
                    Some(Op::Store(flag, 1))
                } else {
                    state = 2;
                    Some(Op::Load(flag))
                }
            }
            2 => {
                if last == Some(1) {
                    None
                } else {
                    Some(Op::Load(flag))
                }
            }
            _ => None,
        }))
    });
    m.run(cycle_budget(parties * 64, cfg))
}

/// The canonical self-scheduled loop: streams claim *chunks* of
/// iterations from a shared trip counter by fetch-add (block-dynamic
/// scheduling, as the XMT compiler emits), then perform `alu_per_item`
/// ALU ops and `loads_per_item` private loads per iteration.
pub fn parallel_loop(
    cfg: &MachineConfig,
    items: usize,
    alu_per_item: u32,
    loads_per_item: usize,
) -> RunStats {
    let cursor = DATA_BASE;
    let data = DATA_BASE + (1 << 20);
    let streams = cfg.total_streams();
    // Chunk so each stream gets a handful of claims without turning the
    // trip counter into a hotspot.
    let chunk = (items / (streams * 4)).clamp(1, 256) as u64;
    let mut m = Machine::new(*cfg);
    m.spawn_n(streams, |_| {
        // Phases: 0 claim chunk; 1 received chunk start; >=2 per-item work.
        let mut phase = 0usize;
        let mut hi = 0u64;
        let mut item = 0u64;
        Box::new(FnTasklet(move |last| loop {
            match phase {
                0 => {
                    phase = 1;
                    return Some(Op::FetchAdd(cursor, chunk as i64));
                }
                1 => {
                    #[expect(clippy::unwrap_used, reason = "phase 0's fetch-add has delivered")]
                    let lo = last.unwrap();
                    if lo >= items as u64 {
                        return None;
                    }
                    hi = (lo + chunk).min(items as u64);
                    item = lo;
                    phase = 2;
                    if alu_per_item > 0 {
                        return Some(Op::Alu(alu_per_item));
                    }
                }
                p => {
                    let load_idx = p - 2;
                    if load_idx < loads_per_item {
                        phase += 1;
                        return Some(Op::Load(
                            data + (item * loads_per_item as u64 + load_idx as u64) * 8,
                        ));
                    }
                    item += 1;
                    if item < hi {
                        phase = 2;
                        if alu_per_item > 0 {
                            return Some(Op::Alu(alu_per_item));
                        }
                    } else {
                        phase = 0;
                    }
                }
            }
        }))
    });
    m.run(cycle_budget(
        items * (alu_per_item as usize + loads_per_item + 1) * 4 + streams * 64,
        cfg,
    ))
}

/// A generous cycle budget so kernels cannot spin forever on a bug.
fn cycle_budget(work_units: usize, cfg: &MachineConfig) -> u64 {
    let per_unit = cfg.mem_latency.max(4) * 8;
    (work_units as u64 + 1) * per_unit + 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig {
            processors: 4,
            streams_per_proc: 16,
            mem_latency: 20,
            hotspot_interval: 4,
            fe_retry_interval: 8,
            clock_hz: 500.0e6,
        }
    }

    #[test]
    fn saturation_increases_with_streams() {
        let c = cfg();
        let s1 = stream_saturation(&c, 1, 200);
        let s8 = stream_saturation(&c, 8, 200);
        let s32 = stream_saturation(&c, 32, 200);
        assert!(s8.ipc() > 4.0 * s1.ipc());
        assert!(s32.ipc() > s8.ipc());
        assert!(s32.ipc() <= 1.0 + 1e-9, "one processor cannot exceed 1 IPC");
    }

    #[test]
    fn saturated_processor_approaches_one_ipc() {
        let c = cfg();
        // 2x the latency in streams: comfortably saturated.
        let s = stream_saturation(&c, 40, 300);
        assert!(s.ipc() > 0.9, "ipc={}", s.ipc());
    }

    #[test]
    fn pointer_chase_exposes_latency() {
        let c = cfg();
        let len = 500;
        let s = pointer_chase(&c, len);
        assert!(!s.hit_cycle_limit);
        let per_load = s.cycles as f64 / len as f64;
        // Dependent loads: ≈ latency + 1 issue cycle each.
        assert!(
            (per_load - (c.mem_latency as f64 + 1.0)).abs() < 2.0,
            "per_load={per_load}"
        );
    }

    #[test]
    fn hotspot_time_tracks_total_ops_not_processors() {
        let ops = 40;
        let c1 = MachineConfig {
            processors: 2,
            ..cfg()
        };
        let c2 = MachineConfig {
            processors: 4,
            ..cfg()
        };
        let s1 = hotspot_fetch_add(&c1, c1.total_streams(), ops, 1);
        let s2 = hotspot_fetch_add(&c2, c2.total_streams(), ops, 1);
        // Twice the processors, twice the streams, twice the total ops to
        // the same word: elapsed time should roughly double, not halve.
        let ratio = s2.cycles as f64 / s1.cycles as f64;
        assert!(ratio > 1.5, "hotspot must not scale: ratio={ratio}");
    }

    #[test]
    fn widening_the_hotspot_restores_scaling() {
        let c = cfg();
        let narrow = hotspot_fetch_add(&c, c.total_streams(), 30, 1);
        let wide = hotspot_fetch_add(&c, c.total_streams(), 30, 64);
        assert!(
            wide.cycles * 3 < narrow.cycles,
            "wide={} narrow={}",
            wide.cycles,
            narrow.cycles
        );
    }

    #[test]
    fn barrier_completes_and_costs_more_with_more_streams() {
        let small = MachineConfig {
            processors: 1,
            ..cfg()
        };
        let big = MachineConfig {
            processors: 4,
            ..cfg()
        };
        let s_small = barrier_cost(&small);
        let s_big = barrier_cost(&big);
        assert!(!s_small.hit_cycle_limit);
        assert!(!s_big.hit_cycle_limit);
        assert!(s_big.cycles > s_small.cycles);
    }

    #[test]
    fn parallel_loop_scales_with_processors() {
        let c2 = MachineConfig {
            processors: 2,
            ..cfg()
        };
        let c8 = MachineConfig {
            processors: 8,
            ..cfg()
        };
        let items = 4000;
        let s2 = parallel_loop(&c2, items, 2, 2);
        let s8 = parallel_loop(&c8, items, 2, 2);
        assert!(!s2.hit_cycle_limit && !s8.hit_cycle_limit);
        let speedup = s2.cycles as f64 / s8.cycles as f64;
        assert!(speedup > 2.5, "speedup={speedup}");
    }

    #[test]
    fn parallel_loop_with_tiny_trip_count_does_not_scale() {
        let c2 = MachineConfig {
            processors: 2,
            ..cfg()
        };
        let c8 = MachineConfig {
            processors: 8,
            ..cfg()
        };
        // Fewer items than streams: no parallelism to expose.
        let s2 = parallel_loop(&c2, 8, 2, 2);
        let s8 = parallel_loop(&c8, 8, 2, 2);
        let speedup = s2.cycles as f64 / s8.cycles as f64;
        assert!(speedup < 1.6, "flat scaling expected: {speedup}");
    }
}
