//! The cycle-stepped machine simulator.
//!
//! Each cycle, every processor issues at most one instruction from its
//! round-robin queue of ready streams.  Streams blocked on memory sit in
//! a wake calendar; when no stream in the whole machine is ready the
//! clock jumps to the next wake time, so idle periods cost nothing to
//! simulate.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::memory::{MemOutcome, Memory};
use crate::op::{Op, Tasklet};
use crate::{MachineConfig, RunStats};

/// Per-stream execution state.
struct Stream {
    tasklet: Option<Box<dyn Tasklet>>,
    /// Result of the last completed memory op, fed to the tasklet.
    last_result: Option<u64>,
    /// Remaining single-cycle ALU instructions of the current `Alu(k)`.
    alu_remaining: u32,
    /// A full/empty op waiting for the right tag state.
    retry_op: Option<Op>,
}

impl Stream {
    fn idle() -> Self {
        Stream {
            tasklet: None,
            last_result: None,
            alu_remaining: 0,
            retry_op: None,
        }
    }
}

/// The simulated machine: configuration, memory, streams and work queue.
pub struct Machine {
    config: MachineConfig,
    memory: Memory,
    work: VecDeque<Box<dyn Tasklet>>,
    completed: u64,
}

impl Machine {
    /// A machine with fresh (zeroed, all-full) memory and no work.
    pub fn new(config: MachineConfig) -> Self {
        Machine {
            memory: Memory::new(config.mem_latency, config.hotspot_interval),
            config,
            work: VecDeque::new(),
            completed: 0,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Mutable access to memory for pre-loading program data.
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// Read-only access to memory for checking results.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Queue a tasklet. Tasklets are assigned to hardware streams in FIFO
    /// order; excess tasklets wait for a stream to free up (the XMT
    /// runtime multiplexes virtual threads onto streams the same way).
    pub fn spawn(&mut self, t: Box<dyn Tasklet>) {
        self.work.push_back(t);
    }

    /// Spawn `n` tasklets produced by `f(i)`.
    pub fn spawn_n<F>(&mut self, n: usize, f: F)
    where
        F: Fn(usize) -> Box<dyn Tasklet>,
    {
        for i in 0..n {
            self.spawn(f(i));
        }
    }

    /// Run until all tasklets finish or `max_cycles` elapses.
    pub fn run(&mut self, max_cycles: u64) -> RunStats {
        let nproc = self.config.processors;
        let sper = self.config.streams_per_proc;
        let nstreams = nproc * sper;

        let mut streams: Vec<Stream> = (0..nstreams).map(|_| Stream::idle()).collect();
        // Ready queue per processor (stream indices).
        let mut ready: Vec<VecDeque<usize>> = vec![VecDeque::new(); nproc];
        // (wake_cycle, stream_idx); Reverse for a min-heap.
        let mut calendar: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();

        // Seed: hand tasklets to streams round-robin across processors so
        // work spreads over the whole machine first.
        #[expect(clippy::needless_range_loop, reason = "the index is the slot id")]
        'seed: for s_slot in 0..sper {
            for p in 0..nproc {
                if self.work.is_empty() {
                    break 'seed;
                }
                let sid = p * sper + s_slot;
                streams[sid].tasklet = self.work.pop_front();
                ready[p].push_back(sid);
            }
        }

        let mut stats = RunStats {
            per_proc_instructions: vec![0; nproc],
            ..Default::default()
        };
        let mut cycle: u64 = 0;
        let mut live: usize = ready.iter().map(|q| q.len()).sum();

        while live > 0 || !calendar.is_empty() {
            if cycle >= max_cycles {
                stats.hit_cycle_limit = true;
                break;
            }
            // Wake streams scheduled for this cycle (or earlier).
            while let Some(&Reverse((t, sid))) = calendar.peek() {
                if t > cycle {
                    break;
                }
                calendar.pop();
                let p = sid / sper;
                if let Some(op) = streams[sid].retry_op.take() {
                    // Hardware full/empty retry: goes straight to memory,
                    // not through the processor issue slot.
                    match self.attempt_memory(op, cycle) {
                        MemOutcome::Done { at, value } => {
                            streams[sid].last_result = value;
                            calendar.push(Reverse((at, sid)));
                        }
                        MemOutcome::TagBlocked => {
                            streams[sid].retry_op = Some(op);
                            calendar.push(Reverse((cycle + self.config.fe_retry_interval, sid)));
                        }
                    }
                } else {
                    ready[p].push_back(sid);
                    live += 1;
                }
            }

            // Fast-forward through fully idle periods.
            if live == 0 {
                if let Some(&Reverse((t, _))) = calendar.peek() {
                    cycle = t;
                    continue;
                } else {
                    break;
                }
            }

            // One issue slot per processor.
            for p in 0..nproc {
                let Some(sid) = ready[p].pop_front() else {
                    continue;
                };
                live -= 1;
                self.issue(
                    sid,
                    p,
                    cycle,
                    &mut streams,
                    &mut ready,
                    &mut calendar,
                    &mut stats,
                    &mut live,
                );
            }
            cycle += 1;
        }

        stats.cycles = cycle;
        stats.memory_ops = self.memory.ops_serviced;
        stats.tag_retries = self.memory.tag_retries;
        stats.tasklets_completed = self.completed;
        stats
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the scheduler loop's locals, borrowed apart"
    )]
    fn issue(
        &mut self,
        sid: usize,
        p: usize,
        cycle: u64,
        streams: &mut [Stream],
        ready: &mut [VecDeque<usize>],
        calendar: &mut BinaryHeap<Reverse<(u64, usize)>>,
        stats: &mut RunStats,
        live: &mut usize,
    ) {
        let st = &mut streams[sid];

        // Continue a multi-cycle ALU burst.
        if st.alu_remaining > 0 {
            st.alu_remaining -= 1;
            stats.instructions += 1;
            stats.per_proc_instructions[p] += 1;
            if st.alu_remaining > 0 {
                ready[p].push_back(sid);
                *live += 1;
            } else {
                calendar.push(Reverse((cycle + 1, sid)));
            }
            return;
        }

        // Fetch the next op from the tasklet.
        let mut last = st.last_result.take();
        let op = loop {
            let Some(t) = st.tasklet.as_mut() else {
                return; // stream has no work; stays idle
            };
            match t.next(last) {
                Some(op) => break op,
                None => {
                    self.completed += 1;
                    st.tasklet = self.work.pop_front();
                    if st.tasklet.is_none() {
                        return; // stream retires
                    }
                    // A fresh tasklet starts with no pending result.
                    last = None;
                    continue;
                }
            }
        };

        stats.instructions += 1;
        stats.per_proc_instructions[p] += 1;
        match op {
            Op::Alu(k) => {
                debug_assert!(k >= 1, "Alu(0) is not a valid instruction");
                if k > 1 {
                    st.alu_remaining = k - 1;
                    ready[p].push_back(sid);
                    *live += 1;
                } else {
                    // Single-cycle op: stream is ready again next cycle.
                    calendar.push(Reverse((cycle + 1, sid)));
                }
            }
            mem_op => match self.attempt_memory(mem_op, cycle) {
                MemOutcome::Done { at, value } => {
                    streams[sid].last_result = value;
                    calendar.push(Reverse((at, sid)));
                }
                MemOutcome::TagBlocked => {
                    streams[sid].retry_op = Some(mem_op);
                    calendar.push(Reverse((cycle + self.config.fe_retry_interval, sid)));
                }
            },
        }
    }

    fn attempt_memory(&mut self, op: Op, cycle: u64) -> MemOutcome {
        match op {
            Op::Load(a) => self.memory.load(a, cycle),
            Op::Store(a, v) => self.memory.store(a, v, cycle),
            Op::FetchAdd(a, d) => self.memory.fetch_add(a, d, cycle),
            Op::ReadFE(a) => self.memory.read_fe(a, cycle),
            Op::WriteEF(a, v) => self.memory.write_ef(a, v, cycle),
            #[expect(
                clippy::unreachable,
                reason = "issue() routes Alu ops to the scoreboard"
            )]
            Op::Alu(_) => unreachable!("ALU ops never reach memory"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{FnTasklet, OpList};

    fn tiny() -> Machine {
        Machine::new(MachineConfig::tiny())
    }

    #[test]
    fn empty_machine_finishes_immediately() {
        let mut m = tiny();
        let s = m.run(1000);
        assert_eq!(s.cycles, 0);
        assert_eq!(s.instructions, 0);
        assert!(!s.hit_cycle_limit);
    }

    #[test]
    fn single_alu_tasklet_runs_in_k_cycles() {
        let mut m = tiny();
        m.spawn(Box::new(OpList::new(vec![Op::Alu(10)])));
        let s = m.run(1000);
        assert_eq!(s.instructions, 10);
        assert_eq!(s.tasklets_completed, 1);
        // 10 issue cycles plus the final bookkeeping cycle.
        assert!(s.cycles >= 10 && s.cycles <= 12, "cycles={}", s.cycles);
    }

    #[test]
    fn store_then_load_roundtrips_through_memory() {
        let mut m = tiny();
        m.spawn(Box::new(OpList::new(vec![Op::Store(64, 99)])));
        let s = m.run(10_000);
        assert!(!s.hit_cycle_limit);
        assert_eq!(m.memory().peek(64), 99);
    }

    #[test]
    fn fetch_add_result_flows_back_to_tasklet() {
        let mut m = tiny();
        m.memory_mut().poke(8, 41);
        let mut step = 0;
        m.spawn(Box::new(FnTasklet(move |last| {
            step += 1;
            match step {
                1 => Some(Op::FetchAdd(8, 1)),
                2 => {
                    assert_eq!(last, Some(41));
                    Some(Op::Store(16, last.unwrap()))
                }
                _ => None,
            }
        })));
        let s = m.run(10_000);
        assert!(!s.hit_cycle_limit);
        assert_eq!(m.memory().peek(8), 42);
        assert_eq!(m.memory().peek(16), 41);
    }

    #[test]
    fn contended_fetch_add_is_exact() {
        let mut m = tiny();
        let n = 50;
        m.spawn_n(n, |_| Box::new(OpList::new(vec![Op::FetchAdd(0, 1); 4])));
        let s = m.run(1_000_000);
        assert!(!s.hit_cycle_limit);
        assert_eq!(m.memory().peek(0), (n * 4) as u64);
        assert_eq!(s.tasklets_completed, n as u64);
    }

    #[test]
    fn more_tasklets_than_streams_all_complete() {
        let mut m = tiny(); // 2 procs x 8 streams = 16
        m.spawn_n(100, |i| {
            Box::new(OpList::new(vec![Op::Store(1000 + i as u64 * 8, i as u64)]))
        });
        let s = m.run(1_000_000);
        assert!(!s.hit_cycle_limit);
        assert_eq!(s.tasklets_completed, 100);
        for i in 0..100u64 {
            assert_eq!(m.memory().peek(1000 + i * 8), i);
        }
    }

    #[test]
    fn full_empty_producer_consumer() {
        let mut m = tiny();
        // Word 8 starts FULL (XMT convention); consumer drains it first,
        // then producer/consumer alternate writeef/readfe.
        m.memory_mut().poke(8, 7);
        // Consumer: readfe twice, storing results.
        let mut step = 0;
        m.spawn(Box::new(FnTasklet(move |last| {
            step += 1;
            match step {
                1 => Some(Op::ReadFE(8)),
                2 => Some(Op::Store(100, last.unwrap())),
                3 => Some(Op::ReadFE(8)),
                4 => Some(Op::Store(108, last.unwrap())),
                _ => None,
            }
        })));
        // Producer: writeef once (only succeeds after the first readfe).
        m.spawn(Box::new(OpList::new(vec![Op::WriteEF(8, 55)])));
        let s = m.run(1_000_000);
        assert!(!s.hit_cycle_limit);
        assert_eq!(m.memory().peek(100), 7);
        assert_eq!(m.memory().peek(108), 55);
        assert!(s.tag_retries > 0 || s.cycles > 0);
    }

    #[test]
    fn deadlock_hits_cycle_limit() {
        let mut m = tiny();
        m.memory_mut().set_tag(8, crate::memory::Tag::Empty);
        // readfe on an empty word nobody fills: hardware retries forever.
        m.spawn(Box::new(OpList::new(vec![Op::ReadFE(8)])));
        let s = m.run(5_000);
        assert!(s.hit_cycle_limit);
    }

    #[test]
    fn one_processor_issues_at_most_one_instruction_per_cycle() {
        let mut m = Machine::new(MachineConfig {
            processors: 1,
            streams_per_proc: 8,
            ..MachineConfig::tiny()
        });
        // 8 streams x 100 pure-ALU instructions: must take >= 800 cycles.
        m.spawn_n(8, |_| Box::new(OpList::new(vec![Op::Alu(100)])));
        let s = m.run(100_000);
        assert!(!s.hit_cycle_limit);
        assert_eq!(s.instructions, 800);
        assert!(s.cycles >= 800, "cycles={}", s.cycles);
        assert!(s.ipc() <= 1.0 + 1e-9);
    }

    #[test]
    fn per_processor_issue_counts_are_tracked_and_balanced() {
        let mut m = Machine::new(MachineConfig {
            processors: 4,
            streams_per_proc: 8,
            ..MachineConfig::tiny()
        });
        // 32 identical tasklets spread round-robin over 4 processors.
        m.spawn_n(32, |i| {
            Box::new(OpList::new(vec![Op::Load(DATA(i)), Op::Alu(10)]))
        });
        #[allow(non_snake_case)]
        fn DATA(i: usize) -> u64 {
            1 << 20 | (i as u64 * 8)
        }
        let s = m.run(1_000_000);
        assert_eq!(s.per_proc_instructions.len(), 4);
        assert_eq!(s.per_proc_instructions.iter().sum::<u64>(), s.instructions);
        assert!(
            s.imbalance() < 1.2,
            "uniform work should balance: {:?}",
            s.per_proc_instructions
        );
    }

    #[test]
    fn multithreading_hides_memory_latency() {
        // One stream doing dependent loads is latency-bound; many streams
        // doing independent loads approach 1 IPC.
        let cfg = MachineConfig {
            processors: 1,
            streams_per_proc: 64,
            mem_latency: 20,
            ..MachineConfig::tiny()
        };
        let loads_each = 50;

        let mut single = Machine::new(cfg);
        single.spawn(Box::new(OpList::new(vec![Op::Load(8); loads_each])));
        let s1 = single.run(1_000_000);

        let mut many = Machine::new(cfg);
        many.spawn_n(64, |i| {
            Box::new(OpList::new(vec![Op::Load(1000 + i as u64 * 8); loads_each]))
        });
        let s64 = many.run(1_000_000);

        let rate1 = s1.ipc();
        let rate64 = s64.ipc();
        assert!(
            rate64 > rate1 * 10.0,
            "expected large speedup: {rate1} vs {rate64}"
        );
    }
}
