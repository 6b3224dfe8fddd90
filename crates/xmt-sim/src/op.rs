//! Tasklet programs and their instruction set.

/// One simulated instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `count` back-to-back single-cycle ALU instructions.
    Alu(u32),
    /// Load the word at `addr`; its value is passed to the next
    /// [`Tasklet::next`] call.
    Load(u64),
    /// Store `value` to `addr`.
    Store(u64, u64),
    /// Atomic `int_fetch_add(addr, delta)`; the *previous* value is passed
    /// to the next [`Tasklet::next`] call.
    FetchAdd(u64, i64),
    /// `readfe`: wait until `addr` is full, read it (value passed on),
    /// leave it empty.
    ReadFE(u64),
    /// `writeef`: wait until `addr` is empty, write `value`, leave full.
    WriteEF(u64, u64),
}

/// A small program executed by one hardware stream.
///
/// The machine calls [`next`](Tasklet::next) when the stream is ready to
/// issue; `last_result` carries the value produced by the previous
/// `Load`/`FetchAdd`/`ReadFE` (or `None` at the start and after
/// result-less ops).  Returning `None` finishes the tasklet; the stream
/// then pulls the next tasklet from the machine's work queue.
pub trait Tasklet: Send {
    /// Produce the next instruction, or `None` when done.
    fn next(&mut self, last_result: Option<u64>) -> Option<Op>;
}

/// A tasklet from a fixed list of ops (ignores results).
pub struct OpList {
    ops: std::vec::IntoIter<Op>,
}

impl OpList {
    /// Wrap a fixed op sequence.
    pub fn new(ops: Vec<Op>) -> Self {
        OpList {
            ops: ops.into_iter(),
        }
    }
}

impl Tasklet for OpList {
    fn next(&mut self, _last: Option<u64>) -> Option<Op> {
        self.ops.next()
    }
}

/// A tasklet produced by a closure-based state machine.
pub struct FnTasklet<F: FnMut(Option<u64>) -> Option<Op> + Send>(pub F);

impl<F: FnMut(Option<u64>) -> Option<Op> + Send> Tasklet for FnTasklet<F> {
    fn next(&mut self, last: Option<u64>) -> Option<Op> {
        (self.0)(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oplist_drains_in_order() {
        let mut t = OpList::new(vec![Op::Alu(1), Op::Load(8)]);
        assert_eq!(t.next(None), Some(Op::Alu(1)));
        assert_eq!(t.next(None), Some(Op::Load(8)));
        assert_eq!(t.next(Some(5)), None);
    }

    #[test]
    fn fn_tasklet_sees_results() {
        let mut calls = 0;
        let mut t = FnTasklet(move |last| {
            calls += 1;
            match calls {
                1 => Some(Op::Load(16)),
                2 => {
                    assert_eq!(last, Some(99));
                    None
                }
                _ => unreachable!(),
            }
        });
        assert_eq!(t.next(None), Some(Op::Load(16)));
        assert_eq!(t.next(Some(99)), None);
    }
}
